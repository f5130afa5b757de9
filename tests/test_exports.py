"""Every public name a module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import snsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(snsim.__path__, "snsim."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
