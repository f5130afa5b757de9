"""Spans and counters recorded from the benchmark's own files.

The program is not instrumented. `Tracer.install` replaces a public
function of a snsim module by a wrapper at every name a snsim module
binds it to (so `snsim.cli.young_basis` and `snsim.verify.young_basis`
are wrapped along with `snsim.quditsim.young_basis`), and `uninstall`
puts the originals back. A span wrapper records (name, start, end,
parent, op) in memory; a count wrapper, used for functions called
millions of times per op, only counts calls, which keeps the traced run
close to the untraced one. Hooks turn a call's arguments and result
into per-layer counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op index]
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _span(self, name, fn, hook, pre):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre is not None else None
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            counts[calls] += 1
            if hook is not None:
                hook(counts, sig.bind(*args, **kwargs).arguments, result, state)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, module, attr: str, name: str, mode: str = "span",
                hook=None, pre=None) -> None:
        """Wrap module.attr wherever snsim binds it.

        A span wrapper calls pre(args, kwargs) before the call and then
        hook(counts, arguments by parameter name, result, pre's value).
        """
        original = getattr(module, attr)
        if mode == "count":
            wrapper = self._count(name, original)
        else:
            wrapper = self._span(name, original, hook, pre)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "snsim" or modname.startswith("snsim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def busy(self) -> dict[str, float]:
        """Total span time per name (no traced function re-enters itself)."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def self_time(self) -> dict[str, float]:
        """Span time minus the time of its direct child spans, per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [dict(zip(keys, span)) for span in self.spans],
                "counts": dict(self.counts),
            }, fh)
