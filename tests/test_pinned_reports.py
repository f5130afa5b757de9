"""Gate reports and `snsim bench` counts pinned to recorded values.

The values were recorded from the code before the LCU schedule and its
gate accounting were consolidated into one plan record; any change to
M, K, the SWAP word charges or the closed forms shows up here. Integer
fields must match exactly, the closed-form floats to 1e-12 relative.
"""

import contextlib
import dataclasses
import io
import json

import pytest

from snsim.cli import main
from snsim.group_algebra import algebra_element
from snsim.lcu import GateReport, matrix_element
from snsim.pauli_expand import matrix_element_pauli
from snsim.permutation import identity, parse_permutation
from snsim.quditsim import basis_state


def pinned_elements():
    def p(text, n):
        return parse_permutation(text, n=n)

    chain = algebra_element(4, {p("(1 2)", 4): 0.35, p("(2 3)", 4): 0.25, p("(3 4)", 4): 0.5})
    three = algebra_element(5, {
        identity(5): 0.15,
        p("(1 2)", 5): 0.4,
        p("(1 2 3)", 5): 0.3,
        p("(1 3 2)", 5): 0.3,
        p("(2 4)", 5): 0.2,
        p("(3 5)", 5): -0.45,
    })
    return {"chain": chain, "three": three}


# (element, t, eps) -> GateReport fields (actual, bound_k2mk, closed_form,
# M, K, k_span, k_locality, w_max) of the swap route, then of the Pauli route
PINNED = {
    ("chain", 0.8, 1e-3): ((42, 56, 215.51261720106217, 2, 7, 2, 2, 1),
                           (63, 63, 53.87815430026554, 3, 7, 2, 2, 2)),
    ("chain", 0.8, 1e-6): ((54, 72, 299.7649752861741, 2, 9, 2, 2, 1),
                           (90, 90, 74.94124382154352, 3, 10, 2, 2, 2)),
    ("chain", 2.5, 1e-3): ((84, 112, 718.2526416781354, 4, 7, 2, 2, 1),
                           (168, 168, 179.56316041953386, 8, 7, 2, 2, 2)),
    ("chain", 2.5, 1e-6): ((120, 160, 978.4278263235359, 4, 10, 2, 2, 1),
                           (240, 240, 244.60695658088397, 8, 10, 2, 2, 2)),
    ("three", 0.8, 1e-3): ((189, 189, 5812.738184814181, 3, 7, 3, 3, 3),
                           (84, 84, 873.6050082522283, 4, 7, 3, 3, 2)),
    ("three", 0.8, 1e-6): ((270, 270, 7764.024758070139, 3, 10, 3, 3, 3),
                           (120, 120, 1161.8534089415173, 4, 10, 3, 3, 2)),
    ("three", 2.5, 1e-3): ((441, 441, 19200.85721165536, 7, 7, 3, 3, 3),
                           (252, 252, 2883.0240793518215, 12, 7, 3, 3, 2)),
    ("three", 2.5, 1e-6): ((630, 630, 25230.467805694094, 7, 10, 3, 3, 3),
                           (360, 360, 3773.8317542062146, 12, 10, 3, 3, 2)),
}


def assert_report(report, fields, unit):
    expect = GateReport(*fields, unit=unit)
    assert report.closed_form == pytest.approx(expect.closed_form, rel=1e-12)
    assert dataclasses.replace(report, closed_form=0.0) == dataclasses.replace(expect,
                                                                             closed_form=0.0)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_gate_reports_pinned(key):
    name, t, eps = key
    f = pinned_elements()[name]
    swap_fields, pauli_fields = PINNED[key]
    for d in (2, 3):
        a = basis_state(d, f.n, 1)
        assert_report(matrix_element(a, a, f, t, eps)[1], swap_fields, "swap")
    a = basis_state(2, f.n, 1)
    assert_report(matrix_element_pauli(a, a, f, t, eps)[1], pauli_fields, "pauli")


def test_gate_reports_at_time_zero_pinned():
    for f in pinned_elements().values():
        k = f.locality
        for d in (2, 3):
            a = basis_state(d, f.n, 1)
            assert_report(matrix_element(a, a, f, 0.0, 1e-3)[1], (0, 0, 0.0, 0, 0, k, k, 0),
                          "swap")
        a = basis_state(2, f.n, 1)
        assert_report(matrix_element_pauli(a, a, f, 0.0, 1e-3)[1], (0, 0, 0.0, 0, 0, k, k, 0),
                      "pauli")


def test_bench_counts_pinned():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bench", "--n-range", "4:6", "--format", "json"]) == 0
    rows = json.loads(out.getvalue())["rows"]
    assert [(r["n"], r["classical_fft_ops"], r["lcu_swap_gates"]) for r in rows] == [
        (4, 480, 84), (5, 4800, 84), (6, 50400, 84)]
    assert [r["closed_form_estimate"] for r in rows] == pytest.approx(
        [2791.394753434129, 5643.253179834139, 10019.857860556995], rel=1e-12)
