"""CLI contract: exit codes, JSON shape, determinism."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from snsim import cli, group_algebra, yor
from snsim.cli import _json_text, main
from snsim.group_algebra import algebra_element, element_to_json_dict
from snsim.permutation import transposition


@pytest.fixture()
def f_path(tmp_path):
    # transposition chain: couples every pair of standard tableaux
    f = algebra_element(
        4,
        {
            transposition(4, 1, 2): 0.35,
            transposition(4, 2, 3): 0.25,
            transposition(4, 3, 4): 0.5,
        },
    )
    path = tmp_path / "f.json"
    path.write_text(json.dumps(element_to_json_dict(f)))
    return str(path)


@pytest.fixture()
def g_path(tmp_path):
    g = algebra_element(4, {transposition(4, 3, 4): 0.5})
    path = tmp_path / "g.json"
    path.write_text(json.dumps(element_to_json_dict(g)))
    return str(path)


def run_to_file(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_text()


def test_dims(tmp_path):
    code, text = run_to_file(tmp_path, ["dims", "--n", "6", "--d", "2"])
    assert code == 0
    doc = json.loads(text)
    assert doc["schema_version"] == "1"
    assert doc["total"] == 2**6 == doc["d_pow_n"]
    assert doc["consistent"] is True
    shapes = {row["shape"]: row for row in doc["rows"]}
    assert shapes["3+3"]["dim_sn"] == 5
    assert shapes["3+3"]["dim_sud"] == 1
    assert shapes["4+2"]["dim_sud"] == 3
    assert shapes["4+2"]["product"] == 27


@pytest.mark.parametrize("n,d", [("-2", "2"), ("0", "2"), ("4", "-1"), ("4", "0")])
def test_dims_below_one_is_usage_error(n, d, capsys):
    assert main(["dims", "--n", n, "--d", d]) == 2
    assert capsys.readouterr().out == ""


def test_irrep(tmp_path):
    code, text = run_to_file(tmp_path, ["irrep", "--lambda", "2+1", "--perm", "(1 2)"])
    assert code == 0
    doc = json.loads(text)
    assert doc["matrix"] == [[1, 0], [0, -1]]
    assert doc["dim"] == 2


def test_fft_sparse_and_dense_agree(tmp_path, f_path):
    code, text = run_to_file(tmp_path, ["fft", "--f", f_path])
    assert code == 0
    doc = json.loads(text)
    assert doc["max_abs_diff"] <= 1e-9
    assert doc["fft_ops"] == 480  # 4! * (2 + 3*2 + 4*3), support-independent
    assert doc["naive_ops"] > 0  # support-dependent: sparse input beats the fft here
    table = [0.0] * 6
    table[0] = 1.0
    dense = tmp_path / "table.json"
    dense.write_text(json.dumps(table))
    code2, text2 = run_to_file(tmp_path, ["fft", "--table", str(dense), "--n", "3"], "out2.json")
    assert code2 == 0
    doc2 = json.loads(text2)
    # the delta at the identity transforms to identity matrices
    assert set(doc2["blocks"]) == {"3", "2+1", "1+1+1"}
    for mat in doc2["blocks"].values():
        for a, row in enumerate(mat):
            for b, (re, im) in enumerate(row):
                assert abs(re - (1.0 if a == b else 0.0)) <= 1e-12
                assert abs(im) <= 1e-12


def test_fft_requires_exactly_one_input(tmp_path, f_path):
    assert main(["fft"]) == 2
    assert main(["fft", "--f", f_path, "--table", f_path, "--n", "4"]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["fft", "--f", missing]) == 2


def test_convolve_round_trip(tmp_path, f_path, g_path):
    code, text = run_to_file(tmp_path, ["convolve", "--f", f_path, "--g", g_path])
    assert code == 0
    doc = json.loads(text)
    assert doc["n"] == 4
    assert len(doc["terms"]) == 3  # disjoint support: products stay distinct


def test_young_basis_export(tmp_path):
    code, text = run_to_file(tmp_path, ["young-basis", "--n", "3", "--d", "2"])
    assert code == 0
    doc = json.loads(text)
    assert len(doc["vectors"]) == 8
    keys = [(v["shape"], v["tableau_index"], v["weight_index"]) for v in doc["vectors"]]
    assert len(set(keys)) == 8
    assert all(len(v["amplitudes"]) == 8 for v in doc["vectors"])


def test_matelem_three_methods_agree(tmp_path, f_path):
    values = {}
    for method in ("exact", "lcu-swap", "lcu-pauli"):
        code, text = run_to_file(
            tmp_path,
            [
                "matelem", "--f", f_path, "--u", "3+1:0:0", "--v", "3+1:1:0",
                "--t", "1.0", "--eps", "1e-4", "--method", method,
            ],
            f"{method}.json",
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["method"] == method
        values[method] = complex(doc["value_re"], doc["value_im"])
        if method != "exact":
            assert doc["abs_err"] <= 1e-4
            assert doc["M"] >= 1 and doc["K"] >= 1
    assert abs(values["lcu-swap"] - values["exact"]) <= 1e-4
    assert abs(values["lcu-pauli"] - values["exact"]) <= 1e-4
    assert abs(values["exact"]) > 1e-3  # the pair was chosen to be visibly coupled


def test_matelem_parenthesized_label(tmp_path, f_path):
    code, text = run_to_file(
        tmp_path,
        ["matelem", "--f", f_path, "--u", "(3+1,0,0)", "--v", "(3+1,0,0)",
         "--t", "0.5", "--method", "exact"],
    )
    assert code == 0
    assert json.loads(text)["method"] == "exact"


def test_matelem_bad_label_is_usage_error(f_path, capsys):
    assert main(["matelem", "--f", f_path, "--u", "junk", "--v", "3+1:0:0", "--t", "1.0"]) == 2
    assert main(["matelem", "--f", f_path, "--u", "9+1:0:0", "--v", "3+1:0:0", "--t", "1.0"]) == 2
    capsys.readouterr()
    # out of range at n=4, d=2: a negative index is refused, not wrapped
    for label, key in [("3+1:-1:0", "('3+1', -1, 0)"), ("3+1:3:0", "('3+1', 3, 0)"),
                       ("3+1:0:9", "('3+1', 0, 9)"), ("2+1+1:0:0", "('2+1+1', 0, 0)")]:
        for argv in (["--u", label, "--v", "3+1:0:0"], ["--u", "3+1:0:0", "--v", label]):
            for method in ("exact", "lcu-swap"):
                assert main(["matelem", "--f", f_path, "--t", "1.0", "--method", method]
                            + argv) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == f"error: no Young basis vector {key} for n=4, d=2\n"


@pytest.mark.parametrize("argv", [
    ["young-basis", "--n", "0", "--d", "2"],
    ["young-basis", "--n", "-1", "--d", "2"],
    ["young-basis", "--n", "3", "--d", "0"],
    ["young-basis", "--n", "3", "--d", "-2"],
    ["matelem", "--u", "3+1:0:0", "--v", "3+1:1:0", "--t", "1", "--d", "-1"],
    ["matelem", "--u", "3+1:0:0", "--v", "3+1:1:0", "--t", "1", "--d", "1", "--method", "exact"],
])
def test_register_below_two_levels_or_one_qudit_is_usage_error(argv, f_path, capsys):
    if argv[0] == "matelem":
        argv = argv + ["--f", f_path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need d >= 2, n >= 1: ")


def counting(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.fixture()
def matelem_calls(monkeypatch):
    """Names of the basis builders and dense-oracle pieces that matelem calls."""
    from snsim import cli, group_algebra, quditsim

    calls = []
    for module, name in [(quditsim, "young_basis"), (cli, "young_basis"),
                         (quditsim, "young_vectors"),
                         (cli, "young_vectors"),
                         (quditsim, "exact_matrix_element"),
                         (group_algebra, "pi_tilde_dense")]:
        counting(monkeypatch, calls, module, name)
    return calls


def test_matelem_exact_builds_no_statevector(f_path, matelem_calls, capsys):
    for pair in (["3+1:0:0", "3+1:1:0"], ["3+1:0:0", "2+2:0:0"], ["3+1:0:0", "3+1:0:1"]):
        argv = ["matelem", "--f", f_path, "--u", pair[0], "--v", pair[1], "--t", "1.0",
                "--method", "exact"]
        assert main(argv) == 0
    assert matelem_calls == []
    # across shapes or weight copies the element is exactly zero
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["value_re"], r["value_im"]) for r in records[1:]] == [(0, 0), (0, 0)]


@pytest.mark.parametrize("method", ["lcu-swap", "lcu-pauli"])
def test_matelem_lcu_builds_only_the_labelled_vectors(method, tmp_path, f_path, matelem_calls,
                                                      monkeypatch):
    from snsim import quditsim

    built = []
    counting(monkeypatch, built, quditsim, "_member")
    base = ["matelem", "--f", f_path, "--t", "1.0", "--eps", "1e-3", "--method", method]
    assert run_to_file(tmp_path, base + ["--u", "3+1:0:0", "--v", "3+1:1:0"])[0] == 0
    # one call builds both labelled vectors, and no other member
    assert matelem_calls == ["young_vectors"]
    assert built == ["_member"] * 2
    matelem_calls.clear()
    built.clear()
    assert run_to_file(tmp_path, base + ["--u", "3+1:1:0", "--v", "(3+1, 1, 0)"])[0] == 0
    assert matelem_calls == ["young_vectors"]
    assert built == ["_member"]


# value_*, M, K, swap_count and closed_form_estimate of the README chain
# pair, as printed before the oracle moved to the irrep block; lcu-pauli's
# value as printed once it applied H on the permutation rows
README_CHAIN_LCU = {
    "lcu-swap": '"value_re":-0.18074314480472201,"value_im":-0.41266964651596189,'
                '"M":2,"K":8,"swap_count":48,"closed_form_estimate":308.8031780540104',
    "lcu-pauli": '"value_re":-0.18074314858021134,"value_im":-0.41266966483361006,'
                 '"M":4,"K":8,"swap_count":96,"closed_form_estimate":77.200794513502601',
}
# lcu-pauli's value on the Pauli strings' flip-mask rows: the same operator,
# so the two differ by rounding only
README_CHAIN_PAULI_FLIP_MASK = complex(-0.1807431485802114, -0.41266966483361001)


@pytest.mark.parametrize("method", sorted(README_CHAIN_LCU))
def test_matelem_lcu_record_pinned(method, tmp_path, f_path):
    code, text = run_to_file(tmp_path, ["matelem", "--f", f_path, "--u", "3+1:0:0",
                                        "--v", "3+1:1:0", "--t", "1.0", "--eps", "1e-4",
                                        "--method", method])
    assert code == 0
    fields = re.findall(r'"(value_re|value_im|M|K|swap_count|closed_form_estimate)":([^,}]+)',
                        text)
    assert ",".join(f'"{k}":{v}' for k, v in fields) == README_CHAIN_LCU[method]
    doc = json.loads(text)
    oracle = complex(-0.18074321015025777, -0.4126696857564669)
    assert abs(complex(doc["oracle_re"], doc["oracle_im"]) - oracle) <= 1e-12
    if method == "lcu-pauli":
        assert abs(doc["value_re"] - README_CHAIN_PAULI_FLIP_MASK.real) <= 1e-16
        assert abs(doc["value_im"] - README_CHAIN_PAULI_FLIP_MASK.imag) <= 1e-16


@pytest.mark.parametrize("n,cap", [(9, None), (12, "1000000")])
def test_matelem_pauli_refuses_qudits_before_any_vector(n, cap, tmp_path, matelem_calls,
                                                        capsys, deadline):
    # a usage error, refused before the d^n size check and the Young vectors
    path = element_path(tmp_path, algebra_element(n, {transposition(n, 1, 2): 0.5}), "fn.json")
    label = f"{n - 1}+1:0:0"
    argv = ["matelem", "--f", path, "--u", label, "--v", label, "--t", "1.0",
            "--method", "lcu-pauli", "--d", "3"]
    deadline(10)
    assert main(argv + (["--cap-dense", cap] if cap else [])) == 2
    assert matelem_calls == []
    assert capsys.readouterr().err == "error: Pauli route needs qubits (d = 2)\n"


def test_matelem_bad_eps_is_usage_error(f_path, deadline):
    deadline(10)
    assert main(["matelem", "--f", f_path, "--u", "3+1:0:0", "--v", "3+1:1:0", "--t", "1.0",
                 "--eps=-1e-3", "--method", "lcu-pauli"]) == 2


def test_matelem_negative_exponent_values_are_parsed(f_path, capsys, deadline):
    deadline(10)
    pair = ["matelem", "--f", f_path, "--u", "3+1:0:0", "--v", "3+1:1:0"]
    assert main(pair + ["--t", "1.0", "--eps", "-1e-3"]) == 2
    assert "need 0 < epsilon < 1, got -0.001" in capsys.readouterr().err
    # the oracle evolves backwards in time as well
    assert main(pair + ["--t", "-1e-3", "--method", "exact"]) == 0


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_matelem_non_finite_t_is_usage_error(f_path, capsys, t):
    argv = ["matelem", "--f", f_path, "--u", "3+1:0:0", "--v", "3+1:1:0", "--t", t,
            "--method", "exact"]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_matelem_non_finite_coefficient_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"n": 4, "terms": [{"perm": "(1 2)", "re": "nan", "im": 0.0}]}')
    for method in ("exact", "lcu-swap", "lcu-pauli"):
        assert main(["matelem", "--f", str(path), "--u", "3+1:0:0", "--v", "3+1:1:0",
                     "--t", "1.0", "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: element is not Hermitian\n"


def test_json_text_refuses_non_finite_floats():
    for x in (math.nan, math.inf, -math.inf, np.float64("nan")):
        with pytest.raises(ValueError):
            _json_text({"value": [1.0, x]})


@pytest.mark.parametrize("t", ["1e6", "1e7", "1e300"])
def test_matelem_unbounded_work_is_resource_error(f_path, deadline, t):
    deadline(30)
    assert main(["matelem", "--f", f_path, "--u", "3+1:0:0", "--v", "3+1:1:0",
                 "--t", t, "--eps", "0.5", "--method", "lcu-swap"]) == 3


def element_path(tmp_path, f, name):
    path = tmp_path / name
    path.write_text(json.dumps(element_to_json_dict(f)))
    return str(path)


def test_matelem_exact_answers_past_the_statevector_cap(tmp_path, deadline):
    # 2^16 amplitudes are past the default cap, but the irrep oracle
    # builds none: its (14,2) block is 104 x 104
    from snsim.quditsim import irrep_matrix_element
    from snsim.young import parse_partition

    f = group_algebra.random_hermitian_k_local(16, 3, 12, seed=3)
    path = element_path(tmp_path, f, "f16.json")
    deadline(10)
    code, text = run_to_file(tmp_path, ["matelem", "--f", path, "--u", "14+2:0:0",
                                        "--v", "14+2:5:0", "--t", "0.7", "--method", "exact"])
    assert code == 0
    rec = json.loads(text)
    shape = parse_partition("14+2")
    expect = irrep_matrix_element((shape, 0, 0), (shape, 5, 0), f, 0.7)
    assert expect != 0
    assert (rec["value_re"], rec["value_im"]) == (expect.real, expect.imag)
    assert (rec["oracle_re"], rec["oracle_im"]) == (expect.real, expect.imag)
    # the LCU routes build the two 2^16-amplitude vectors, and still refuse
    assert main(["matelem", "--f", path, "--u", "14+2:0:0", "--v", "14+2:5:0", "--t", "0.7",
                 "--method", "lcu-swap"]) == 3


def test_matelem_exact_does_not_grow_with_d(tmp_path, f_path, deadline):
    # the label check neither lists partitions of n nor loops over d, so a
    # huge --d answers at once, with the value d = 2 gives
    deadline(10)
    records = []
    for d, label in (("2", "4:0:4"), ("100000", "4:0:4"), ("100000", "4:0:99999")):
        code, text = run_to_file(tmp_path, ["matelem", "--f", f_path, "--u", label, "--v", label,
                                            "--t", "1.0", "--method", "exact", "--d", d])
        assert code == 0
        records.append(json.loads(text))
    assert records[0] == records[1] == records[2]
    # (4) has 5 weight copies at d = 2
    assert main(["matelem", "--f", f_path, "--u", "4:0:5", "--v", "4:0:5", "--t", "1.0",
                 "--method", "exact", "--d", "2"]) == 2


def test_matelem_exact_caps_the_irrep_dimension(tmp_path, deadline, capsys):
    # 15+15 has 9,694,845 standard tableaux: refused before any is listed
    f = algebra_element(30, {transposition(30, 1, 2): 0.5})
    path = element_path(tmp_path, f, "f30.json")
    deadline(10)
    assert main(["matelem", "--f", path, "--u", "15+15:0:0", "--v", "15+15:0:0",
                 "--t", "1.0", "--method", "exact"]) == 3
    assert capsys.readouterr().err == \
        "resource limit: irrep 15+15 has dimension 9694845, past the dense cap 16384\n"
    # a lower --cap-dense refuses a smaller irrep: 14+2 has dimension 104
    f16 = element_path(tmp_path, algebra_element(16, {transposition(16, 1, 2): 0.5}), "f16.json")
    argv = ["matelem", "--f", f16, "--u", "14+2:0:0", "--v", "14+2:0:0", "--t", "1.0",
            "--method", "exact"]
    assert main(argv + ["--cap-dense", "103"]) == 3
    assert main(argv + ["--cap-dense", "104"]) == 0


def test_bench_csv_shape_and_determinism(tmp_path):
    argv = ["bench", "--n-range", "4:5", "--seed", "7"]
    code, text = run_to_file(tmp_path, argv, "b1.csv")
    code2, text2 = run_to_file(tmp_path, argv, "b2.csv")
    assert code == 0 and code2 == 0
    lines = text.strip().splitlines()
    assert lines[0] == "n,classical_fft_ops,classical_wall_time,lcu_swap_gates,closed_form_estimate"
    assert len(lines) == 3

    def strip_wall(t):
        rows = [r.split(",") for r in t.strip().splitlines()]
        return [[c for i, c in enumerate(r) if i != 2] for r in rows]

    assert strip_wall(text) == strip_wall(text2)


def test_bench_json_format(tmp_path):
    code, text = run_to_file(tmp_path, ["bench", "--n-range", "4:4", "--format", "json"], "b.json")
    assert code == 0
    doc = json.loads(text)
    row = doc["rows"][0]
    assert row["n"] == 4
    assert row["lcu_swap_gates"] <= row["closed_form_estimate"]


def test_transforms_over_s0_are_usage_errors(tmp_path, capsys):
    table = tmp_path / "t.json"
    table.write_text("[1.0]")
    assert main(["bench", "--n-range", "0:1"]) == 2
    assert main(["fft", "--table", str(table), "--n", "0"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["bench", "--n-range", "x"], "bad range 'x', expected like 4:7"),
    (["bench", "--n-range", "7:4"], "empty range '7:4'"),
    # --n is checked before the table file is opened, so a missing file is not reached
    (["fft", "--table", "missing.json"], "--table needs --n"),
    (["fft", "--table", "t.json", "--n", "3"], "table has 3 entries, expected 3!"),
    # only lo:hi and lo..hi are ranges
    *((["bench", "--n-range", text], f"bad range {text!r}, expected like 4:7")
      for text in ("4.5", "4:.5", "4::5")),
    (["irrep", "--lambda", "", "--perm", "e"], "no parts in partition ''"),
])
def test_usage_errors_name_their_fault(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.json").write_text("[1.0, 2.0, 3.0]")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ranges_read_lo_colon_hi_or_lo_dot_dot_hi():
    assert cli._parse_range("4:5") == cli._parse_range(" 4..5 ") == (4, 5)


MALFORMED_TABLES = {"one-entry-rows": "[[1], [2]]", "objects": '[{"a": 1}, {"a": 2}]',
                    "null": "[null, 1]", "number": "5"}
MALFORMED_ELEMENTS = {"no-terms": '{"n": 4}', "list": "[1, 2]",
                      "term-list": '{"n": 4, "terms": [1]}',
                      "perm-number": '{"n": 4, "terms": [{"perm": 5}]}'}


@pytest.mark.parametrize("kind, text", [*(("table", t) for t in MALFORMED_TABLES.values()),
                                         *(("element", t) for t in MALFORMED_ELEMENTS.values())],
                         ids=[*MALFORMED_TABLES, *MALFORMED_ELEMENTS])
def test_malformed_json_is_a_usage_error(tmp_path, f_path, capsys, kind, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if kind == "table":
        argv = ["fft", "--table", str(bad), "--n", "2"]
    else:
        argv = ["convolve", "--f", str(bad), "--g", f_path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_verify_exit_codes():
    assert main(["verify", "schur-weyl"]) == 0
    assert main(["verify", "no-such-suite"]) == 2


VERIFY_LCU_E2E = """\
PASS lcu-vs-oracle: |lcu - exact| = 4.421e-07 at eps = 1e-03, M=2 K=7
PASS ancilla-vs-block: |explicit ancilla run - block formula| = 7.850e-17
PASS pauli-vs-swap: |pauli route - swap route| = 4.677e-07 at 2*eps = 2e-03
PASS cross-block: exact cross-block = 0.000e+00, lcu cross-block = 0.000e+00
PASS gate-bound: 3MK*Wmax = 168 <= span^2 MK = 224
suite lcu-e2e: 5/5 checks passed
"""


def test_verify_lcu_e2e_output_pinned():
    """The ancilla-vs-block figure is rounding noise, but the explicit
    segment's register has 32 rows, too few for BLAS to split a sum
    across threads: one and two BLAS threads print the same bytes."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    for threads in ("1", "2"):
        env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(paths)}
        run = subprocess.run([sys.executable, "-m", "snsim.cli", "verify", "lcu-e2e"], env=env,
                             capture_output=True, text=True, timeout=120, check=False)
        assert (run.returncode, run.stdout) == (0, VERIFY_LCU_E2E), f"{threads} BLAS threads"


def test_resource_cap_exit(tmp_path, f_path):
    assert main(["fft", "--f", f_path, "--cap-factorial", "3"]) == 3


@pytest.fixture()
def no_factorial_builds(monkeypatch):
    """Fail the test on any n!-sized build: the table of an element, an
    enumeration of S_n, or bench's draw of n! random values."""
    def refuse(*args, **kwargs):
        raise AssertionError("n!-sized build before the factorial cap was checked")

    monkeypatch.setattr(cli, "dense_table", refuse)
    monkeypatch.setattr(cli, "enumerate_sn", refuse)
    monkeypatch.setattr(group_algebra, "enumerate_sn", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)


def test_fft_checks_the_cap_before_any_table(tmp_path, f_path, capsys, no_factorial_builds):
    f = tmp_path / "f10.json"
    f.write_text(json.dumps(element_to_json_dict(
        algebra_element(10, {transposition(10, 1, 2): 0.5}))))
    table = tmp_path / "t.json"
    table.write_text("[1.0]")
    assert main(["fft", "--f", str(f)]) == 3
    assert main(["fft", "--table", str(table), "--n", "10"]) == 3
    assert main(["fft", "--f", f_path, "--cap-factorial", "3"]) == 3
    assert capsys.readouterr().out == ""


def test_fft_past_the_default_cap_runs_both_transforms(tmp_path, monkeypatch, capsys):
    # --cap-factorial raises the cap: with the default lowered to 4, a
    # group_algebra function that read the default instead of the flag
    # would refuse n = 5
    f = algebra_element(5, {transposition(5, 1, 2): 0.5, transposition(5, 2, 5): 0.25j})
    element = tmp_path / "f5.json"
    element.write_text(json.dumps(element_to_json_dict(f)))
    table = tmp_path / "t5.json"
    table.write_text(json.dumps([[v.real, v.imag] for v in group_algebra.dense_table(f)]))
    argvs = [["fft", "--f", str(element)], ["fft", "--table", str(table), "--n", "5"]]
    want = []
    for argv in argvs:
        assert main(argv) == 0
        want.append({k: v for k, v in json.loads(capsys.readouterr().out).items()
                     if k != "wall_time"})

    caps = []
    for name in ("fourier_fft", "fourier_naive"):
        def spy(*args, cap, transform=getattr(cli, name), name=name):
            caps.append((name, cap))
            return transform(*args, cap=cap)
        monkeypatch.setattr(cli, name, spy)
    monkeypatch.setattr(group_algebra, "DEFAULT_FACTORIAL_CAP", 4)
    for argv, doc in zip(argvs, want):
        assert main(argv + ["--cap-factorial", "5"]) == 0
        got = json.loads(capsys.readouterr().out)
        assert {k: v for k, v in got.items() if k != "wall_time"} == doc
    assert caps == [("fourier_fft", 5), ("fourier_naive", 5)] * 2


def test_bench_checks_the_cap_before_any_draw(capsys, no_factorial_builds):
    assert main(["bench", "--n-range", "11:11"]) == 3
    assert main(["bench", "--n-range", "4:9"]) == 3
    assert main(["bench", "--n-range", "4:5", "--cap-factorial", "4"]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("bad", [["--k", "9"], ["--t", "0"], ["--t", "nan"], ["--eps", "1.5"]])
def test_bench_checks_k_t_and_eps_before_any_transform(bad, monkeypatch, capsys,
                                                       no_factorial_builds):
    # the n = 8 transform takes seconds; a bad instance is refused first
    def refuse(*args, **kwargs):
        raise AssertionError("transform run before the instance was checked")

    monkeypatch.setattr(cli, "fourier_fft", refuse)
    assert main(["bench", "--n-range", "8:8", *bad]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("shape", ["15+15", "10+10"])
def test_irrep_checks_the_dense_cap_before_any_tableau(shape, monkeypatch, capsys):
    # 15+15 has 9,694,845 standard tableaux; 10+10 has 16,796, one past
    # the cap of 16,384, and its generators would be 2.3 GB dense arrays
    def refuse(*args, **kwargs):
        raise AssertionError("tableaux enumerated before the dense cap was checked")

    monkeypatch.setattr(yor, "tableaux", refuse)
    assert main(["irrep", "--lambda", shape, "--perm", "(1 2)"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "past the dense cap 16384" in err


def test_irrep_below_the_cap_prints_the_same_bytes(capsys):
    assert main(["irrep", "--lambda", "2+1", "--perm", "(1 2)"]) == 0
    assert capsys.readouterr().out == \
        '{"schema_version":"1","shape":"2+1","perm":"(1 2)","dim":2,"matrix":[[1,0],[0,-1]]}\n'


@pytest.mark.parametrize("argv", [
    ["dims", "--n", "3", "--d", "2", "--cap-dense", "5"],
    ["dims", "--n", "3", "--d", "2", "--cap-factorial", "5"],
    ["irrep", "--lambda", "2+1", "--perm", "(1 2)", "--cap-dense", "5"],
    ["young-basis", "--n", "3", "--d", "2", "--cap-factorial", "5"],
    ["bench", "--n-range", "4:4", "--cap-dense", "5"],
    ["verify", "schur-weyl", "--cap-factorial", "5"],
])
def test_caps_only_where_a_command_reads_them(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments: --cap-" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["young-basis", "--n", "3", "--d", "2", "--cap-dense", "4"],
    ["matelem", "--u", "3+1:0:0", "--v", "3+1:1:0", "--t", "1", "--cap-dense", "8"],
    ["bench", "--n-range", "4:4", "--cap-factorial", "3"],
])
def test_caps_are_read_where_kept(argv, f_path):
    if argv[0] == "matelem":
        argv = argv + ["--f", f_path]
    assert main(argv) == 3


def test_usage_errors():
    assert main([]) == 2
    assert main(["dims", "--n", "4"]) == 2  # missing --d


def test_main_parses_with_the_parser_built_at_import(monkeypatch, f_path, capsys):
    from snsim import cli

    calls = []
    counting(monkeypatch, calls, cli, "_build_parser")
    assert main(["dims", "--n", "3", "--d", "2"]) == 0
    assert main(["matelem", "--f", f_path, "--u", "3+1:0:0", "--v", "3+1:1:0", "--t", "1.0",
                 "--method", "exact"]) == 0
    assert main(["dims", "--n", "3"]) == 2
    assert calls == []


def test_matelem_output_repeats_across_a_usage_error(f_path, capsys):
    argv = ["matelem", "--f", f_path, "--u", "3+1:0:0", "--v", "3+1:1:0", "--t", "1.0",
            "--eps", "1e-4", "--method", "lcu-swap"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(["matelem", "--f", f_path, "--u", "3+1:0:0", "--t", "1.0"]) == 2  # no --v
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["method"] == "lcu-swap"
