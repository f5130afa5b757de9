"""Command-line surface for the pipeline.

Subcommands: dims, irrep, fft, convolve, young-basis, matelem, bench,
verify. Output is deterministic for a fixed invocation: floats are
printed at 17 significant digits, field order is fixed, and the only
environment-dependent values (wall times) live in clearly named fields
or columns that consumers exclude when hashing.

Exit codes: 0 ok, 2 usage, 3 resource cap exceeded, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time

import numpy as np

from . import lcu
from .errors import (
    DEFAULT_DENSE_CAP,
    DEFAULT_FACTORIAL_CAP,
    ResourceLimitError,
    SizeMismatchError,
)
from .group_algebra import (
    AlgebraElement,
    algebra_element,
    check_factorial,
    convolve,
    dense_table,
    element_from_json_dict,
    element_to_json_dict,
    fourier_fft,
    fourier_naive,
)
from .pauli_expand import matrix_element_pauli
from .permutation import (
    enumerate_sn,
    format_cycles,
    from_cycles,
    parse_permutation,
    transposition,
)
from .quditsim import (
    check_young_label,
    check_young_size,
    irrep_matrix_element,
    young_basis,
    young_vectors,
)
from .verify import run_suite
from .yor import yor
from .young import (
    enumerate_partitions,
    hook_length_dimension,
    parse_partition,
    schur_weyl_dimension_check,
)

SCHEMA_VERSION = "1"


def _f17(x) -> str:
    return format(float(x), ".17g")


def _json_text(obj) -> str:
    """Compact JSON with floats at 17 significant digits, field order
    as constructed; a nan or inf float is a ValueError."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj} has no JSON form")
        return _f17(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_text(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_json_text(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(args, text: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# what indexing, calling or converting a JSON value of the wrong shape raises
_MALFORMED = (KeyError, TypeError, IndexError, AttributeError)


def _load_element(path: str) -> AlgebraElement:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return element_from_json_dict(data)
    except _MALFORMED as exc:
        raise ValueError(f"{path} is not an element: {type(exc).__name__}: {exc}") from exc


def _pairs(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(mat)]


def _parse_basis_label(text: str):
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    toks = [tok.strip() for tok in re.split(r"[,:]", body) if tok.strip()]
    if len(toks) != 3:
        raise ValueError(f"basis label {text!r} is not (shape, tableau, weight)")
    return parse_partition(toks[0]), int(toks[1]), int(toks[2])


def cmd_dims(args) -> int:
    consistent, table = schur_weyl_dimension_check(args.n, args.d)
    rows = []
    for lam, dim_sud, dim_sn in table:
        row = {
            "shape": str(lam),
            "dim_sn": dim_sn,
            "dim_sud": dim_sud,
            "product": dim_sn * dim_sud,
        }
        parts = lam.parts
        if len(parts) == 2 and parts[0] == parts[1]:
            m = parts[0]
            # both sides of the printed two-row bound, reported verbatim
            row["square_bound_lhs_dim"] = dim_sn
            row["square_bound_rhs"] = 2.0**m / (m + 1)
        rows.append(row)
    record = {
        "schema_version": SCHEMA_VERSION,
        "n": args.n,
        "d": args.d,
        "rows": rows,
        "total": sum(row["product"] for row in rows),
        "d_pow_n": args.d**args.n,
        "consistent": consistent,
    }
    _emit(args, _json_text(record))
    return 0


def _check_irrep(shape, cap: int) -> None:
    """Refuse an irrep whose dimension, by the hook-length formula, is past
    cap, before its tableaux are enumerated: 15+15 has 9,694,845 of them."""
    dim = hook_length_dimension(shape)
    if dim > cap:
        raise ResourceLimitError(f"irrep {shape} has dimension {dim}, past the dense cap {cap}")


def cmd_irrep(args) -> int:
    shape = parse_partition(args.shape)
    p = parse_permutation(args.perm, n=shape.n)
    _check_irrep(shape, DEFAULT_DENSE_CAP)
    mat = yor(shape, p)
    record = {
        "schema_version": SCHEMA_VERSION,
        "shape": str(shape),
        "perm": format_cycles(p),
        "dim": mat.shape[0],
        "matrix": [[float(x) for x in row] for row in mat],
    }
    _emit(args, _json_text(record))
    return 0


def _element_from_table(n: int, values) -> AlgebraElement:
    try:
        if len(values) != math.factorial(n):
            raise ValueError(f"table has {len(values)} entries, expected {n}!")
        table = {p: complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                 for p, v in zip(enumerate_sn(n), values)}
    except _MALFORMED as exc:
        raise ValueError(f"table is not a list of numbers or [re, im] pairs: "
                         f"{type(exc).__name__}: {exc}") from exc
    return algebra_element(n, table)


def cmd_fft(args) -> int:
    if (args.f is None) == (args.table is None):
        raise ValueError("need exactly one of --f (element) or --table (dense values)")
    cap = args.cap_factorial
    if args.f:
        f = _load_element(args.f)
        check_factorial(f.n, cap)
    else:
        if args.n is None:
            raise ValueError("--table needs --n")
        with open(args.table, encoding="utf-8") as fh:
            values = json.load(fh)
        check_factorial(args.n, cap)
        f = _element_from_table(args.n, values)

    start = time.perf_counter()
    fast = fourier_fft(dense_table(f), f.n, cap=cap)
    wall = time.perf_counter() - start
    naive = fourier_naive(f, cap=cap)

    blocks = {}
    for lam in enumerate_partitions(f.n):
        blocks[str(lam)] = _pairs(fast.blocks[lam])
    record = {
        "schema_version": SCHEMA_VERSION,
        "n": f.n,
        "naive_ops": naive.ops,
        "fft_ops": fast.ops,
        "max_abs_diff": fast.max_abs_diff(naive),
        "wall_time": wall,
        "blocks": blocks,
    }
    _emit(args, _json_text(record))
    return 0


def cmd_convolve(args) -> int:
    f = _load_element(args.f)
    g = _load_element(args.g)
    h = convolve(f, g)
    record = {"schema_version": SCHEMA_VERSION}
    record.update(element_to_json_dict(h))
    _emit(args, _json_text(record))
    return 0


def cmd_young_basis(args) -> int:
    basis = young_basis(args.n, args.d, cap=args.cap_dense)
    vectors = []
    for vec in basis:
        vectors.append({
            "shape": str(vec.shape),
            "tableau": [list(row) for row in vec.tableau.rows],
            "tableau_index": vec.tableau_index,
            "weight_index": vec.weight_index,
            "weight": list(vec.weight),
            "amplitudes": [[float(z.real), float(z.imag)] for z in vec.vector.amplitudes],
        })
    record = {
        "schema_version": SCHEMA_VERSION,
        "n": args.n,
        "d": args.d,
        "vectors": vectors,
    }
    _emit(args, _json_text(record))
    return 0


def cmd_matelem(args) -> int:
    f = _load_element(args.f)
    n, d = f.n, args.d
    exact = args.method == "exact"
    if args.method == "lcu-pauli" and d != 2:
        raise ValueError("Pauli route needs qubits (d = 2)")
    # the irrep oracle builds no d^n vector, so `exact` caps dim(shape)
    # instead; the LCU routes build two Young vectors of d^n amplitudes
    if not exact:
        check_young_size(n, d, cap=args.cap_dense)

    def pick(label: str):
        shape, ti, wi = _parse_basis_label(label)
        check_young_label(n, d, shape, ti, wi)
        if exact:
            _check_irrep(shape, args.cap_dense)
        return shape, ti, wi

    u_label, v_label = pick(args.u), pick(args.v)
    oracle = irrep_matrix_element(u_label, v_label, f, args.t)

    if exact:
        value = oracle
        m_seg = taylor_k = swaps = 0
        closed = 0.0
    else:
        u, v = young_vectors(n, d, (u_label, v_label), cap=args.cap_dense)
        route = lcu.matrix_element if args.method == "lcu-swap" else matrix_element_pauli
        value, report = route(u, v, f, args.t, args.eps)
        m_seg, taylor_k, swaps, closed = report.M, report.K, report.actual, report.closed_form

    record = {
        "schema_version": SCHEMA_VERSION,
        "method": args.method,
        "value_re": value.real,
        "value_im": value.imag,
        "oracle_re": oracle.real,
        "oracle_im": oracle.imag,
        "abs_err": abs(value - oracle),
        "M": m_seg,
        "K": taylor_k,
        "swap_count": swaps,
        "closed_form_estimate": closed,
    }
    _emit(args, _json_text(record))
    return 0


def _bench_element(n: int, k: int) -> AlgebraElement:
    """Fixed k-local Hermitian instance embedded identically for every n,
    so the gate column depends on n only through the closed form."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    cycle = from_cycles(n, [range(1, k + 1)])
    table = {transposition(n, 1, 2): 0.35 + 0j}
    table[cycle] = table.get(cycle, 0j) + 0.25
    inv = cycle.inverse()
    table[inv] = table.get(inv, 0j) + 0.25
    return algebra_element(n, table)


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)(?::|\.\.)(\d+)", text.strip())
    if not m:
        raise ValueError(f"bad range {text!r}, expected like 4:7")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def cmd_bench(args) -> int:
    lo, hi = _parse_range(args.n_range)
    # before any draw: n < 1 is refused at the low end, the cap at the high
    check_factorial(lo, args.cap_factorial)
    check_factorial(hi, args.cap_factorial)
    rows = []
    for n in range(lo, hi + 1):
        # --k, --t and --eps are checked here, before the n!-sized work
        element = _bench_element(n, args.k)
        report = lcu.gate_count_report(lcu.plan(element, args.t, args.eps), element)
        rng = np.random.default_rng(1000 * args.seed + n)
        values = rng.standard_normal(math.factorial(n))
        start = time.perf_counter()
        coeffs = fourier_fft(values, n, cap=args.cap_factorial)
        wall = time.perf_counter() - start
        rows.append({
            "n": n,
            "classical_fft_ops": coeffs.ops,
            "classical_wall_time": wall,
            "lcu_swap_gates": report.actual,
            "closed_form_estimate": report.closed_form,
        })
    if args.format == "json":
        _emit(args, _json_text({"schema_version": SCHEMA_VERSION, "rows": rows}))
        return 0
    lines = ["n,classical_fft_ops,classical_wall_time,lcu_swap_gates,closed_form_estimate"]
    for row in rows:
        lines.append(
            f"{row['n']},{row['classical_fft_ops']},{_f17(row['classical_wall_time'])},"
            f"{row['lcu_swap_gates']},{_f17(row['closed_form_estimate'])}"
        )
    _emit(args, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    lines = []
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        failed += 0 if res.passed else 1
        lines.append(f"{tag} {res.name}: {res.detail}")
    lines.append(
        f"suite {args.suite}: {len(results) - failed}/{len(results)} checks passed"
    )
    _emit(args, "\n".join(lines))
    return 4 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Reads "-1e-3" as a negative number, not as an option, so that
    such a value reaches the command's range check; subparsers inherit
    the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="snsim",
        description="matrix elements of exp(-it pi~(f)) for symmetric group algebra elements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("dims", help="irrep dimension table and the d^n sum check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("irrep", help="orthogonal irrep matrix of one permutation")
    p.add_argument("--lambda", dest="shape", required=True, metavar="SHAPE")
    p.add_argument("--perm", required=True)
    common(p)
    p.set_defaults(func=cmd_irrep)

    p = sub.add_parser("fft", help="Fourier transform, fast and naive, with op counts")
    p.add_argument("--f", help="sparse element JSON")
    p.add_argument("--table", help="dense JSON array of n! values (needs --n)")
    p.add_argument("--n", type=int)
    common(p)
    p.add_argument("--cap-factorial", type=int, default=DEFAULT_FACTORIAL_CAP)
    p.set_defaults(func=cmd_fft)

    p = sub.add_parser("convolve", help="convolution of two elements")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    common(p)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("young-basis", help="export the adapted basis for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.add_argument("--cap-dense", type=int, default=DEFAULT_DENSE_CAP)
    p.set_defaults(func=cmd_young_basis)

    p = sub.add_parser("matelem", help="matrix element between Young basis vectors")
    p.add_argument("--f", required=True, help="Hermitian element JSON")
    p.add_argument("--u", required=True, help="basis label like '2+1:0:1'")
    p.add_argument("--v", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--method", choices=["exact", "lcu-swap", "lcu-pauli"], default="lcu-swap")
    common(p)
    p.add_argument("--cap-dense", type=int, default=DEFAULT_DENSE_CAP)
    p.set_defaults(func=cmd_matelem)

    p = sub.add_parser("bench", help="classical Fourier ops vs LCU gate counts per n")
    p.add_argument("--n-range", default="4:7", dest="n_range")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    common(p)
    p.add_argument("--cap-factorial", type=int, default=DEFAULT_FACTORIAL_CAP)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", help="schur-weyl or lcu-e2e")
    common(p)
    p.set_defaults(func=cmd_verify)

    return parser


# built once: argparse keeps no state between parse_args calls
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, SizeMismatchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
