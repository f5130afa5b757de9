"""The four workloads: seeded inputs, the ops one pass runs, and checks.

`SETUPS[name](seed, workdir)` generates every input from the seed,
warms the program's caches the way the first op of each kind would,
and returns one pass: the list of ops the closed loop repeats. An op's
`run` is what the loop times; `check` runs after the timed window and
returns None or the reason the output is wrong. References come from
`reference`, never from snsim's oracle or gather maps.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference
from snsim import cli, group_algebra, lcu, pauli_expand, quditsim
from snsim.permutation import Permutation


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    prepare: "Callable[[], None] | None" = None


def rng_for(seed: int, workload: str) -> np.random.Generator:
    # SeedSequence takes non-negative integers only
    return np.random.default_rng([seed % 2**64, sum(map(ord, workload))])


def _cycle_images(n: int, cyc: list[int]) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        images[a - 1] = b
    return tuple(images)


def _add_cycle(rng, terms: dict, n: int, cyc: list[int]) -> None:
    """Add the cycle a -> b -> ... -> a on the points `cyc` (1-based) and
    its inverse, with one coefficient magnitude and a random phase (a
    random sign for a transposition)."""
    images = _cycle_images(n, cyc)
    inv = [0] * n
    for q, img in enumerate(images):
        inv[img - 1] = q + 1
    if len(cyc) == 2:
        terms[images] = float(rng.choice((-1.0, 1.0)))
    else:
        c = complex(np.exp(2j * np.pi * rng.uniform()))
        terms[images] = c
        terms[tuple(inv)] = c.conjugate()


def _scaled(terms: dict, norm: float) -> dict:
    scale = norm / math.fsum(abs(c) for c in terms.values())
    return {p: c * scale for p, c in terms.items()}


def k_local_element(rng, n: int, n_cycles: int, norm: float) -> dict:
    """Hermitian 3-local element from n_cycles random cycles.

    Transpositions and 3-cycles alternate. Pairs of cycles alternate
    between a contiguous window and points spread over span
    size + 2 > locality, the middle point of a spread 3-cycle next to
    its first. The seed places each cycle and picks its phase (a sign
    for a transposition); the span of every cycle, and so the length of
    its adjacent-swap network, is fixed by its index. Every cycle is
    new to the element and enters with its inverse at the conjugate
    coefficient. The 1-norm is scaled to `norm`, which fixes the
    segment count M = ceil(t * norm / ln 2) of the swap route for a
    given t.
    """
    terms: dict[tuple[int, ...], complex] = {}
    for i in range(n_cycles):
        size = 2 + i % 2
        offsets = list(range(size)) if (i // 2) % 2 == 0 else [0, size + 1, 1][:size]
        while True:
            start = int(rng.integers(1, n - max(offsets) + 1))
            cyc = [start + o for o in offsets]
            if _cycle_images(n, cyc) not in terms:
                break
        _add_cycle(rng, terms, n, cyc)
    return _scaled(terms, norm)


def chained_element(rng, n: int, norm: float) -> dict:
    """Hermitian 3-local element whose cycles chain through all n points.

    A random order of the points is cut into transpositions and 3-cycles
    alternately, each sharing its first point with the last point of
    the cycle before. The supports connect every point, so pi~(f) has as
    many distinct eigenvalues as Schur-Weyl allows (252 at n=10, d=2)
    for every seed. The dense oracle's eigh deflates on repeated
    eigenvalues: with supports that left points unconnected, its cost
    at n=10 varied by 2x between seeds.
    """
    order = [int(x) + 1 for x in rng.permutation(n)]
    terms: dict[tuple[int, ...], complex] = {}
    pos, size = 0, 2
    while pos < n - 1:
        cyc = order[pos:pos + size]
        _add_cycle(rng, terms, n, [cyc[0]] + [int(x) for x in rng.permutation(cyc[1:])])
        pos += len(cyc) - 1
        size = 5 - size
    return _scaled(terms, norm)


def to_snsim(n: int, element: dict):
    return group_algebra.algebra_element(n, {Permutation(p): c for p, c in element.items()})


def write_element(path: str, n: int, element: dict) -> None:
    terms = [
        {"perm": "[" + ",".join(map(str, p)) + "]", "re": c.real, "im": c.imag}
        for p, c in sorted(element.items())
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "terms": terms}, fh)


def random_state(rng, d: int, n: int) -> np.ndarray:
    amps = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    return amps / np.linalg.norm(amps)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def clear_caches() -> None:
    """Empty every functools cache in snsim, as a fresh process starts."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "snsim" or name.startswith("snsim.")):
            for value in list(vars(mod).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _err(label: str, got: complex, want: complex, tol: float) -> "str | None":
    dev = abs(got - want)
    return None if dev <= tol else f"{label}: |got - ref| = {dev:.3e} > {tol:.0e}"


# ---------------------------------------------------------------------------
# matelem: `snsim matelem` in-process, basis cache cleared before each op
# ---------------------------------------------------------------------------

MATELEM_SIZES = ((8, 2), (9, 2), (10, 2), (5, 3), (6, 3))
MATELEM_EPS = (1e-3, 1e-6)
MIN_ELEMENT = 1e-3
# At d=2 the Pauli route is the costlier one: its segment count follows
# the 1-norm of the Pauli expansion, so that norm is fixed; at d=3 the
# element's own 1-norm is. t is fixed per size, so the seed moves the
# supports, phases and labels but not the segment counts.
MATELEM_PAULI_NORM = 2.0
MATELEM_SWAP_NORM = 1.0


def _pick_pair(rng, n: int, d: int, element: dict, t: float):
    """Labels u, v of one shape and weight with |<u|e^{-itH}|v>| >= MIN_ELEMENT,
    and that reference value."""
    groups = defaultdict(list)
    for vec in quditsim.young_basis(n, d):
        groups[(str(vec.shape), vec.weight_index)].append(vec)
    candidates = [g for g in groups.values() if len(g) >= 2]
    for gi in rng.permutation(len(candidates)):
        group = candidates[gi]
        v = group[int(rng.integers(len(group)))]
        w = reference.evolve(element, d, n, t, v.vector.amplitudes)
        good = []
        for u in group:
            if u is v:
                continue
            val = complex(np.vdot(u.vector.amplitudes, w))
            if abs(val) >= MIN_ELEMENT:
                if abs(np.vdot(u.vector.amplitudes, v.vector.amplitudes)) > 1e-9:
                    raise RuntimeError(f"basis vectors {u.label()} and {v.label()} not orthogonal")
                good.append((u, val))
        if good:
            u, val = good[int(rng.integers(len(good)))]
            return u.label(), v.label(), val
    raise RuntimeError(f"no pair with |element| >= {MIN_ELEMENT} at n={n}, d={d}")


def setup_matelem(seed: int, workdir: str) -> list[Op]:
    rng = rng_for(seed, "matelem")
    clear = quditsim.young_basis.cache_clear
    ops: list[Op] = []
    for idx, (n, d) in enumerate(MATELEM_SIZES):
        element = chained_element(rng, n, norm=MATELEM_SWAP_NORM)
        if d == 2:
            scale = MATELEM_PAULI_NORM / reference.pauli_one_norm(n, element)
            element = {p: c * scale for p, c in element.items()}
        t = 1.0 + 2.0 * (idx + 0.5) / len(MATELEM_SIZES)
        path = os.path.join(workdir, f"f_n{n}_d{d}.json")
        write_element(path, n, element)
        u, v, ref = _pick_pair(rng, n, d, element, t)
        methods = ("exact", "lcu-swap", "lcu-pauli") if d == 2 else ("exact", "lcu-swap")
        for method in methods:
            eps = MATELEM_EPS[len(ops) % 2]
            argv = ["matelem", "--f", path, "--u", u, "--v", v, "--t", repr(t),
                    "--eps", repr(eps), "--d", str(d), "--method", method]
            tol = 1e-9 if method == "exact" else eps
            ops.append(Op(
                kind=method.replace("lcu-", ""),
                run=functools.partial(run_cli, argv),
                check=functools.partial(_check_matelem, ref, tol),
                prepare=clear,
            ))
    return ops


def _check_matelem(ref: complex, tol: float, out) -> "str | None":
    rc, text, err = out
    if rc != 0:
        return f"exit code {rc}: {err.strip()[:200]}"
    rec = json.loads(text)
    return (_err("value", complex(rec["value_re"], rec["value_im"]), ref, tol)
            or _err("oracle", complex(rec["oracle_re"], rec["oracle_im"]), ref, 1e-9))


# ---------------------------------------------------------------------------
# evolve: library LCU calls on raw statevectors, no basis and no oracle
# ---------------------------------------------------------------------------

EVOLVE_SIZES = ((12, 2), (8, 3))
EVOLVE_INSTANCES = 6
EVOLVE_EPS = (1e-6, 1e-9)
# The swap route's cost scales with the element's 1-norm, the Pauli
# route's with the 1-norm of its Pauli expansion, which phases can
# cancel; each route gets elements with its own norm fixed.
SWAP_NORM = 1.5
PAULI_NORM = 3.0


class _Instance:
    """One (element, t, u, v); the reference is computed once, on demand."""

    def __init__(self, rng, n: int, d: int, i: int, pauli: bool = False):
        self.n, self.d = n, d
        element = k_local_element(rng, n, 4 + i % 5, norm=SWAP_NORM)
        if pauli:
            scale = PAULI_NORM / reference.pauli_one_norm(n, element)
            element = {p: c * scale for p, c in element.items()}
        self.element = element
        self.t = 1.0 + 4.0 * (i + 0.5) / EVOLVE_INSTANCES
        self.eps = EVOLVE_EPS[i % 2]
        self.u = quditsim.Statevector(d, n, random_state(rng, d, n))
        self.v = quditsim.Statevector(d, n, random_state(rng, d, n))
        self.f = to_snsim(n, element)

    @functools.cached_property
    def ref(self) -> complex:
        w = reference.evolve(self.element, self.d, self.n, self.t, self.v.amplitudes)
        return complex(np.vdot(self.u.amplitudes, w))

    def swap(self):
        return lcu.matrix_element(self.u, self.v, self.f, self.t, self.eps)

    def pauli(self):
        return pauli_expand.matrix_element_pauli(self.u, self.v, self.f, self.t, self.eps)

    def check(self, out) -> "str | None":
        return _err("value", out[0], self.ref, self.eps)


def setup_evolve(seed: int, workdir: str) -> list[Op]:
    rng = rng_for(seed, "evolve")
    ops: list[Op] = []
    for i in range(EVOLVE_INSTANCES):
        for n, d in EVOLVE_SIZES:
            inst = _Instance(rng, n, d, i)
            ops.append(Op("swap", inst.swap, inst.check))
            if i == 0:
                inst.swap()  # fills the digit table of this (n, d)
        inst = _Instance(rng, *EVOLVE_SIZES[0], i, pauli=True)
        ops.append(Op("pauli", inst.pauli, inst.check))
    return ops


# ---------------------------------------------------------------------------
# fourier: the classical S_n baseline
# ---------------------------------------------------------------------------

FOURIER_INSTANCES = 4
FFT_N, INVERSE_N, NAIVE_N = 7, 6, 8
NAIVE_CYCLES = 8


def _complex_table(rng, n: int) -> np.ndarray:
    size = math.factorial(n)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def _check_fft(values, out) -> "str | None":
    err = reference.fourier_identities_error(FFT_N, values, out.blocks)
    return None if err <= 1e-9 else f"fft identities off by {err:.3e}"


def _check_inverse(values, out) -> "str | None":
    dev = float(np.abs(np.asarray(out) - values).max())
    return None if dev <= 1e-9 else f"inverse round trip off by {dev:.3e}"


class _NaiveInstance:
    def __init__(self, rng, cross_check: bool):
        self.element = k_local_element(rng, NAIVE_N, NAIVE_CYCLES, norm=float(NAIVE_CYCLES))
        self.f = to_snsim(NAIVE_N, self.element)
        self.cross_check = cross_check

    def run(self):
        return group_algebra.fourier_naive(self.f)

    @functools.cached_property
    def values(self) -> np.ndarray:
        return reference.dense_values(NAIVE_N, self.element)

    @functools.cached_property
    def via_fft(self):
        return group_algebra.fourier_fft(group_algebra.dense_table(self.f), NAIVE_N)

    def check(self, out) -> "str | None":
        err = reference.fourier_identities_error(NAIVE_N, self.values, out.blocks)
        if err > 1e-9:
            return f"naive identities off by {err:.3e}"
        if self.cross_check:
            dev = self.via_fft.max_abs_diff(out)
            if dev > 1e-9:
                return f"naive vs fft of the dense table off by {dev:.3e}"
        return None


def setup_fourier(seed: int, workdir: str) -> list[Op]:
    rng = rng_for(seed, "fourier")
    ops: list[Op] = []
    for j in range(FOURIER_INSTANCES):
        table = _complex_table(rng, FFT_N)
        small = _complex_table(rng, INVERSE_N)
        coeffs = group_algebra.fourier_fft(small, INVERSE_N)
        # one cross-check per run: an fft over S_8 takes seconds
        naive = _NaiveInstance(rng, cross_check=(j == 0))
        # look the transforms up per call, so a traced pass sees its wrappers
        ops.append(Op("fft", lambda table=table: group_algebra.fourier_fft(table, FFT_N),
                      functools.partial(_check_fft, table)))
        ops.append(Op("inverse", lambda coeffs=coeffs: group_algebra.fourier_inverse(coeffs),
                      functools.partial(_check_inverse, small)))
        ops.append(Op("naive", naive.run, naive.check))
    # fills the S_7 coset tables and the irrep tables up to n=8
    ops[0].run()
    ops[2].run()
    return ops


# ---------------------------------------------------------------------------
# verify: both invariant suites through the CLI; they fix their own instances
# ---------------------------------------------------------------------------

VERIFY_SUITES = ("schur-weyl", "lcu-e2e")


def _run_verify():
    return [run_cli(["verify", suite]) for suite in VERIFY_SUITES]


def _check_verify(out) -> "str | None":
    for suite, (rc, text, err) in zip(VERIFY_SUITES, out):
        lines = text.strip().splitlines()
        bad = [line for line in lines[:-1] if not line.startswith("PASS ")]
        if rc != 0 or bad or not lines:
            return f"verify {suite}: exit code {rc}, {bad[:1] or err.strip()[:200]}"
    return None


def setup_verify(seed: int, workdir: str) -> list[Op]:
    run_cli(["verify", VERIFY_SUITES[0]])
    return [Op("verify", _run_verify, _check_verify)]


SETUPS = {
    "matelem": setup_matelem,
    "evolve": setup_evolve,
    "fourier": setup_fourier,
    "verify": setup_verify,
}
