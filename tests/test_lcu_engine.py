"""The LCU engines against the loops they replaced.

The stacked-select engine sums the select operators in BLAS order, so
it is not bit-identical to a loop over terms; the tolerances below are
fixed in advance: 1e-13 * ||f||_1 * max|a| for one Hamiltonian
application and 1e-12 for a whole matrix element between unit vectors.
The group-algebra `build_segment` must match the product-by-product
build as an operator, to 1e-14 per permutation, and `run_segment` its
full-register version bit for bit.
"""

import cmath
import itertools
import json
import math
import re

import numpy as np
import pytest

from test_lcu import heisenberg_like

from snsim import lcu, pauli_expand, permutation
from snsim.cli import main
from snsim.errors import ResourceLimitError
from snsim.group_algebra import (
    add,
    algebra_element,
    convolve,
    delta,
    element_to_json_dict,
    random_hermitian_k_local,
    scale,
)
from snsim.lcu import LN2, build_segment, matrix_element, plan, run_segment
from snsim.pauli_expand import (
    element_to_pauli,
    matrix_element_pauli,
    pauli_identity,
    string_index_phase,
)
from snsim.permutation import identity, parse_permutation, transposition
from snsim.quditsim import (
    Statevector,
    irrep_matrix_element,
    permutation_index_map,
    swap_network,
)
from snsim.verify import run_suite
from snsim.yor import yor
from snsim.young import Partition


class LoopSegment:
    """Segment block 3T - 4 T Tdag T with H a = sum_j c_j (phase_j * a[g_j])
    accumulated one term at a time."""

    def __init__(self, parts, delta_t, taylor_k, pad):
        self.parts, self.delta_t, self.K, self.pad = parts, delta_t, taylor_k, pad

    def ham(self, amps):
        out = np.zeros_like(amps)
        for c, gather, phase in self.parts:
            out += c * (phase * amps[gather])
        return out

    def t_apply(self, amps, dagger):
        rot = 1j * self.delta_t if dagger else -1j * self.delta_t
        acc = amps.copy()
        term = amps
        for m in range(1, self.K + 1):
            term = (rot / m) * self.ham(term)
            acc += term
        return 0.5 * (acc + self.pad * amps)

    def element(self, u, v, segments, t, shift):
        amps = v.astype(complex)
        for _ in range(segments):
            t1 = self.t_apply(amps, dagger=False)
            amps = 3.0 * t1 - 4.0 * self.t_apply(self.t_apply(t1, dagger=True), dagger=False)
        return cmath.exp(1j * t * shift) * complex(np.vdot(u, amps))


def random_unit(rng, d, n):
    amps = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    return amps / np.linalg.norm(amps)


def counting_evolve(monkeypatch):
    """Wrap `lcu._evolve` so that the ham it receives records each call's
    factor in `calls` and is kept in `hams`."""
    calls, hams = [], []
    original = lcu._evolve

    def wrapped(ham, amps, pl):
        def counting(a, factor):
            calls.append(factor)
            return ham(a, factor)

        hams.append(ham)
        return original(counting, amps, pl)

    monkeypatch.setattr(lcu, "_evolve", wrapped)
    return calls, hams


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_swap_ham_matches_term_loop(d, monkeypatch):
    n, t, eps = 6, 1.0, 1e-6
    f = random_hermitian_k_local(n, 3, 5, seed=21 + d)
    _, hams = counting_evolve(monkeypatch)
    rng = np.random.default_rng(d)
    u, v = Statevector(d, n, random_unit(rng, d, n)), Statevector(d, n, random_unit(rng, d, n))
    matrix_element(u, v, f, t, eps)
    (ham,) = hams
    # the route applies H = f + shift * identity, stacked in `_fast_element`
    shifted = add(f, scale(delta(identity(n)), plan(f, t, eps).shift))
    a = random_unit(rng, d, n)
    expect = np.zeros_like(a)
    for p, c in shifted.terms:
        expect += c * a[permutation_index_map(p, d)]
    got = ham(a, 1.0)
    assert np.max(np.abs(got - expect)) <= 1e-13 * shifted.one_norm * np.max(np.abs(a))


@pytest.mark.parametrize("d", [2, 3])
def test_swap_route_matches_loop_kernel(d):
    n, t, eps = 6, 1.3, 1e-6
    f = random_hermitian_k_local(n, 3, 5, seed=8 + d)
    rng = np.random.default_rng(10 + d)
    u, v = random_unit(rng, d, n), random_unit(rng, d, n)
    got, _ = matrix_element(Statevector(d, n, u), Statevector(d, n, v), f, t, eps)

    pl = plan(f, t, eps)
    shifted = add(f, scale(delta(identity(n)), pl.shift))
    parts = [(c, permutation_index_map(p, d), 1.0) for p, c in shifted.terms]
    expect = LoopSegment(parts, pl.delta_t, pl.K, pl.pad).element(u, v, pl.M, t, pl.shift)
    assert abs(got - expect) <= 1e-12


# the route applies H on the permutation rows; the reference applies the
# expansion one Pauli string at a time, through string_index_phase
@pytest.mark.parametrize("seed", [13, 31, 47])
@pytest.mark.parametrize("n", range(3, 9))
def test_pauli_route_matches_loop_kernel(n, seed):
    t, eps = 1.3, 1e-6
    f = random_hermitian_k_local(n, 3, 5, seed=seed)
    rng = np.random.default_rng(seed + 1)
    u, v = random_unit(rng, 2, n), random_unit(rng, 2, n)
    got, report = matrix_element_pauli(Statevector(2, n, u), Statevector(2, n, v), f, t, eps)

    # the Pauli route's planning, written out on the expansion's 1-norm
    g = element_to_pauli(f)
    one_norm = g.one_norm
    segments = max(1, math.ceil(t * one_norm / LN2))
    target = segments * LN2 / t
    c_i = g.coefficient(pauli_identity(n)).real
    shift = (target - (one_norm - abs(c_i))) - c_i
    taylor_k = report.K
    pad = 2.0 - math.fsum(LN2**m / math.factorial(m) for m in range(taylor_k + 1))
    assert segments == report.M
    assert LN2**taylor_k / math.factorial(taylor_k) <= eps / (4 * segments)

    parts = [(c, *string_index_phase(ps)) for ps, c in g.terms]
    parts.append((shift, np.arange(2**n), 1.0))
    expect = LoopSegment(parts, t / segments, taylor_k, pad).element(u, v, segments, t, shift)
    assert abs(got - expect) <= 1e-12


def test_pauli_route_builds_no_string_gather(monkeypatch, tmp_path):
    n = 6
    f = random_hermitian_k_local(n, 3, 5, seed=13)
    rng = np.random.default_rng(14)
    u, v = Statevector(2, n, random_unit(rng, 2, n)), Statevector(2, n, random_unit(rng, 2, n))
    expect = matrix_element_pauli(u, v, f, 1.3, 1e-6)
    chain = algebra_element(4, {transposition(4, 1, 2): 0.35, transposition(4, 2, 3): 0.25,
                                transposition(4, 3, 4): 0.5})
    path = tmp_path / "f.json"
    path.write_text(json.dumps(element_to_json_dict(chain)))
    argv = ["matelem", "--f", str(path), "--u", "3+1:0:0", "--v", "3+1:1:0", "--t", "1.0",
            "--eps", "1e-4", "--method", "lcu-pauli", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    record = (tmp_path / "out.json").read_text()
    monkeypatch.setattr(pauli_expand, "string_index_phase", refuse)
    with pytest.raises(AssertionError, match="called"):
        pauli_expand.string_index_phase(pauli_identity(n))
    assert matrix_element_pauli(u, v, f, 1.3, 1e-6) == expect
    assert main(argv) == 0
    assert (tmp_path / "out.json").read_text() == record


def test_engine_applies_h_3mk_times(monkeypatch):
    calls, _ = counting_evolve(monkeypatch)
    n = 5
    f = random_hermitian_k_local(n, 3, 4, seed=17)
    rng = np.random.default_rng(18)
    u, v = Statevector(2, n, random_unit(rng, 2, n)), Statevector(2, n, random_unit(rng, 2, n))

    _, report = matrix_element(u, v, f, 2.0, 1e-6)
    assert len(calls) == 3 * report.M * report.K
    assert report.actual == len(calls) * report.w_max

    calls.clear()
    _, report = matrix_element_pauli(u, v, f, 2.0, 1e-6)
    assert len(calls) == 3 * report.M * report.K == report.actual


@pytest.mark.parametrize("n", [8, 12, 16])
def test_engine_runs_the_swap_schedule_in_the_irrep_frame(n, monkeypatch):
    # the chain sum_i (0.3 + 0.01 i)(i i+1) applied as rho_lam(f) + shift on
    # the dim(lam) tableau vectors of lam = (n-2, 2), under the swap route's
    # own schedule; at n = 16 (dim 104) no d^n statevector is built
    f = algebra_element(n, {transposition(n, i, i + 1): 0.3 + 0.01 * i for i in range(1, n)})
    lam = Partition((n - 2, 2))
    rho = sum(c * yor(lam, p) for p, c in f.terms)
    expect = irrep_matrix_element((lam, 0, 1), (lam, 1, 1), f, 1.0)
    assert abs(expect) >= 1e-3
    calls, _ = counting_evolve(monkeypatch)
    e_1 = np.eye(len(rho))[1]
    for eps in (1e-3, 1e-6):
        calls.clear()
        pl = plan(f, 1.0, eps)
        amps = lcu._evolve(lambda a, c: c * (rho @ a + pl.shift * a), e_1, pl)
        got = cmath.exp(1j * pl.t * pl.shift) * amps[0]
        assert abs(got - expect) <= eps
        assert len(calls) == 3 * pl.M * pl.K


def reference_segment(f, delta_t, taylor_k, shift):
    """The product-by-product build: every m-fold product of the shifted
    support in `itertools.product` order, merged in a dict by
    (images, phase); returns the terms as (beta, phase, perm, word)."""
    shifted = add(f, scale(delta(identity(f.n)), shift)) if shift else f
    supp = list(shifted.terms)
    merged = {}

    def put(beta, phase, p):
        entry = merged.setdefault((p.images, phase), [0.0, phase, p])
        entry[0] += beta

    put(1.0, 1 + 0j, identity(f.n))
    for m in range(1, taylor_k + 1):
        base = delta_t**m / math.factorial(m)
        for combo in itertools.product(supp, repeat=m):
            coef = 1 + 0j
            prod = combo[0][0]
            for p, c in combo[1:]:
                prod = prod * p
            for p, c in combo:
                coef *= c
            weight = base * abs(coef)
            if weight == 0.0:
                continue
            put(weight, (-1j) ** m * coef / abs(coef), prod)
    pad = 2.0 - math.fsum(entry[0] for entry in merged.values())
    if pad > 0.0:
        put(pad, 1 + 0j, identity(f.n))
    return [(beta, phase, p, tuple(swap_network(p))) for beta, phase, p in merged.values()]


def cancelling_identity():
    """An element with an identity term, with dt and the shift that
    cancels it exactly: the shifted support has no identity, so only
    the products give the identity its coefficient."""
    n = 4
    cyc = parse_permutation("(1 2 3)", n=n)
    c = -0.25 + 0j
    f = algebra_element(n, {identity(n): 0.7, transposition(n, 1, 2): 0.3,
                            cyc: c, cyc.inverse(): c.conjugate()})
    shifted = add(f, scale(delta(identity(n)), -0.7))
    assert identity(n) not in shifted.support()
    return f, LN2 / shifted.one_norm, 5, -0.7


def sixteen_points():
    """n = 16, far past any n!-sized table: the segment walks only the
    products of its five support terms. The imaginary 3-cycle
    coefficient gives phases off the real and imaginary axes."""
    n = 16
    cyc = parse_permutation("(1 9 16)", n=n)
    f = algebra_element(n, {transposition(n, 1, 16): 0.4, transposition(n, 8, 9): 0.3,
                            cyc: 0.25j, cyc.inverse(): -0.25j})
    return f, 0.4, 4, 0.2


def planned(f, t, eps, k_cap):
    """(f, dt, K, shift) of the plan, K capped so the reference stays fast."""
    pl = plan(f, t, eps)
    return f, pl.delta_t, min(pl.K, k_cap), pl.shift


SMALL_CASES = {
    "k-local-n4": lambda: planned(random_hermitian_k_local(4, 3, 3, seed=11), 0.8, 1e-3, 5),
    "heisenberg-n4": lambda: planned(heisenberg_like(4), 1.0, 1e-3, 5),  # real: many products per term
    "k-local-n5": lambda: planned(random_hermitian_k_local(5, 3, 4, seed=3), 0.5, 1e-2, 4),
    "cancelled-identity": cancelling_identity,
}


@pytest.mark.parametrize("case", [*SMALL_CASES.values(), sixteen_points],
                         ids=[*SMALL_CASES, "n16"])
def test_build_segment_matches_product_loop_as_an_operator(case):
    f, delta_t, taylor_k, shift = case()
    seg = build_segment(f, delta_t, taylor_k, shift=shift)
    expect, got = {}, {}
    for beta, phase, p, _ in reference_segment(f, delta_t, taylor_k, shift):
        expect[p.images] = expect.get(p.images, 0j) + beta * phase
    for term in seg.terms:
        got[term.perm.images] = got.get(term.perm.images, 0j) + term.beta * term.phase
    assert max(abs(got.get(key, 0j) - expect.get(key, 0j)) for key in {*got, *expect}) <= 1e-14
    assert abs(math.fsum(seg.betas.tolist()) - 2.0) <= 1e-15
    assert seg.terms is seg.terms
    assert seg.phase_correction == cmath.exp(1j * delta_t * shift)

    # one term per permutation, but for the identity's cancelling pair
    images = [term.perm.images for term in seg.terms]
    ident = identity(f.n).images
    assert all(images.count(key) == 1 for key in images if key != ident)
    # the view's SWAP words, computed on first use
    assert [term.word for term in seg.terms] == [tuple(swap_network(term.perm))
                                                 for term in seg.terms]
    # the arrays that run_segment reads
    distinct = list(dict.fromkeys(images))
    assert [p.images for p in seg.perms] == distinct
    assert seg.perm_ids.dtype == np.intp
    assert seg.perm_ids.tolist() == [distinct.index(key) for key in images]


def refuse(*args, **kwargs):
    raise AssertionError("called")


@pytest.mark.parametrize("delta_t", [math.nan, -0.1, -math.inf])
def test_build_segment_refuses_nan_or_negative_delta_t(delta_t, monkeypatch):
    # every step that builds part of the segment refuses to run, so the
    # check passes only if it comes before all of them; setattr raises
    # if build_segment stops reading one of these names
    f = heisenberg_like(4)
    for name in ("identity", "delta", "scale", "add", "convolve", "swap_network"):
        monkeypatch.setattr(lcu, name, refuse)
    with pytest.raises(AssertionError, match="called"):
        build_segment(f, 0.1, 3)
    with pytest.raises(ValueError, match=re.escape(f"need delta_t >= 0, got {delta_t}")):
        build_segment(f, delta_t, 3)


def test_explicit_path_builds_no_term_objects(monkeypatch):
    f = random_hermitian_k_local(4, 3, 3, seed=11)
    rng = np.random.default_rng(5)
    u, v = (Statevector(2, 4, random_unit(rng, 2, 4)) for _ in range(2))
    expect, _ = matrix_element(u, v, f, 0.8, 1e-3, explicit=True)
    monkeypatch.setattr(lcu, "LcuTerm", refuse)
    got, _ = matrix_element(u, v, f, 0.8, 1e-3, explicit=True)
    assert (got.real.hex(), got.imag.hex()) == (expect.real.hex(), expect.imag.hex())
    for result in run_suite("lcu-e2e"):
        assert result.passed, f"{result.name}: {result.detail}"


def test_segment_path_composes_no_permutation(monkeypatch):
    # convolve works on image arrays: a Permutation product is never
    # formed, so a compose that raises changes nothing
    f = random_hermitian_k_local(4, 3, 3, seed=11)
    pl = plan(f, 0.8, 1e-3)
    rng = np.random.default_rng(5)
    u, v = (Statevector(2, 4, random_unit(rng, 2, 4)) for _ in range(2))
    runs = (lambda: convolve(f, f).terms,
            lambda: build_segment(f, pl.delta_t, pl.K, shift=pl.shift).terms,
            lambda: matrix_element(u, v, f, 0.8, 1e-3, explicit=True)[0])
    expect = [run() for run in runs]
    monkeypatch.setattr(permutation, "compose", refuse)
    with pytest.raises(AssertionError, match="called"):
        f.support()[0] * f.support()[1]
    assert [run() for run in runs] == expect


def test_term_cap_refuses_with_the_same_message():
    f = heisenberg_like(4)  # five terms: 1 + 5 + ... + 5^5 = 3906 products at K = 5
    message = "flattened segment has 3906 terms (cap 3905); lower K or use a sparser element"
    with pytest.raises(ResourceLimitError, match=re.escape(message)):
        build_segment(f, 0.1, 5, term_cap=3905)
    assert build_segment(f, 0.1, 5, term_cap=3906).terms


def reference_run_segment(state, seg):
    """`run_segment` over the whole power-of-two ancilla register: the
    Householder update touches every row, and the rows are grouped by
    permutation in a dict over the terms, the identity's like any other."""
    d = state.d
    terms = seg.terms
    anc = 1 << max(0, (len(terms) - 1).bit_length())
    column = np.zeros(anc)
    column[: len(terms)] = np.sqrt(np.array([term.beta for term in terms]) / 2.0)
    column /= np.linalg.norm(column)
    house = column.copy()
    house[0] -= 1.0
    h2 = float(house @ house)

    def prep_apply(joint):
        if h2 < 1e-28:
            return joint
        joint -= np.outer(house, (2.0 / h2) * (house @ joint))
        return joint

    phases = np.ones(anc, dtype=complex)
    phases[: len(terms)] = [term.phase for term in terms]
    groups, by_perm = {}, {}
    for j, term in enumerate(terms):
        groups.setdefault(term.perm.images, []).append(j)
        by_perm[term.perm.images] = term.perm
    gathers = {
        images: (np.array(rows), permutation_index_map(by_perm[images], d),
                 permutation_index_map(by_perm[images].inverse(), d))
        for images, rows in groups.items()
    }
    def apply_w(joint, dagger):
        joint = prep_apply(joint)
        col = phases.conj() if dagger else phases
        for rows, fwd, inv in gathers.values():
            g = inv if dagger else fwd
            joint[rows] = col[rows, None] * joint[np.ix_(rows, g)]
        return prep_apply(joint)

    joint = np.zeros((anc, d**state.n), dtype=complex)
    joint[0] = state.amplitudes
    joint = apply_w(joint, dagger=False)
    joint[0] *= -1.0
    joint = apply_w(joint, dagger=True)
    joint[0] *= -1.0
    joint = apply_w(joint, dagger=False)
    return -joint[0] * seg.phase_correction


# the n = 16 case is left out: its 82 terms take a 128 x 2^16 register
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", SMALL_CASES.values(), ids=SMALL_CASES)
def test_run_segment_matches_full_register_bit_for_bit(case, d):
    f, delta_t, taylor_k, shift = case()
    seg = build_segment(f, delta_t, taylor_k, shift=shift)
    state = Statevector(d, f.n, random_unit(np.random.default_rng(d), d, f.n))
    got = run_segment(state, seg).amplitudes
    expect = reference_run_segment(state, seg)
    assert [(z.real.hex(), z.imag.hex()) for z in got.tolist()] == \
        [(z.real.hex(), z.imag.hex()) for z in expect.tolist()]


def test_identity_takes_the_path_of_every_permutation(monkeypatch):
    # the identity's rows are gathered through the arange like any other
    # permutation's, and its empty SWAP word needs no filter
    f = add(random_hermitian_k_local(4, 3, 3, seed=11), scale(delta(identity(4)), 0.3))
    pl = plan(f, 0.5, 1e-2)
    seg = build_segment(f, pl.delta_t, pl.K, shift=pl.shift)
    assert identity(4) in seg.perms and identity(4) in f.support()
    state = Statevector(2, 4, random_unit(np.random.default_rng(2), 2, 4))
    expect, report = run_segment(state, seg).amplitudes, lcu.gate_count_report(pl, f)
    monkeypatch.setattr(lcu.Permutation, "is_identity", refuse)
    assert run_segment(state, seg).amplitudes.tobytes() == expect.tobytes()
    assert lcu.gate_count_report(pl, f) == report


def test_explicit_run_builds_its_index_tables_once(monkeypatch):
    # run_segment keeps a segment's gather tables per d, so the M runs of
    # one matrix element build them once and a run at another d its own
    f = random_hermitian_k_local(4, 3, 3, seed=11)
    rng = np.random.default_rng(5)
    u, v = (Statevector(2, 4, random_unit(rng, 2, 4)) for _ in range(2))
    calls = []
    original = lcu.permutation_index_maps

    def counting(perms, d):
        calls.append(d)
        return original(perms, d)

    monkeypatch.setattr(lcu, "permutation_index_maps", counting)
    _, report = matrix_element(u, v, f, 2.0, 1e-3, explicit=True)
    assert report.M >= 2 and calls == [2]

    pl = plan(f, 0.8, 1e-3)
    states = {d: Statevector(d, 4, random_unit(np.random.default_rng(d), d, 4)) for d in (2, 3)}
    expect = {d: run_segment(state, build_segment(f, pl.delta_t, pl.K, shift=pl.shift))
              for d, state in states.items()}
    seg = build_segment(f, pl.delta_t, pl.K, shift=pl.shift)
    calls.clear()
    for d in (2, 3, 2, 3):
        assert run_segment(states[d], seg).amplitudes.tobytes() == expect[d].amplitudes.tobytes()
    assert calls == [2, 3]
