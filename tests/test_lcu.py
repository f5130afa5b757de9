"""Truncated-series unitary-combination simulator: planning, segments, end to end."""

import math

import numpy as np
import pytest

from snsim import lcu
from snsim.errors import ResourceLimitError, SizeMismatchError
from snsim.group_algebra import (
    AlgebraElement,
    add,
    algebra_element,
    delta,
    pi_tilde_dense,
    random_hermitian_k_local,
    scale,
)
from snsim.lcu import (
    LN2,
    build_segment,
    closed_form_swap_gates,
    closed_form_taylor_order,
    gate_count_report,
    matrix_element,
    plan,
    run_segment,
)
from snsim.pauli_expand import matrix_element_pauli
from snsim.permutation import identity, parse_permutation, transposition
from snsim.quditsim import (
    Statevector,
    basis_state,
    exact_matrix_element,
    irrep_matrix_element,
    young_basis,
)
from snsim.young import Partition


def heisenberg_like(n, scale_to=None):
    """Real symmetric combination of transpositions and a 3-cycle pair."""
    terms = {transposition(n, i, i + 1): 0.4 + 0.1 * i for i in range(1, n)}
    c = parse_permutation("(1 2 3)", n=n)
    terms[c] = 0.3
    terms[c.inverse()] = 0.3
    f = algebra_element(n, terms)
    if scale_to is not None:
        f = scale(f, scale_to / f.one_norm)
    return f


def taylor_segment_operator(f, d, delta_t, taylor_k):
    """sum_{m<=K} (-i dt pi~(f))^m / m! as a dense matrix."""
    ham = pi_tilde_dense(f, d)
    dim = ham.shape[0]
    acc = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for m in range(1, taylor_k + 1):
        term = (-1j * delta_t / m) * (ham @ term)
        acc += term
    return acc


def segment_dense(seg, d):
    """sum_j beta_j phase_j P(perm_j) as a dense matrix (no phase correction)."""
    out = 0j
    for term in seg.terms:
        out = out + (term.beta * term.phase) * pi_tilde_dense(delta(term.perm), d)
    return out


def dense_expm(f, d, t):
    ham = pi_tilde_dense(f, d)
    evals, evecs = np.linalg.eigh(ham)
    return (evecs * np.exp(-1j * t * evals)) @ evecs.conj().T


# ---------------------------------------------------------------------------
# planning


def test_plan_invariants():
    for f, t, eps in [
        (heisenberg_like(4), 0.5, 1e-2),
        (heisenberg_like(4), 1.0, 1e-3),
        (heisenberg_like(5), 2.0, 1e-6),
        (random_hermitian_k_local(4, 3, 3, seed=11), 1.0, 1e-6),
    ]:
        pl = plan(f, t, eps)
        assert pl.M == max(1, math.ceil(t * f.one_norm / LN2))
        assert pl.delta_t == t / pl.M
        # the identity shift retunes the segment 1-norm to exactly ln 2 / dt
        assert abs(pl.delta_t * pl.shifted_one_norm - LN2) < 1e-12
        assert pl.epsilon_tilde == eps / (4 * pl.M)
        # K is the least order putting the ln2-tail under budget
        tail = LN2 ** (pl.K + 1) / math.factorial(pl.K + 1) * 2.0
        assert LN2**pl.K / math.factorial(pl.K) <= pl.epsilon_tilde
        if pl.K > 1:
            assert LN2 ** (pl.K - 1) / math.factorial(pl.K - 1) > pl.epsilon_tilde
        assert tail < pl.epsilon_tilde  # next term is already past the goal
        # padding closes the gap between the partial sum of ln2^m/m! and 2
        partial = math.fsum(LN2**m / math.factorial(m) for m in range(pl.K + 1))
        assert abs(pl.pad - (2.0 - partial)) < 1e-12
        assert 0.0 <= pl.pad < 1.0
        assert pl.closed_form_K == closed_form_taylor_order(pl.epsilon_tilde)


def test_plan_rejections():
    f = heisenberg_like(4)
    with pytest.raises(ValueError):
        plan(f, 0.0, 1e-3)
    with pytest.raises(ValueError):
        plan(f, -1.0, 1e-3)
    with pytest.raises(ValueError):
        plan(f, 1.0, 0.0)
    with pytest.raises(ValueError):
        plan(f, 1.0, 1.0)
    skew = algebra_element(4, {parse_permutation("(1 2 3)", n=4): 1.0})
    with pytest.raises(ValueError):
        plan(skew, 1.0, 1e-3)


@pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf, complex(0, math.nan)],
                         ids=["nan", "inf", "-inf", "nan-imag"])
def test_non_finite_coefficient_is_not_hermitian(coeff):
    # c - conj(c) is NaN here, and NaN fails every comparison, so the check
    # must refuse on a failed <= rather than on a passed >
    f = algebra_element(4, {transposition(4, 1, 2): coeff})
    u, v = basis_state(2, 4, [0, 1, 1, 0]), basis_state(2, 4, [1, 0, 1, 0])
    lam = Partition((3, 1))
    routes = [
        lambda: matrix_element(u, v, f, 1.0, 1e-3),
        lambda: matrix_element(u, v, f, 1.0, 1e-3, explicit=True),
        lambda: plan(f, 1.0, 1e-3),
        lambda: matrix_element_pauli(u, v, f, 1.0, 1e-3),
        lambda: exact_matrix_element(u, v, f, 1.0),
        lambda: irrep_matrix_element((lam, 0, 0), (lam, 1, 0), f, 1.0),
    ]
    for route in routes:
        with pytest.raises(ValueError, match="not Hermitian"):
            route()


def test_closed_form_shapes():
    assert closed_form_taylor_order(1e-3) >= 1
    # more precision never lowers the order
    orders = [closed_form_taylor_order(10.0**-p) for p in range(2, 12)]
    assert orders == sorted(orders)
    assert closed_form_swap_gates(1.0, 0.0, 3, 5, 1e-3) == 0.0
    g5 = closed_form_swap_gates(1.0, 1.0, 3, 5, 1e-3)
    g6 = closed_form_swap_gates(1.0, 1.0, 3, 6, 1e-3)
    assert 0.0 < g5 < g6


# ---------------------------------------------------------------------------
# one segment


def test_truncation_error_under_lagrange_bound():
    f = heisenberg_like(4)
    d, t, eps = 2, 1.0, 1e-6
    pl = plan(f, t, eps)
    shifted = add(f, scale(delta(identity(f.n)), pl.shift))
    approx = taylor_segment_operator(shifted, d, pl.delta_t, pl.K)
    exact = dense_expm(shifted, d, pl.delta_t)
    err = np.linalg.norm(approx - exact, 2)
    # |x| = dt * ||c'|| = ln 2 on the worst eigenvalue
    bound = LN2 ** (pl.K + 1) / math.factorial(pl.K + 1)
    assert err <= bound


def test_segment_reconstruction_and_norm():
    f = heisenberg_like(4)
    d = 2
    pl = plan(f, 1.0, 1e-3)
    seg = build_segment(f, pl.delta_t, pl.K, shift=pl.shift)
    assert all(term.beta > 0.0 for term in seg.terms)
    assert abs(math.fsum(term.beta for term in seg.terms) - 2.0) < 1e-12
    shifted = add(f, scale(delta(identity(f.n)), pl.shift))
    expect = taylor_segment_operator(shifted, d, pl.delta_t, pl.K) + pl.pad * np.eye(d**f.n)
    got = segment_dense(seg, d)
    assert np.max(np.abs(got - expect)) <= 1e-10


def test_segment_words_replay_their_permutations():
    f = random_hermitian_k_local(5, 3, 4, seed=3)
    pl = plan(f, 0.5, 1e-2)
    seg = build_segment(f, pl.delta_t, min(pl.K, 3), shift=pl.shift)
    from snsim.quditsim import apply_permutation, permutation_matrix

    rng = np.random.default_rng(0)
    amps = rng.standard_normal(2**5) + 1j * rng.standard_normal(2**5)
    state = Statevector(2, 5, amps)
    for term in seg.terms[:40]:
        replayed = state
        for i in term.word:
            replayed = apply_permutation(replayed, transposition(5, i, i + 1))
        assert np.array_equal(replayed.amplitudes, permutation_matrix(term.perm, 2) @ amps)


def test_run_segment_equals_block_formula():
    f = heisenberg_like(4)
    d = 2
    pl = plan(f, 1.0, 1e-3)
    seg = build_segment(f, pl.delta_t, pl.K, shift=pl.shift)
    t_mat = 0.5 * segment_dense(seg, d)  # block of the prepared ancilla circuit
    block = 3.0 * t_mat - 4.0 * t_mat @ t_mat.conj().T @ t_mat
    rng = np.random.default_rng(7)
    amps = rng.standard_normal(d**4) + 1j * rng.standard_normal(d**4)
    amps /= np.linalg.norm(amps)
    got = run_segment(Statevector(d, 4, amps), seg).amplitudes
    expect = seg.phase_correction * (block @ amps)
    assert np.max(np.abs(got - expect)) <= 1e-12


def test_segment_deviation_within_per_segment_budget():
    # phase-corrected amplified block vs the true segment propagator
    for t, eps in [(0.5, 1e-2), (1.0, 1e-3), (1.0, 1e-6)]:
        f = heisenberg_like(4)
        d = 2
        pl = plan(f, t, eps)
        shifted = add(f, scale(delta(identity(f.n)), pl.shift))
        t_mat = 0.5 * (
            taylor_segment_operator(shifted, d, pl.delta_t, pl.K)
            + pl.pad * np.eye(d**f.n)
        )
        block = 3.0 * t_mat - 4.0 * t_mat @ t_mat.conj().T @ t_mat
        step = np.exp(1j * pl.delta_t * pl.shift) * block
        exact = dense_expm(f, d, pl.delta_t)
        assert np.linalg.norm(step - exact, 2) <= eps / pl.M


# ---------------------------------------------------------------------------
# end to end


def test_matrix_element_tracks_oracle_across_regimes():
    f = random_hermitian_k_local(4, 3, 3, seed=11)
    basis = young_basis(4, 2)
    by_key = {(v.shape, v.tableau_index, v.weight_index): v for v in basis}
    shape = max({v.shape for v in basis}, key=lambda s: len(s.parts))
    pairs = [(basis[0], basis[0]), (basis[2], basis[4])]
    for (sh, ti, wi), v in by_key.items():
        other = by_key.get((sh, ti + 1, wi))
        if other is not None:
            pairs.append((v, other))
            break
    for u, v in pairs:
        for t in (0.5, 1.0, 2.0):
            expect = exact_matrix_element(u, v, f, t)
            for eps in (1e-2, 1e-3, 1e-6):
                got, report = matrix_element(u, v, f, t, eps)
                assert abs(got - expect) <= eps, (t, eps)
                assert report.actual <= report.bound_k2mk


def test_explicit_ancilla_path_matches_fast_path():
    f = random_hermitian_k_local(4, 3, 3, seed=11)
    basis = young_basis(4, 2)
    u, v = basis[1], basis[1]
    fast, r1 = matrix_element(u, v, f, 1.0, 1e-3)
    slow, r2 = matrix_element(u, v, f, 1.0, 1e-3, explicit=True)
    assert abs(fast - slow) <= 1e-8
    assert r1 == r2


def test_matrix_element_on_computational_states():
    f = heisenberg_like(4)
    a = basis_state(2, 4, [0, 1, 1, 0])
    b = basis_state(2, 4, [1, 0, 1, 0])
    expect = exact_matrix_element(a, b, f, 0.9)
    got, _ = matrix_element(a, b, f, 0.9, 1e-4)
    assert abs(got - expect) <= 1e-4


def test_time_zero_and_zero_element():
    f = heisenberg_like(4)
    a = basis_state(2, 4, [0, 1, 1, 0])
    value, report = matrix_element(a, a, f, 0.0, 1e-3)
    assert value == 1.0 and report.actual == 0
    # the zero element evolves by the identity; only the shift survives
    zero = AlgebraElement(3, ())
    b = basis_state(2, 3, [1, 0, 1])
    got, _ = matrix_element(b, b, zero, 1.5, 1e-6)
    assert abs(got - 1.0) <= 1e-6


def test_segment_doubling_ratio():
    f = heisenberg_like(4, scale_to=3.6)
    pl1, pl2 = plan(f, 1.0, 1e-6), plan(f, 2.0, 1e-6)
    assert (pl1.M, pl2.M) == (6, 11)
    r1 = gate_count_report(pl1, f)
    r2 = gate_count_report(pl2, f)
    ratio = r2.actual / r1.actual
    assert 1.8 <= ratio <= 2.2


def test_flattening_cap_raises(monkeypatch):
    f = random_hermitian_k_local(5, 3, 6, seed=9)
    basis_u = basis_state(2, 5, 0)
    monkeypatch.setattr(lcu, "DEFAULT_TERM_CAP", 50)
    with pytest.raises(ResourceLimitError):
        matrix_element(basis_u, basis_u, f, 1.0, 1e-6, explicit=True)


def test_matrix_element_rejections():
    f = heisenberg_like(4)
    a = basis_state(2, 4, 0)
    with pytest.raises(SizeMismatchError):
        matrix_element(a, basis_state(2, 3, 0), f, 1.0, 1e-3)
    with pytest.raises(SizeMismatchError):
        matrix_element(basis_state(2, 3, 0), basis_state(2, 3, 0), f, 1.0, 1e-3)
    with pytest.raises(ValueError):
        matrix_element(a, a, f, -1.0, 1e-3)
    skew = algebra_element(4, {parse_permutation("(1 2 3)", n=4): 1.0})
    with pytest.raises(ValueError):
        matrix_element(a, a, skew, 1.0, 1e-3)


def test_both_routes_reject_bad_t_and_epsilon(deadline):
    # a negative truncation budget used to loop forever in the Pauli route
    f = heisenberg_like(4)
    a = basis_state(2, 4, 0)
    bad = [(1.0, eps) for eps in (0.0, 1.5, -1e-3)] + [(t, 1e-3) for t in (math.inf, math.nan)]
    for route in (matrix_element, matrix_element_pauli):
        for t, eps in bad:
            deadline(10)
            with pytest.raises(ValueError):
                route(a, a, f, t, eps)


def test_work_cap_refuses_before_the_segment_loop(deadline):
    # on 16 amplitudes every select application costs the call floor:
    # t = 1e6 plans ~3.5e6 segments, which only the floor refuses and
    # the fast path would run for minutes, 1e7 for hours; 1e308
    # overflows the schedule, where it used to raise OverflowError; the
    # plan alone, pure accounting, accepts 1e300
    f = heisenberg_like(4)
    a = basis_state(2, 4, 0)
    assert plan(f, 1e300, 0.5).M > 10**300
    for t in (1e6, 1e7, 1e9, 1e300, 1e308):
        for run in (lambda: matrix_element(a, a, f, t, 0.5),
                    lambda: matrix_element(a, a, f, t, 0.5, explicit=True),
                    lambda: matrix_element_pauli(a, a, f, t, 0.5)):
            deadline(10)
            with pytest.raises(ResourceLimitError):
                run()
