"""Qudit register, permutation action, and the adapted basis."""

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snsim.errors import ResourceLimitError, SizeMismatchError
from snsim import group_algebra
from snsim.group_algebra import algebra_element, delta, pi_tilde_dense, random_hermitian_k_local
from snsim.permutation import (
    enumerate_sn,
    identity,
    parse_permutation,
    span,
    transposition,
)
from snsim import quditsim
from snsim.quditsim import (
    Statevector,
    apply_permutation,
    basis_state,
    exact_matrix_element,
    irrep_matrix_element,
    permutation_index_map,
    permutation_matrix,
    swap_network,
    young_basis,
    young_vectors,
)
from snsim.yor import generator_tables, tableaux, yor
from snsim.young import (
    Partition,
    StandardTableau,
    enumerate_partitions,
    parse_partition,
    weyl_dimension,
)


def permute_oracle(amps, p, d):
    """Reference action through explicit tensor index relabeling."""
    n = p.n
    tensor = amps.reshape((d,) * n)
    # digit at site q moves to site p(q): output axis p(q)-1 is input axis q-1
    pinv = p.inverse()
    return np.transpose(tensor, axes=[pinv(q) - 1 for q in range(1, n + 1)]).reshape(-1)


def test_permutation_action_matches_tensor_oracle():
    rng = np.random.default_rng(5)
    for n, d in [(3, 2), (4, 2), (3, 3)]:
        amps = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        state = Statevector(d, n, amps)
        for p in enumerate_sn(n):
            got = apply_permutation(state, p).amplitudes
            assert np.array_equal(got, permute_oracle(amps, p, d)), p


def test_permutation_action_on_product_states():
    # P(p) e_{i_1} x ... x e_{i_n} = e_{i_{p^-1(1)}} x ... x e_{i_{p^-1(n)}}
    d, n = 3, 4
    rng = np.random.default_rng(8)
    for p in [parse_permutation("(1 2 3 4)"), parse_permutation("(2 4)", n=4)]:
        digits = [int(x) for x in rng.integers(0, d, size=n)]
        state = basis_state(d, n, digits)
        moved = apply_permutation(state, p)
        pinv = p.inverse()
        expect = basis_state(d, n, [digits[pinv(q) - 1] for q in range(1, n + 1)])
        assert np.array_equal(moved.amplitudes, expect.amplitudes)


def test_permutation_matrices_are_a_representation():
    d = 2
    for p, q in itertools.product(enumerate_sn(3), repeat=2):
        lhs = permutation_matrix(p * q, d)
        rhs = permutation_matrix(p, d) @ permutation_matrix(q, d)
        assert np.array_equal(lhs, rhs)


def test_index_map_composes_contravariantly():
    d = 2
    for p, q in itertools.product(enumerate_sn(3), repeat=2):
        gp, gq = permutation_index_map(p, d), permutation_index_map(q, d)
        gpq = permutation_index_map(p * q, d)
        # state gathers compose in reverse
        assert np.array_equal(gq[gp], gpq)


def test_swap_network_replays_to_same_action():
    rng = np.random.default_rng(13)
    for n, d in [(4, 2), (5, 2), (4, 3)]:
        amps = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
        state = Statevector(d, n, amps)
        for p in enumerate_sn(n):
            replayed = state
            for i in swap_network(p):
                replayed = apply_permutation(replayed, transposition(n, i, i + 1))
            assert np.array_equal(replayed.amplitudes, apply_permutation(state, p).amplitudes)


def test_swap_network_stays_inside_span_and_is_short():
    for p in enumerate_sn(6):
        word = swap_network(p)
        k = span(p)
        assert len(word) <= k * (k - 1) // 2
        if word:
            lo = min(i for i in range(1, 7) if p(i) != i)
            hi = max(i for i in range(1, 7) if p(i) != i)
            assert all(lo <= g <= hi - 1 for g in word)


def test_statevector_validation_and_inner():
    with pytest.raises(ValueError):
        Statevector(2, 2, np.zeros(3, dtype=complex))
    a = basis_state(2, 2, [0, 1])
    b = basis_state(2, 2, 1)
    assert a.inner(b) == 1.0  # index 1 is digits (0, 1) big-endian
    assert a.norm() == 1.0


@pytest.mark.parametrize("index", [-1, -8, 8, 100])
def test_basis_state_refuses_an_index_outside_the_register(index):
    # a negative index is refused, not wrapped to the end of the register
    with pytest.raises(ValueError, match=rf"digits {index} invalid for d=2, n=3"):
        basis_state(2, 3, index)
    assert basis_state(2, 3, 7).amplitudes[7] == 1.0
    assert basis_state(2, 3, 0).amplitudes[0] == 1.0


def test_basis_state_reads_any_integer_as_one_index():
    expect = basis_state(2, 3, 5).amplitudes
    assert np.array_equal(basis_state(2, 3, np.int64(5)).amplitudes, expect)
    # a bool is the integer 0 or 1, never a mask over the whole register
    assert np.flatnonzero(basis_state(2, 3, True).amplitudes).tolist() == [1]
    with pytest.raises(ValueError):
        basis_state(2, 3, np.int64(-1))


def test_dense_cap():
    with pytest.raises(ResourceLimitError):
        permutation_matrix(identity(20), 2)
    with pytest.raises(ResourceLimitError):
        young_basis(15, 2)


# ---------------------------------------------------------------------------
# Young basis


def test_young_basis_is_orthonormal():
    for n, d in [(3, 2), (4, 2), (5, 2), (3, 3), (2, 4)]:
        basis = young_basis(n, d)
        mat = np.array([v.vector.amplitudes for v in basis])
        assert mat.shape == (d**n, d**n)
        gram = mat.conj() @ mat.T
        assert np.max(np.abs(gram - np.eye(d**n))) <= 1e-12


def test_young_basis_block_diagonalizes_generators():
    for n, d in [(3, 2), (4, 2), (3, 3)]:
        basis = young_basis(n, d)
        mat = np.array([v.vector.amplitudes for v in basis])
        for k in range(1, n):
            s_k = transposition(n, k, k + 1)
            rep = mat.conj() @ permutation_matrix(s_k, d) @ mat.T
            for a, va in enumerate(basis):
                for b, vb in enumerate(basis):
                    if va.shape == vb.shape and va.weight_index == vb.weight_index:
                        expect = yor(va.shape, s_k)[va.tableau_index, vb.tableau_index]
                    else:
                        expect = 0.0
                    assert abs(rep[a, b] - expect) <= 1e-12


def test_young_basis_jm_eigenvectors():
    # pi~(X_k) v = content_T(k) v for X_k = sum_{i<k} (i k)
    for n, d in [(4, 2), (3, 3), (8, 2), (5, 3)]:
        basis = young_basis(n, d)
        for k in range(2, n + 1):
            x_k = algebra_element(
                n, {transposition(n, i, k): 1.0 for i in range(1, k)}
            )
            op = pi_tilde_dense(x_k, d)
            for v in basis:
                resid = op @ v.vector.amplitudes - v.tableau.content(k) * v.vector.amplitudes
                assert np.max(np.abs(resid)) <= 1e-10, (n, d, k, v.label())


def test_young_basis_weights_count_digits():
    for n, d in [(4, 2), (3, 3), (3, 4)]:
        for v in young_basis(n, d):
            nz = np.flatnonzero(np.abs(v.vector.amplitudes) > 1e-9)
            digit_counts = None
            for idx in nz:
                digits = np.base_repr(idx, base=d).zfill(n)
                counts = tuple(digits.count(str(a)) for a in range(d))
                if digit_counts is None:
                    digit_counts = counts
                else:
                    # every contributing computational state shares the weight
                    assert counts == digit_counts
            assert digit_counts == v.weight


def test_weight_strings_are_the_lex_descending_compositions():
    for n in range(7):
        for d in range(1, 6):
            expect = sorted((mu for mu in itertools.product(range(n + 1), repeat=d)
                             if sum(mu) == n), reverse=True)
            assert list(quditsim._compositions(n, d)) == expect, (n, d)


def test_young_basis_at_one_qudit_of_large_d():
    # d weight strings of d digits each, with d past Python's recursion
    # limit: the strings are generated without recursion
    d = 1100
    basis = young_basis(1, d)
    assert len(basis) == d
    for w, v in enumerate(basis):
        unit = np.zeros(d)
        unit[w] = 1.0
        assert v.label() == f"1:0:{w}"
        assert v.weight == tuple(unit.astype(int).tolist())
        assert v.vector.amplitudes.tobytes() == unit.tobytes()


def digit_counts(d, n):
    """counts[i, a] = how many qudits of basis index i hold digit a: the
    weight of i, which every P(p) keeps."""
    digits = np.indices((d,) * n).reshape(n, -1)
    return np.stack([(digits == a).sum(axis=0) for a in range(d)], axis=1)


def transposition_maps(n, d):
    return {(i, k): permutation_index_map(transposition(n, i, k), d)
            for k in range(2, n + 1) for i in range(1, k)}


def reference_top_weight_vector(lam, t0, d, n, trans_maps):
    """The top-weight vector as found before the Young symmetrizer: the
    weight-lam sector refined into joint eigenspaces of the star sums
    X_k = sum_{i<k} (i k), keeping eigenvalue content_t0(k) for each k."""
    sel = np.flatnonzero((digit_counts(d, n) == np.array(lam.padded(d))).all(axis=1))
    basis = np.zeros((d**n, len(sel)))
    basis[sel, np.arange(len(sel))] = 1.0
    for k in range(2, n + 1):
        image = np.zeros_like(basis)
        for i in range(1, k):
            image += basis[trans_maps[(i, k)]]
        evals, evecs = np.linalg.eigh(basis.T @ image)
        basis = basis @ evecs[:, np.abs(evals - t0.content(k)) < 0.25]
    assert basis.shape[1] == 1
    v = basis[:, 0]
    return quditsim._canonical_sign(v / np.linalg.norm(v))


@pytest.mark.parametrize("n,d", [(6, 2), (8, 2), (10, 2), (4, 3), (6, 3), (4, 4), (5, 4)])
def test_top_weight_vector_matches_eigen_refinement(n, d):
    trans_maps = transposition_maps(n, d)
    for lam in enumerate_partitions(n, max_rows=min(n, d)):
        t0 = tableaux(lam)[0]
        got = quditsim._top_weight_vector(lam, t0, d, n)
        want = reference_top_weight_vector(lam, t0, d, n, trans_maps)
        assert np.max(np.abs(got - want)) <= 1e-12, lam


def test_first_tableau_is_row_superstandard():
    # the symmetrizer reads its rows and columns off tableaux(lam)[0]
    shapes = 0
    for n in range(1, 10):
        for lam in enumerate_partitions(n):
            starts = itertools.accumulate(lam.parts[:-1], initial=0)
            rows = tuple(tuple(range(s + 1, s + part + 1)) for s, part in zip(starts, lam.parts))
            assert tableaux(lam)[0].rows == rows, lam
            shapes += 1
    assert shapes == 96


def test_young_basis_calls_no_eigensolver(monkeypatch):
    calls = []
    for name in ("eigh", "eig", "svd"):
        def recording(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    young_basis.cache_clear()
    young_basis(8, 2)
    young_basis(5, 3)
    assert calls == []


def test_young_basis_caches_one_basis():
    # a basis at (12, 2) holds 268 MB, so a second one is never kept
    young_basis.cache_clear()
    young_basis(4, 2)
    young_basis(3, 2)
    assert young_basis.cache_info().currsize == 1
    assert young_basis(3, 2) is young_basis(3, 2)


@pytest.mark.parametrize("n,d", [(12, 2), (8, 3)])
def test_young_basis_is_orthonormal_per_weight(n, d):
    # vectors of different weights have disjoint supports, so one Gram
    # matrix per weight sector checks what the full d^n x d^n one would
    counts = digit_counts(d, n)
    by_weight: dict = {}
    for v in young_basis(n, d):
        by_weight.setdefault(v.weight, []).append(v.vector.amplitudes)
    young_basis.cache_clear()  # the basis at this size holds hundreds of MB
    worst = 0.0
    for mu, vecs in by_weight.items():
        inside = (counts == mu).all(axis=1)
        mat = np.array(vecs)
        assert not mat[:, ~inside].any(), mu
        block = mat[:, inside]
        worst = max(worst, float(np.abs(block.conj() @ block.T - np.eye(len(vecs))).max()))
    assert worst <= 1e-12


def reference_transport(lam, seed_vec, trans_maps):
    """Companion vectors of one weight copy, as built before the per-shape
    stack: an index dict and StandardTableau.swap on every edge."""
    ts = tableaux(lam)
    index = {t: i for i, t in enumerate(ts)}
    vecs = {0: seed_vec}
    queue = [0]
    while queue:
        ti = queue.pop(0)
        t = ts[ti]
        for k in range(1, lam.n):
            mate = t.swap(k)
            if mate is None:
                continue
            mi = index[mate]
            if mi in vecs:
                continue
            r = t.axial_distance(k)
            swapped = vecs[ti][trans_maps[(k, k + 1)]]
            vecs[mi] = (swapped - vecs[ti] / r) / np.sqrt(1.0 - 1.0 / (r * r))
            queue.append(mi)
    return [vecs[i] for i in range(len(ts))]


def reference_young_basis(n, d):
    """(shape, tableau index, weight index, weight, amplitudes) per vector,
    built one weight copy at a time, each weight recounted from the digits
    of the vector's first amplitude above 1e-9."""
    trans_maps = transposition_maps(n, d)
    digits = np.indices((d,) * n).reshape(n, -1).T
    out = []
    for lam in enumerate_partitions(n, max_rows=min(n, d)):
        v_top = quditsim._top_weight_vector(lam, tableaux(lam)[0], d, n)
        per_copy = [reference_transport(lam, vec, trans_maps)
                    for _, vec in quditsim._su_d_copies(lam, v_top, d, n)]
        for ti in range(len(tableaux(lam))):
            for wi, copy_vecs in enumerate(per_copy):
                vec = copy_vecs[ti]
                first = np.flatnonzero(np.abs(vec) > 1e-9)[0]
                mu = tuple(int((digits[first] == a).sum()) for a in range(d))
                out.append((lam, ti, wi, mu, vec))
    return out


@pytest.mark.parametrize("n,d", [(6, 2), (8, 2), (4, 3), (5, 3), (4, 4)])
def test_young_basis_matches_per_copy_build_bit_for_bit(n, d):
    got = young_basis(n, d)
    want = reference_young_basis(n, d)
    assert len(got) == len(want) == d**n
    for vec, (lam, ti, wi, mu, amps) in zip(got, want):
        assert (vec.shape, vec.tableau_index, vec.weight_index, vec.weight) == (lam, ti, wi, mu)
        assert vec.tableau == tableaux(lam)[ti]
        assert vec.vector.amplitudes.tobytes() == amps.tobytes()


def test_young_basis_transports_once_per_shape(monkeypatch):
    n, d = 6, 3
    shapes = list(enumerate_partitions(n, max_rows=d))
    for lam in shapes:
        generator_tables(lam)  # cached before the count below starts
    calls, swaps = [], []
    transport, swap = quditsim._transport, StandardTableau.swap

    def recording_transport(lam, seeds, d, targets):
        calls.append((lam, seeds.shape, list(targets)))
        return transport(lam, seeds, d, targets)

    def recording_swap(self, k):
        swaps.append(k)
        return swap(self, k)

    monkeypatch.setattr(quditsim, "_transport", recording_transport)
    monkeypatch.setattr(StandardTableau, "swap", recording_swap)
    young_basis.cache_clear()
    young_basis(n, d)
    assert len(calls) == len(shapes) == 7
    # every copy of a shape moves together, to every tableau
    assert calls == [(lam, (weyl_dimension(lam, d), d**n), list(range(len(tableaux(lam)))))
                     for lam in shapes]
    # partners come from the cached generator tables, not from the tableaux
    assert swaps == []


def same_member(got, want):
    assert (got.label(), got.shape, got.tableau, got.tableau_index, got.weight_index,
            got.weight) == (want.label(), want.shape, want.tableau, want.tableau_index,
                            want.weight_index, want.weight)
    assert got.vector.amplitudes.tobytes() == want.vector.amplitudes.tobytes()


@pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (8, 2), (4, 3), (5, 3), (4, 4)])
def test_young_vector_is_the_basis_member_bit_for_bit(n, d):
    for want in young_basis(n, d):
        same_member(young_vectors(n, d, [label(want)])[0], want)


def test_young_vector_matches_sampled_members_at_n10():
    basis = young_basis(10, 2)
    rng = np.random.default_rng(10)
    for i in rng.choice(len(basis), size=24, replace=False):
        want = basis[int(i)]
        same_member(young_vectors(10, 2, [label(want)])[0], want)


def label_pairs(basis):
    """Every label paired with itself, with the next tableau at its
    weight index, with the next weight index at its tableau, and with a
    label of the next shape; each partner map is onto, so every label
    is also in the second place."""
    by_shape: dict = {}
    for vec in basis:
        by_shape.setdefault(vec.shape, []).append(label(vec))
    shapes = list(by_shape)
    for si, lam in enumerate(shapes):
        dim, copies = len(tableaux(lam)), len(by_shape[lam]) // len(tableaux(lam))
        other = by_shape[shapes[(si + 1) % len(shapes)]]
        for i, u in enumerate(by_shape[lam]):
            _, ti, wi = u
            yield u, u
            yield u, (lam, (ti + 1) % dim, wi)
            yield u, (lam, ti, (wi + 1) % copies)
            yield u, other[i % len(other)]


@pytest.mark.parametrize("n,d", [(6, 2), (5, 3), (4, 4)])
def test_young_vectors_are_the_basis_members_bit_for_bit(n, d):
    basis = young_basis(n, d)
    member = {label(vec): vec for vec in basis}
    kinds = set()
    for u, v in label_pairs(basis):
        got = quditsim.young_vectors(n, d, (u, v))
        same_member(got[0], member[u])
        same_member(got[1], member[v])
        kinds.add((u == v, u[0] == v[0], u[1] == v[1], u[2] == v[2]))
    # u == v; one shape with another tableau or another weight index; two shapes
    assert {(True, True, True, True), (False, True, False, True),
            (False, True, True, False), (False, False, False, False)} <= kinds


@pytest.mark.parametrize("n,d", [(8, 2), (6, 3)])
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_young_vectors_match_drawn_members(n, d, data):
    basis = young_basis(n, d)
    indices = st.integers(0, len(basis) - 1)
    i, j = data.draw(indices), data.draw(indices)
    got = quditsim.young_vectors(n, d, (label(basis[i]), label(basis[j])))
    same_member(got[0], basis[i])
    same_member(got[1], basis[j])


def test_young_vector_builds_one_block_and_one_copy(monkeypatch):
    n, d = 6, 3
    calls = []
    transport = quditsim._transport

    def recording_transport(lam, seeds, d, targets):
        calls.append((lam, seeds.shape, list(targets)))
        return transport(lam, seeds, d, targets)

    monkeypatch.setattr(quditsim, "_transport", recording_transport)
    lam = enumerate_partitions(n, max_rows=d)[3]
    first = young_vectors(n, d, [(lam, 2, 1)])[0]
    second = young_vectors(n, d, [(lam, 2, 1)])[0]
    assert calls == [(lam, (1, d**n), [2])] * 2  # nothing is kept between calls
    assert first.vector.amplitudes is not second.vector.amplitudes


def test_young_vectors_build_one_block_per_shape(monkeypatch):
    n, d = 6, 3
    calls = []
    transport = quditsim._transport

    def recording_transport(lam, seeds, d, targets):
        calls.append((lam, seeds.shape, list(targets)))
        return transport(lam, seeds, d, targets)

    monkeypatch.setattr(quditsim, "_transport", recording_transport)
    lam, other = enumerate_partitions(n, max_rows=d)[3:5]
    labels = [(lam, 4, 2), (other, 0, 0), (lam, 1, 0), (lam, 4, 2)]
    got = quditsim.young_vectors(n, d, labels)
    # one transport per distinct shape, of its distinct copies to its
    # distinct tableaux; a repeated label is the same member
    assert calls == [(lam, (2, d**n), [1, 4]), (other, (1, d**n), [0])]
    assert [label(v) for v in got] == labels
    assert got[0] is got[3]


def transport_depths(lam):
    """Breadth-first distance of every tableau from tableau 0 over the
    exchange edges k <-> k+1, found with StandardTableau.swap."""
    ts = tableaux(lam)
    index = {t: i for i, t in enumerate(ts)}
    depth = {0: 0}
    queue = [0]
    for ti in queue:
        for k in range(1, lam.n):
            mate = ts[ti].swap(k)
            if mate is not None and index[mate] not in depth:
                depth[index[mate]] = depth[ti] + 1
                queue.append(index[mate])
    return [depth[i] for i in range(len(ts))]


class CountingExchanges:
    """`quditsim._exchange`, counting the calls made to it."""

    def __init__(self, monkeypatch):
        self.calls, self.exchange = 0, quditsim._exchange
        monkeypatch.setattr(quditsim, "_exchange", self)

    def __call__(self, *args):
        self.calls += 1
        return self.exchange(*args)


@pytest.mark.parametrize("n,d,parts", [(8, 2, (5, 3)), (6, 3, (3, 2, 1)), (7, 2, (4, 3))])
def test_transport_gathers_once_per_edge_on_the_requested_paths(n, d, parts, monkeypatch):
    lam = Partition(parts)
    dim = len(tableaux(lam))
    v_top = quditsim._top_weight_vector(lam, tableaux(lam)[0], d, n)
    seeds = np.stack([vec for _, vec in quditsim._su_d_copies(lam, v_top, d, n)])
    full = quditsim._transport(lam, seeds, d, range(dim))
    assert list(full) == list(range(dim))
    depth = transport_depths(lam)
    rng = np.random.default_rng(dim)
    requests = [[0], [dim - 1], [int(rng.integers(dim))]]
    requests += [sorted({int(i) for i in rng.choice(dim, 2)}) for _ in range(3)]
    counting = CountingExchanges(monkeypatch)
    for targets in requests + [list(range(dim))]:
        counting.calls = 0
        got = quditsim._transport(lam, seeds, d, targets)
        assert list(got) == targets
        for ti in targets:
            assert got[ti].tobytes() == full[ti].tobytes()
        # a tree path to tableau t has depth(t) edges; paths may share edges
        assert counting.calls <= sum(depth[ti] for ti in targets)
        if len(targets) == 1:
            assert counting.calls == depth[targets[0]]
        if len(targets) == dim:
            assert counting.calls == dim - 1


def test_transport_frees_what_it_does_not_return():
    n, d, lam = 12, 2, Partition((6, 6))
    dim = len(tableaux(lam))
    seeds = np.random.default_rng(1).standard_normal((1, d**n))
    deepest = int(np.argmax(transport_depths(lam)))
    quditsim._transport(lam, seeds, d, [0])  # fills the tableau caches
    gc.disable()  # a reference cycle would keep the path's vectors alive
    tracemalloc.start()
    try:
        got = quditsim._transport(lam, seeds, d, [deepest])
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert dim > 100 and max(transport_depths(lam)) >= 10
    assert held <= got[deepest].nbytes + 2**14


def lowering_log(monkeypatch, build):
    """The calls to `_lower` ("L") and `_canonical_sign` ("C", one per
    copy made, the top copy's first) in order, while `build` runs."""
    log = []
    lower, sign = quditsim._lower, quditsim._canonical_sign

    def recording_lower(*args):
        log.append("L")
        return lower(*args)

    def recording_sign(vec):
        log.append("C")
        return sign(vec)

    monkeypatch.setattr(quditsim, "_lower", recording_lower)
    monkeypatch.setattr(quditsim, "_canonical_sign", recording_sign)
    try:
        build()
    finally:
        monkeypatch.undo()
    return "".join(log)


@pytest.mark.parametrize("n,d,parts", [(6, 3, (3, 2, 1)), (5, 3, (4, 1)), (8, 2, (6, 2)),
                                       (4, 4, (2, 1, 1))])
def test_lowering_stops_at_the_highest_requested_copy(n, d, parts, monkeypatch):
    lam = Partition(parts)
    full = lowering_log(monkeypatch, lambda: young_vectors(n, d, [(lam, 0, weyl_dimension(lam, d) - 1)]))
    assert full.count("C") == weyl_dimension(lam, d)
    for wi in range(weyl_dimension(lam, d)):
        # copy wi is the (wi + 1)-th made; nothing is lowered after it
        upto = [i for i, e in enumerate(full) if e == "C"][wi]
        for labels in ([(lam, 0, wi)], [(lam, 1, wi), (lam, 0, wi // 2)]):
            assert lowering_log(
                monkeypatch, lambda: quditsim.young_vectors(n, d, labels)) == full[:upto + 1]


def site_loop_index_map(p, d):
    """The gather of P(p) summed one site at a time: the reference loop
    for the stacked builder."""
    n = p.n
    digits = np.indices((d,) * n).reshape(n, -1)
    g = np.zeros(d**n, dtype=np.intp)
    for q in range(1, n + 1):
        g += digits[p(q) - 1] * d ** (n - q)
    return g


@pytest.mark.parametrize("d", [2, 3, 4])
def test_index_maps_equal_the_site_loop(d):
    rng = np.random.default_rng(d)
    for n in range(1, 7 if d < 4 else 6):
        perms = list(enumerate_sn(n))
        if len(perms) > 60:
            perms = [perms[int(i)] for i in rng.choice(len(perms), 60, replace=False)]
        stack = quditsim.permutation_index_maps(perms, d)
        assert stack.shape == (len(perms), d**n)
        assert stack.dtype == np.intp and stack.flags.c_contiguous
        for p, row in zip(perms, stack):
            assert np.array_equal(row, site_loop_index_map(p, d))
            assert np.array_equal(permutation_index_map(p, d), row)
    assert quditsim.permutation_index_maps((), d).shape == (0, 0)


@pytest.mark.parametrize("count", [1, 40])
def test_index_maps_allocate_no_temporary_larger_than_the_stack(count):
    n, d = 12, 2
    perms = random_hermitian_k_local(n, 3, count, seed=4).support()[:count]
    tracemalloc.start()
    try:
        stack = quditsim.permutation_index_maps(perms, d)
        shape, nbytes = stack.shape, stack.nbytes
        peak = tracemalloc.get_traced_memory()[1]
        del stack
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert shape == (count, d**n)
    # the stack, the one index tensor its rows are read from, and some
    # slack; a (d^n x n) digit table alone would be 12 maps
    assert peak <= nbytes + d**n * np.dtype(np.intp).itemsize + 2**16
    # nothing is cached for a later call
    assert held <= 2**10


def test_exchange_matches_the_transposition_index_map():
    rng = np.random.default_rng(7)
    for n, d in [(1, 2), (2, 2), (5, 3), (7, 2), (4, 4)]:
        pairs = [(i, k) for i in range(1, n + 1) for k in range(i + 1, n + 1)]
        assert len(pairs) == n * (n - 1) // 2
        vec, stack = rng.standard_normal(d**n), rng.standard_normal((3, d**n))
        for i, k in pairs:
            g = permutation_index_map(transposition(n, i, k), d)
            for got, want, src in [(quditsim._exchange(vec, d, n, i, k), vec[g], vec),
                                   (quditsim._exchange(stack, d, n, i, k), stack[:, g], stack)]:
                assert got.shape == src.shape and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()
                assert not np.shares_memory(got, src)


@pytest.mark.parametrize("n,d", [(0, 2), (-1, 2), (3, 1), (3, 0), (3, -2), (0, 0)])
def test_young_builders_refuse_an_empty_register(n, d, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the argument check")

    monkeypatch.setattr(quditsim.np, "zeros", no_allocation)
    young_basis.cache_clear()
    with pytest.raises(ValueError, match="need d >= 2, n >= 1"):
        young_basis(n, d)
    with pytest.raises(ValueError, match="need d >= 2, n >= 1"):
        young_vectors(n, d, [(Partition((3,)), 0, 0)])


@pytest.mark.parametrize("label", [("3+1", -1, 0), ("3+1", 3, 0), ("3+1", 0, 9),
                                   ("3+1", 0, -1), ("2+1+1", 0, 0), ("3+2", 0, 0)])
def test_young_vector_refuses_labels_outside_the_basis(label):
    shape, ti, wi = parse_partition(label[0]), label[1], label[2]
    with pytest.raises(ValueError, match=r"no Young basis vector .* for n=4, d=2"):
        young_vectors(4, 2, [(shape, ti, wi)])


def test_young_vector_checks_the_cap_first():
    with pytest.raises(ResourceLimitError):
        young_vectors(15, 2, [(Partition((15,)), 0, 0)])
    with pytest.raises(ResourceLimitError):
        young_vectors(15, 2, [(Partition((99,)), 0, 0)])


def label(vec):
    return vec.shape, vec.tableau_index, vec.weight_index


@pytest.mark.parametrize("d", [2, 3])
def test_irrep_oracle_matches_dense_oracle_on_every_same_shape_pair(d):
    n = 4
    f = random_hermitian_k_local(n, 3, 4, seed=40 + d)
    basis = young_basis(n, d)
    for u, v in itertools.product(basis, repeat=2):
        if u.shape != v.shape:
            continue
        for t in (0.0, 0.9, -2.3):
            got = irrep_matrix_element(label(u), label(v), f, t)
            assert abs(got - exact_matrix_element(u, v, f, t)) <= 1e-12
            if t == 0.0:
                assert abs(got - float(label(u) == label(v))) <= 1e-12


@pytest.mark.parametrize("n,d,seed", [(10, 2, 3), (6, 3, 4)])
def test_irrep_oracle_matches_dense_oracle_on_sampled_pairs(n, d, seed):
    # every term of this element moves at most 3 points: enumerating S_n
    # itself, as random_hermitian_k_local does, is too slow at n = 10
    rng = np.random.default_rng(seed)
    terms = {}
    for i in range(6):
        a, b, c = (int(x) + 1 for x in rng.choice(n, size=3, replace=False))
        cyc = parse_permutation(f"({a} {b} {c})", n=n) if i % 2 else transposition(n, a, b)
        coeff = complex(rng.standard_normal(), rng.standard_normal() * (i % 2))
        terms[cyc] = terms.get(cyc, 0j) + coeff
        terms[cyc.inverse()] = terms.get(cyc.inverse(), 0j) + coeff.conjugate()
    f = algebra_element(n, terms)
    basis = young_basis(n, d)
    by_shape: dict = {}
    for vec in basis:
        by_shape.setdefault(vec.shape, []).append(vec)
    for lam, members in by_shape.items():
        for _ in range(4):
            u, v = (members[int(i)] for i in rng.integers(len(members), size=2))
            for t in (0.0, 1.3):
                got = irrep_matrix_element(label(u), label(v), f, t)
                assert abs(got - exact_matrix_element(u, v, f, t)) <= 1e-12, (u.label(), v.label())
    # across shapes the element is exactly zero
    u, v = basis[0], basis[-1]
    assert u.shape != v.shape
    assert irrep_matrix_element(label(u), label(v), f, 1.3) == 0j


def test_irrep_oracle_checks_its_request():
    f = algebra_element(4, {transposition(4, 1, 2): 0.5})
    lam = Partition((3, 1))
    skew = algebra_element(4, {parse_permutation("(1 2 3)", n=4): 1.0})
    with pytest.raises(ValueError, match="not Hermitian"):
        irrep_matrix_element((lam, 0, 0), (Partition((4,)), 0, 0), skew, 1.0)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="need finite t"):
            irrep_matrix_element((lam, 0, 0), (lam, 1, 1), f, t)
    with pytest.raises(SizeMismatchError):
        irrep_matrix_element((Partition((2, 1)), 0, 0), (Partition((2, 1)), 0, 0), f, 1.0)


def test_irrep_oracle_refuses_labels_out_of_range():
    # dim(3,1) = 3: a negative tableau index is not wrapped, one past the
    # last is not an IndexError, and across shapes or weight indices, where
    # the element would be 0j, a bad label is refused all the same
    f = algebra_element(4, {transposition(4, 1, 2): 0.5})
    lam = Partition((3, 1))
    for u, v in [((lam, -1, 0), (lam, 0, 0)), ((lam, 0, 0), (lam, 3, 0)),
                 ((lam, 5, 0), (lam, 0, 0)), ((lam, 0, -7), (lam, 0, -7)),
                 ((lam, 0, 0), (lam, 1, -1)), ((lam, 5, 0), (Partition((4,)), 0, 0)),
                 ((Partition((4,)), 1, 0), (lam, 0, 0))]:
        with pytest.raises(ValueError, match="no Young label"):
            irrep_matrix_element(u, v, f, 1.0)
    assert irrep_matrix_element((lam, 2, 0), (lam, 2, 0), f, 0.0) == pytest.approx(1.0)
    assert irrep_matrix_element((lam, 2, 4), (lam, 0, 3), f, 1.0) == 0j


def test_young_basis_multiplicities_match_weyl_dimension():
    for n, d in [(4, 2), (5, 2), (3, 3)]:
        basis = young_basis(n, d)
        seen: dict = {}
        for v in basis:
            seen.setdefault(v.shape, set()).add(v.weight_index)
        for shape, weights in seen.items():
            assert len(weights) == weyl_dimension(shape, d)


def expm_oracle(mat):
    # scaling and squaring on the Taylor series; independent of eigh
    k = max(0, int(np.ceil(np.log2(max(1.0, np.linalg.norm(mat, 2))))) + 4)
    small = mat / (2**k)
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for m in range(1, 24):
        term = small @ term / m
        out += term
    for _ in range(k):
        out = out @ out
    return out


def test_exact_matrix_element_vs_series_oracle():
    n, d = 4, 2
    f = random_hermitian_k_local(n, 3, 3, seed=2)
    ham = pi_tilde_dense(f, d)
    basis = young_basis(n, d)
    u, v = basis[3], basis[5]
    for t in (0.0, 0.4, 1.3):
        big_u = expm_oracle(-1j * t * ham)
        expect = complex(np.vdot(u.vector.amplitudes, big_u @ v.vector.amplitudes))
        got = exact_matrix_element(u, v, f, t)
        assert abs(got - expect) < 1e-10


def test_exact_matrix_element_accepts_statevectors_and_t_zero():
    n, d = 3, 2
    f = random_hermitian_k_local(n, 2, 2, seed=4)
    a = basis_state(d, n, [0, 1, 1])
    b = basis_state(d, n, [0, 1, 1])
    assert abs(exact_matrix_element(a, b, f, 0.0) - 1.0) < 1e-15
    skew = algebra_element(3, {parse_permutation("(1 2 3)", n=3): 1.0})
    with pytest.raises(ValueError):
        exact_matrix_element(a, b, skew, 1.0)


def test_young_basis_deterministic_rebuild():
    young_basis.cache_clear()
    first = [v.vector.amplitudes.copy() for v in young_basis(4, 2)]
    young_basis.cache_clear()
    second = [v.vector.amplitudes.copy() for v in young_basis(4, 2)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def full_space_oracle(f, d):
    """The oracle before its sector split, one eigh of the whole d^n x d^n
    operator, as a function of (u, v, t)."""
    evals, evecs = np.linalg.eigh(pi_tilde_dense(f, d))

    def element(u, v, t):
        a = evecs.conj().T @ getattr(v, "vector", v).amplitudes
        b = evecs.conj().T @ getattr(u, "vector", u).amplitudes
        return complex(np.vdot(b, np.exp(-1j * t * evals) * a))

    return element


@pytest.mark.parametrize("d", [2, 3])
def test_sector_oracle_matches_full_space_on_young_pairs(d):
    n = 4
    f = random_hermitian_k_local(n, 3, 4, seed=30 + d)
    full = full_space_oracle(f, d)
    basis = young_basis(n, d)
    for u in basis:
        for v in basis:
            assert abs(exact_matrix_element(u, v, f, 0.9) - full(u, v, 0.9)) <= 1e-12


@pytest.mark.parametrize("n,d", [(6, 2), (4, 3)])
def test_sector_oracle_matches_full_space_on_raw_states(n, d):
    f = random_hermitian_k_local(n, 3, 4, seed=n + d)
    full = full_space_oracle(f, d)
    rng = np.random.default_rng(n * d)
    for t in (0.0, 0.4, 1.7):
        raw = rng.standard_normal((2, d**n)) + 1j * rng.standard_normal((2, d**n))
        u, v = (Statevector(d, n, x / np.linalg.norm(x)) for x in raw)
        assert abs(exact_matrix_element(u, v, f, t) - full(u, v, t)) <= 1e-12


def test_sector_oracle_on_basis_states():
    n, d = 4, 2
    f = random_hermitian_k_local(n, 3, 4, seed=7)
    # one sector, disjoint supports: coupled through the sector's block
    a, b = basis_state(d, n, [0, 1, 1, 0]), basis_state(d, n, [1, 0, 1, 0])
    expect = full_space_oracle(f, d)(a, b, 1.1)
    assert abs(expect) > 1e-3
    assert abs(exact_matrix_element(a, b, f, 1.1) - expect) <= 1e-12
    # different sectors: no sector in common, exactly zero
    c = basis_state(d, n, [1, 1, 1, 0])
    assert exact_matrix_element(a, c, f, 1.1) == 0j
    assert exact_matrix_element(young_basis(n, d)[0], c, f, 1.1) == 0j


def test_sector_oracle_at_t_zero_is_the_inner_product():
    n, d = 5, 2
    f = random_hermitian_k_local(n, 3, 4, seed=9)
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((2, d**n)) + 1j * rng.standard_normal((2, d**n))
    u, v = (Statevector(d, n, x / np.linalg.norm(x)) for x in raw)
    assert abs(exact_matrix_element(u, v, f, 0.0) - u.inner(v)) <= 1e-12
    basis = young_basis(n, d)
    for x, y in [(basis[0], basis[0]), (basis[1], basis[2])]:
        assert abs(exact_matrix_element(x, y, f, 0.0) - x.vector.inner(y.vector)) <= 1e-12


def chain(n):
    """Adjacent transpositions, built by hand: `random_hermitian_k_local`
    enumerates all of S_n, too many at n = 12."""
    return algebra_element(n, {transposition(n, i, i + 1): 0.1 * i for i in range(1, n)})


def test_sector_oracle_solves_only_the_shared_sector(monkeypatch):
    basis = young_basis(10, 2)
    pair = [vec for vec in basis if vec.weight == (5, 5)][:2]
    shapes = []
    full = np.linalg.eigh

    def recording(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return full(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    exact_matrix_element(pair[0], pair[1], chain(10), 1.0)
    assert shapes == [(252, 252)]

    shapes.clear()
    a = basis_state(2, 12, [0, 1] * 6)
    b = basis_state(2, 12, [1, 0] * 6)
    f = chain(12)
    tracemalloc.start()
    try:
        exact_matrix_element(a, b, f, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shapes == [(924, 924)]
    # the whole 4096 x 4096 operator alone would take 268 MB
    assert peak < 100e6

    shapes.clear()
    n, d = 6, 3
    f = random_hermitian_k_local(n, 3, 3, seed=1)
    raw = np.random.default_rng(2).standard_normal((2, d**n)).astype(complex)
    exact_matrix_element(Statevector(d, n, raw[0]), Statevector(d, n, raw[1]), f, 1.0)
    largest = max(math.factorial(n) // math.prod(math.factorial(k) for k in mu)
                  for mu in itertools.product(range(n + 1), repeat=d) if sum(mu) == n)
    assert len(shapes) == math.comb(n + d - 1, d - 1)
    assert all(shape[0] <= largest for shape in shapes)


def sliced_dense_oracle(u, v, f, t):
    """The sector oracle as it read its blocks out of the whole dense
    operator: `pi_tilde_dense`, then one `np.ix_` slice per shared sector."""
    su, sv = getattr(u, "vector", u), getattr(v, "vector", v)
    n, d = su.n, su.d
    ham = pi_tilde_dense(f, d)
    digits = np.array(list(itertools.product(range(d), repeat=n)))
    code = sum((digits == a).sum(axis=1) * (n + 1) ** a for a in range(d))
    value = 0j
    for sector in np.intersect1d(code[su.amplitudes != 0], code[sv.amplitudes != 0]):
        rows = np.flatnonzero(code == sector)
        evals, evecs = np.linalg.eigh(ham[np.ix_(rows, rows)])
        a = evecs.conj().T @ sv.amplitudes[rows]
        b = evecs.conj().T @ su.amplitudes[rows]
        value += complex(np.vdot(b, np.exp(-1j * t * evals) * a))
    return value


def hex_pair(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("n,d", [(4, 2), (6, 2), (8, 2), (4, 3), (5, 3)])
def test_sector_blocks_match_the_sliced_dense_operator_bit_for_bit(n, d):
    f = random_hermitian_k_local(n, 3, 4, seed=10 * n + d)
    basis = young_basis(n, d)
    rng = np.random.default_rng(n + d)
    for i, j in rng.integers(len(basis), size=(20, 2)):
        u, v = basis[i], basis[j]
        assert hex_pair(exact_matrix_element(u, v, f, 0.8)) == hex_pair(sliced_dense_oracle(u, v, f, 0.8))
    for t in (0.0, 1.4):
        raw = rng.standard_normal((2, d**n)) + 1j * rng.standard_normal((2, d**n))
        u, v = (Statevector(d, n, x / np.linalg.norm(x)) for x in raw)
        assert hex_pair(exact_matrix_element(u, v, f, t)) == hex_pair(sliced_dense_oracle(u, v, f, t))


def test_sector_oracle_builds_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle built the whole dense operator")

    n, d = 5, 2
    f = random_hermitian_k_local(n, 3, 4, seed=9)
    basis = young_basis(n, d)
    expect = sliced_dense_oracle(basis[1], basis[2], f, 0.6)
    monkeypatch.setattr(group_algebra, "pi_tilde_dense", refuse)
    assert exact_matrix_element(basis[1], basis[2], f, 0.6) == expect


def test_sector_oracle_refuses_past_the_cap(monkeypatch):
    f = random_hermitian_k_local(4, 3, 3, seed=1)
    a = basis_state(2, 4, [0, 1, 1, 0])
    monkeypatch.setattr(quditsim, "DEFAULT_DENSE_CAP", 15)
    with pytest.raises(ResourceLimitError):
        exact_matrix_element(a, a, f, 1.0)
    monkeypatch.setattr(quditsim, "DEFAULT_DENSE_CAP", 16)
    assert exact_matrix_element(a, a, f, 1.0) == sliced_dense_oracle(a, a, f, 1.0)


def test_sector_oracle_keys_sectors_without_a_count_table():
    # the sector keys come from the (n x d^n) digit indices: a (d^n x d)
    # table of digit counts would be 134 MB at d = 4096, n = 1
    d = 4096
    u, v = basis_state(d, 1, 3), basis_state(d, 1, 5)
    f = delta(identity(1))
    tracemalloc.start()
    try:
        values = exact_matrix_element(u, u, f, 0.5), exact_matrix_element(u, v, f, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(values[0] - np.exp(-0.5j)) <= 1e-15 and values[1] == 0j
    assert peak <= 8 * 2**20


def test_sector_oracle_keeps_every_weight_apart_at_large_d(monkeypatch):
    # at n = 1 every digit is its own weight; codes in base n + 1 would
    # wrap past int64 here and merge hundreds of sectors into one block
    d, t, c = 1024, 0.7, 0.3
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
    u, v = (Statevector(d, 1, x / np.linalg.norm(x)) for x in raw)
    shapes = []
    full = np.linalg.eigh

    def recording(mat, *args, **kwargs):
        shapes.append(mat.shape)
        return full(mat, *args, **kwargs)

    monkeypatch.setattr(quditsim.np.linalg, "eigh", recording)
    got = exact_matrix_element(u, v, algebra_element(1, {identity(1): c}), t)
    assert shapes == [(1, 1)] * d
    assert abs(got - np.exp(-1j * t * c) * u.inner(v)) <= 1e-13


@st.composite
def oracle_requests(draw):
    n = draw(st.integers(2, 5))
    d = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(2, n))
    f = random_hermitian_k_local(n, k, draw(st.integers(1, 1 if n == 2 else 3)),
                                 seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    raw = rng.standard_normal((2, d**n)) + 1j * rng.standard_normal((2, d**n))
    u, v = (Statevector(d, n, x / np.linalg.norm(x)) for x in raw)
    return f, u, v, draw(st.floats(-3.0, 3.0))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(oracle_requests())
def test_sector_oracle_matches_full_space_eigh(request):
    f, u, v, t = request
    assert abs(exact_matrix_element(u, v, f, t) - full_space_oracle(f, u.d)(u, v, t)) <= 1e-12
    assert abs(exact_matrix_element(u, v, f, 0.0) - u.inner(v)) <= 1e-12
