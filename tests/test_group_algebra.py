"""Algebra elements, convolution, and the two Fourier transforms."""

import math
import tracemalloc

import numpy as np
import pytest

from snsim import group_algebra
from snsim.errors import ResourceLimitError, SizeMismatchError
from snsim.group_algebra import (
    FourierCoefficients,
    _k_local_permutations,
    add,
    algebra_element,
    convolution_theorem_check,
    convolve,
    delta,
    dense_table,
    element_from_json_dict,
    element_to_json_dict,
    fourier_fft,
    fourier_inverse,
    fourier_naive,
    pi_tilde_dense,
    random_hermitian_k_local,
    scale,
)
from snsim.permutation import (
    Permutation,
    adjacent_word,
    enumerate_sn,
    identity,
    locality,
    parse_permutation,
    transposition,
)
from snsim.yor import _word_matrix, dimension, tableaux, yor
from snsim.young import Partition, enumerate_partitions


def reference_convolve(f, g):
    """(f*g)(s) = sum_t f(t) g(t^-1 s), expanded term by term: the loop
    over (p, q) pairs that `convolve` replaced, summing from 0j in a dict."""
    out = {}
    for p, a in f.terms:
        for q, b in g.terms:
            r = p * q
            out[r] = out.get(r, 0j) + a * b
    return algebra_element(f.n, out)


def dense_walk_fourier(f):
    """sum c rho(p) per shape, each rho(p) the dense product of its
    adjacent word's letters, added in term order from zero: the per-term
    walk that `fourier_naive` replaced, as (blocks, ops)."""
    shapes = enumerate_partitions(f.n)
    blocks = {s: np.zeros((dimension(s), dimension(s)), dtype=complex) for s in shapes}
    ops = 0
    for p, c in f.terms:
        word = adjacent_word(p)
        for s in shapes:
            blocks[s] += c * _word_matrix(s, word)
            ops += (2 * len(word) + 1) * dimension(s) ** 2
    return blocks, ops


def assert_blocks_bit_equal(coeffs, blocks):
    assert list(coeffs.blocks) == list(blocks)
    for s, mat in blocks.items():
        assert coeffs.blocks[s].shape == mat.shape
        assert coeffs.blocks[s].tobytes() == mat.tobytes(), s


def hex_terms(h):
    return [(p.images, c.real.hex(), c.imag.hex()) for p, c in h.terms]


def random_sparse(rng, n, size):
    """size draws of a random permutation of n with a random complex
    coefficient; repeated draws merge."""
    out = {}
    for _ in range(size):
        p = Permutation(tuple(int(i) + 1 for i in rng.permutation(n)))
        out[p] = out.get(p, 0j) + complex(rng.standard_normal(), rng.standard_normal())
    return algebra_element(n, out)


def random_element(n, seed, sparse=None):
    rng = np.random.default_rng(seed)
    perms = list(enumerate_sn(n))
    if sparse:
        chosen = rng.choice(len(perms), size=sparse, replace=False)
        perms = [perms[int(i)] for i in chosen]
    return algebra_element(
        n, {p: complex(rng.standard_normal(), rng.standard_normal()) for p in perms}
    )


def test_element_combines_and_drops_zeros():
    p = parse_permutation("(1 2)", n=3)
    f = algebra_element(3, {p: 1.0})
    g = algebra_element(3, {p: -1.0})
    assert add(f, g).term_count == 0
    assert scale(f, 2.0).coefficient(p) == 2.0
    assert f.one_norm == 1.0


def test_convolution_matches_expansion_oracle():
    for seed in range(4):
        f = random_element(4, seed, sparse=6)
        g = random_element(4, 100 + seed, sparse=5)
        h = convolve(f, g)
        oracle = reference_convolve(f, g)
        for p, c in oracle.terms:
            assert abs(h.coefficient(p) - c) < 1e-12


@pytest.mark.parametrize("n", [*range(1, 9), 15, 16, 20])
def test_convolve_equals_the_dict_loop_bit_for_bit(n):
    rng = np.random.default_rng(n)
    e, empty = delta(identity(n)), algebra_element(n, {})
    for size_f, size_g in [(1, 1), (3, 7), (12, 10), (25, 30)]:
        f, g = random_sparse(rng, n, size_f), random_sparse(rng, n, size_g)
        for a, b in [(f, g), (g, f), (f, f), (e, f), (f, e), (empty, f), (f, empty),
                     (empty, empty), (e, e)]:
            h = convolve(a, b)
            assert hex_terms(h) == hex_terms(reference_convolve(a, b))
            assert all(isinstance(c, complex) and c != 0 for _, c in h.terms)


@pytest.mark.parametrize("n", range(3, 9))
def test_convolve_drops_products_that_cancel_to_zero(n):
    # (x e + x s)(y s - y e + z c): the pairs landing on e and on s give
    # x y and x (-y), which cancel exactly, so neither keeps a term
    rng = np.random.default_rng(100 + n)
    x, y, z = (complex(rng.standard_normal(), rng.standard_normal()) for _ in range(3))
    e, s, c = identity(n), transposition(n, 1, 2), parse_permutation("(1 2 3)", n=n)
    f = algebra_element(n, {e: x, s: x})
    g = algebra_element(n, {s: y, e: -y, c: z})
    h = convolve(f, g)
    assert set(h.support()) == {c, s * c}
    assert hex_terms(h) == hex_terms(reference_convolve(f, g))
    # (e + s)(s - e) = s^2 - e = 0
    zero = convolve(algebra_element(n, {e: 1, s: 1}), algebra_element(n, {s: 1, e: -1}))
    assert zero.terms == () == reference_convolve(
        algebra_element(n, {e: 1, s: 1}), algebra_element(n, {s: 1, e: -1})).terms


@pytest.mark.parametrize("block", [1, 7, 40])
def test_convolve_in_blocks_equals_the_dict_loop_bit_for_bit(block, monkeypatch):
    # small blocks split f's terms, so sums carry across blocks, and a
    # pair of blocks cancels (e + s)(s - e) to zero
    monkeypatch.setattr(group_algebra, "_CONVOLVE_BLOCK", block)
    rng = np.random.default_rng(block)
    for n in (3, 4, 5):
        e, s = identity(n), transposition(n, 1, 2)
        f, g = random_sparse(rng, n, 30), random_sparse(rng, n, 20)
        for a, b in [(f, g), (g, f), (delta(e), f), (algebra_element(n, {}), f),
                     (algebra_element(n, {e: 1, s: 1}), algebra_element(n, {s: 1, e: -1}))]:
            assert hex_terms(convolve(a, b)) == hex_terms(reference_convolve(a, b))


def test_convolve_memory_stays_near_the_product_size(monkeypatch):
    # two dense S_5 elements: 14,400 pairs, whose images at once would take
    # 576,000 B; in blocks of 4,096 entries the peak stays below that
    monkeypatch.setattr(group_algebra, "_CONVOLVE_BLOCK", 4096)
    f = random_element(5, 7)
    at_once = f.term_count**2 * 5 * 8
    tracemalloc.start()
    try:
        h = convolve(f, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hex_terms(h) == hex_terms(reference_convolve(f, f))
    assert peak < at_once / 2, peak


def test_delta_identity_is_convolution_unit():
    f = random_element(4, 3, sparse=7)
    e = delta(identity(4))
    assert convolve(e, f).terms == f.terms
    assert convolve(f, e).terms == f.terms


def test_convolution_associativity():
    f = random_element(4, 1, sparse=4)
    g = random_element(4, 2, sparse=4)
    h = random_element(4, 3, sparse=4)
    left = convolve(convolve(f, g), h)
    right = convolve(f, convolve(g, h))
    assert np.allclose(dense_table(left), dense_table(right), atol=1e-12)


def test_pi_tilde_homomorphism():
    for seed in range(3):
        f = random_element(4, seed, sparse=5)
        g = random_element(4, 50 + seed, sparse=5)
        lhs = pi_tilde_dense(convolve(f, g), 2)
        rhs = pi_tilde_dense(f, 2) @ pi_tilde_dense(g, 2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_left_translate_is_delta_convolution():
    f = random_element(4, 9, sparse=6)
    eta = parse_permutation("(1 3 4)", n=4)
    # (delta_eta * f)(s) = f(eta^-1 s): the support relabelled, the coefficients kept
    relabelled = algebra_element(4, {eta * p: c for p, c in f.terms})
    assert convolve(delta(eta), f).terms == relabelled.terms


def test_fourier_of_delta_e_is_identity_blocks():
    coeffs = fourier_naive(delta(identity(4)))
    for s, mat in coeffs.blocks.items():
        assert np.array_equal(mat, np.eye(dimension(s)))


def test_fft_equals_naive_dense():
    for n in (2, 3, 4, 5, 6):
        f = random_element(n, n)
        nai = fourier_naive(f)
        fft = fourier_fft(dense_table(f), n)
        assert fft.max_abs_diff(nai) <= 1e-9


def test_fft_equals_naive_sparse():
    f = random_element(5, 17, sparse=9)
    nai = fourier_naive(f)
    fft = fourier_fft(dense_table(f), 5)
    assert fft.max_abs_diff(nai) <= 1e-10


def naive_test_elements(n):
    """Seeded elements of S_n: empty, the identity alone, and random
    complex terms, each with its inverse at another coefficient, beside
    the longest element (window [1, n]) and (n-1 n) (window [n-1, n]);
    up to n = 6, also a complex coefficient on every permutation."""
    rng = np.random.default_rng(100 + n)
    yield algebra_element(n, {})
    yield delta(identity(n))
    out = {}
    for _ in range(min(6, math.factorial(n))):
        p = Permutation(tuple(int(i) + 1 for i in rng.permutation(n)))
        out[p] = complex(rng.standard_normal(), rng.standard_normal())
        out[p.inverse()] = complex(rng.standard_normal(), rng.standard_normal())
    ends = [Permutation(tuple(range(n, 0, -1)))]
    if n >= 2:
        ends.append(transposition(n, n - 1, n))
    for p in ends:
        out[p] = complex(rng.standard_normal(), rng.standard_normal())
    yield algebra_element(n, out)
    yield algebra_element(n, {p: out[p] for p in ends})
    if n <= 6:
        yield random_element(n, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_fourier_naive_equals_the_dense_walk_bit_for_bit(n):
    for f in naive_test_elements(n):
        blocks, ops = dense_walk_fourier(f)
        got = fourier_naive(f)
        assert got.ops == ops
        assert_blocks_bit_equal(got, blocks)


def cell_classes(shape, word):
    """Each tableau's cells of the points outside the word's window
    [min letter, max letter + 1], the whole tableau for the empty word."""
    lo, hi = (min(word), max(word) + 1) if word else (1, 0)
    return [tuple(t.position(m) for m in range(1, shape.n + 1) if not lo <= m <= hi)
            for t in tableaux(shape)]


@pytest.mark.parametrize("n", range(1, 7))
def test_yor_is_zero_outside_the_window_classes(n):
    keys = {}
    for p in enumerate_sn(n):
        word = adjacent_word(p)
        window = (min(word), max(word)) if word else ()
        for s in enumerate_partitions(n):
            if (s, window) not in keys:
                cls = cell_classes(s, word)
                keys[s, window] = np.array([[a == b for b in cls] for a in cls])
            mat = yor(s, p)
            assert not mat[~keys[s, window]].any(), (s, p)


@pytest.mark.parametrize("n", range(1, 8))
def test_window_classes_are_the_tableaux_that_agree_outside_the_window(n):
    # the partner paths that fourier_naive walks join exactly the
    # tableaux that put every point outside the window in the same cell
    stack = group_algebra._irrep_rows(n)
    for lo, hi in [(1, 0), *((a, b) for a in range(1, n) for b in range(a, n))]:
        order, where, begin, size = group_algebra._window_rows(n, lo, hi)
        row = 0
        for s, dim in zip(stack.shapes, stack.dims):
            cls = cell_classes(s, list(range(lo, hi + 1)))
            for i in range(dim):
                place = where[row + i]
                members = order[begin[place]:begin[place] + size[place]] - row
                assert list(members) == [j for j in range(dim) if cls[j] == cls[i]]
            row += dim


def window_class_groups(n, lo, hi):
    """The classes of window [lo, hi] as (shape, tableau indices) pairs,
    grouped as `fourier_naive` walks them: two classes share a group when
    their first member's diagonal entry comes from the same entry of the
    walked layout."""
    stack = group_algebra._irrep_rows(n)
    order, _, begin, size = group_algebra._window_rows(n, lo, hi)
    walk = group_algebra._window_groups(n, lo, hi)
    source = np.full(stack.entries, -1)
    source[walk.positions] = walk.sources
    shape_of = np.repeat(np.arange(len(stack.shapes)), stack.dims)
    first_row = np.cumsum(stack.dims) - stack.dims
    groups = {}
    for place in np.flatnonzero(begin == np.arange(len(order))):
        rows = order[place:place + size[place]]
        s = shape_of[rows[0]]
        key = source[stack.block[rows[0]] + stack.local[rows[0]]]
        groups.setdefault(key, []).append((stack.shapes[s], rows - first_row[s]))
    return list(groups.values())


def windows(n):
    """Every window [lo, hi] of S_n's letters, and the empty one."""
    return [(1, 0), *((a, b) for a in range(1, n) for b in range(a, n))]


@pytest.mark.parametrize("n", range(1, 8))
def test_window_groups_share_their_blocks_of_yor(n):
    # every class of a group has, member by member, the same block of
    # yor(s, p) as the group's first class, bit for bit, for each p whose
    # word lies in the window: at n <= 6 every p, at n = 7 a seeded sample
    perms = list(enumerate_sn(n))
    if n == 7:
        rng = np.random.default_rng(77)
        perms = [perms[int(i)] for i in rng.choice(len(perms), size=300, replace=False)]
    mats = {}
    for lo, hi in windows(n):
        shared = [g for g in window_class_groups(n, lo, hi) if len(g) > 1]
        for p in (p for p in perms if all(lo <= k <= hi for k in adjacent_word(p))):
            for (s0, rows0), *others in shared:
                if (s0, p) not in mats:
                    mats[s0, p] = yor(s0, p)
                first = mats[s0, p][np.ix_(rows0, rows0)].tobytes()
                for s, rows in others:
                    if (s, p) not in mats:
                        mats[s, p] = yor(s, p)
                    assert mats[s, p][np.ix_(rows, rows)].tobytes() == first, (lo, hi, p, s, rows)


@pytest.mark.parametrize("n", range(1, 9))
def test_window_groups_differ_in_their_tables(n):
    # the groups are as coarse as the tables allow: the first classes of
    # two groups differ in size or in a block of some rho(s_k), k in lo..hi
    for lo, hi in windows(n):
        tables = set()
        groups = window_class_groups(n, lo, hi)
        for (s, rows), *_ in groups:
            blocks = (yor(s, transposition(n, k, k + 1))[np.ix_(rows, rows)].tobytes()
                      for k in range(lo, hi + 1))
            tables.add((len(rows), *blocks))
        assert len(tables) == len(groups), (lo, hi)


def test_window_groups_cache_is_bounded_by_the_default_cap():
    # all 29 windows of S_8 fit the process-wide cache in 2.4 MB; past the
    # default cap a call keeps its groups to itself
    held = sum(table.nbytes for window in windows(8)
               for table in vars(group_algebra._window_groups(8, *window)).values())
    assert held == 2_395_027
    cached = group_algebra._window_groups.cache_info().currsize
    f = algebra_element(9, {transposition(9, 1, 2): 0.5, parse_permutation("(2 4 3)", n=9): 0.25j,
                            parse_permutation("(2 3 4)", n=9): -0.25j})
    assert_blocks_bit_equal(fourier_naive(f, cap=9), dense_walk_fourier(f)[0])
    assert group_algebra._window_groups.cache_info().currsize == cached


def test_max_abs_diff_names_a_missing_shape():
    full = fourier_naive(delta(identity(3)))
    with pytest.raises(SizeMismatchError, match=r"no block for shape 3 among the S_3 "):
        full.max_abs_diff(FourierCoefficients(3, {}))
    with pytest.raises(SizeMismatchError, match=r"no block for shape 3 among the S_3 "):
        FourierCoefficients(3, {}).max_abs_diff(full)
    with pytest.raises(SizeMismatchError, match=r"S_3 coefficients with S_4"):
        full.max_abs_diff(fourier_naive(delta(identity(4))))
    odd = FourierCoefficients(3, {s: np.zeros((1, 1)) for s in full.blocks})
    with pytest.raises(SizeMismatchError, match=r"blocks 2\+1 "):
        full.max_abs_diff(odd)
    assert full.max_abs_diff(fourier_fft(dense_table(delta(identity(3))), 3)) == 0.0


def test_inverse_roundtrip_both_transforms():
    f = random_element(5, 23)
    table = dense_table(f)
    assert np.max(np.abs(fourier_inverse(fourier_naive(f)) - table)) < 1e-10
    assert np.max(np.abs(fourier_inverse(fourier_fft(table, 5)) - table)) < 1e-10


def test_convolution_theorem():
    f = random_element(4, 31, sparse=8)
    g = random_element(4, 37, sparse=8)
    assert convolution_theorem_check(f, g) <= 1e-9


def test_left_translation_in_fourier_space():
    # (delta_eta * f)^ = rho(eta) fhat
    from snsim.yor import yor

    f = random_element(4, 41, sparse=6)
    eta = parse_permutation("(2 4)", n=4)
    sh = fourier_naive(convolve(delta(eta), f))
    fh = fourier_naive(f)
    for s in fh.blocks:
        assert np.max(np.abs(sh.blocks[s] - yor(s, eta) @ fh.blocks[s])) < 1e-11


def test_parseval():
    for n in (3, 4, 5):
        f = random_element(n, n + 70)
        table = dense_table(f)
        lhs = float(np.sum(np.abs(table) ** 2))
        coeffs = fourier_fft(table, n)
        rhs = sum(
            dimension(s) * float(np.sum(np.abs(coeffs.blocks[s]) ** 2))
            for s in coeffs.blocks
        ) / math.factorial(n)
        assert abs(lhs - rhs) / lhs <= 1e-10


def test_operation_counters():
    # naive: (2 word + 1) dim^2 per (term, shape); fft: closed form
    for n in (3, 4, 5):
        f = random_element(n, n, sparse=5)
        nai = fourier_naive(f)
        expect = sum(
            (2 * len(adjacent_word(p)) + 1) * dimension(s) ** 2
            for p, _ in f.terms
            for s in enumerate_partitions(n)
        )
        assert nai.ops == expect
        fft = fourier_fft(dense_table(f), n)
        closed = math.factorial(n) * (2 + sum(m * (m - 1) for m in range(3, n + 1)))
        assert fft.ops == closed


@pytest.mark.parametrize("n,ops", [(1, 0), (2, 4), (3, 48), (4, 480), (5, 4800),
                                   (6, 50400), (7, 564480)])
def test_fft_op_count_is_pinned(n, ops):
    # level m makes n!/m! calls of m(m-1) m! multiplies: n!(n+1)n(n-1)/3
    # in all, which a rewrite of the recursion has to keep
    assert ops == math.factorial(n) * (n + 1) * n * (n - 1) // 3
    assert fourier_fft(np.zeros(math.factorial(n)), n).ops == ops


def test_factorial_cap_enforced():
    f = delta(identity(9))
    with pytest.raises(ResourceLimitError):
        fourier_naive(f)
    with pytest.raises(ResourceLimitError):
        fourier_fft(np.zeros(math.factorial(9)), 9)
    # explicit larger cap lifts the limit
    nai = fourier_naive(delta(identity(4)), cap=4)
    assert nai.n == 4
    with pytest.raises(ResourceLimitError):
        fourier_naive(delta(identity(5)), cap=4)


@pytest.mark.parametrize("n", [0, -1])
def test_transforms_need_n_at_least_one(n):
    with pytest.raises(ValueError):
        fourier_naive(algebra_element(n, {}))
    with pytest.raises(ValueError):
        fourier_fft(np.ones(1), n)
    with pytest.raises(ValueError):
        fourier_inverse(FourierCoefficients(n, {}))


def test_dense_cap_enforced():
    f = delta(identity(20))
    with pytest.raises(ResourceLimitError):
        pi_tilde_dense(f, 2)


def test_fft_input_validation():
    with pytest.raises(SizeMismatchError):
        fourier_fft(np.zeros(10), 4)


def test_fourier_inverse_names_a_missing_block():
    with pytest.raises(SizeMismatchError, match=r"no block for shape 3 "):
        fourier_inverse(FourierCoefficients(3, {}))
    coeffs = fourier_naive(random_element(3, 2))
    del coeffs.blocks[Partition((2, 1))]
    with pytest.raises(SizeMismatchError, match=r"no block for shape 2\+1 "):
        fourier_inverse(coeffs)


def test_is_hermitian_and_random_elements():
    for seed in range(6):
        f = random_hermitian_k_local(5, 3, 4, seed=seed)
        assert f.is_hermitian()
        assert f.locality <= 3
        assert f.term_count <= 8
        assert f.max_coeff < 1.0
        assert all(not p.is_identity() for p in f.support())
    again = random_hermitian_k_local(5, 3, 4, seed=2)
    assert again.terms == random_hermitian_k_local(5, 3, 4, seed=2).terms
    skew = algebra_element(3, {parse_permutation("(1 2 3)", n=3): 1.0})
    assert not skew.is_hermitian()
    with pytest.raises(ValueError):
        random_hermitian_k_local(4, 1, 2, seed=0)


def reference_random_hermitian_k_local(n, k, num_terms, seed):
    """The draw as made before the pool was generated directly: the pool
    filtered out of all of S_n."""
    pool = [p for p in enumerate_sn(n) if 0 < locality(p) <= k]
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pool), size=num_terms, replace=False)
    out = {}
    for idx in sorted(int(i) for i in chosen):
        p = pool[idx]
        c = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        out[p] = out.get(p, 0j) + 0.5 * c
        out[p.inverse()] = out.get(p.inverse(), 0j) + 0.5 * c.conjugate()
    return algebra_element(n, out)


def test_k_local_pool_is_the_filtered_sn_in_lex_order():
    for n in range(2, 8):
        for k in range(2, n + 1):
            expect = [p for p in enumerate_sn(n) if 0 < locality(p) <= k]
            assert _k_local_permutations(n, k) == expect, (n, k)


@pytest.mark.parametrize("n,k,num_terms,seed", [
    (4, 3, 3, 11), (3, 2, 2, 4), (4, 3, 3, 2), (5, 3, 4, 0), (5, 2, 4, 3),
    (6, 4, 10, 7), (7, 3, 20, 1), (5, 5, 30, 2)])
def test_random_hermitian_k_local_draws_are_unchanged(n, k, num_terms, seed):
    def hexed(f):
        return [(p.images, c.real.hex(), c.imag.hex()) for p, c in f.terms]

    got = random_hermitian_k_local(n, k, num_terms, seed=seed)
    assert hexed(got) == hexed(reference_random_hermitian_k_local(n, k, num_terms, seed))


def test_random_hermitian_k_local_past_enumerable_n(deadline):
    deadline(5)
    assert len(_k_local_permutations(16, 3)) == math.comb(16, 2) + 2 * math.comb(16, 3)
    f = random_hermitian_k_local(16, 3, 6, seed=0)
    assert f.is_hermitian() and f.locality <= 3 and f.n == 16


def test_pi_tilde_of_hermitian_is_hermitian_and_bounded():
    for seed in range(4):
        f = random_hermitian_k_local(4, 3, 3, seed=seed)
        mat = pi_tilde_dense(f, 2)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-14
        # operator norm bounded by the coefficient 1-norm
        top = float(np.max(np.abs(np.linalg.eigvalsh(mat))))
        assert top <= f.one_norm + 1e-12


def test_json_roundtrip():
    f = random_element(4, 55, sparse=7)
    data = element_to_json_dict(f)
    back = element_from_json_dict(data)
    assert back.terms == f.terms
    assert data["n"] == 4
    assert all(set(t) == {"perm", "re", "im"} for t in data["terms"])


def test_size_mismatch_in_binary_ops():
    f = random_element(3, 1)
    g = random_element(4, 1)
    with pytest.raises(SizeMismatchError):
        convolve(f, g)
    with pytest.raises(SizeMismatchError):
        add(f, g)
