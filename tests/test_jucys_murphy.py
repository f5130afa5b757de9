"""Far-span elements with closed-form answers: sums of Jucys-Murphy elements.

X_k = sum_{i<k} (i k) acts diagonally in Young's orthogonal form, on the
tableau T by the content c_T(k) = column - row of the cell holding k, so
f = sum_k a_k X_k has rho_shape(f) = diag(sum_k a_k c_T(k)) and, for real
a_k, exp(-it pi~(f)) has the element exp(-it sum_k a_k c_T(k)) between
equal Young labels and 0 between different ones. X_k holds (1 k), whose
adjacent word runs over the window [1, k - 1]. The X_k commute, so for
real b_kl the products f = sum b_kl X_k X_l are Hermitian too, with
rho_shape(f) = diag(sum b_kl c_T(k) c_T(l)); their terms (i k)(j l)
move up to four far-apart points.
"""

import cmath

import numpy as np
import pytest

from snsim.group_algebra import algebra_element, fourier_naive
from snsim.lcu import matrix_element
from snsim.pauli_expand import matrix_element_pauli
from snsim.permutation import transposition
from snsim.quditsim import exact_matrix_element, irrep_matrix_element, young_vectors
from snsim.yor import dimension, tableaux
from snsim.young import Partition, enumerate_partitions, weyl_dimension


def jucys_murphy_sum(n, seed):
    """f = sum_{k=2..n} a_k X_k for seeded distinct real a_k in [-1, 1],
    and the weights a (a[k] for k = 2..n)."""
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n + 1)
    f = algebra_element(n, {transposition(n, i, k): a[k]
                            for k in range(2, n + 1) for i in range(1, k)})
    return f, a


def content_sums(shape, a):
    """sum_k a_k c_T(k) for each standard tableau T of the shape, in the
    basis order of `yor`."""
    return np.array([sum(a[k] * t.content(k) for k in range(2, shape.n + 1))
                     for t in tableaux(shape)])


def jucys_murphy_products(n, pairs, seed):
    """f = sum b_kl X_k X_l over the pairs k < l, for seeded real b_kl in
    [-1, 1], and the weights b as {(k, l): b_kl}."""
    b = dict(zip(pairs, np.random.default_rng(seed).uniform(-1.0, 1.0, len(pairs))))
    out = {}
    for (k, l), w in b.items():
        for i in range(1, k):
            for j in range(1, l):
                p = transposition(n, i, k) * transposition(n, j, l)
                out[p] = out.get(p, 0.0) + w
    return algebra_element(n, out), b


def content_products(shape, b):
    """sum b_kl c_T(k) c_T(l) for each standard tableau T of the shape."""
    return np.array([sum(w * t.content(k) * t.content(l) for (k, l), w in b.items())
                     for t in tableaux(shape)])


def all_pairs(n):
    return [(k, l) for k in range(2, n + 1) for l in range(k + 1, n + 1)]


@pytest.mark.parametrize("n", range(5, 9))
def test_fourier_naive_of_a_jucys_murphy_sum_is_diagonal(n):
    f, a = jucys_murphy_sum(n, 300 + n)
    assert f.is_hermitian() and f.span == n
    coeffs = fourier_naive(f)
    assert list(coeffs.blocks) == enumerate_partitions(n)
    for shape, block in coeffs.blocks.items():
        expect = np.diag(content_sums(shape, a))
        assert np.abs(block - expect).max() <= 1e-12 * f.one_norm, shape


@pytest.mark.parametrize("shape", [Partition((3, 3)), Partition((4, 2, 1)),
                                   Partition((6, 3)), Partition((5, 2, 2)),
                                   Partition((9, 3)), Partition((10, 1, 1))])
def test_irrep_matrix_element_of_a_jucys_murphy_sum(shape):
    n, dim, t = shape.n, dimension(shape), 0.7
    assert dim <= 300
    f, a = jucys_murphy_sum(n, 400 + n)
    phases = np.exp(-1j * t * content_sums(shape, a))
    rng = np.random.default_rng(500 + n)
    rows = sorted({0, dim - 1, int(rng.integers(dim))})
    for i in rows:
        for j in rows:
            got = irrep_matrix_element((shape, i, 1), (shape, j, 1), f, t)
            expect = phases[i] if i == j else 0j
            assert abs(got - expect) <= 1e-12, (i, j)
    assert irrep_matrix_element((shape, 0, 0), (shape, 0, 1), f, t) == 0j


def test_fourier_naive_of_jucys_murphy_products_is_diagonal():
    f, b = jucys_murphy_products(8, all_pairs(8), 800)
    assert f.is_hermitian() and f.span == 8 and f.locality == 4
    for shape, block in fourier_naive(f).blocks.items():
        expect = np.diag(content_products(shape, b))
        assert np.abs(block - expect).max() <= 1e-12 * f.one_norm, shape


@pytest.mark.parametrize("shape, pairs", [
    (Partition((5, 3)), all_pairs(8)),
    (Partition((4, 2, 2)), all_pairs(8)),
    (Partition((7, 5)), [(2, 12), (3, 7), (5, 11), (8, 9), (11, 12)]),
    (Partition((9, 3)), [(2, 3), (2, 12), (4, 10), (6, 7), (9, 11), (11, 12)]),
])
def test_irrep_matrix_element_of_jucys_murphy_products(shape, pairs):
    # at n = 12, (7,5) has dim 297 and (9,3) dim 154: both sides of the
    # window-cache rule
    n, dim, t = shape.n, dimension(shape), 0.7
    f, b = jucys_murphy_products(n, pairs, 900 + n)
    assert f.is_hermitian()
    phases = np.exp(-1j * t * content_products(shape, b))
    i, j = 0, int(np.random.default_rng(n).integers(1, dim))
    for u, v in ((i, i), (j, j), (i, j)):
        got = irrep_matrix_element((shape, u, 1), (shape, v, 1), f, t)
        expect = phases[u] if u == v else 0j
        assert abs(got - expect) <= 1e-12, (u, v)


def test_swap_and_pauli_routes_agree_on_a_jucys_murphy_sum():
    shape, t, eps = Partition((5, 3)), 0.7, 1e-4
    f, a = jucys_murphy_sum(8, 408)
    u, v = young_vectors(8, 2, [(shape, 4, 1), (shape, 4, 1)])
    swap, _ = matrix_element(u, v, f, t, eps)
    pauli, _ = matrix_element_pauli(u, v, f, t, eps)
    assert abs(swap - pauli) <= eps
    closed = cmath.exp(-1j * t * content_sums(shape, a)[4])
    assert abs(swap - closed) <= eps and abs(pauli - closed) <= eps


def young_pairs(shape, d, seed):
    """Tableau indices i and j != i of the shape, and per weight index w
    the young_vectors members (shape, i, w) and (shape, j, w)."""
    i, j = 0, int(np.random.default_rng(seed).integers(1, dimension(shape)))
    labels = [(shape, ti, w) for w in range(weyl_dimension(shape, d)) for ti in (i, j)]
    vecs = young_vectors(shape.n, d, labels)
    return i, j, list(zip(vecs[::2], vecs[1::2]))


@pytest.mark.parametrize("shape, d", [(Partition((2, 1, 1)), 3), (Partition((2, 1, 1)), 4),
                                      (Partition((3, 2, 1)), 3), (Partition((3, 2, 1)), 4),
                                      (Partition((4, 2, 1)), 3)])
def test_d_n_routes_of_a_jucys_murphy_sum_at_every_weight(shape, d):
    # by Schur-Weyl duality the answer is the same at every weight index,
    # so each weight copy of the builder is checked against one closed form
    n, t, eps = shape.n, 0.7, 1e-6
    f, a = jucys_murphy_sum(n, 600 + n)
    phases = np.exp(-1j * t * content_sums(shape, a))
    i, j, pairs = young_pairs(shape, d, n * d)
    for w, (u, v) in enumerate(pairs):
        assert abs(exact_matrix_element(u, u, f, t) - phases[i]) <= 1e-12, w
        assert abs(exact_matrix_element(u, v, f, t)) <= 1e-12, w
    for u, v in (pairs[0], pairs[-1]):
        assert abs(matrix_element(u, u, f, t, eps)[0] - phases[i]) <= eps
        assert abs(matrix_element(v, v, f, t, eps)[0] - phases[j]) <= eps
        assert abs(matrix_element(u, v, f, t, eps)[0]) <= eps


@pytest.mark.parametrize("d", [3, 4])
def test_explicit_circuit_on_a_jucys_murphy_sum(d):
    # at n = 4 and eps 1e-3 the segment has 960,800 Taylor products,
    # past the term cap, so the explicit path runs at n = 3
    shape, t, eps = Partition((2, 1)), 0.7, 1e-4
    f, a = jucys_murphy_sum(3, 603)
    phases = np.exp(-1j * t * content_sums(shape, a))
    i, j, pairs = young_pairs(shape, d, d)
    for w, (u, v) in enumerate(pairs):
        assert abs(matrix_element(u, u, f, t, eps, explicit=True)[0] - phases[i]) <= eps, w
        assert abs(matrix_element(u, v, f, t, eps, explicit=True)[0]) <= eps, w
