"""Far-span elements with closed-form answers: sums of Jucys-Murphy elements.

X_k = sum_{i<k} (i k) acts diagonally in Young's orthogonal form, on the
tableau T by the content c_T(k) = column - row of the cell holding k, so
f = sum_k a_k X_k has rho_shape(f) = diag(sum_k a_k c_T(k)) and, for real
a_k, exp(-it pi~(f)) has the element exp(-it sum_k a_k c_T(k)) between
equal Young labels and 0 between different ones. X_k holds (1 k), whose
adjacent word runs over the window [1, k - 1].
"""

import cmath

import numpy as np
import pytest

from snsim.group_algebra import algebra_element, fourier_naive
from snsim.lcu import matrix_element
from snsim.pauli_expand import matrix_element_pauli
from snsim.permutation import transposition
from snsim.quditsim import irrep_matrix_element, young_vectors
from snsim.yor import dimension, tableaux
from snsim.young import Partition, enumerate_partitions


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


def test_swap_and_pauli_routes_agree_on_a_jucys_murphy_sum():
    shape, t, eps = Partition((5, 3)), 0.7, 1e-4
    f, a = jucys_murphy_sum(8, 408)
    u, v = young_vectors(8, 2, [(shape, 4, 1), (shape, 4, 1)])
    swap, _ = matrix_element(u, v, f, t, eps)
    pauli, _ = matrix_element_pauli(u, v, f, t, eps)
    assert abs(swap - pauli) <= eps
    closed = cmath.exp(-1j * t * content_sums(shape, a)[4])
    assert abs(swap - closed) <= eps and abs(pauli - closed) <= eps
