"""Young orthogonal representation: generator relations, homomorphism,
characters."""

import itertools
import math

import numpy as np
import pytest

from snsim.errors import SizeMismatchError
from snsim.permutation import enumerate_sn, identity, parse_permutation, transposition
from snsim.young import Partition, enumerate_partitions, enumerate_standard_tableaux, hook_length_dimension
from snsim.yor import apply_generator, dimension, yor


def generator(shape, k):
    """Dense rho(s_k), through the adjacent word [k]."""
    return yor(shape, transposition(shape.n, k, k + 1))


def character(shape, p):
    return float(np.trace(yor(shape, p)))


def yor_entry_oracle(shape, k):
    """Recompute the generator matrix entrywise from tableau contents."""
    ts = enumerate_standard_tableaux(shape)
    idx = {t.rows: i for i, t in enumerate(ts)}
    dim = len(ts)
    mat = np.zeros((dim, dim))
    for i, t in enumerate(ts):
        r = t.axial_distance(k)
        mat[i, i] = 1.0 / r
        mate = t.swap(k)
        if mate is not None:
            mat[idx[mate.rows], i] = math.sqrt(1.0 - 1.0 / r**2)
    return mat


def test_generators_match_content_oracle():
    for n in (2, 3, 4, 5):
        for shape in enumerate_partitions(n):
            for k in range(1, n):
                assert np.allclose(generator(shape, k), yor_entry_oracle(shape, k), atol=1e-14)


def test_generator_involution_and_orthogonality():
    for n in (3, 4, 5, 6):
        for shape in enumerate_partitions(n):
            d = dimension(shape)
            for k in range(1, n):
                g = generator(shape, k)
                assert np.allclose(g @ g, np.eye(d), atol=1e-13)
                assert np.allclose(g, g.T, atol=1e-14)


def test_braid_and_commutation_relations():
    for shape in enumerate_partitions(5):
        gens = [generator(shape, k) for k in range(1, 5)]
        for k in range(len(gens) - 1):
            a, b = gens[k], gens[k + 1]
            assert np.allclose(a @ b @ a, b @ a @ b, atol=1e-13)
        for k in range(len(gens)):
            for l in range(k + 2, len(gens)):
                assert np.allclose(gens[k] @ gens[l], gens[l] @ gens[k], atol=1e-13)


def test_homomorphism_on_random_pairs():
    rng = np.random.default_rng(0)
    perms = list(enumerate_sn(5))
    for shape in enumerate_partitions(5):
        for _ in range(8):
            p = perms[rng.integers(len(perms))]
            q = perms[rng.integers(len(perms))]
            assert np.allclose(yor(shape, p * q), yor(shape, p) @ yor(shape, q), atol=1e-12)


def test_identity_maps_to_identity():
    for shape in enumerate_partitions(4):
        assert np.array_equal(yor(shape, identity(4)), np.eye(dimension(shape)))


def test_shape_21_matrices():
    shape = Partition((2, 1))
    s1 = yor(shape, transposition(3, 1, 2))
    s2 = yor(shape, transposition(3, 2, 3))
    assert np.allclose(s1, np.diag([1.0, -1.0]), atol=1e-15)
    root3 = math.sqrt(3.0) / 2.0
    assert np.allclose(s2, np.array([[-0.5, root3], [root3, 0.5]]), atol=1e-15)


def test_apply_generator_matches_dense():
    shape = Partition((3, 2))
    mat = np.eye(dimension(shape))
    for k in range(1, 5):
        expect = yor_entry_oracle(shape, k) @ mat
        assert np.allclose(apply_generator(shape, k, mat), expect, atol=1e-14)
    vec = np.arange(1.0, dimension(shape) + 1.0)
    assert np.allclose(apply_generator(shape, 2, vec), yor_entry_oracle(shape, 2) @ vec, atol=1e-14)


def test_character_orthogonality():
    # first orthogonality relation over the full group, n = 4
    n = 4
    perms = list(enumerate_sn(n))
    shapes = enumerate_partitions(n)
    for a, b in itertools.product(shapes, repeat=2):
        inner = sum(character(a, p) * character(b, p) for p in perms)
        expect = math.factorial(n) if a == b else 0.0
        assert abs(inner - expect) < 1e-8, (a, b)


def test_character_sums_count_fixed_points_in_regular_action():
    # sum over shapes of dim * character equals n! at e and 0 elsewhere
    n = 4
    for p in enumerate_sn(n):
        total = sum(hook_length_dimension(s) * character(s, p) for s in enumerate_partitions(n))
        expect = math.factorial(n) if p.is_identity() else 0.0
        assert abs(total - expect) < 1e-8


def test_size_mismatch_and_range_errors():
    shape = Partition((2, 1))
    with pytest.raises(SizeMismatchError):
        yor(shape, identity(4))
