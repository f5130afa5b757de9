"""Group arithmetic, words, censuses, and parsing."""

import itertools
import math

import pytest

from snsim.permutation import (
    Permutation,
    adjacent_word,
    cycle_decomposition,
    derangement_count,
    enumerate_sn,
    format_cycles,
    from_cycles,
    identity,
    locality,
    parse_permutation,
    span,
    support,
    transposition,
    transposition_decomposition,
)


def brute_compose(p, q):
    # reference composition: (p*q)(i) = p(q(i))
    return tuple(p.images[q.images[i] - 1] for i in range(p.n))


def test_composition_matches_pointwise_oracle():
    for p, q in itertools.product(enumerate_sn(4), repeat=2):
        assert (p * q).images == brute_compose(p, q)


def test_inverse_and_identity_laws():
    e = identity(5)
    for p in enumerate_sn(5):
        assert p * p.inverse() == e
        assert p.inverse() * p == e
        assert p * e == p and e * p == p


def test_associativity_spot():
    ps = list(enumerate_sn(4))
    for p in ps[::5]:
        for q in ps[::7]:
            for r in ps[::6]:
                assert (p * q) * r == p * (q * r)


def test_cycle_roundtrip():
    for p in enumerate_sn(5):
        cycles = cycle_decomposition(p)
        assert from_cycles(5, cycles) == p
        # cycles are disjoint and cover the support
        seen = [x for c in cycles for x in c]
        assert sorted(seen) == sorted(support(p))


def test_adjacent_word_rebuilds_permutation():
    for n in (2, 3, 4, 5):
        for p in enumerate_sn(n):
            word = adjacent_word(p)
            acc = identity(n)
            for k in word:
                acc = acc * transposition(n, k, k + 1)
            assert acc == p
            # word length equals the inversion count, the minimum possible
            inv = sum(
                1
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if p(i) > p(j)
            )
            assert len(word) == inv


def test_transposition_decomposition_product():
    for p in enumerate_sn(5):
        acc = identity(5)
        for i, j in transposition_decomposition(p):
            acc = acc * transposition(5, i, j)
        assert acc == p
        assert len(transposition_decomposition(p)) <= max(0, locality(p) - 1)


def test_locality_and_span():
    p = from_cycles(6, [(1, 6)])
    assert locality(p) == 2
    assert span(p) == 6
    assert locality(identity(6)) == 0
    assert span(identity(6)) == 0


def test_derangement_census_vs_bruteforce():
    for n in (1, 2, 3, 4, 5, 6, 7):
        census = {}
        for p in enumerate_sn(n):
            census[locality(p)] = census.get(locality(p), 0) + 1
        for l in range(0, n + 1):
            assert derangement_count(n, l) == census.get(l, 0), (n, l)
        assert sum(derangement_count(n, l) for l in range(n + 1)) == math.factorial(n)


def test_derangement_sandwich_bound():
    # !l / l! lies in [1/3, 1/2] for l >= 2, so
    # n!/(3 (n-l)!) <= D_l <= n!/(2 (n-l)!)
    for n in range(2, 9):
        for l in range(2, n + 1):
            d_l = derangement_count(n, l)
            falling = math.factorial(n) // math.factorial(n - l)
            assert falling <= 3 * d_l, (n, l)
            assert 2 * d_l <= falling, (n, l)


def test_enumerate_sn_is_lexicographic_and_complete():
    perms = list(enumerate_sn(4))
    assert len(perms) == 24
    images = [p.images for p in perms]
    assert images == sorted(images)
    assert len(set(images)) == 24


def test_parse_and_format():
    p = parse_permutation("(1 2 3)(5 6)", n=6)
    assert p.images == (2, 3, 1, 4, 6, 5)
    assert parse_permutation("[2,3,1,4,6,5]") == p
    assert parse_permutation(format_cycles(p), n=6) == p
    assert parse_permutation("e", n=3) == identity(3)
    assert parse_permutation("()", n=3) == identity(3)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_permutation("(1 1)", n=3)
    with pytest.raises(ValueError):
        parse_permutation("[1,1,2]")
    with pytest.raises(ValueError):
        parse_permutation("(1 9)", n=3)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1))
