"""Partitions, tableaux, dimension formulas, branching."""

import itertools
import math

import pytest

from snsim.young import (
    Partition,
    branching_down,
    enumerate_partitions,
    enumerate_standard_tableaux,
    hook_length_dimension,
    hook_lengths,
    parse_partition,
    schur_weyl_dimension_check,
    weyl_dimension,
)


def brute_partitions(n: int, max_rows: int) -> set[tuple[int, ...]]:
    # oracle: filter all weakly decreasing positive tuples
    found = set()

    def rec(remaining, bound, prefix):
        if remaining == 0:
            found.add(prefix)
            return
        if len(prefix) == max_rows:
            return
        for part in range(min(bound, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return found


def brute_ssyt_count(shape: Partition, d: int) -> int:
    # oracle: count semistandard fillings with entries 1..d directly
    cells = [(r, c) for r, row_len in enumerate(shape.parts) for c in range(row_len)]

    def ok(filled, r, c, v):
        if c > 0 and filled[(r, c - 1)] > v:
            return False
        if r > 0 and (r - 1, c) in filled and filled[(r - 1, c)] >= v:
            return False
        return True

    def rec(idx, filled):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        return sum(
            rec(idx + 1, {**filled, (r, c): v})
            for v in range(1, d + 1)
            if ok(filled, r, c, v)
        )

    return rec(0, {})


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition(()).n == 0


def test_enumerate_partitions_vs_bruteforce():
    for n in range(1, 9):
        for max_rows in (1, 2, 3, n):
            got = {p.parts for p in enumerate_partitions(n, max_rows)}
            assert got == brute_partitions(n, max_rows)


def test_enumerate_partitions_reverse_lex():
    for n in (5, 6, 7):
        parts = [p.parts for p in enumerate_partitions(n)]
        assert parts == sorted(parts, reverse=True)


def test_hook_lengths_shape_321():
    lam = Partition((3, 2, 1))
    assert hook_lengths(lam) == [[5, 3, 1], [3, 1], [1]]
    assert hook_length_dimension(lam) == 16


def test_hook_dimension_equals_tableau_count():
    for n in range(1, 8):
        for lam in enumerate_partitions(n):
            assert hook_length_dimension(lam) == len(enumerate_standard_tableaux(lam))


def test_dimension_squares_sum_to_factorial():
    for n in range(1, 9):
        total = sum(hook_length_dimension(lam) ** 2 for lam in enumerate_partitions(n))
        assert total == math.factorial(n)


def test_weyl_dimension_vs_ssyt_oracle():
    for n in range(1, 7):
        for d in (2, 3):
            for lam in enumerate_partitions(n, max_rows=d):
                assert weyl_dimension(lam, d) == brute_ssyt_count(lam, d), (lam, d)


def test_weyl_dimension_equals_the_pair_product():
    # the product over all pairs i < j < d of the zero-padded shape
    def pair_product(lam, d):
        padded = lam.padded(d)
        num = den = 1
        for i in range(d):
            for j in range(i + 1, d):
                num *= padded[i] - padded[j] + j - i
                den *= j - i
        return num // den

    for n in range(1, 9):
        for d in range(2, 13):
            for lam in enumerate_partitions(n, max_rows=d):
                assert weyl_dimension(lam, d) == pair_product(lam, d), (lam, d)
    # one row: the symmetric power, C(n + d - 1, n)
    assert weyl_dimension(Partition((4,)), 100_000) == math.comb(100_003, 4)


def test_weyl_dimension_too_many_rows_is_zero():
    assert weyl_dimension(Partition((1, 1, 1)), 2) == 0
    assert weyl_dimension(Partition((2, 2, 1, 1)), 3) == 0


def test_standard_tableaux_are_standard_and_distinct():
    for lam in enumerate_partitions(6):
        ts = enumerate_standard_tableaux(lam)
        assert len({t.rows for t in ts}) == len(ts)
        for t in ts:
            flat = sorted(x for row in t.rows for x in row)
            assert flat == list(range(1, 7))
            for row in t.rows:
                assert list(row) == sorted(row)
            for c in range(len(t.rows[0])):
                col = [row[c] for row in t.rows if len(row) > c]
                assert col == sorted(col)


def test_last_letter_order_property():
    # at the largest entry whose row differs, the earlier tableau holds
    # it in the later row
    for lam in [Partition((3, 2)), Partition((2, 2, 1)), Partition((3, 1, 1))]:
        ts = enumerate_standard_tableaux(lam)
        for a, b in itertools.combinations(range(len(ts)), 2):
            ta, tb = ts[a], ts[b]
            for m in range(lam.n, 0, -1):
                ra, rb = ta.position(m)[0], tb.position(m)[0]
                if ra != rb:
                    assert ra > rb, (lam, a, b, m)
                    break


def test_tableau_contents_and_swap():
    lam = Partition((2, 1))
    ts = enumerate_standard_tableaux(lam)
    assert [t.rows for t in ts] == [((1, 2), (3,)), ((1, 3), (2,))]
    t0 = ts[0]
    assert t0.content(1) == 0 and t0.content(2) == 1 and t0.content(3) == -1
    assert t0.axial_distance(2) == -2
    assert t0.swap(1) is None  # 1 and 2 share a row
    assert t0.swap(2).rows == ts[1].rows


def test_branching_down_order_and_dimension():
    lam = Partition((3, 2, 2, 1))
    downs = branching_down(lam)
    # corners removed from the last row upward
    assert [d.parts for d in downs] == [(3, 2, 2), (3, 2, 1, 1), (2, 2, 2, 1)]
    for shape in enumerate_partitions(6):
        assert hook_length_dimension(shape) == sum(
            hook_length_dimension(d) for d in branching_down(shape)
        )


def test_parse_partition():
    assert parse_partition("3+2+1").parts == (3, 2, 1)
    assert parse_partition("6=3+2+1").parts == (3, 2, 1)
    with pytest.raises(ValueError):
        parse_partition("5=3+1")
    with pytest.raises(ValueError):
        parse_partition("1+2")
    # a text with no parts names no shape
    for text in ("", " ", "0=", "+"):
        with pytest.raises(ValueError, match="no parts"):
            parse_partition(text)


def test_schur_weyl_sums():
    for n, d in [(2, 2), (5, 2), (10, 2), (4, 3), (8, 3), (3, 4)]:
        ok, rows = schur_weyl_dimension_check(n, d)
        assert ok
        assert sum(w * s for _, w, s in rows) == d**n


@pytest.mark.parametrize("n,d", [(0, 2), (-2, 2), (4, 0), (4, -1)])
def test_schur_weyl_check_needs_n_and_d_at_least_one(n, d):
    with pytest.raises(ValueError):
        schur_weyl_dimension_check(n, d)
