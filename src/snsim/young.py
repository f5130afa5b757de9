"""Partitions, standard Young tableaux and dimension formulas.

Standard tableaux of a fixed shape are always listed in last-letter
order: tableaux are compared at the largest entry whose row differs,
and the tableau holding that entry in the *later* row comes first.
This is the ordering under which the adjacent-transposition matrices of
the Young orthogonal representation take their classical form and under
which restriction to S_{n-1} is block diagonal.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

__all__ = [
    "Partition",
    "StandardTableau",
    "enumerate_partitions",
    "hook_lengths",
    "hook_length_dimension",
    "weyl_dimension",
    "enumerate_standard_tableaux",
    "branching_down",
    "schur_weyl_dimension_check",
    "parse_partition",
]


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def padded(self, d: int) -> tuple[int, ...]:
        if self.rows > d:
            raise ValueError(f"{self} has more than {d} rows")
        return self.parts + (0,) * (d - self.rows)

    def __str__(self) -> str:
        return "+".join(map(str, self.parts))

    def __repr__(self) -> str:
        return f"Partition({self.parts})"


def parse_partition(text: str) -> Partition:
    """Parse "3+2+1" or the long form "6=3+2+1"; a text with no parts fails."""
    body = text.split("=", 1)[-1].strip()
    parts = tuple(int(tok) for tok in re.split(r"[+,\s]+", body) if tok)
    if not parts:
        raise ValueError(f"no parts in partition {text!r}")
    p = Partition(parts)
    if "=" in text:
        declared = int(text.split("=", 1)[0])
        if declared != p.n:
            raise ValueError(f"partition {body} sums to {p.n}, not {declared}")
    return p


def enumerate_partitions(n: int, max_rows: int | None = None) -> list[Partition]:
    """Partitions of n with at most max_rows rows, reverse-lexicographic."""
    if max_rows is None:
        max_rows = n
    out: list[Partition] = []

    def rec(remaining: int, max_part: int, rows_left: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if rows_left == 0:
            return
        for first in range(min(remaining, max_part), 0, -1):
            rec(remaining - first, first, rows_left - 1, prefix + (first,))

    if n == 0:
        return []
    rec(n, n, max_rows, ())
    return out


def hook_lengths(shape: Partition) -> list[list[int]]:
    parts = shape.parts
    cols = [sum(1 for p in parts if p > c) for c in range(parts[0])] if parts else []
    return [
        [(parts[r] - c - 1) + (cols[c] - r - 1) + 1 for c in range(parts[r])]
        for r in range(len(parts))
    ]


def hook_length_dimension(shape: Partition) -> int:
    """dim S^shape = n! / prod(hooks), computed exactly."""
    prod = 1
    for row in hook_lengths(shape):
        for h in row:
            prod *= h
    num = math.factorial(shape.n)
    assert num % prod == 0
    return num // prod


def weyl_dimension(shape: Partition, d: int) -> int:
    """dim of the GL(d) (Schur) module of highest weight `shape`.

    prod_{1<=i<j<=d} (l_i - l_j + j - i) / (j - i) with the shape padded
    by zeros to d rows; exact integer arithmetic. Shapes with more than
    d rows have no GL(d) module and give 0.

    Pairs of zero rows give 1, and row i against the zero rows j = r..d-1
    (r = shape.rows, 0-based) gives prod_{k=r-i}^{d-1-i} (l_i + k) / k =
    C(l_i + d-1-i, l_i) / C(l_i + r-1-i, l_i), so the work is polynomial
    in the shape and does not grow with d.
    """
    r = shape.rows
    if r > d:
        return 0
    lam = shape.parts
    num = den = 1
    for i in range(r):
        for j in range(i + 1, r):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
        num *= math.comb(lam[i] + d - 1 - i, lam[i])
        den *= math.comb(lam[i] + r - 1 - i, lam[i])
    assert num % den == 0
    return num // den


class StandardTableau:
    """A standard filling of a Young diagram with 1..n."""

    __slots__ = ("rows", "_pos")

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.rows = rows
        self._pos = {entry: (r + 1, c + 1) for r, row in enumerate(rows) for c, entry in enumerate(row)}

    @property
    def n(self) -> int:
        return len(self._pos)

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    def position(self, k: int) -> tuple[int, int]:
        """(row, col) of entry k, 1-based."""
        return self._pos[k]

    def content(self, k: int) -> int:
        r, c = self._pos[k]
        return c - r

    def axial_distance(self, k: int) -> int:
        """content(k+1) - content(k); the +-1 cases are row/column neighbours."""
        return self.content(k + 1) - self.content(k)

    def swap(self, k: int) -> "StandardTableau | None":
        """Exchange entries k and k+1; None when the result is not standard."""
        rk, ck = self._pos[k]
        rk1, ck1 = self._pos[k + 1]
        if rk == rk1 or ck == ck1:
            return None
        rows = [list(r) for r in self.rows]
        rows[rk - 1][ck - 1] = k + 1
        rows[rk1 - 1][ck1 - 1] = k
        return StandardTableau(tuple(tuple(r) for r in rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, StandardTableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"StandardTableau({self.rows})"


def _last_letter_key(t: StandardTableau) -> tuple[int, ...]:
    return tuple(-t.position(m)[0] for m in range(t.n, 0, -1))


def enumerate_standard_tableaux(shape: Partition) -> list[StandardTableau]:
    """All standard tableaux of `shape` in last-letter order."""
    parts = shape.parts
    rows: list[list[int]] = [[] for _ in parts]
    found: list[StandardTableau] = []

    def place(k: int):
        if k > shape.n:
            found.append(StandardTableau(tuple(tuple(r) for r in rows)))
            return
        for r in range(len(parts)):
            c = len(rows[r])
            if c < parts[r] and (r == 0 or len(rows[r - 1]) > c):
                rows[r].append(k)
                place(k + 1)
                rows[r].pop()

    place(1)
    found.sort(key=_last_letter_key)
    return found


def branching_down(shape: Partition) -> list[Partition]:
    """Shapes obtained by removing one corner, ordered by corner row descending.

    This is the block order of the restriction to S_{n-1} under
    last-letter tableau ordering.
    """
    parts = shape.parts
    out = []
    for r in range(len(parts) - 1, -1, -1):
        if r == len(parts) - 1 or parts[r] > parts[r + 1]:
            reduced = parts[:r] + (parts[r] - 1,) + parts[r + 1 :]
            out.append(Partition(tuple(p for p in reduced if p > 0)))
    return out


def schur_weyl_dimension_check(n: int, d: int) -> tuple[bool, list[tuple[Partition, int, int]]]:
    """Per-shape (weyl_dim, hook_dim) table and the d**n completeness check."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    rows = []
    total = 0
    for lam in enumerate_partitions(n, max_rows=d):
        w = weyl_dimension(lam, d)
        s = hook_length_dimension(lam)
        rows.append((lam, w, s))
        total += w * s
    return total == d**n, rows
