"""Permutations of {1..n}: composition, cycles, words and support census.

Conventions used throughout the package:

* one-line notation, 1-based: ``images[i-1] = sigma(i)``;
* composition acts right-to-left, ``(p * q)(i) = p(q(i))``;
* disjoint cycles start at their minimum element and are sorted by it,
  fixed points are omitted;
* a word ``[k1, .., km]`` of adjacent transpositions ``s_k = (k, k+1)``
  denotes the product ``s_k1 * s_k2 * ... * s_km`` (rightmost applied
  first), so multiplying the factors in list order reproduces the
  permutation.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import SizeMismatchError

__all__ = [
    "Permutation",
    "identity",
    "transposition",
    "from_cycles",
    "compose",
    "cycle_decomposition",
    "support",
    "locality",
    "span",
    "transposition_decomposition",
    "adjacent_word",
    "derangement_count",
    "enumerate_sn",
    "parse_permutation",
    "format_cycles",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n} stored in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images!r}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self.images))

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self)!r}, n={self.n})"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def transposition(n: int, i: int, j: int) -> Permutation:
    """The transposition (i j) inside S_n."""
    if not (1 <= i <= n and 1 <= j <= n and i != j):
        raise ValueError(f"transposition needs distinct points in 1..{n}, got {i}, {j}")
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return Permutation(tuple(images))


def from_cycles(n: int, cycles: Iterable[Iterable[int]]) -> Permutation:
    """Build a permutation of {1..n} from disjoint cycles."""
    images = list(range(1, n + 1))
    seen: set[int] = set()
    for cyc in cycles:
        cyc = list(cyc)
        for a in cyc:
            if not 1 <= a <= n:
                raise ValueError(f"cycle entry {a} outside 1..{n}")
            if a in seen:
                raise ValueError(f"cycles are not disjoint at {a}")
            seen.add(a)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
    return Permutation(tuple(images))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p * q)(i) = p(q(i)); q acts first."""
    if p.n != q.n:
        raise SizeMismatchError(f"cannot compose S_{p.n} with S_{q.n}")
    return Permutation(tuple(p.images[qi - 1] for qi in q.images))


def cycle_decomposition(p: Permutation) -> list[tuple[int, ...]]:
    """Disjoint cycles, each starting at its minimum, sorted by that minimum.

    Fixed points are omitted; the identity decomposes into [].
    """
    seen: set[int] = set()
    cycles = []
    for start in range(1, p.n + 1):
        if start in seen or p(start) == start:
            continue
        cyc = [start]
        seen.add(start)
        nxt = p(start)
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = p(nxt)
        cycles.append(tuple(cyc))
    return cycles


def support(p: Permutation) -> tuple[int, ...]:
    return tuple(i for i in range(1, p.n + 1) if p(i) != i)


def locality(p: Permutation) -> int:
    """Number of moved points; 0 for the identity."""
    return len(support(p))


def span(p: Permutation) -> int:
    """Extent of the support on the line 1..n: max - min + 1, or 0."""
    sup = support(p)
    if not sup:
        return 0
    return sup[-1] - sup[0] + 1


def transposition_decomposition(p: Permutation) -> list[tuple[int, int]]:
    """Write p as a product of transpositions, cycle by cycle.

    An m-cycle (a1 a2 .. am) contributes (a1 a2)(a2 a3)..(a_{m-1} a_m),
    m - 1 factors; multiplying the returned factors in list order
    (rightmost acting first) reproduces p.
    """
    out = []
    for cyc in cycle_decomposition(p):
        out.extend((cyc[i], cyc[i + 1]) for i in range(len(cyc) - 1))
    return out


def adjacent_word(p: Permutation) -> list[int]:
    """A word in s_k = (k, k+1) whose product in list order equals p.

    Bubble sort of the one-line form; the length equals the inversion
    number, at most n(n-1)/2.
    """
    a = list(p.images)
    word: list[int] = []
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(a) - 1):
            if a[i] > a[i + 1]:
                a[i], a[i + 1] = a[i + 1], a[i]
                word.append(i + 1)
                swapped = True
    word.reverse()
    return word


def _subfactorial(m: int) -> int:
    # !m via !m = (m-1)(!(m-1) + !(m-2)), exact integers
    a, b = 1, 0  # !0, !1
    if m == 0:
        return a
    for j in range(2, m + 1):
        a, b = b, (j - 1) * (a + b)
    return b


def derangement_count(n: int, l: int) -> int:
    """Number of permutations in S_n moving exactly l points.

    Equals C(n, l) * !l.  By convention the l = 0 count is 1 (identity)
    and the l = 1 count is 0.
    """
    if not 0 <= l <= n:
        raise ValueError(f"need 0 <= l <= n, got l={l}, n={n}")
    return math.comb(n, l) * _subfactorial(l)


def enumerate_sn(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Parse cycle notation "(1 2 3)(5 6)" or one-line "[2,3,1]".

    Cycle entries may be separated by spaces or commas.  "()" and "e"
    denote the identity; for cycle forms n defaults to the largest point
    mentioned unless given explicitly.
    """
    text = text.strip()
    if text.startswith("["):
        body = text.strip("[]")
        images = tuple(int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok)
        if n is not None and len(images) != n:
            raise ValueError(f"one-line form has {len(images)} entries, expected n={n}")
        return Permutation(images)
    if text in ("e", "()", ""):
        if n is None:
            raise ValueError("identity needs an explicit n")
        return identity(n)
    chunks = _CYCLE_RE.findall(text)
    if not chunks or _CYCLE_RE.sub("", text).strip():
        raise ValueError(f"cannot parse permutation {text!r}")
    cycles = []
    for chunk in chunks:
        entries = [int(tok) for tok in re.split(r"[,\s]+", chunk.strip()) if tok]
        if entries:
            cycles.append(entries)
    size = n if n is not None else max((max(c) for c in cycles), default=1)
    return from_cycles(size, cycles)


def format_cycles(p: Permutation) -> str:
    cycles = cycle_decomposition(p)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(map(str, cyc)) + ")" for cyc in cycles)
