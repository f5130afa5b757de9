"""Young's orthogonal representation of S_n.

In the basis of standard tableaux (last-letter order, see `young`), an
adjacent transposition s_k = (k, k+1) acts on tableau t by

    rho(s_k)[t, t]  = 1/r
    rho(s_k)[t, t'] = sqrt(1 - 1/r^2)   t' = t with k and k+1 exchanged

where r = axial_distance(t, k). When k and k+1 share a row or column
(|r| = 1) the exchange is not standard and the row has a single entry
+-1. Every rho(s_k) therefore has at most two nonzeros per row, which
`apply_generator` exploits: one generator costs 2*dim^2 multiplies.

rho(f) = sum_p c_p rho(p) of a sparse element is summed in one place,
`_rho_sum`, over a stack of shapes of n: every shape for
`group_algebra.fourier_naive`, one for `quditsim.irrep_matrix_element`.
rho(p) of a word in s_lo..s_hi is zero between tableaux that put some
point outside lo..hi+1 in different cells, and on one such class depends
only on the class's generator tables. So each term's word is applied,
rightmost letter first, to one class of each group of classes with
identical tables (`_window_groups`) and added to every class of the
group, with `apply_generator`'s float operations and the terms in order
from zero: bit for bit the dense sum of c_p yor(shape, p).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_FACTORIAL_CAP, SizeMismatchError
from .permutation import Permutation, adjacent_word
from .young import Partition, enumerate_standard_tableaux

__all__ = [
    "tableaux",
    "dimension",
    "generator_tables",
    "apply_generator",
    "yor",
]


@functools.lru_cache(maxsize=None)
def tableaux(shape: Partition):
    return tuple(enumerate_standard_tableaux(shape))


def dimension(shape: Partition) -> int:
    return len(tableaux(shape))


@functools.lru_cache(maxsize=None)
def generator_tables(shape: Partition):
    """Sparse row data (diag, offdiag, partner) of rho(s_k) for k = 1..n-1.

    partner[i] = i marks rows without an off-diagonal entry.
    """
    ts = tableaux(shape)
    index = {t: i for i, t in enumerate(ts)}
    tables = []
    for k in range(1, shape.n):
        diag = np.empty(len(ts))
        offd = np.zeros(len(ts))
        partner = np.arange(len(ts))
        for i, t in enumerate(ts):
            r = t.axial_distance(k)
            diag[i] = 1.0 / r
            mate = t.swap(k)
            if mate is not None:
                partner[i] = index[mate]
                offd[i] = math.sqrt(1.0 - 1.0 / (r * r))
        tables.append((diag, offd, partner))
    return tuple(tables)


def apply_generator(shape: Partition, k: int, mat: np.ndarray) -> np.ndarray:
    """rho_shape(s_k) @ mat, in 2*dim(shape)*ncols multiplies; k outside
    1..n-1 is refused with ValueError."""
    tables = generator_tables(shape)
    if not 1 <= k <= len(tables):
        raise ValueError(f"no generator s_{k} of S_{shape.n}")
    diag, offd, partner = tables[k - 1]
    if mat.ndim == 1:
        return diag * mat + offd * mat[partner]
    return diag[:, None] * mat + offd[:, None] * mat[partner]


def _word_matrix(shape: Partition, word) -> np.ndarray:
    """Dense matrix of the adjacent-transposition word, rightmost letter
    applied first; cost is 2*dim^2 multiplies per letter."""
    mat = np.eye(dimension(shape))
    for k in reversed(word):
        mat = apply_generator(shape, k, mat)
    return mat


def yor(shape: Partition, p: Permutation) -> np.ndarray:
    """Dense orthogonal matrix of an arbitrary permutation, evaluated
    through its adjacent word."""
    if p.n != shape.n:
        raise SizeMismatchError(f"permutation on {p.n} points vs shape of {shape.n}")
    return _word_matrix(shape, adjacent_word(p))


@dataclass(frozen=True, eq=False)
class _IrrepRows:
    """The standard tableaux of a stack of shapes of n as one list of rows,
    with their generator tables stacked along it (partners as stack rows);
    the blocks laid end to end hold entry (i, j) at block[i] + local[j].
    Hashed by identity: the cached stack keys its window groups."""

    entries: int  # sum of dim^2, which is n! for every shape of n
    diag: np.ndarray  # (n - 1, rows): rho(s_k)[i, i]
    offd: np.ndarray  # (n - 1, rows): rho(s_k)[i, partner]
    partner: np.ndarray  # (n - 1, rows)
    block: np.ndarray  # (rows,)
    local: np.ndarray  # (rows,)


@functools.lru_cache(maxsize=None)
def _irrep_rows(shapes: tuple[Partition, ...]) -> _IrrepRows:
    n = shapes[0].n
    dims = tuple(dimension(s) for s in shapes)
    rows = sum(dims)
    diag, offd = np.empty((2, n - 1, rows))
    partner = np.empty((n - 1, rows), dtype=np.intp)
    block, local = np.empty(rows, dtype=np.intp), np.empty(rows, dtype=np.intp)
    lo = flat = 0
    for s, dim in zip(shapes, dims):
        for k, (d, o, mate) in enumerate(generator_tables(s)):
            diag[k, lo:lo + dim], offd[k, lo:lo + dim] = d, o
            partner[k, lo:lo + dim] = mate + lo
        local[lo:lo + dim] = np.arange(dim)
        block[lo:lo + dim] = flat + dim * local[lo:lo + dim]
        lo, flat = lo + dim, flat + dim * dim
    for table in (diag, offd, partner, block, local):
        table.setflags(write=False)  # a cached stack shares them across calls
    return _IrrepRows(flat, diag, offd, partner, block, local)


def _window_rows(stack: _IrrepRows, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """The classes of the stacked tableaux under the letters s_lo..s_hi.

    Two rows share a class when a path of partners under those letters
    joins them. The letters move only the points lo..hi+1, so rho of a
    word in them is zero between classes, and a class holds the tableaux
    that put every other point in the same cell. Returns the rows grouped
    by class, each class in row order; each row's place in that list; and
    for each place, the place its class begins at and the class's size."""
    partners = stack.partner[lo - 1:hi]
    label = np.arange(partners.shape[1])
    while True:
        before = label
        for mate in partners:
            label = np.minimum(label, label[mate])
        label = label[label]
        if np.array_equal(label, before):
            break
    # label is now the least row of each class, which begins the class
    order = np.argsort(label, kind="stable")
    where = np.empty_like(order)
    where[order] = np.arange(len(order))
    return order, where, where[label[order]], np.bincount(label, minlength=len(label))[label[order]]


@dataclass(frozen=True)
class _WindowGroups:
    """One window's classes, grouped by identical tables and laid out for
    `_rho_sum`'s walk. Two classes share a group when they have the same
    size and, member by member in class order, the same diag, offd and
    in-class partner place under every letter lo..hi; rho of a word in
    those letters is then the same block on both, bit for bit. The layout
    holds the first class of each group: entry [j, r] is the matrix entry
    between the tableau of column r and the j-th tableau of its class, so a
    tableau and its partner have the same j, and j past the class's size
    pads the class to the largest one and stays zero. A letter scales and
    mixes whole columns, as `apply_generator` does rows; a long last axis
    keeps numpy's loops long. Every real entry of every class of the window
    has its flat index in the blocks at `positions`, its group's entry in
    the layout at `sources`. The index tables are int32 while they index
    below 2^31, which halves them. The cache keeps as many windows as S_8
    has: at n = 8 all 29 of every shape hold 2.4 MB."""

    identity: np.ndarray  # (largest class, columns), bool
    diag: np.ndarray  # (letters, columns): rho(s_k)'s row data, k = lo..hi
    offd: np.ndarray  # (letters, columns)
    mate: np.ndarray  # (letters, columns): the partner's column
    positions: np.ndarray  # (entries,)
    sources: np.ndarray  # (entries,)


@functools.lru_cache(maxsize=math.comb(DEFAULT_FACTORIAL_CAP, 2) + 1)
def _window_groups(stack: _IrrepRows, lo: int, hi: int) -> _WindowGroups:
    order, where, begin, size = _window_rows(stack, lo, hi)
    letters = slice(lo - 1, hi)
    rank = np.arange(len(order)) - begin  # each place's index in its class
    diag = stack.diag[letters][:, order]
    offd = stack.offd[letters][:, order]
    mate = where[stack.partner[letters][:, order]] - begin  # the partner's rank
    # a class's key: its size, then its members' tables by rank, as bits,
    # each key one byte string, which sorts faster than rows of fields
    width = int(size.max())
    starts = np.flatnonzero(rank == 0)
    held = np.arange(width) < size[starts, None]
    tables = np.concatenate([diag.view(np.int64), offd.view(np.int64), mate])
    keys = tables[:, np.where(held, starts[:, None] + np.arange(width), 0)] * held
    keys = np.concatenate([size[starts, None], keys.transpose(1, 0, 2).reshape(len(starts), -1)], axis=1)
    keys = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    # the layout's columns: the places of each group's first class in turn
    widths = size[starts[first]]
    column0 = np.cumsum(widths) - widths
    places = np.repeat(starts[first] - column0, widths) + np.arange(widths.sum())
    # bool: the first letter's float multiply reads it as exactly 1.0 and 0.0
    identity = np.arange(width)[:, None] == rank[places]
    mate = mate[:, places] + np.repeat(column0, widths)
    # the real entries (i, order[begin + j]) of each row i in turn, so that
    # positions ascend, and for each its group's entry [j, column of i]
    column = (column0[group[np.cumsum(rank == 0) - 1]] + rank)[where]
    begin, size = begin[where], size[where]
    j = np.arange(width)
    real = j < size[:, None]
    positions = stack.block[:, None] + stack.local[order[np.where(real, begin[:, None] + j, 0)]]
    sources = j * len(places) + column[:, None]
    index = np.int32 if max(stack.entries, identity.size) < 2**31 else np.intp
    walk = _WindowGroups(identity, diag[:, places], offd[:, places], mate.astype(index),
                         positions[real].astype(index), sources[real].astype(index))
    for table in vars(walk).values():
        table.setflags(write=False)  # a cached stack shares them across calls
    return walk


def _rho_sum(shapes: tuple[Partition, ...], terms) -> np.ndarray:
    """sum c rho_shape(p) over the (adjacent_word(p), c) terms per shape,
    the row-major blocks end to end. Stacks of at most 8! entries (S_n,
    n <= 8, or one shape of dim <= 200) share tables and window groups
    across calls; a call holds a window's from its first term to its last."""
    shared = sum(dimension(s) ** 2 for s in shapes) <= math.factorial(DEFAULT_FACTORIAL_CAP)
    stack = (_irrep_rows if shared else _irrep_rows.__wrapped__)(shapes)
    groups = _window_groups if shared else _window_groups.__wrapped__
    windows = [(min(word), max(word)) if word else (1, 0) for word, _ in terms]
    last, held = {window: i for i, window in enumerate(windows)}, {}
    acc = np.zeros(stack.entries, dtype=complex)
    for i, ((word, c), (lo, hi)) in enumerate(zip(terms, windows)):
        walk = held.pop((lo, hi), None) or groups(stack, lo, hi)
        if last[lo, hi] > i:
            held[lo, hi] = walk
        x = walk.identity
        for k in reversed(word):
            mate = np.take(x, walk.mate[k - lo], axis=1)
            x = walk.diag[k - lo] * x
            x += walk.offd[k - lo] * mate
        # taken before c *, the entries are copied as complex once, not twice
        np.add.at(acc, walk.positions, c * x.take(walk.sources))
    return acc
