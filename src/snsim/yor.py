"""Young's orthogonal representation of S_n.

In the basis of standard tableaux (last-letter order, see `young`), an
adjacent transposition s_k = (k, k+1) acts on tableau t by

    rho(s_k)[t, t]  = 1/r
    rho(s_k)[t, t'] = sqrt(1 - 1/r^2)   t' = t with k and k+1 exchanged

where r = axial_distance(t, k). When k and k+1 share a row or column
(|r| = 1) the exchange is not standard and the row has a single entry
+-1. Every rho(s_k) therefore has at most two nonzeros per row, which
`apply_generator` exploits: one generator costs 2*dim^2 multiplies.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import SizeMismatchError
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
    """rho_shape(s_k) @ mat, in 2*dim(shape)*ncols multiplies."""
    diag, offd, partner = generator_tables(shape)[k - 1]
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
