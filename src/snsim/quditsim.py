"""Dense statevector simulation of n qudits and the Young basis.

Index convention: amplitudes[i] is the coefficient of the computational
basis state whose base-d digits are read off i with qudit 1 as the most
significant digit, so qudit q is axis q - 1 of the amplitudes reshaped
to the tensor of shape (d,)*n, and every digit is read off its axes. A
permutation acts by moving the content of site q to site p(q):

    (P(p) psi)[j_1 .. j_n] = psi[j_{p(1)} .. j_{p(n)}]

so P(p)P(q) = P(pq) under the composition convention of `permutation`.

The Young basis is built classically, one irreducible block at a time:
the top-weight copy of each block is the Young symmetrizer of its
row-superstandard tableau applied to one basis state (no eigensolver),
the remaining SU(d) copies are generated by lowering operators, and the
companion tableau vectors are produced by the orthogonal-representation
recurrence, so the S_n action on the result has exactly the matrix
elements of `yor`. It runs once per block on the stacked weight copies,
one exchange of two tensor axes per edge of a breadth-first tree over
the tableau exchange edges of `yor.generator_tables`, and every vector
keeps the weight its copy was built at. Both builders run one path:
per distinct shape, one block with its copies only up to the highest
weight index asked for and its tableau vectors only along the tree paths
to the tableaux asked for. `young_basis` asks for every index, and each
`young_vectors` member equals its `young_basis` member bit for bit.

Two oracles give <u| exp(-it pi~(f)) |v>. `exact_matrix_element` takes
any two statevectors. A permutation keeps each digit's count, so pi~(f)
is block diagonal over the weight sectors of (C^d)^(x n); the oracle
builds and diagonalizes only the blocks of sectors where both vectors
have support, never the d^n x d^n operator. A Young-basis vector lies
in one sector, of dimension at most C(n, n/2) at d = 2.
`irrep_matrix_element` takes two Young labels and builds no d^n vector:
by Schur-Weyl duality the element is delta_{ww'} [exp(-it rho_lam(f))]_{t,t'},
with rho_lam(f) = sum c_p rho_lam(p) (`yor._rho_sum`) of size dim(lam).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DEFAULT_DENSE_CAP, ResourceLimitError, SizeMismatchError
from .permutation import Permutation, adjacent_word
from .young import (
    Partition,
    StandardTableau,
    enumerate_partitions,
    hook_length_dimension,
    weyl_dimension,
)
from .yor import _rho_sum, dimension, generator_tables, tableaux as _tableaux

if TYPE_CHECKING:
    from .group_algebra import AlgebraElement

__all__ = [
    "Statevector",
    "YoungBasisVector",
    "basis_state",
    "permutation_index_map",
    "permutation_index_maps",
    "apply_permutation",
    "permutation_matrix",
    "swap_network",
    "young_basis",
    "young_vectors",
    "check_young_size",
    "check_young_label",
    "check_request",
    "exact_matrix_element",
    "irrep_matrix_element",
]


def _check_register(d: int, n: int) -> None:
    if d < 2 or n < 1:
        raise ValueError(f"need d >= 2, n >= 1: got d={d}, n={n}")


def _check_dense(d: int, n: int, cap: int) -> int:
    dim = d**n
    if dim > cap:
        raise ResourceLimitError(f"dense array of dimension d^n = {d}^{n} = {dim} exceeds cap {cap}")
    return dim


@dataclass(frozen=True)
class Statevector:
    """Amplitudes over (C^d)^(x n): complex, or real float64 for a Young
    basis member. Treated as immutable."""

    d: int
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_register(self.d, self.n)
        if self.amplitudes.shape != (self.d**self.n,):
            raise SizeMismatchError(
                f"amplitude array of shape {self.amplitudes.shape} does not match d^n = {self.d**self.n}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "Statevector") -> complex:
        """<self|other>, conjugate-linear in self."""
        if (self.d, self.n) != (other.d, other.n):
            raise SizeMismatchError("statevectors on different spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_state(d: int, n: int, digits) -> Statevector:
    """Computational basis state; `digits` is an index or a digit list."""
    dim = d**n
    if isinstance(digits, (int, np.integer)):
        # a negative index is refused, not wrapped; True is index 1, not a mask
        valid, index = 0 <= digits < dim, int(digits)
    else:
        valid = len(digits) == n and all(0 <= j < d for j in digits)
        index = sum(j * d ** (n - q) for q, j in enumerate(digits, start=1))
    if not valid:
        raise ValueError(f"digits {digits} invalid for d={d}, n={n}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return Statevector(d, n, amps)


def permutation_index_maps(perms, d: int) -> np.ndarray:
    """The (len(perms), d^n) stack of `permutation_index_map`s of
    permutations of one n. Row k is the index tensor of shape (d,)*n with
    its axes permuted by p_k^-1: output axis q - 1 reads input axis
    p_k^-1(q) - 1. Nothing but the stack and one index tensor is
    allocated; no permutations give a (0, 0) stack."""
    if not len(perms):
        return np.zeros((0, 0), dtype=np.intp)
    n = perms[0].n
    index = np.arange(d**n, dtype=np.intp).reshape((d,) * n)
    stack = np.empty((len(perms),) + (d,) * n, dtype=np.intp)
    for row, p in zip(stack, perms):
        row[...] = index.transpose(sorted(range(n), key=p.images.__getitem__))
    return stack.reshape(len(perms), -1)


def permutation_index_map(p: Permutation, d: int) -> np.ndarray:
    """g with (P(p) psi) = psi[g]: g[i] has digit j_{p(q)} of i at slot q."""
    return permutation_index_maps((p,), d)[0]


def apply_permutation(s: Statevector, p: Permutation) -> Statevector:
    if p.n != s.n:
        raise SizeMismatchError(f"permutation on {p.n} points vs {s.n} qudits")
    return Statevector(s.d, s.n, s.amplitudes[permutation_index_map(p, s.d)])


def permutation_matrix(p: Permutation, d: int) -> np.ndarray:
    """Dense d^n x d^n matrix of P(p)."""
    dim = _check_dense(d, p.n, DEFAULT_DENSE_CAP)
    g = permutation_index_map(p, d)
    mat = np.zeros((dim, dim))
    mat[np.arange(dim), g] = 1.0
    return mat


def swap_network(p: Permutation) -> list[int]:
    """Adjacent SWAP schedule realizing P(p) on a 1-D line of qudits.

    Entry i means "swap sites (i, i+1)"; gates are listed in execution
    order. All indices stay inside the interval spanned by the support,
    so the count is at most span*(span-1)/2.
    """
    return list(reversed(adjacent_word(p)))


# ---------------------------------------------------------------------------
# Young basis construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YoungBasisVector:
    """One member of the orthonormal basis adapted to the block structure.

    `tableau` indexes the S_n side of the block, `weight_index` the
    SU(d) side (0 = top weight, then lexicographically decreasing
    weight strings, ties in construction order). Every amplitude of the
    basis is real, so `vector` is stored as float64, not complex.
    """

    shape: Partition
    tableau: StandardTableau
    tableau_index: int
    weight_index: int
    weight: tuple[int, ...]
    vector: Statevector

    def label(self) -> str:
        return f"{self.shape}:{self.tableau_index}:{self.weight_index}"


def _lower(vec: np.ndarray, d: int, n: int, a: int) -> np.ndarray:
    """Lowering operator F_a = sum_sites |a><a-1|: digit a-1 -> a once."""
    t = vec.reshape((d,) * n)
    out = np.zeros_like(t)
    for q in range(n):
        out[(slice(None),) * q + (a,)] += t[(slice(None),) * q + (a - 1,)]
    return out.reshape(-1)


def _canonical_sign(vec: np.ndarray) -> np.ndarray:
    lead = np.flatnonzero(np.abs(vec) > 1e-8)
    if not lead.size:
        raise RuntimeError("zero vector has no canonical sign")
    return vec if vec[lead[0]] > 0 else -vec


def _compositions(n: int, d: int):
    """All weight strings (m_0..m_{d-1}) summing to n, lex-descending: each
    moves one unit off the last digit i < d - 1 that holds one onto digit
    i + 1, with the whole tail past i + 1."""
    mu = [n] + [0] * (d - 1)
    while True:
        yield tuple(mu)
        held = [i for i in range(d - 1) if mu[i]]
        if not held:
            return
        i = held[-1]
        mu[i:] = [mu[i] - 1, 1 + sum(mu[i + 1:])] + [0] * (d - i - 2)


def _exchange(stack: np.ndarray, d: int, n: int, i: int, k: int) -> np.ndarray:
    """P((i k)) on every row of a 1-D or 2-D stack of d^n amplitudes: a
    copy with the tensor axes of qudits i and k swapped."""
    lead = stack.shape[:-1]
    tensor = stack.reshape(lead + (d,) * n)
    return tensor.swapaxes(len(lead) + i - 1, len(lead) + k - 1).reshape(stack.shape)


def _top_weight_vector(lam: Partition, t0: StandardTableau, d: int, n: int) -> np.ndarray:
    """The top-weight vector of the row-superstandard tableau t0: its Young
    symmetrizer a b applied to the state whose qudit k holds k's row.

    The signed column sums b make a highest-weight vector of weight lam,
    and the row sums a keep it in the lam block, on the one line of
    row-invariant vectors there (Kostka number 1), where t0's vector of
    `yor` lies. A sum over the permutations of entries c_1 < .. < c_m is
    the product over k of (1 +- sum_{i<k} (c_i c_k)), one exchange a term.
    """
    v = np.zeros(d**n)
    v[sum((t0.position(k)[0] - 1) * d ** (n - k) for k in range(1, n + 1))] = 1.0
    cols = [[row[c] for row in t0.rows if c < len(row)] for c in range(lam.parts[0])]
    for sign, groups in ((-1.0, cols), (1.0, t0.rows)):
        for group in groups:
            for m in range(1, len(group)):
                v = v + sign * sum(_exchange(v, d, n, i, group[m]) for i in group[:m])
    return _canonical_sign(v / np.linalg.norm(v))


def _su_d_copies(lam: Partition, v_top: np.ndarray, d: int, n: int,
                 last: int) -> list[tuple[tuple, np.ndarray]]:
    """The weight copies of the block up to index `last` as (weight,
    vector) pairs, top weight first, lex-descending.

    Copies are built in that order, and a copy at weight mu is lowered
    only from weights above mu, so the build stops once copy `last`
    exists and every copy up to it is the one a longer build makes.
    Every lower weight space is spanned by single lowering steps from
    already-built weights; double Gram-Schmidt in a fixed candidate
    order makes the outcome deterministic. `_block` checks the count.
    """
    top = tuple(lam.padded(d))
    ordered = [(top, v_top)]
    by_weight: dict[tuple[int, ...], list[np.ndarray]] = {top: [v_top]}
    for mu in _compositions(n, d):
        if mu >= top:
            continue
        kept: list[np.ndarray] = []
        for a in range(1, d):
            if mu[a] == 0:
                continue
            nu = list(mu)
            nu[a - 1] += 1
            nu[a] -= 1
            for source in by_weight.get(tuple(nu), ()):
                if len(ordered) > last:
                    return ordered
                cand = _lower(source, d, n, a)
                for _ in range(2):
                    for u in kept:
                        cand = cand - (u @ cand) * u
                nrm = np.linalg.norm(cand)
                if nrm > 1e-8:
                    kept.append(_canonical_sign(cand / nrm))
                    ordered.append((mu, kept[-1]))
        if kept:
            by_weight[mu] = kept
    return ordered


def _transport(lam: Partition, seeds: np.ndarray, d: int,
               targets) -> dict[int, np.ndarray]:
    """Companion vectors of the tableaux in `targets` from the
    first-tableau seeds, keyed by tableau index.

    `seeds` stacks weight copies for the first tableau, one per row;
    entry i of the result stacks them for tableau i, and every copy
    moves along an edge in one `_exchange` of the qudits k and k+1. The
    breadth-first tree over the tableaux of `yor.generator_tables` is
    found on indices alone, and vectors are built only along its paths
    from tableau 0 to the targets, one exchange per edge, so a vector
    comes from the same parent by the same arithmetic whichever targets
    are asked for. Inverts the generator action: with r =
    axial_distance(t, k) and t' the partner of t,
    P(s_k)|t> = (1/r)|t> + sqrt(1-1/r^2)|t'>.
    """
    partners = [partner for _, _, partner in generator_tables(lam)]
    # tableau -> (its parent, k of the edge between them); the root's is never read
    parent: dict[int, tuple[int, int]] = {0: (0, 0)}
    order = [0]
    missing = set(targets) - {0}
    for ti in order:  # grows while it is read: a first-in, first-out queue
        if not missing:
            break
        for k in range(1, lam.n):
            mi = int(partners[k - 1][ti])
            if mi not in parent:  # also a row without a mate, whose partner is itself
                parent[mi] = (ti, k)
                order.append(mi)
                missing.discard(mi)
    on_path = {0}
    for ti in targets:
        while ti not in on_path:
            on_path.add(ti)
            ti = parent[ti][0]
    ts = _tableaux(lam)
    vecs = {0: seeds}
    for mi in order[1:]:  # parents come before their children
        if mi not in on_path:
            continue
        ti, k = parent[mi]
        r = ts[ti].axial_distance(k)
        swapped = _exchange(vecs[ti], d, lam.n, k, k + 1)
        vecs[mi] = (swapped - vecs[ti] / r) / np.sqrt(1.0 - 1.0 / (r * r))
    return {ti: vecs[ti] for ti in targets}


def check_young_size(n: int, d: int, cap: int = DEFAULT_DENSE_CAP) -> int:
    """d^n, once n >= 1 qudits of dimension d >= 2 are asked for and d^n
    is within `cap`; both Young builders check here before allocating."""
    _check_register(d, n)
    return _check_dense(d, n, cap)


def check_young_label(n: int, d: int, shape: Partition, tableau_index: int,
                      weight_index: int) -> None:
    """ValueError unless young_basis(n, d) has a member with this label:
    a shape of n with at most d rows, a tableau index below dim(shape)
    and a weight index below the Weyl dimension of shape at d. A negative
    index is refused, not wrapped. dim(shape) comes from the hook-length
    formula, so no tableau is enumerated, and neither check enumerates
    partitions or grows with d."""
    _check_register(d, n)
    if not (shape.n == n and shape.rows <= d
            and 0 <= tableau_index < hook_length_dimension(shape)
            and 0 <= weight_index < weyl_dimension(shape, d)):
        raise ValueError(
            f"no Young basis vector {(str(shape), tableau_index, weight_index)} "
            f"for n={n}, d={d}"
        )


def _block(lam: Partition, d: int, n: int, pairs) -> list[YoungBasisVector]:
    """The members of block lam with these distinct (tableau index,
    weight index) pairs, in their order.
    Copies are built only up to the highest weight index asked for, and
    tableau vectors only along the transport paths to the tableaux asked
    for; a row's values do not depend on which other rows are built. The
    lowest weight comes last and occurs once, so copy W - 1 (W the Weyl
    dimension) sits there and no other copy does."""
    copies = sorted({wi for _, wi in pairs})
    v_top = _top_weight_vector(lam, _tableaux(lam)[0], d, n)
    weights, seeds = zip(*_su_d_copies(lam, v_top, d, n, copies[-1]))
    w, lowest = weyl_dimension(lam, d), tuple(reversed(lam.padded(d)))
    if len(weights) != copies[-1] + 1 or (weights[-1] == lowest) != (len(weights) == w):
        raise RuntimeError(f"block {lam}: {len(weights)} copies built, ending at weight "
                           f"{weights[-1]}; {copies[-1] + 1} of {w} asked for")
    stacks = _transport(lam, np.stack([seeds[wi] for wi in copies]), d,
                        sorted({ti for ti, _ in pairs}))
    row = {wi: r for r, wi in enumerate(copies)}
    return [_member(lam, ti, wi, weights[wi], stacks[ti][row[wi]], d, n) for ti, wi in pairs]


def _member(lam: Partition, ti: int, wi: int, weight: tuple, vec: np.ndarray,
            d: int, n: int) -> YoungBasisVector:
    return YoungBasisVector(
        shape=lam,
        tableau=_tableaux(lam)[ti],
        tableau_index=ti,
        weight_index=wi,
        weight=weight,
        vector=Statevector(d, n, vec),
    )


@functools.lru_cache(maxsize=1)
def young_basis(n: int, d: int, cap: int = DEFAULT_DENSE_CAP) -> tuple[YoungBasisVector, ...]:
    """Complete orthonormal basis of (C^d)^(x n), one vector per
    (block shape, standard tableau, weight copy) triple.

    Ordered by shape (reverse-lexicographic), then tableau (last-letter
    order), then weight index. Only the last basis built is cached.
    """
    check_young_size(n, d, cap)
    out: list[YoungBasisVector] = []
    for lam in enumerate_partitions(n, max_rows=min(n, d)):
        out += _block(lam, d, n, [(ti, wi) for ti in range(dimension(lam))
                                  for wi in range(weyl_dimension(lam, d))])
    if len(out) != d**n:
        raise RuntimeError(f"basis has {len(out)} vectors, expected {d**n}")
    return tuple(out)


def young_vectors(n: int, d: int, labels,
                  cap: int = DEFAULT_DENSE_CAP) -> tuple[YoungBasisVector, ...]:
    """The members of young_basis(n, d) with these (shape, tableau
    index, weight index) labels, in their order, each equal to its
    member bit for bit.

    Every label is checked before anything is allocated. One block is
    built per distinct shape, by the steps `young_basis` takes: its
    weight copies stop at the highest weight index asked of it, and its
    tableau vectors are built only along the transport paths to the
    tableaux asked for. Nothing is kept between calls.
    """
    labels = [tuple(label) for label in labels]
    check_young_size(n, d, cap)
    for label in labels:
        check_young_label(n, d, *label)
    unique = list(dict.fromkeys(labels))
    members: dict[tuple, YoungBasisVector] = {}
    for lam in dict.fromkeys(shape for shape, _, _ in unique):
        mine = [label for label in unique if label[0] == lam]
        members.update(zip(mine, _block(lam, d, n, [(ti, wi) for _, ti, wi in mine])))
    return tuple(members[label] for label in labels)


def check_request(u, v, f: "AlgebraElement") -> tuple[Statevector, Statevector]:
    """The statevectors behind u and v (YoungBasisVector or Statevector
    values), once a matrix-element request for f on them is valid; every
    route, the oracle included, checks here."""
    su: Statevector = getattr(u, "vector", u)
    sv: Statevector = getattr(v, "vector", v)
    if (su.d, su.n) != (sv.d, sv.n):
        raise SizeMismatchError("u and v live on different spaces")
    if f.n != su.n:
        raise SizeMismatchError(f"element on S_{f.n} vs {su.n} qudits")
    if not f.is_hermitian():
        raise ValueError("element is not Hermitian")
    return su, sv


def exact_matrix_element(u, v, f: "AlgebraElement", t: float) -> complex:
    """<u| exp(-it pi~(f)) |v> by Hermitian eigendecomposition, one
    weight sector at a time.

    Every P(p) keeps the digit counts of a basis state, so pi~(f) is
    block diagonal over the weight sectors and so is its exponential.
    Only a sector where both u and v have support adds to the element;
    its block is built from the support's index maps restricted to the
    sector's rows and solved by `eigh`, and u and v sharing none gives
    0j. No d^n x d^n operator is built; d^n above DEFAULT_DENSE_CAP is
    refused. u and v may be YoungBasisVector or raw Statevector values;
    t must be finite.
    """
    su, sv = check_request(u, v, f)
    if not math.isfinite(t):
        raise ValueError(f"need finite t, got {t}")
    d, n = su.d, su.n
    _check_dense(d, n, DEFAULT_DENSE_CAP)
    maps = permutation_index_maps(f.support(), d)
    # one integer per weight: an index's digits sorted and read in base d,
    # below d^n, ascending as the digit counts from the highest digit down
    code = d ** np.arange(n) @ np.sort(np.indices((d,) * n).reshape(n, -1), axis=0)
    value = 0j
    # sectors are taken per vector, not per index: two basis states of
    # one sector with disjoint supports still couple through it
    for sector in np.intersect1d(code[su.amplitudes != 0], code[sv.amplitudes != 0]):
        rows = np.flatnonzero(code == sector)
        # the terms in f's order from 0j, as `pi_tilde_dense` sums them
        block = np.zeros((len(rows), len(rows)), dtype=complex)
        for g, (_, c) in zip(maps, f.terms):
            block[np.arange(len(rows)), np.searchsorted(rows, g[rows])] += c
        evals, evecs = np.linalg.eigh(block)
        a = evecs.conj().T @ sv.amplitudes[rows]
        b = evecs.conj().T @ su.amplitudes[rows]
        value += complex(np.vdot(b, np.exp(-1j * t * evals) * a))
    return value


def irrep_matrix_element(u, v, f: "AlgebraElement", t: float) -> complex:
    """<u| exp(-it pi~(f)) |v> for Young labels u and v, each a
    (shape, tableau index, weight index) triple, read off the irrep
    block with no d^n vector built.

    By Schur-Weyl duality the element is delta_{ww'} [exp(-it rho)]_{t,t'}
    with rho = sum_p c_p rho_shape(p) (`yor._rho_sum`), solved by `eigh`
    at dim(shape), and 0j across shapes or weight indices. f must be
    Hermitian and t finite, as for `exact_matrix_element`. A tableau
    index outside [0, dim(shape)) or a negative weight index is refused
    with ValueError; `check_young_label` also checks the weight index
    against d, which this function is not given.
    """
    (lam, ti, wi), (lam_v, tj, wj) = u, v
    if not f.n == lam.n == lam_v.n:
        raise SizeMismatchError(f"element on S_{f.n} vs shapes {lam} and {lam_v}")
    for shape, tab, wt in (u, v):
        if not (0 <= tab < hook_length_dimension(shape) and wt >= 0):
            raise ValueError(f"no Young label {(str(shape), tab, wt)} on S_{f.n}")
    if not f.is_hermitian():
        raise ValueError("element is not Hermitian")
    if not math.isfinite(t):
        raise ValueError(f"need finite t, got {t}")
    if (lam, wi) != (lam_v, wj):
        return 0j
    rho = _rho_sum((lam,), [(adjacent_word(p), c) for p, c in f.terms]).reshape((dimension(lam),) * 2)
    evals, evecs = np.linalg.eigh(rho)
    return complex(evecs[ti] @ (np.exp(-1j * t * evals) * evecs[tj].conj()))
