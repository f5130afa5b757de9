"""Sparse elements of C[S_n], convolution, and the S_n Fourier transform.

The Haar measure is the unnormalized counting measure, so the delta at
the identity is the convolution unit and the Fourier coefficient of a
function f is fhat(shape) = sum_p f(p) rho_shape(p) with no 1/n!
factor. Inversion carries the 1/n! instead.

Two transforms are provided. `fourier_naive` walks the support of a
sparse element, evaluating each representation matrix through its
adjacent word; its cost scales with the support size and it serves as
the correctness oracle. rho(p) of a p that moves only the points of a
window [a, b] is zero between tableaux that put some point outside the
window in different cells, so the word is applied, for all shapes at
once, only to the entries within those classes. `fourier_fft` takes a
dense table over all of S_n and recurses over the subgroup chain
S_n > S_{n-1} > ...: the table splits into n cosets by the image of n,
the sub-transforms embed as block diagonals via the branching rule, and
the coset representative (i i+1 ... n) is applied one adjacent
generator at a time, each costing 2 dim^2 multiplies. Both transforms
report a multiply counter so the factorial growth can be measured
rather than asserted. The naive transform's counter is the model of a
dense letter walk, sum over terms and shapes of (2 |word| + 1) dim^2,
not the multiplies its windowed walk performs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_DENSE_CAP, DEFAULT_FACTORIAL_CAP, ResourceLimitError, SizeMismatchError
from .permutation import (
    Permutation,
    adjacent_word,
    enumerate_sn,
    identity,
    locality,
    parse_permutation,
    span,
    format_cycles,
)
from .young import Partition, enumerate_partitions, branching_down
from .yor import (
    _word_matrix,
    apply_generator as _apply_generator,
    dimension as _yor_dimension,
    generator_tables,
)
from .quditsim import _check_dense, permutation_index_maps

__all__ = [
    "AlgebraElement",
    "algebra_element",
    "delta",
    "add",
    "scale",
    "convolve",
    "left_translate",
    "FourierCoefficients",
    "check_factorial",
    "fourier_naive",
    "fourier_fft",
    "fourier_inverse",
    "convolution_theorem_check",
    "dense_table",
    "pi_tilde_dense",
    "random_hermitian_k_local",
    "element_to_json_dict",
    "element_from_json_dict",
]


@dataclass(frozen=True)
class AlgebraElement:
    """Finitely supported complex function on S_n.

    terms holds (permutation, coefficient) pairs sorted by one-line
    images with exact zeros dropped; use `algebra_element` to build.
    """

    n: int
    terms: tuple[tuple[Permutation, complex], ...]

    def __post_init__(self):
        for p, _ in self.terms:
            if p.n != self.n:
                raise SizeMismatchError(f"term on {p.n} points in an S_{self.n} element")

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def support(self) -> tuple[Permutation, ...]:
        return tuple(p for p, _ in self.terms)

    def coefficient(self, p: Permutation) -> complex:
        for q, c in self.terms:
            if q == p:
                return c
        return 0j

    @property
    def one_norm(self) -> float:
        return float(sum(abs(c) for _, c in self.terms))

    @property
    def max_coeff(self) -> float:
        return float(max((abs(c) for _, c in self.terms), default=0.0))

    @property
    def locality(self) -> int:
        return max((locality(p) for p, _ in self.terms), default=0)

    @property
    def span(self) -> int:
        return max((span(p) for p, _ in self.terms), default=0)

    def is_hermitian(self) -> bool:
        """f(p^-1) = conj f(p) for every p, to 1e-12."""
        table = {p: c for p, c in self.terms}
        for p, c in self.terms:
            if abs(table.get(p.inverse(), 0j) - c.conjugate()) > 1e-12:
                return False
        return True

    def as_dict(self) -> dict[Permutation, complex]:
        return {p: c for p, c in self.terms}


def algebra_element(n: int, mapping) -> AlgebraElement:
    """Build from {permutation: coefficient}, dropping exact zeros."""
    items = []
    for p, c in mapping.items():
        c = complex(c)
        if c != 0:
            items.append((p, c))
    items.sort(key=lambda pc: pc[0].images)
    return AlgebraElement(n, tuple(items))


def delta(p: Permutation) -> AlgebraElement:
    return AlgebraElement(p.n, ((p, 1 + 0j),))


def add(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    if f.n != g.n:
        raise SizeMismatchError(f"adding elements of S_{f.n} and S_{g.n}")
    out = f.as_dict()
    for p, c in g.terms:
        out[p] = out.get(p, 0j) + c
    return algebra_element(f.n, out)


def scale(f: AlgebraElement, a: complex) -> AlgebraElement:
    return algebra_element(f.n, {p: a * c for p, c in f.terms})


# Entries of composite images one block of `convolve` holds at least,
# 4 MB: a block grows to the distinct images kept so far, so the memory
# stays within a small multiple of the product's own size.
_CONVOLVE_BLOCK = 1 << 19


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """(f * g)(s) = sum_t f(t) g(t^-1 s); support multiplies pointwise.

    Bit for bit the loop over the pairs (p, q) of f's and g's terms in
    order, each product a * b added to its composite's sum from 0j, with
    exact zeros dropped. It runs over blocks of f's terms: a block's
    composite images P[:, Q], 0-based one-line rows, are sorted together
    with the distinct images so far (`_sorted_rows`), and its products are
    added to their sums by np.add.at in the pairs' order."""
    if f.n != g.n:
        raise SizeMismatchError(f"convolving elements of S_{f.n} and S_{g.n}")
    n = f.n
    p_images, q_images = (np.array([p.images for p, _ in h.terms], dtype=np.intp)
                          .reshape(h.term_count, n) - 1 for h in (f, g))
    a, b = (np.array([c for _, c in h.terms], dtype=complex) for h in (f, g))
    images, sums = np.empty((0, n), dtype=np.intp), np.empty(0, dtype=complex)
    lo = 0
    while lo < f.term_count:
        hi = lo + max(1, max(_CONVOLVE_BLOCK, images.size) // max(1, g.term_count * n))
        images, inverse = _sorted_rows(np.concatenate(
            [images, p_images[lo:hi, q_images].reshape(-1, n)]))
        merged = np.zeros(len(images), dtype=complex)
        merged[inverse[:len(sums)]] = sums
        np.add.at(merged, inverse[len(sums):],
                  _complex_products(a[lo:hi, None], b[None, :]).reshape(-1))
        sums, lo = merged, hi
    keep = sums != 0
    return AlgebraElement(n, tuple(zip(map(Permutation, map(tuple, (images[keep] + 1).tolist())),
                                       sums[keep].tolist())))


def _sorted_rows(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D array in lexicographic order, and for
    each row its index among them."""
    count = len(images)
    order = np.lexsort(images.T[::-1])
    ordered = images[order]
    starts = np.ones(count, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def _complex_products(a, b) -> np.ndarray:
    """a * b elementwise (broadcast) as Python multiplies complex numbers,
    (ar br - ai bi, ar bi + ai br), each step a separate float operation;
    numpy's complex multiply can differ from it in the last bit."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def left_translate(eta: Permutation, f: AlgebraElement) -> AlgebraElement:
    """(L_eta f)(s) = f(eta^-1 s): relabels the support, keeps coefficients."""
    if eta.n != f.n:
        raise SizeMismatchError(f"translating an S_{f.n} element by S_{eta.n}")
    return algebra_element(f.n, {eta * p: c for p, c in f.terms})


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------


@dataclass
class FourierCoefficients:
    """One complex matrix per partition of n; `ops` is the multiply count
    reported by the transform that produced it."""

    n: int
    blocks: dict[Partition, np.ndarray]
    ops: int = 0

    def max_abs_diff(self, other: "FourierCoefficients") -> float:
        """Largest entry of |self - other| over the blocks; both sets must
        hold the same shapes of the same n."""
        if self.n != other.n:
            raise SizeMismatchError(f"comparing S_{self.n} coefficients with S_{other.n} ones")
        for a, b in ((self, other), (other, self)):
            missing = [shape for shape in a.blocks if shape not in b.blocks]
            if missing:
                raise SizeMismatchError(f"no block for shape {missing[0]} among the S_{b.n} coefficients")
        worst = 0.0
        for shape, mat in self.blocks.items():
            if mat.shape != other.blocks[shape].shape:
                raise SizeMismatchError(f"blocks {shape} of shapes {mat.shape} and "
                                        f"{other.blocks[shape].shape}")
            worst = max(worst, float(np.abs(mat - other.blocks[shape]).max()))
        return worst


def check_factorial(n: int, cap: int):
    """Refuse a transform over S_n for n < 1 (ValueError) or n past the
    cap (ResourceLimitError), before anything n!-sized is built."""
    if n < 1:
        raise ValueError(f"need n >= 1 for a transform over S_n, got n={n}")
    if n > cap:
        raise ResourceLimitError(
            f"transform over S_{n} walks factorially many matrix entries; cap is n <= {cap}"
        )


def fourier_naive(f: AlgebraElement, cap: int = DEFAULT_FACTORIAL_CAP) -> FourierCoefficients:
    """fhat(shape) = sum over support of f(p) rho_shape(p).

    Each term's adjacent word is applied, rightmost letter first, to the
    identity of every shape at once, but only on the entries (i, j) whose
    tableaux lie in one class of the word's window (`_window_rows`):
    rho(p) is zero elsewhere. Every entry takes the float operations of
    `yor.apply_generator`, and the terms are added in order, so the blocks
    are bit for bit those of the dense per-term walk sum c rho(p).

    `ops` (`naive_ops` in `snsim fft`) is that dense letter walk's model,
    sum over terms and shapes of (2 |word| + 1) dim^2, as
    `test_operation_counters` pins it; it is not the number of multiplies
    the windowed walk performs.
    """
    check_factorial(f.n, cap)
    stack = _irrep_rows(f.n)
    words = [adjacent_word(p) for p, _ in f.terms]
    windows = [(min(word), max(word)) if word else (1, 0) for word in words]
    last = {window: t for t, window in enumerate(windows)}
    # the blocks laid end to end, and one more slot that the walks' padding
    # entries are added into
    acc = np.zeros(stack.entries + 1, dtype=complex)
    walks: dict[tuple[int, int], _WindowWalk] = {}
    ops = 0
    for t, ((_, c), word, (lo, hi)) in enumerate(zip(f.terms, words, windows)):
        walk = walks.get((lo, hi))
        if walk is None:
            walk = walks[lo, hi] = _WindowWalk(f.n, lo, hi)
        x = walk.identity
        for k in reversed(word):
            mate = np.take(x, walk.mate[k - lo], axis=1)
            x = walk.diag[k - lo] * x + walk.offd[k - lo] * mate
        np.add.at(acc, walk.positions, (c * x).ravel())
        if last[lo, hi] == t:  # no later term needs this window's layout
            del walks[lo, hi]
        ops += (2 * len(word) + 1) * stack.entries
    blocks, lo = {}, 0
    for s, dim in zip(stack.shapes, stack.dims):
        blocks[s] = acc[lo:lo + dim * dim].reshape(dim, dim)
        lo += dim * dim
    return FourierCoefficients(f.n, blocks, ops)


@dataclass(frozen=True)
class _IrrepRows:
    """The standard tableaux of every shape of n as one list of rows,
    shapes in `enumerate_partitions` order, with `yor`'s generator tables
    stacked along it (partners as stack rows). The blocks laid end to end
    hold entry (i, j) at flat index block[i] + local[j]."""

    shapes: tuple[Partition, ...]
    dims: tuple[int, ...]
    entries: int  # sum of dim^2, which is n!
    diag: np.ndarray  # (n - 1, rows): rho(s_k)[i, i]
    offd: np.ndarray  # (n - 1, rows): rho(s_k)[i, partner]
    partner: np.ndarray  # (n - 1, rows)
    block: np.ndarray  # (rows,)
    local: np.ndarray  # (rows,)


@functools.lru_cache(maxsize=None)
def _irrep_rows(n: int) -> _IrrepRows:
    shapes = tuple(enumerate_partitions(n))
    dims = tuple(_yor_dimension(s) for s in shapes)
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
        table.setflags(write=False)  # cached: every call shares them
    return _IrrepRows(shapes, dims, flat, diag, offd, partner, block, local)


@functools.lru_cache(maxsize=None)
def _window_rows(n: int, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """The classes of the stacked tableaux of n under the letters s_lo..s_hi.

    Two rows share a class when a path of partners under those letters
    joins them. The letters move only the points lo..hi+1, so rho of a
    word in them is zero between classes, and a class holds the tableaux
    that put every other point in the same cell. Returns the rows grouped
    by class, each class in row order; each row's place in that list; and
    for each place, the place its class begins at and the class's size."""
    partners = _irrep_rows(n).partner[lo - 1:hi]
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
    rows = order, where, where[label[order]], np.bincount(label, minlength=len(label))[label[order]]
    for table in rows:
        table.setflags(write=False)  # cached: every call shares them
    return rows


class _WindowWalk:
    """One window's classes laid out for one fourier_naive call.

    Entry [j, r] of the layout is the matrix entry between the tableau at
    place r of the class order and the j-th tableau of its class, so a
    tableau and its partner have the same j; j past the class's size pads
    the class to the largest one and stays zero. A letter then scales and
    mixes whole columns r, as `yor.apply_generator` does with rows; a
    long last axis keeps numpy's loops long. `positions` gives each
    entry's flat index in the blocks, the padding the slot past them, and
    diag, offd and mate hold rho(s_k)'s row data in the class order, for
    k = lo..hi."""

    def __init__(self, n: int, lo: int, hi: int):
        stack = _irrep_rows(n)
        order, where, begin, size = _window_rows(n, lo, hi)
        member = begin + np.arange(size.max())[:, None]
        real = member < begin + size
        self.positions = np.where(real, stack.block[order]
                                  + stack.local[order[np.where(real, member, 0)]],
                                  stack.entries).ravel()
        # bool: the first letter's float multiply reads it as exactly 1.0 and 0.0
        self.identity = member == np.arange(len(order))
        letters = slice(lo - 1, hi)
        self.diag = stack.diag[letters][:, order]
        self.offd = stack.offd[letters][:, order]
        self.mate = where[stack.partner[letters][:, order]]


@functools.lru_cache(maxsize=None)
def _coset_index_arrays(m: int) -> tuple[np.ndarray, ...]:
    """Positions, in the lex table of S_m, of the coset {p : p(m) = i}.

    Within each array the induced order equals the lex order of the
    S_{m-1} factor, because p = (i i+1 .. m) q relabels q's images
    monotonically.
    """
    rows = [[] for _ in range(m)]
    for j, p in enumerate(enumerate_sn(m)):
        rows[p(m) - 1].append(j)
    return tuple(np.array(r, dtype=np.intp) for r in rows)


def _fft_rec(values: np.ndarray, m: int, counter: list[int]) -> dict[Partition, np.ndarray]:
    if m == 1:
        return {Partition((1,)): values.reshape(1, 1).astype(complex)}
    cosets = _coset_index_arrays(m)
    sub_hats = [_fft_rec(values[cosets[i]], m - 1, counter) for i in range(m)]
    blocks: dict[Partition, np.ndarray] = {}
    for shape in enumerate_partitions(m):
        dim = _yor_dimension(shape)
        parts = branching_down(shape)
        sizes = [_yor_dimension(q) for q in parts]
        acc = np.zeros((dim, dim), dtype=complex)
        for i in range(m):
            stacked = np.zeros((dim, dim), dtype=complex)
            row = 0
            for q, sz in zip(parts, sizes):
                stacked[row : row + sz, row : row + sz] = sub_hats[i][q]
                row += sz
            # rho of the cycle (i+1 ... m) = s_{i+1} o ... o s_{m-1}
            for k in range(m - 1, i, -1):
                stacked = _apply_generator(shape, k, stacked)
                counter[0] += 2 * dim * dim
            acc += stacked
        blocks[shape] = acc
    return blocks


def fourier_fft(values: np.ndarray, n: int, cap: int = DEFAULT_FACTORIAL_CAP) -> FourierCoefficients:
    """Fast transform of a dense table over S_n in lex one-line order."""
    check_factorial(n, cap)
    values = np.asarray(values, dtype=complex)
    size = math.factorial(n)
    if values.shape != (size,):
        raise SizeMismatchError(f"table of shape {values.shape}, expected ({size},)")
    counter = [0]
    blocks = _fft_rec(values, n, counter)
    return FourierCoefficients(n, blocks, counter[0])


def fourier_inverse(coeffs: FourierCoefficients) -> np.ndarray:
    """f(p) = (1/n!) sum_shape dim * tr(fhat(shape) rho(p^-1)), as a dense
    lex-ordered table."""
    n = coeffs.n
    check_factorial(n, DEFAULT_FACTORIAL_CAP)
    shapes = enumerate_partitions(n)
    for s in shapes:
        d = _yor_dimension(s)
        if s not in coeffs.blocks:
            raise SizeMismatchError(f"no block for shape {s} among the S_{n} coefficients")
        if coeffs.blocks[s].shape != (d, d):
            raise SizeMismatchError(f"block {s} has shape {coeffs.blocks[s].shape}, expected {(d, d)}")
    perms = list(enumerate_sn(n))
    out = np.zeros(len(perms), dtype=complex)
    for j, p in enumerate(perms):
        word = adjacent_word(p.inverse())
        total = 0j
        for s in shapes:
            total += _yor_dimension(s) * np.trace(coeffs.blocks[s] @ _word_matrix(s, word))
        out[j] = total
    return out / len(perms)


def convolution_theorem_check(f: AlgebraElement, g: AlgebraElement) -> float:
    """max over shapes of |fourier(f*g) - fourier(f) fourier(g)|_max."""
    fh = fourier_naive(f, DEFAULT_FACTORIAL_CAP)
    gh = fourier_naive(g, DEFAULT_FACTORIAL_CAP)
    both = fourier_naive(convolve(f, g), DEFAULT_FACTORIAL_CAP)
    worst = 0.0
    for s, mat in both.blocks.items():
        worst = max(worst, float(np.abs(mat - fh.blocks[s] @ gh.blocks[s]).max()))
    return worst


def dense_table(f: AlgebraElement) -> np.ndarray:
    """The element as a dense lex-ordered table of n! coefficients."""
    perms = list(enumerate_sn(f.n))
    index = {p: j for j, p in enumerate(perms)}
    out = np.zeros(len(perms), dtype=complex)
    for p, c in f.terms:
        out[index[p]] = c
    return out


# ---------------------------------------------------------------------------
# Tensor representation
# ---------------------------------------------------------------------------


def pi_tilde_dense(f: AlgebraElement, d: int) -> np.ndarray:
    """sum_i c_i P(p_i) as a dense d^n x d^n operator."""
    dim = _check_dense(d, f.n, DEFAULT_DENSE_CAP)
    out = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    for g, (_, c) in zip(permutation_index_maps(f.support(), d), f.terms):
        out[rows, g] += c
    return out


def _k_local_permutations(n: int, k: int) -> list[Permutation]:
    """Every permutation moving 2..k points, in the lexicographic one-line
    order of `enumerate_sn`: the derangements of each support set, so the
    cost follows the pool's size rather than n!."""
    pool = []
    for size in range(2, k + 1):
        for sup in itertools.combinations(range(1, n + 1), size):
            for moved in itertools.permutations(sup):
                if all(a != b for a, b in zip(sup, moved)):
                    images = dict(zip(sup, moved))
                    pool.append(Permutation(tuple(images.get(i, i) for i in range(1, n + 1))))
    return sorted(pool, key=lambda p: p.images)


def random_hermitian_k_local(n: int, k: int, num_terms: int, seed: int) -> AlgebraElement:
    """Seeded Hermitian element supported on permutations moving <= k points.

    num_terms distinct non-identity permutations are drawn; each enters
    together with its inverse at the conjugate coefficient, so the
    support size is at most 2*num_terms and every coefficient magnitude
    is below 1.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    pool = _k_local_permutations(n, k)
    if num_terms > len(pool):
        raise ValueError(f"num_terms={num_terms} exceeds the {len(pool)} k-local permutations")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pool), size=num_terms, replace=False)
    out: dict[Permutation, complex] = {}
    for idx in sorted(int(i) for i in chosen):
        p = pool[idx]
        c = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        out[p] = out.get(p, 0j) + 0.5 * c
        out[p.inverse()] = out.get(p.inverse(), 0j) + 0.5 * c.conjugate()
    return algebra_element(n, out)


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def element_to_json_dict(f: AlgebraElement) -> dict:
    return {
        "n": f.n,
        "terms": [
            {"perm": format_cycles(p), "re": c.real, "im": c.imag} for p, c in f.terms
        ],
    }


def element_from_json_dict(data: dict) -> AlgebraElement:
    n = int(data["n"])
    out: dict[Permutation, complex] = {}
    for term in data["terms"]:
        p = parse_permutation(term["perm"], n=n)
        out[p] = out.get(p, 0j) + complex(float(term.get("re", 0.0)), float(term.get("im", 0.0)))
    return algebra_element(n, out)
