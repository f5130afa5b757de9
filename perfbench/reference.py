"""Reference values the benchmark computes itself, with numpy only.

Nothing here calls snsim: a permutation acts on an n-qudit state by
transposing its (d,)*n tensor, not through snsim's gather maps, and
exp(-itH) is applied by a Taylor series taken to machine precision,
not through snsim's dense oracle. An element is a dict mapping one-line
images (1-based tuples) to complex coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np


def apply_perm(tensor: np.ndarray, images: tuple[int, ...]) -> np.ndarray:
    """(P(p) psi)[j_1..j_n] = psi[j_p(1)..j_p(n)] on a (d,)*n tensor.

    The output's axis p(q)-1 is the input's axis q-1, so the transpose
    order is the inverse of p, 0-based.
    """
    axes = [0] * len(images)
    for q, img in enumerate(images):
        axes[img - 1] = q
    return np.transpose(tensor, axes)


def apply_ham(element: dict, tensor: np.ndarray) -> np.ndarray:
    out = np.zeros(tensor.shape, dtype=complex)
    for images, c in element.items():
        out += c * apply_perm(tensor, images)
    return out


def evolve(element: dict, d: int, n: int, t: float, amps: np.ndarray) -> np.ndarray:
    """exp(-itH) psi for H = sum c_p P(p), H Hermitian.

    Steps of length dt with dt * |H|_1 <= 1/4; each step sums the
    Taylor series until a term falls below 1e-18 of the state norm.
    """
    norm1 = math.fsum(abs(c) for c in element.values())
    steps = max(1, math.ceil(4.0 * t * norm1))
    dt = t / steps
    state = np.asarray(amps, dtype=complex).reshape((d,) * n)
    scale = float(np.linalg.norm(state))
    for _ in range(steps):
        acc = state.copy()
        term = state
        for m in range(1, 64):
            term = (-1j * dt / m) * apply_ham(element, term)
            acc += term
            if float(np.abs(term).max()) < 1e-18 * scale:
                break
        state = acc
    return state.reshape(-1)


@functools.lru_cache(maxsize=None)
def signs(n: int) -> np.ndarray:
    """sgn(p) for p in S_n, in lexicographic one-line order."""
    out = []
    for images in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if images[i] > images[j])
        out.append(-1.0 if inversions % 2 else 1.0)
    return np.array(out)


def fourier_identities_error(n: int, values: np.ndarray, blocks: dict) -> float:
    """Worst relative violation of three identities every transform over
    S_n with unnormalized counting measure obeys.

    values is the dense lex-ordered table of f; blocks maps each shape
    (a partition, by its `parts`) to the square matrix fhat(shape).
    Plancherel: sum |f|^2 = (1/n!) sum dim * |fhat|_F^2. The trivial
    block is sum f, the sign block is sum sgn(p) f(p). The dimensions
    must square-sum to n!.
    """
    values = np.asarray(values, dtype=complex)
    size = math.factorial(n)
    dims = {tuple(shape.parts): mat.shape[0] for shape, mat in blocks.items()}
    if any(mat.shape != (mat.shape[0],) * 2 for mat in blocks.values()):
        return math.inf
    if sum(dim * dim for dim in dims.values()) != size or values.shape != (size,):
        return math.inf
    by_parts = {tuple(shape.parts): mat for shape, mat in blocks.items()}
    energy = float(np.vdot(values, values).real)
    spectral = math.fsum(
        dims[parts] * float(np.vdot(mat, mat).real) for parts, mat in by_parts.items()
    ) / size
    scale = max(1.0, energy, float(np.abs(values).sum()))
    errs = [
        abs(spectral - energy) / scale,
        abs(complex(by_parts[(n,)][0, 0]) - complex(values.sum())) / scale,
        abs(complex(by_parts[(1,) * n][0, 0]) - complex(signs(n) @ values)) / scale,
    ]
    return max(errs)


def dense_values(n: int, element: dict) -> np.ndarray:
    """The element as a dense lex-ordered table of n! coefficients."""
    index = {images: j for j, images in enumerate(itertools.permutations(range(1, n + 1)))}
    out = np.zeros(len(index), dtype=complex)
    for images, c in element.items():
        out[index[images]] += c
    return out


# single-qubit products: (a, b) -> (phase, a*b) over 0=I, 1=X, 2=Y, 3=Z
_PAULI_MUL = {}
for _a in range(4):
    for _b in range(4):
        if _a == 0 or _b == 0:
            _PAULI_MUL[(_a, _b)] = (1, _a or _b)
        elif _a == _b:
            _PAULI_MUL[(_a, _b)] = (1, 0)
        else:
            _c = 6 - _a - _b
            _PAULI_MUL[(_a, _b)] = (1j if (_a, _b) in ((1, 2), (2, 3), (3, 1)) else -1j, _c)


def _pauli_product(x: dict, y: dict) -> dict:
    out: dict = {}
    for sx, cx in x.items():
        for sy, cy in y.items():
            phase, word = 1, []
            for a, b in zip(sx, sy):
                ph, c = _PAULI_MUL[(a, b)]
                phase *= ph
                word.append(c)
            key = tuple(word)
            out[key] = out.get(key, 0) + phase * cx * cy
    return out


def pauli_one_norm(n: int, element: dict) -> float:
    """1-norm of H = sum c_p P(p) in the Pauli basis on n qubits.

    Each transposition (i j) is (I + XiXj + YiYj + ZiZj)/2; a cycle
    (a1 .. am) is the product (a1 am) ... (a1 a2) of transpositions.
    """
    total: dict = {}
    for images, c in element.items():
        acc = {(0,) * n: complex(c)}
        seen = set()
        for start in range(1, n + 1):
            cyc, q = [], start
            while q not in seen and images[q - 1] != q:
                seen.add(q)
                cyc.append(q)
                q = images[q - 1]
            for b in cyc[1:]:
                swap = {}
                for letter in range(4):
                    word = [0] * n
                    word[cyc[0] - 1] = word[b - 1] = letter
                    swap[tuple(word)] = 0.5
                acc = _pauli_product(swap, acc)
        for key, val in acc.items():
            total[key] = total.get(key, 0) + val
    return math.fsum(abs(v) for v in total.values())
