"""Pauli expansion of permutation operators on qubits (d = 2).

A Pauli string is two bit masks (x, z) over the big-endian basis index,
site q at bit n - q: x alone is X, z alone Z, both the Hermitian Y, so
the string is i^|x & z| X^x Z^z (the symplectic form of Aaronson and
Gottesman). Products are an XOR of masks and a power of i read from
four popcounts.

A transposition acts on two qubits as (I + XX + YY + ZZ)/2, so any
permutation expands into a Pauli sum by multiplying the expansions of
its transposition factors. A permutation moving l points needs at most
l - 1 transpositions, and each factor has coefficient 1-norm 2, so the
expansion's 1-norm is at most 2^(l-1). The exact per-cycle count

    sum_j binom(k-1, j) 2^(k-1-2j) (3/4)^(k-1-j) = 2^(k-1)

is the binomial theorem for (3/2 + 1/2)^(k-1); `binomial_identity_check`
verifies it in exact rational arithmetic.

`matrix_element_pauli` reruns the segmented LCU pipeline with the Pauli
sum as its decomposition: `lcu._schedule` plans M, the shift and K from
the expansion's 1-norm, and each select round applies one k-local Pauli
operator, so a run costs 3 M K of them. The block depends on the
decomposition only through that schedule, so `lcu._fast_element` applies
f + shift * identity, the same operator as g + shift * I, on the swap
route's permutation rows. `string_index_phase` writes one string as a
gather and a phase, and `string_dense` as a kron of 2 x 2 factors: two
references independent of the route and of each other, which refuse
sizes past `DEFAULT_DENSE_CAP` before they allocate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DEFAULT_DENSE_CAP, SizeMismatchError
from .lcu import GateReport, _fast_element, _schedule
from .permutation import Permutation, transposition_decomposition
from .group_algebra import AlgebraElement
from .quditsim import _check_dense, check_request

__all__ = [
    "PauliString",
    "PauliSum",
    "pauli_identity",
    "pauli_sum",
    "multiply_strings",
    "multiply_sums",
    "transposition_to_pauli",
    "permutation_to_pauli",
    "element_to_pauli",
    "string_dense",
    "sum_dense",
    "string_index_phase",
    "binomial_identity_check",
    "closed_form_pauli_gates",
    "matrix_element_pauli",
]

# i^k for k mod 4, exact: the literal -1j would be complex(-0.0, -1.0)
_POWERS_OF_I = (complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0))


@dataclass(frozen=True)
class PauliString:
    """Tensor product of I/X/Y/Z as two bit masks, site q at bit n - q.

    A set x bit is X, a set z bit is Z, and both set is the Hermitian
    Y = i X Z, so the string is i^|x & z| X^x Z^z.
    """

    n: int
    x: int
    z: int

    def __post_init__(self):
        size = 1 << self.n
        if not (0 <= self.x < size and 0 <= self.z < size):
            raise ValueError(f"masks x={self.x}, z={self.z} outside 0..2^{self.n} - 1")

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()


def pauli_identity(n: int) -> PauliString:
    return PauliString(n, 0, 0)


def multiply_strings(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    """a b = i^k P(x_a ^ x_b, z_a ^ z_b): the Y phases of a, b and the
    product, and a sign for each Z of a moved past an X of b."""
    if a.n != b.n:
        raise SizeMismatchError(f"strings on {a.n} vs {b.n} qubits")
    x, z = a.x ^ b.x, a.z ^ b.z
    k = ((a.x & a.z).bit_count() + (b.x & b.z).bit_count() - (x & z).bit_count()
         + 2 * (a.z & b.x).bit_count())
    return _POWERS_OF_I[k % 4], PauliString(a.n, x, z)


@dataclass(frozen=True)
class PauliSum:
    """Linear combination of Pauli strings, like terms combined."""

    n: int
    terms: tuple[tuple[PauliString, complex], ...]

    @property
    def term_count(self) -> int:
        return len(self.terms)

    @property
    def one_norm(self) -> float:
        return math.fsum(abs(c) for _, c in self.terms)

    @property
    def max_weight(self) -> int:
        return max((ps.weight for ps, _ in self.terms), default=0)

    def coefficient(self, ps: PauliString) -> complex:
        for q, c in self.terms:
            if q == ps:
                return c
        return 0j

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return all(abs(c.imag) <= tol for _, c in self.terms)


def pauli_sum(n: int, mapping) -> PauliSum:
    combined: dict[PauliString, complex] = {}
    items = mapping.items() if isinstance(mapping, dict) else mapping
    for ps, c in items:
        if ps.n != n:
            raise SizeMismatchError(f"string on {ps.n} qubits in a {n}-qubit sum")
        combined[ps] = combined.get(ps, 0j) + complex(c)
    terms = tuple(
        (ps, c)
        for ps, c in sorted(combined.items(),
                            key=lambda item: (item[0].weight, item[0].x, item[0].z))
        if c != 0
    )
    return PauliSum(n, terms)


def multiply_sums(a: PauliSum, b: PauliSum) -> PauliSum:
    if a.n != b.n:
        raise SizeMismatchError(f"sums on {a.n} vs {b.n} qubits")
    out: dict[PauliString, complex] = {}
    for ps, c in a.terms:
        for qs, e in b.terms:
            phase, prod = multiply_strings(ps, qs)
            out[prod] = out.get(prod, 0j) + phase * c * e
    return pauli_sum(a.n, out)


def transposition_to_pauli(n: int, i: int, j: int) -> PauliSum:
    """(I + X_i X_j + Y_i Y_j + Z_i Z_j) / 2, the two-site exchange."""
    if i == j:
        raise ValueError("transposition needs two distinct sites")
    pair = (1 << (n - i)) | (1 << (n - j))
    strings = ((0, 0), (pair, 0), (pair, pair), (0, pair))
    return pauli_sum(n, {PauliString(n, x, z): 0.5 for x, z in strings})


def permutation_to_pauli(p: Permutation) -> PauliSum:
    acc = pauli_sum(p.n, {pauli_identity(p.n): 1.0})
    for i, j in transposition_decomposition(p):
        acc = multiply_sums(acc, transposition_to_pauli(p.n, i, j))
    return acc


def element_to_pauli(f: AlgebraElement) -> PauliSum:
    acc: dict[PauliString, complex] = {}
    for p, c in f.terms:
        for ps, e in permutation_to_pauli(p).terms:
            acc[ps] = acc.get(ps, 0j) + c * e
    return pauli_sum(f.n, acc)


# single-site factors by (x bit, z bit)
_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
}


def string_dense(ps: PauliString) -> np.ndarray:
    """The 2^n x 2^n matrix as a kron of single-site factors."""
    _check_dense(2, ps.n, DEFAULT_DENSE_CAP)
    out = np.eye(1, dtype=complex)
    for bit in range(ps.n - 1, -1, -1):
        out = np.kron(out, _SINGLE[(ps.x >> bit & 1, ps.z >> bit & 1)])
    return out


def sum_dense(g: PauliSum) -> np.ndarray:
    _check_dense(2, g.n, DEFAULT_DENSE_CAP)
    out = np.zeros((2**g.n, 2**g.n), dtype=complex)
    for ps, c in g.terms:
        out += c * string_dense(ps)
    return out


def string_index_phase(ps: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (gather, phase) with (P psi)[x] = phase[x] * psi[gather[x]].

    P = i^|x & z| X^x Z^z, so gather is the index with the x bits
    flipped and Z's sign is the parity of z & gather, folded by shifts.
    """
    _check_dense(2, ps.n, DEFAULT_DENSE_CAP)
    gather = np.arange(1 << ps.n) ^ ps.x
    bits = gather & ps.z
    shift = 1
    while shift < ps.n:
        bits ^= bits >> shift
        shift <<= 1
    return gather, _POWERS_OF_I[(ps.x & ps.z).bit_count() % 4] * (1 - 2 * (bits & 1))


def binomial_identity_check(k: int) -> bool:
    """Exact rational check of the cycle 1-norm identity for a k-cycle."""
    if k < 2:
        raise ValueError("need k >= 2")
    m = k - 1
    lhs = sum(
        Fraction(math.comb(m, j)) * Fraction(2) ** (m - 2 * j) * Fraction(3, 4) ** (m - j)
        for j in range(m + 1)
    )
    return lhs == Fraction(2) ** m


def closed_form_pauli_gates(t: float, c_max: float, k: int, n: int, epsilon: float) -> float:
    """t L n^k log(t L n^k / eps) / loglog(...) with L = 2^(k-1) C."""
    if c_max == 0.0 or k == 0:
        return 0.0
    big_l = 2 ** (k - 1) * c_max
    arg = t * big_l * float(n) ** k / epsilon
    la = max(math.log(arg), 1.0)
    return t * big_l * float(n) ** k * la / max(math.log(la), 1.0)


def matrix_element_pauli(u, v, f: AlgebraElement, t: float,
                         epsilon: float) -> tuple[complex, GateReport]:
    """<u| exp(-it pi~(f)) |v> on qubits via the Pauli-expanded LCU.

    Same segmentation, identity shift, and amplification block as the
    permutation route, but the 1-norm and the shift come from the Pauli
    expansion g, and each select round costs one k-local Pauli operator,
    3 M K per run. The block is applied as f + shift * identity, the same
    operator as g + shift * I, on the permutation rows.
    """
    su, sv = check_request(u, v, f)
    if su.d != 2:
        raise ValueError("Pauli route needs qubits (d = 2)")

    g = element_to_pauli(f)
    if not g.is_hermitian(tol=1e-9):
        raise ValueError("Pauli expansion of a Hermitian element came out non-Hermitian")
    if t == 0.0:
        report = GateReport(0, 0, 0.0, 0, 0, f.span, f.locality, 0, unit="pauli")
        return su.inner(sv), report

    pl = _schedule(g.one_norm, g.coefficient(pauli_identity(f.n)).real, t, epsilon)
    value = _fast_element(su, sv, f, pl)

    actual = 3 * pl.M * pl.K
    report = GateReport(
        actual=actual,
        bound_k2mk=actual,
        closed_form=closed_form_pauli_gates(t, f.max_coeff, f.locality, f.n, epsilon),
        M=pl.M,
        K=pl.K,
        k_span=f.span,
        k_locality=f.locality,
        w_max=g.max_weight,
        unit="pauli",
    )
    return value, report
