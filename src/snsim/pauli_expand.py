"""Pauli expansion of permutation operators on qubits (d = 2).

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
gather and a phase, a reference independent of the route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeMismatchError
from .lcu import GateReport, _fast_element, _schedule
from .permutation import Permutation, transposition_decomposition
from .group_algebra import AlgebraElement
from .quditsim import check_request

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

_LETTERS = ("X", "Y", "Z")

# (a, b) -> (phase, product letter); same-letter products give the identity
_PRODUCT = {
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit X/Y/Z letters on distinct sites."""

    n: int
    letters: tuple[tuple[int, str], ...]

    def __post_init__(self):
        seen = set()
        for site, letter in self.letters:
            if not 1 <= site <= self.n:
                raise ValueError(f"site {site} outside 1..{self.n}")
            if letter not in _LETTERS:
                raise ValueError(f"unknown letter {letter!r}")
            seen.add(site)
        if len(seen) != len(self.letters):
            raise ValueError("repeated site in Pauli string")
        if tuple(sorted(self.letters)) != self.letters:
            raise ValueError("letters must be sorted by site")

    @property
    def weight(self) -> int:
        return len(self.letters)

    def label(self) -> str:
        if not self.letters:
            return "I"
        return " ".join(f"{letter}{site}" for site, letter in self.letters)


def pauli_identity(n: int) -> PauliString:
    return PauliString(n, ())


def multiply_strings(a: PauliString, b: PauliString) -> tuple[complex, PauliString]:
    if a.n != b.n:
        raise SizeMismatchError(f"strings on {a.n} vs {b.n} qubits")
    left = dict(a.letters)
    phase = 1 + 0j
    out = {}
    for site, letter in b.letters:
        if site not in left:
            out[site] = letter
            continue
        la = left.pop(site)
        if la == letter:
            continue
        ph, prod = _PRODUCT[(la, letter)]
        phase *= ph
        out[site] = prod
    out.update(left)
    return phase, PauliString(a.n, tuple(sorted(out.items())))


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
        for ps, c in sorted(combined.items(), key=lambda item: (item[0].weight, item[0].letters))
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
    lo, hi = min(i, j), max(i, j)
    terms = {pauli_identity(n): 0.5}
    for letter in _LETTERS:
        terms[PauliString(n, ((lo, letter), (hi, letter)))] = 0.5
    return pauli_sum(n, terms)


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


_SINGLE = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def string_dense(ps: PauliString) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    by_site = dict(ps.letters)
    for site in range(1, ps.n + 1):
        factor = _SINGLE.get(by_site.get(site), np.eye(2, dtype=complex))
        out = np.kron(out, factor)
    return out


def sum_dense(g: PauliSum) -> np.ndarray:
    out = np.zeros((2**g.n, 2**g.n), dtype=complex)
    for ps, c in g.terms:
        out += c * string_dense(ps)
    return out


def string_index_phase(ps: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (gather, phase) with (P psi)[x] = phase[x] * psi[gather[x]].

    Site q occupies bit n - q of the big-endian basis index. X and Y
    flip that bit; the Y phase is read off the output bit (i on 1,
    -i on 0), the Z phase off the unflipped bit.
    """
    n = ps.n
    size = 1 << n
    x = np.arange(size)
    mask = 0
    phase = np.ones(size, dtype=complex)
    for site, letter in ps.letters:
        bit = (x >> (n - site)) & 1
        if letter == "Z":
            phase = phase * (1.0 - 2.0 * bit)
        elif letter == "X":
            mask |= 1 << (n - site)
        else:
            mask |= 1 << (n - site)
            phase = phase * np.where(bit == 1, 1j, -1j)
    return x ^ mask, phase


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
