"""Truncated-Taylor simulation of exp(-it pi~(f)) by LCU segments.

The evolution is split into M segments. Within a segment the operator
sum_{m<=K} (-i dt H)^m / m! is expressed as a positive combination of
phased permutations (an LCU), realized with a prepared ancilla and one
round of amplitude amplification, and the ancilla-0 block is kept.

Two choices make a single amplification round exact rather than
heuristic:

* Identity shift. A real multiple of the identity is added to the
  element so that the shifted 1-norm satisfies dt * norm = ln 2 in
  every segment; the physical answer is recovered by the global phase
  exp(+i t shift). Without the shift, segments whose Taylor 1-norm
  falls short of 2 would need identity padding of order one, and the
  amplification round then distorts the block by an amount that does
  not shrink with more segments.

* Tiny padding. After the shift the Taylor 1-norm is 2 minus the
  truncation tail, so the identity padding that tops the segment up to
  exactly 2 is itself bounded by the truncation budget.

With the reflection R = 1 - 2 P0 about the ancilla-0 subspace, the
block of -W R W^dag R W is algebraically 3T - 4 T Tdag T where
T = <0|W|0> = (Taylor sum + pad)/2, independent of how the PREPARE
column is completed to a unitary. The fast path applies that block
formula directly to the statevector; `run_segment` keeps the explicit
ancilla register and is cross-checked against the fast path in tests.

Both routes run the fast path on one engine, `_FastSegment`, which
stacks the shifted Hamiltonian's select operators (one permutation per
support term, or one Pauli flip mask per row) so that each application
of H is one gather and one contraction; both plan with `_schedule`, whose
`SimulationPlan` is the one record of a run's schedule.

Gate accounting follows the one-permutation-per-select-round unit: a
segment invokes W three times, each W performs K select rounds, and a
round is charged the adjacent-SWAP word of its worst support
permutation. The line-span k (largest support interval) bounds a word
by k(k-1)/2, so 3 M K W_max <= k^2 M K whenever every support
permutation moves at most 3 points, the regime of the suites here.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DEFAULT_DENSE_CAP,
    DEFAULT_TERM_CAP,
    ResourceLimitError,
    SizeMismatchError,
)
from .permutation import Permutation, identity
from .group_algebra import AlgebraElement, add, delta, pi_tilde_dense, scale
from .quditsim import Statevector, check_request, permutation_index_map, swap_network

__all__ = [
    "SimulationPlan",
    "LcuTerm",
    "LcuSegment",
    "GateReport",
    "plan",
    "closed_form_segments",
    "closed_form_swap_gates",
    "closed_form_taylor_order",
    "taylor_segment_operator",
    "build_segment",
    "segment_dense",
    "run_segment",
    "matrix_element",
    "gate_count_report",
]

LN2 = math.log(2.0)


@dataclass(frozen=True)
class SimulationPlan:
    """Schedule of one simulation run, the same for both routes.

    epsilon_tilde = epsilon/(4M) is the truncation budget per segment;
    the allowed block deviation per segment is 4*epsilon_tilde =
    epsilon/M, so the M segments compose to the requested accuracy.
    The gate counts derived from it are in `gate_count_report`.
    """

    t: float
    epsilon: float
    M: int
    delta_t: float
    K: int
    epsilon_tilde: float
    shift: float
    shifted_one_norm: float
    pad: float
    closed_form_K: int


@dataclass(frozen=True)
class LcuTerm:
    beta: float
    phase: complex
    perm: Permutation
    word: tuple[int, ...]


@dataclass(frozen=True)
class LcuSegment:
    """Positive combination sum_j beta_j phase_j P(perm_j) with 1-norm 2."""

    n: int
    delta_t: float
    K: int
    terms: tuple[LcuTerm, ...]
    shift: float
    phase_correction: complex


@dataclass(frozen=True)
class GateReport:
    actual: int
    bound_k2mk: int
    closed_form: float
    M: int
    K: int
    k_span: int
    k_locality: int
    w_max: int
    unit: str = "swap"


def closed_form_taylor_order(epsilon_tilde: float) -> int:
    """ceil(log(1/e~) / loglog(1/e~)), the a-priori truncation order."""
    big_l = max(math.log(1.0 / epsilon_tilde), math.e)
    return math.ceil(big_l / max(math.log(big_l), 1.0))


def closed_form_segments(t: float, c_max: float, k: int, n: int) -> int:
    """ceil(t C k n^k), the a-priori segment count (1 for k = 0)."""
    return math.ceil(t * c_max * k * n**k) if k else 1


def closed_form_swap_gates(t: float, c_max: float, k: int, n: int, epsilon: float) -> float:
    """t C k^3 n^k log(t C k n^k / eps) / loglog(...), the a-priori SWAP count."""
    if c_max == 0.0 or k == 0:
        return 0.0
    arg = t * c_max * k * float(n) ** k / epsilon
    la = max(math.log(arg), 1.0)
    return t * c_max * k**3 * float(n) ** k * la / max(math.log(la), 1.0)


def _min_taylor_order(x: float, budget: float) -> int:
    """Smallest K >= 1 with x^K / K! <= budget."""
    k, term = 1, x
    while term > budget:
        k += 1
        term *= x / k
    return k


def _schedule(one_norm: float, c_id: float, t: float, epsilon: float) -> SimulationPlan:
    """M, dt, identity shift, K and pad for a sum with this 1-norm and real
    identity coefficient c_id; both routes plan here."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"need finite t > 0, got {t}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"need 0 < epsilon < 1, got {epsilon}")
    m_segments = max(1, math.ceil(t * one_norm / LN2))
    target = m_segments * LN2 / t
    epsilon_tilde = epsilon / (4 * m_segments)
    taylor_k = _min_taylor_order(LN2, epsilon_tilde)
    s_taylor = math.fsum(LN2**m / math.factorial(m) for m in range(taylor_k + 1))
    return SimulationPlan(
        t=t,
        epsilon=epsilon,
        M=m_segments,
        delta_t=t / m_segments,
        K=taylor_k,
        epsilon_tilde=epsilon_tilde,
        shift=(target - (one_norm - abs(c_id))) - c_id,
        shifted_one_norm=target,
        pad=2.0 - s_taylor,
        closed_form_K=closed_form_taylor_order(epsilon_tilde),
    )


def plan(f: AlgebraElement, t: float, epsilon: float) -> SimulationPlan:
    """Choose M, the identity shift, K, and the padding for (f, t, epsilon)."""
    if not f.is_hermitian():
        raise ValueError("element is not Hermitian")
    pl = _schedule(f.one_norm, f.coefficient(identity(f.n)).real, t, epsilon)
    shifted = add(f, scale(delta(identity(f.n)), pl.shift))
    # float roundoff aside, delta_t * target = ln 2 in every segment
    if not abs(shifted.one_norm - pl.shifted_one_norm) < 1e-9 * max(1.0, pl.shifted_one_norm):
        raise ValueError(
            f"shifted 1-norm {shifted.one_norm} differs from its target {pl.shifted_one_norm}")
    return pl


def taylor_segment_operator(f: AlgebraElement, d: int, delta_t: float, taylor_k: int,
                            cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """sum_{m<=K} (-i dt pi~(f))^m / m! as a dense matrix."""
    ham = pi_tilde_dense(f, d, cap=cap)
    dim = ham.shape[0]
    acc = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for m in range(1, taylor_k + 1):
        term = (-1j * delta_t / m) * (ham @ term)
        acc += term
    return acc


def build_segment(f: AlgebraElement, delta_t: float, taylor_k: int, shift: float = 0.0,
                  term_cap: int = DEFAULT_TERM_CAP) -> LcuSegment:
    """Flatten the truncated Taylor series of f + shift*identity into an
    explicit unitary combination, identity-padded to 1-norm exactly 2.

    Equal (permutation, phase) pairs are merged, so the m = 0 term and
    the padding share one identity entry.
    """
    shifted = add(f, scale(delta(identity(f.n)), shift)) if shift else f
    supp = list(shifted.terms)
    term_count = sum(len(supp)**m for m in range(taylor_k + 1))
    if term_count > term_cap:
        raise ResourceLimitError(
            f"flattened segment has {term_count} terms (cap {term_cap}); "
            "lower K or use a sparser element"
        )

    merged: dict[tuple, list] = {}

    def put(beta: float, phase: complex, p: Permutation):
        key = (p.images, phase)
        entry = merged.setdefault(key, [0.0, phase, p])
        entry[0] += beta

    put(1.0, 1 + 0j, identity(f.n))
    for m in range(1, taylor_k + 1):
        base = delta_t**m / math.factorial(m)
        for combo in itertools.product(supp, repeat=m):
            coef = 1 + 0j
            prod = combo[0][0]
            for p, c in combo[1:]:
                prod = prod * p
            for p, c in combo:
                coef *= c
            weight = base * abs(coef)
            if weight == 0.0:
                continue
            put(weight, (-1j) ** m * coef / abs(coef), prod)

    s_now = math.fsum(entry[0] for entry in merged.values())
    pad = 2.0 - s_now
    if pad < -1e-9:
        raise ValueError(f"segment 1-norm {s_now} exceeds 2; delta_t too large")
    if pad > 0.0:
        put(pad, 1 + 0j, identity(f.n))

    terms = tuple(
        LcuTerm(beta=entry[0], phase=entry[1], perm=entry[2], word=tuple(swap_network(entry[2])))
        for entry in merged.values()
    )
    return LcuSegment(
        n=f.n,
        delta_t=delta_t,
        K=taylor_k,
        terms=terms,
        shift=shift,
        phase_correction=cmath.exp(1j * delta_t * shift),
    )


def segment_dense(seg: LcuSegment, d: int, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """sum_j beta_j phase_j P(perm_j) as a dense matrix (no phase correction)."""
    out = 0j
    for term in seg.terms:
        out = out + (term.beta * term.phase) * pi_tilde_dense(delta(term.perm), d, cap=cap)
    return out


def run_segment(state: Statevector, seg: LcuSegment) -> Statevector:
    """Execute one segment with an explicit power-of-two ancilla register.

    PREPARE loads sqrt(beta_j/2) (Householder completion of the
    column), SELECT applies phase_j P(perm_j) on the ancilla-j branch,
    and after the amplification round the unnormalized ancilla-0 block
    is returned, including the segment's shift phase correction.
    """
    if seg.n != state.n:
        raise SizeMismatchError(f"segment on {seg.n} sites vs state on {state.n}")
    d = state.d
    terms = seg.terms
    anc = 1 << max(0, (len(terms) - 1).bit_length())
    column = np.zeros(anc)
    column[: len(terms)] = np.sqrt(np.array([term.beta for term in terms]) / 2.0)
    column /= np.linalg.norm(column)
    house = column.copy()
    house[0] -= 1.0
    h2 = float(house @ house)

    # PREPARE as the rank-1 Householder update, never as a dense matrix
    def prep_apply(joint: np.ndarray) -> np.ndarray:
        if h2 < 1e-28:
            return joint
        joint -= np.outer(house, (2.0 / h2) * (house @ joint))
        return joint

    # rows sharing a permutation are gathered together; only the phase
    # varies per row
    phases = np.ones(anc, dtype=complex)
    phases[: len(terms)] = [term.phase for term in terms]
    groups: dict[tuple, list[int]] = {}
    by_perm: dict[tuple, Permutation] = {}
    for j, term in enumerate(terms):
        if term.perm.is_identity():
            continue
        groups.setdefault(term.perm.images, []).append(j)
        by_perm[term.perm.images] = term.perm
    gathers = {
        images: (
            np.array(rows),
            permutation_index_map(by_perm[images], d),
            permutation_index_map(by_perm[images].inverse(), d),
        )
        for images, rows in groups.items()
    }
    ident_phase = np.ones(anc, dtype=bool)
    for rows, _, _ in gathers.values():
        ident_phase[rows] = False

    def apply_w(joint: np.ndarray, dagger: bool) -> np.ndarray:
        joint = prep_apply(joint)
        col = phases.conj() if dagger else phases
        for rows, fwd, inv in gathers.values():
            g = inv if dagger else fwd
            joint[rows] = col[rows, None] * joint[np.ix_(rows, g)]
        # identity-permutation rows only need their phase
        joint[ident_phase] *= col[ident_phase, None]
        return prep_apply(joint)

    joint = np.zeros((anc, d**state.n), dtype=complex)
    joint[0] = state.amplitudes
    joint = apply_w(joint, dagger=False)
    joint[0] *= -1.0
    joint = apply_w(joint, dagger=True)
    joint[0] *= -1.0
    joint = apply_w(joint, dagger=False)
    block = -joint[0] * seg.phase_correction
    return Statevector(d, state.n, block)


class _FastSegment:
    """Ancilla-free segment block 3T - 4 T Tdag T over stacked select rows,
    H a = sum_q coefs[q] * phases[q] * a[gathers[q]] (phases all one when
    None); `sched`, the run's SimulationPlan, gives M, dt, K, pad, shift."""

    def __init__(self, gathers, coefs, phases, sched):
        self.gathers = np.asarray(gathers, dtype=np.intp)
        self.coefs = np.asarray(coefs, dtype=complex)
        self.phases = phases
        self.sched = sched

    def _ham(self, amps: np.ndarray, factor: complex) -> np.ndarray:
        """factor * H amps, the factor folded into the contraction."""
        stack = amps[self.gathers]
        if self.phases is not None:
            stack *= self.phases
        return (factor * self.coefs) @ stack

    def _t_apply(self, amps: np.ndarray, dagger: bool) -> np.ndarray:
        rot = 1j * self.sched.delta_t if dagger else -1j * self.sched.delta_t
        acc = amps.copy()
        term = amps
        for m in range(1, self.sched.K + 1):
            term = self._ham(term, rot / m)
            acc += term
        return 0.5 * (acc + self.sched.pad * amps)

    def block_apply(self, amps: np.ndarray) -> np.ndarray:
        t1 = self._t_apply(amps, dagger=False)
        t3 = self._t_apply(self._t_apply(t1, dagger=True), dagger=False)
        return 3.0 * t1 - 4.0 * t3

    def element(self, u_amps: np.ndarray, v_amps: np.ndarray) -> complex:
        """<u| exp(-it H) |v>: M blocks on v, then the shift's global phase."""
        amps = v_amps.astype(complex)
        for _ in range(self.sched.M):
            amps = self.block_apply(amps)
        return cmath.exp(1j * self.sched.t * self.sched.shift) * complex(np.vdot(u_amps, amps))


def matrix_element(u, v, f: AlgebraElement, t: float, epsilon: float,
                   explicit: bool = False,
                   term_cap: int = DEFAULT_TERM_CAP) -> tuple[complex, GateReport]:
    """<u| exp(-it pi~(f)) |v> to accuracy epsilon, with the gate report.

    u and v may be YoungBasisVector or Statevector values. The default
    path applies the segment block formula directly; explicit=True runs
    the ancilla circuit of `run_segment` instead (same block, kept for
    cross-validation, term count permitting).
    """
    su, sv = check_request(u, v, f)
    if t == 0.0:
        report = GateReport(0, 0, 0.0, 0, 0, f.span, f.locality, 0)
        return su.inner(sv), report

    pl = plan(f, t, epsilon)
    report = gate_count_report(pl, f)
    if explicit:
        seg = build_segment(f, pl.delta_t, pl.K, shift=pl.shift, term_cap=term_cap)
        state = sv
        for _ in range(pl.M):
            state = run_segment(state, seg)
        return su.inner(state), report

    shifted = add(f, scale(delta(identity(f.n)), pl.shift))
    fast = _FastSegment([permutation_index_map(p, su.d) for p, _ in shifted.terms],
                        [c for _, c in shifted.terms], None, pl)
    return fast.element(su.amplitudes, sv.amplitudes), report


def gate_count_report(pl: SimulationPlan, f: AlgebraElement) -> GateReport:
    """SWAP accounting: 3 select-round sweeps per segment, each charged
    the worst support word w_max; bound is span^2 M K."""
    w_max = max((len(swap_network(p)) for p in f.support() if not p.is_identity()), default=0)
    return GateReport(
        actual=3 * pl.M * pl.K * w_max,
        bound_k2mk=f.span * f.span * pl.M * pl.K,
        closed_form=closed_form_swap_gates(pl.t, f.max_coeff, f.locality, f.n, pl.epsilon),
        M=pl.M,
        K=pl.K,
        k_span=f.span,
        k_locality=f.locality,
        w_max=w_max,
    )
