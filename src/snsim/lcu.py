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

Both routes plan with `_schedule`, whose `SimulationPlan` is the one
record of a run's schedule, and run the fast path in `_fast_element`.
It stacks one permutation row per term of f + shift * identity, so each
application of H is one gather and one contraction, and hands that
application to `_evolve`, the one segment-block engine, which sees the
operator only as ham(amps, factor) and the schedule. The Pauli route
plans from its expansion's 1-norm but applies the same operator on
these rows. Both refuse, before the
segment loop, a run whose select applications pass `DEFAULT_WORK_CAP`:
M * K applications of those rows on the fast path, and on the explicit
one 3 M, one per W, each gathering every term of the segment; an
application is charged (rows) * d^n gathers but at least
`DEFAULT_CALL_FLOOR`.

The explicit path's segment comes from `build_segment`, which sums the
Taylor polynomial in the group algebra, one power of the shifted
element per order, so each permutation takes one term; a cancelling
identity pair tops the 1-norm up to 2 where products merged.
`convolve` forms each power's products as one image array, so no
`Permutation` is composed.
The segment is a plain value, its terms held as arrays (betas, phases
and one permutation per term); `run_segment` reads only these and builds
its index tables on each call. `LcuSegment.terms` builds the per-term
`LcuTerm` view, with each term's SWAP word, on each read.

Gate accounting follows the one-permutation-per-select-round unit: a
segment invokes W three times, each W performs K select rounds, and a
round is charged the adjacent-SWAP word of its worst support
permutation. The line-span k (largest support interval) bounds a word
by k(k-1)/2, so 3 M K W_max <= k^2 M K whenever every support
permutation moves at most 3 points, the regime of the suites here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DEFAULT_CALL_FLOOR,
    DEFAULT_TERM_CAP,
    DEFAULT_WORK_CAP,
    ResourceLimitError,
    SizeMismatchError,
)
from .permutation import Permutation, identity
from .group_algebra import AlgebraElement, add, convolve, delta, scale
from .quditsim import Statevector, check_request, permutation_index_maps, swap_network

__all__ = [
    "SimulationPlan",
    "LcuTerm",
    "LcuSegment",
    "GateReport",
    "plan",
    "closed_form_swap_gates",
    "closed_form_taylor_order",
    "build_segment",
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


@dataclass(frozen=True, eq=False)  # arrays have no truth value to compare by
class LcuSegment:
    """Positive combination sum_j beta_j phase_j P(perm_j) with 1-norm 2.

    Held as arrays: term j has betas[j], phases[j] and the permutation
    perms[j]. The terms are lexicographic by one-line images, each
    permutation once, but for the identity's cancelling pad pair, which
    comes last. None of it depends on the qudit dimension d.
    """

    n: int
    delta_t: float
    K: int
    shift: float
    phase_correction: complex
    betas: np.ndarray
    phases: np.ndarray
    perms: tuple[Permutation, ...]

    @property
    def terms(self) -> tuple[LcuTerm, ...]:
        """The terms as LcuTerm values with their adjacent-SWAP words, built
        on each read."""
        return tuple(
            LcuTerm(beta=beta, phase=phase, perm=p, word=tuple(swap_network(p)))
            for beta, phase, p in zip(self.betas.tolist(), self.phases.tolist(), self.perms)
        )


@dataclass(frozen=True)
class GateReport:
    """Gate accounting of one LCU run.

    actual is 3 M K w_max SWAPs (unit "swap") or 3 M K Pauli operators
    (unit "pauli"). On the swap route bound_k2mk = k_span^2 M K bounds
    actual only when every support permutation moves at most 3 points:
    (1 4)(2 3) on n = 5 has k_span 4 and w_max 6, so actual = 18 M K
    exceeds bound_k2mk = 16 M K.
    """

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
    segments = t * one_norm / LN2
    # epsilon / (4 M) below is a float divide; the work cap of each route
    # refuses every count that is smaller but still too large to run
    if not 4.0 * segments < math.inf:
        raise ResourceLimitError(f"t*||f||_1/ln2 = {segments:.3g} segments overflow the schedule")
    m_segments = max(1, math.ceil(segments))
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


def _check_work(segments: int, applications: int, rows: int, dim: int) -> None:
    """Refuse, before the segment loop, a run of `segments` segments of
    `applications` select applications each, an application gathering
    `rows` rows of `dim` amplitudes and charged at least
    DEFAULT_CALL_FLOOR gathers, when the total passes DEFAULT_WORK_CAP."""
    if segments * applications * max(rows * dim, DEFAULT_CALL_FLOOR) > DEFAULT_WORK_CAP:
        raise ResourceLimitError(
            f"run needs {segments:.3g} segments of {applications} select applications "
            f"of {rows} rows over {dim} amplitudes, past the work cap "
            f"{DEFAULT_WORK_CAP:.3g} gathers; lower t or raise epsilon"
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


def build_segment(f: AlgebraElement, delta_t: float, taylor_k: int,
                  shift: float = 0.0) -> LcuSegment:
    """The truncated Taylor series of f + shift*identity as an explicit
    unitary combination, identity-padded to 1-norm exactly 2.

    The series sum_{m<=K} (-i dt g)^m / m! of the shifted element g is
    summed in C[S_n], each power the one below convolved with g, so it
    has one coefficient c per permutation. The pad 2 - sum_m
    (dt |g|_1)^m / m! of the product expansion is added to the identity's
    coefficient, and each permutation becomes one term, beta = |c| and
    phase = c/|c|. Products that merge onto one permutation lose 1-norm
    by the triangle inequality; a cancelling identity pair, phases +1 and
    -1 and beta half that slack each, makes it up, so the betas sum to 2
    and <0|W|0> is still (Taylor sum + pad)/2.

    DEFAULT_TERM_CAP bounds the Taylor products sum_m |supp g|^m, which
    bound the (p, q) pairs each convolution forms. A NaN or negative
    delta_t is refused with ValueError.
    """
    if not delta_t >= 0.0:
        raise ValueError(f"need delta_t >= 0, got {delta_t}")
    ident = identity(f.n)
    shifted = add(f, scale(delta(ident), shift))
    term_count = sum(shifted.term_count**m for m in range(taylor_k + 1))
    if term_count > DEFAULT_TERM_CAP:
        raise ResourceLimitError(
            f"flattened segment has {term_count} terms (cap {DEFAULT_TERM_CAP}); "
            "lower K or use a sparser element"
        )
    x = delta_t * shifted.one_norm
    s_now = math.fsum(x**m / math.factorial(m) for m in range(max(taylor_k, 0) + 1))
    pad = 2.0 - s_now
    if pad < -1e-9:
        raise ValueError(f"segment 1-norm {s_now} exceeds 2; delta_t too large")

    power = delta(ident)
    total = scale(power, 1.0 + max(pad, 0.0))  # the m = 0 term and the pad
    for m in range(1, taylor_k + 1):
        power = scale(convolve(power, shifted), -1j * delta_t / m)
        total = add(total, power)

    coefs = np.array([c for _, c in total.terms], dtype=complex)
    betas = np.abs(coefs)
    phases = coefs / betas
    perms = total.support()
    slack = 2.0 - math.fsum(betas.tolist())
    if slack > 0.0:
        betas = np.append(betas, [slack / 2.0, slack / 2.0])
        phases = np.append(phases, [1.0, -1.0])
        perms += (ident, ident)
    return LcuSegment(
        n=f.n,
        delta_t=delta_t,
        K=taylor_k,
        shift=shift,
        phase_correction=cmath.exp(1j * delta_t * shift),
        betas=betas,
        phases=phases,
        perms=perms,
    )


def run_segment(state: Statevector, seg: LcuSegment) -> Statevector:
    """Execute one segment with an explicit power-of-two ancilla register.

    PREPARE loads sqrt(beta_j/2) (Householder completion of the
    column), SELECT applies phase_j P(perm_j) on the ancilla-j branch,
    and after the amplification round the unnormalized ancilla-0 block
    is returned, including the segment's shift phase correction. Each
    SELECT is one gather of the live rows through a (terms x d^n) index
    table, and its inverse for W^dag, both built on each call.
    """
    if seg.n != state.n:
        raise SizeMismatchError(f"segment on {seg.n} sites vs state on {state.n}")
    d = state.d
    live = len(seg.betas)
    anc = 1 << max(0, (live - 1).bit_length())
    column = np.zeros(anc)
    column[:live] = np.sqrt(seg.betas / 2.0)
    column /= np.linalg.norm(column)
    house = column.copy()
    house[0] -= 1.0
    h2 = float(house @ house)

    # PREPARE as the rank-1 Householder update, never as a dense matrix.
    # Rows past the last term stay zero, so the update touches only the
    # live rows; house @ joint still sums over the whole register, which
    # keeps its BLAS sums, and the result, bit for bit
    def prep_apply(joint: np.ndarray) -> np.ndarray:
        if h2 < 1e-28:
            return joint
        joint[:live] -= np.outer(house[:live], (2.0 / h2) * (house @ joint))
        return joint

    # SELECT gathers every live row at once through a (terms x d^n) index
    # table, the identity's rows through the arange; W^dag through the
    # inverse table, each row's own gather scattered back
    rows = np.arange(live)[:, None]
    fwd = permutation_index_maps(seg.perms, d)
    inv = np.empty_like(fwd)
    inv[rows, fwd] = np.arange(d**state.n)

    def apply_w(joint: np.ndarray, dagger: bool) -> np.ndarray:
        joint = prep_apply(joint)
        col = seg.phases.conj() if dagger else seg.phases
        joint[:live] = col[:, None] * joint[rows, inv if dagger else fwd]
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


def _evolve(ham, amps: np.ndarray, pl: SimulationPlan) -> np.ndarray:
    """pl.M ancilla-free segment blocks 3T - 4 T Tdag T applied to amps,
    T = (sum_{m<=K} (-i dt H)^m / m! + pad) / 2 under the schedule pl,
    where ham(a, factor) returns factor * H a. The shift's global phase
    exp(i t shift) is left to the caller."""

    def t_apply(a: np.ndarray, rot: complex) -> np.ndarray:
        acc = a.copy()
        term = a
        for m in range(1, pl.K + 1):
            term = ham(term, rot / m)
            acc += term
        return 0.5 * (acc + pl.pad * a)

    amps = amps.astype(complex)
    for _ in range(pl.M):
        t1 = t_apply(amps, -1j * pl.delta_t)
        amps = 3.0 * t1 - 4.0 * t_apply(t_apply(t1, 1j * pl.delta_t), -1j * pl.delta_t)
    return amps


def matrix_element(u, v, f: AlgebraElement, t: float, epsilon: float,
                   explicit: bool = False) -> tuple[complex, GateReport]:
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
    if explicit:
        seg = build_segment(f, pl.delta_t, pl.K, shift=pl.shift)
        # run_segment applies W three times, each one gather of every term
        _check_work(pl.M, 3, len(seg.betas), su.amplitudes.size)
        state = sv
        for _ in range(pl.M):
            state = run_segment(state, seg)
        return su.inner(state), gate_count_report(pl, f)

    return _fast_element(su, sv, f, pl), gate_count_report(pl, f)


def _fast_element(su: Statevector, sv: Statevector, f: AlgebraElement,
                  pl: SimulationPlan) -> complex:
    """<su| exp(-it pi~(f)) |sv> by the fast path under the schedule pl,
    run on the permutation rows of f + pl.shift * identity, stacked so
    that each application of H is one gather and one contraction; both
    routes call it with their own plan."""
    shifted = add(f, scale(delta(identity(f.n)), pl.shift))
    _check_work(pl.M, pl.K, shifted.term_count, su.amplitudes.size)
    gathers = permutation_index_maps(shifted.support(), su.d)
    coefs = np.array([c for _, c in shifted.terms], dtype=complex)
    amps = _evolve(lambda a, factor: (factor * coefs) @ a[gathers], sv.amplitudes, pl)
    return cmath.exp(1j * pl.t * pl.shift) * complex(np.vdot(su.amplitudes, amps))


def gate_count_report(pl: SimulationPlan, f: AlgebraElement) -> GateReport:
    """SWAP accounting: 3 select-round sweeps per segment, each charged
    the worst support word w_max; bound is span^2 M K."""
    w_max = max((len(swap_network(p)) for p in f.support()), default=0)
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
