"""Shared exceptions and default desk-scale resource caps."""

# Largest d**n a dense operator or statevector is allowed to occupy.
DEFAULT_DENSE_CAP = 16384

# Largest n for which n!-sized tables and loops are permitted.
DEFAULT_FACTORIAL_CAP = 8

# Largest Taylor product count, sum_m |supp|^m over m <= K, of one LCU
# segment: it bounds the products that build_segment's convolutions walk.
DEFAULT_TERM_CAP = 500_000

# Largest work an LCU run may ask for, in amplitude gathers: each select
# application over r rows of d**n amplitudes counts r * d**n, and never
# less than DEFAULT_CALL_FLOOR, the fixed cost of one application's numpy
# calls in the same unit.
DEFAULT_WORK_CAP = 10_000_000_000
DEFAULT_CALL_FLOOR = 2048


class SizeMismatchError(ValueError):
    """Operands are defined on different ground sets {1..n}."""


class ResourceLimitError(RuntimeError):
    """The computation would exceed a configured resource cap.

    Raised before any large allocation happens, so the caller can retry
    with smaller parameters.  This is a scale limitation, not a
    correctness failure.
    """
