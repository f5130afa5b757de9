"""Shared exceptions and default desk-scale resource caps."""

# Largest d**n a dense operator or statevector is allowed to occupy.
DEFAULT_DENSE_CAP = 16384

# Largest n for which n!-sized tables and loops are permitted.
DEFAULT_FACTORIAL_CAP = 8

# Largest Taylor product count, sum_m |supp|^m over m <= K, of one LCU
# segment. It bounds the (p, q) pairs of each of build_segment's
# convolutions, whose composite images take pairs x n x 8 B, 4 MB a site
# at the cap; `convolve` holds them a block at a time.
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
