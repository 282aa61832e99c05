"""The argument rules that more than one module applies, one home each.

design, sim and screen all plan or draw a selected subset of a cohort,
so its size and the whole-number sizes around it are checked here and
nowhere else. Nothing here needs NumPy.
"""

import math
import sys

from .errors import DomainError

# The fewest selected pairs odeb.estimate_rows takes; no plan selects fewer
MIN_ESTIMATE_PAIRS = 4
# The largest cohort, n_full, that design plans and sim draws
MAX_N_FULL = 10_000_000


def round_half_away_from_zero(x):
    """Round x >= 0 to the nearest integer; ties (x.5) go up, away from zero.

    Python's built-in round() rounds half to even, which would make the
    selected-subset size depend on parity in a surprising way. Every
    caller passes gamma * n with gamma checked by check_gamma and n a
    size, so x is never negative.
    """
    return int(math.floor(x + 0.5))


def selected_count(gamma, n):
    """Rows gamma selects of n: round(gamma * n), ties away from zero.

    A count below 3, too few for a fit, raises DomainError.
    """
    n_selected = round_half_away_from_zero(gamma * n)
    if n_selected < 3:
        raise DomainError(
            f"gamma {gamma!r} selects only {n_selected} of {n} rows; need 3"
        )
    return n_selected


def whole_number(name, value, least, most=math.inf):
    """value as an int; DomainError unless a whole number in [least, most]."""
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be at least {least}, got {value!r}")
    if value > most:
        raise DomainError(f"{name} must be at most {most}, got {value!r}")
    return int(value)


def check_gamma(gamma):
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must lie in (0, 1], got {gamma!r}")


def check_alpha(alpha):
    """DomainError unless alpha lies in (0, 1) and is a normal double.

    A subnormal alpha keeps too few digits for its tail point, and its
    half may round to zero.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if alpha < sys.float_info.min:
        raise DomainError(
            f"alpha must be at least {sys.float_info.min!r}, the smallest "
            f"normal double, got {alpha!r}"
        )
