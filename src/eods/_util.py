"""Small shared helpers."""

import math

from .errors import DomainError


def round_half_away_from_zero(x):
    """Round to the nearest integer; ties (x.5) go away from zero.

    Python's built-in round() rounds half to even, which would make the
    selected-subset size depend on parity in a surprising way.
    """
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def check_gamma(gamma):
    if not 0.0 < gamma <= 1.0:
        raise DomainError(f"gamma must lie in (0, 1], got {gamma!r}")


def check_alpha(alpha):
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
