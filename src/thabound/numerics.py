"""Scalar primitives shared by every other module.

Binary entropy, decibel conversions, a probability validator that
absorbs floating-point spill at the boundaries, and the validating
``_make`` of the package's record types.
"""

import math

_LN2 = math.log(2.0)

# Downstream formulas routinely produce values like 1 + 2e-16 from rounding;
# anything inside this guard band is snapped to the boundary instead of
# aborting a sweep.
BOUNDARY_GUARD = 1e-12


def probability(value: float) -> float:
    """Validate that ``value`` is a probability and return it.

    Values within BOUNDARY_GUARD of 0 or 1 are clamped to the boundary;
    values further outside [0, 1] raise ValueError.
    """
    if 0.0 <= value <= 1.0:
        return value
    if -BOUNDARY_GUARD <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + BOUNDARY_GUARD:
        return 1.0
    raise ValueError(f"not a probability: {value!r}")


def validated_make(cls, iterable):
    """``_make`` for a validating named tuple: build through ``cls.__new__``.

    The stock ``_make``, which ``_replace`` also uses, skips ``__new__`` and
    so would return records that were never validated.
    """
    return cls(*iterable)


def binary_entropy(p: float) -> float:
    """h(p) = -p log2(p) - (1-p) log2(1-p), with h(0) = h(1) = 0.

    Evaluated with natural logs rescaled by 1/ln 2, which is reproducible
    to ~1e-15 across platforms (library log2 implementations vary more).
    """
    p = probability(p)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p)) / _LN2


def db_from_linear(x: float) -> float:
    """Express a positive linear quantity in decibel: 10 log10(x)."""
    if x <= 0.0:
        raise ValueError(f"decibel conversion needs a positive value, got {x!r}")
    return 10.0 * math.log10(x)


def linear_from_db(db: float) -> float:
    """Inverse of db_from_linear: 10^(db/10).  Always positive."""
    return 10.0 ** (db / 10.0)
