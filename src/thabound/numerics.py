"""Scalar primitives shared by every other module.

Binary entropy, decibel conversions, the four range checks that the
records and entry points validate scalar inputs with, and the validating
``_make`` of the package's record types.
"""

import math

_LN2 = math.log(2.0)


# Written so that NaN and +-inf fail: each range check is one chained
# comparison, which NaN fails, and an open end is a strict bound at +-inf.

def probability(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")


def positive(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is in (0, inf)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def nonnegative(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is in [0, inf)."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def nonpositive_db(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is in (-inf, 0] dB."""
    if not -math.inf < value <= 0.0:
        raise ValueError(f"{name} must be finite and <= 0 dB, got {value!r}")


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
    probability("p", p)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p)) / _LN2


def db_from_linear(x: float) -> float:
    """Express a positive linear quantity in decibel: 10 log10(x)."""
    positive("x", x)
    return 10.0 * math.log10(x)


def linear_from_db(db: float) -> float:
    """Inverse of db_from_linear: 10^(db/10).  Always positive."""
    return 10.0 ** (db / 10.0)
