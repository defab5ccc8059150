"""Reflectometry of the transmitter optics.

Reflection peaks located by optical time-domain reflectometry give the
worst-case reflectivity of the optics behind the isolation, one term of
the isolation budget.
"""

import math
from collections import namedtuple

from thabound.numerics import db_from_linear, validated_make

SHORT_ARM = "short_arm"
LONG_ARM = "long_arm"

_POLARIZATION_TAGS = {"s": SHORT_ARM, "l": LONG_ARM}


class TraceParseError(ValueError):
    """A malformed row in a measurement CSV, located by line number."""

    def __init__(self, line_no: int, message: str) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class ReflectionPeak(namedtuple("ReflectionPeak",
                                "distance_m reflectivity_db polarization")):
    """One reflection located along the transmitter's internal path.

    distance_m is measured from the fiber entry; polarization records which
    interferometer arm (short or long) the reflection returns through.
    """

    __slots__ = ()

    def __new__(cls, distance_m, reflectivity_db, polarization):
        self = tuple.__new__(cls, (distance_m, reflectivity_db, polarization))
        self.__post_init__()
        return self

    _make = classmethod(validated_make)

    def __post_init__(self) -> None:
        # Written so that NaN and +-inf fail the comparison.
        if not 0.0 <= self.distance_m < math.inf:
            raise ValueError(f"distance must be finite and >= 0 m, got {self.distance_m!r}")
        if not -math.inf < self.reflectivity_db <= 0.0:
            raise ValueError("reflectivity must be finite and <= 0 dB, "
                             f"got {self.reflectivity_db!r}")
        if self.polarization not in (SHORT_ARM, LONG_ARM):
            raise ValueError("polarization must be short_arm or long_arm")


def parse_trace(text) -> list[ReflectionPeak]:
    """Parse a reflection-peak CSV: distance_m,reflectivity_db,polarization.

    Accepts a string or any iterable of lines; blank lines and '#' comments
    are skipped, and line numbers in errors count every physical line, as
    an editor would.  Polarization tags are 's' (short arm) and 'l' (long
    arm).  Returns the peaks in file order.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    peaks = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [field.strip() for field in line.split(",")]
        if len(fields) != 3:
            raise TraceParseError(line_no, f"expected 3 fields, got {len(fields)}")
        try:
            distance = float(fields[0])
            reflectivity = float(fields[1])
        except ValueError:
            raise TraceParseError(line_no, "distance and reflectivity must be numeric") from None
        tag = fields[2]
        if tag not in _POLARIZATION_TAGS:
            raise TraceParseError(line_no, f"polarization tag must be 's' or 'l', got {tag!r}")
        try:
            peak = ReflectionPeak(distance, reflectivity, _POLARIZATION_TAGS[tag])
        except ValueError as exc:
            raise TraceParseError(line_no, str(exc)) from None
        peaks.append(peak)
    return peaks


def reflectivity_bound(peaks: list[ReflectionPeak],
                       region: tuple[float, float]) -> float | None:
    """Worst-case reflectivity (dB) of all peaks inside a distance region.

    Individual peak reflectivities add linearly, and summing across both
    polarization arms bounds the reflectivity seen by any probe
    polarization.  Returns None when the region holds no peaks at all: "no
    reflectors found" is a different statement than "infinitely small
    reflection".
    """
    d_min, d_max = region
    if not -math.inf < d_min <= d_max < math.inf:
        raise ValueError(f"region must be finite with d_min <= d_max, got {region!r}")
    linear_sum = 0.0
    found = False
    for peak in peaks:
        if d_min <= peak.distance_m <= d_max:
            linear_sum += 10.0 ** (peak.reflectivity_db / 10.0)
            found = True
    if not found:
        return None
    return db_from_linear(linear_sum)
