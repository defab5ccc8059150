"""Reflectometry of the transmitter optics.

Reflection peaks located by optical time-domain reflectometry give the
worst-case reflectivity of the optics behind the isolation, one term of
the isolation budget.
"""

import math
from collections import namedtuple

from thabound.numerics import Record, db_from_linear, nonnegative, nonpositive_db

SHORT_ARM = "short_arm"
LONG_ARM = "long_arm"

_POLARIZATION_TAGS = {"s": SHORT_ARM, "l": LONG_ARM}


class ReflectionPeak(Record, namedtuple(
        "ReflectionPeak", "distance_m reflectivity_db polarization")):
    """One reflection located along the transmitter's internal path.

    distance_m is measured from the fiber entry; polarization records which
    interferometer arm (short or long) the reflection returns through.
    """

    __slots__ = ()

    def __new__(cls, distance_m, reflectivity_db, polarization):
        self = tuple.__new__(cls, (distance_m, reflectivity_db, polarization))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        nonnegative("distance_m", self.distance_m)
        nonpositive_db("reflectivity_db", self.reflectivity_db)
        if self.polarization not in (SHORT_ARM, LONG_ARM):
            raise ValueError("polarization must be short_arm or long_arm")


def parse_trace(text: str) -> list[ReflectionPeak]:
    """Parse a reflection-peak CSV: distance_m,reflectivity_db,polarization.

    Takes the file's text; blank lines and '#' comments are skipped, and
    line numbers in errors count every physical line, as an editor would.
    Polarization tags are 's' (short arm) and 'l' (long arm).  Returns the
    peaks in file order; a malformed row raises ValueError starting with
    ``line N:``.
    """
    peaks = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split(",")
        if len(fields) != 3:
            raise ValueError(f"line {line_no}: expected 3 fields, got {len(fields)}")
        # float ignores the same surrounding whitespace as str.strip, except
        # U+001F (unit separator), which the stripped retry accepts.
        try:
            distance = float(fields[0])
            reflectivity = float(fields[1])
        except ValueError:
            try:
                distance = float(fields[0].strip())
                reflectivity = float(fields[1].strip())
            except ValueError:
                raise ValueError(f"line {line_no}: distance and reflectivity "
                                 "must be numeric") from None
        tag = fields[2].strip()
        arm = _POLARIZATION_TAGS.get(tag)
        if arm is None:
            raise ValueError(f"line {line_no}: polarization tag must be 's' or "
                             f"'l', got {tag!r}")
        try:
            # Adding 0.0 turns a -0 cell into 0.0, so no output shows -0.
            peak = ReflectionPeak(distance + 0.0, reflectivity + 0.0, arm)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        peaks.append(peak)
    return peaks


def reflectivity_bound(peaks: list[ReflectionPeak],
                       region: tuple[float, float]) -> float | None:
    """Worst-case reflectivity (dB) of all peaks inside a distance region.

    Individual peak reflectivities add linearly, and summing across both
    polarization arms bounds the reflectivity seen by any probe
    polarization.  Returns None when the region holds no peaks at all: "no
    reflectors found" is a different statement than "infinitely small
    reflection".  The sum is taken relative to the largest peak, so peaks
    too deep for a float in linear units still give a finite bound.
    """
    d_min, d_max = region
    if not -math.inf < d_min <= d_max < math.inf:
        raise ValueError(f"region must be finite with d_min <= d_max, got {region!r}")
    inside = [peak.reflectivity_db for peak in peaks
              if d_min <= peak.distance_m <= d_max]
    if not inside:
        return None
    top = max(inside)
    return top + db_from_linear(math.fsum(10.0 ** ((r - top) / 10.0)
                                          for r in inside))
