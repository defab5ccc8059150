"""Output checks: pinned digests for fixed inputs, invariants for seeded ones.

Fixed-input CLI outputs (the six preset CSVs and gnuplot scripts, the
fig3/fig4 threshold JSON, the README budget and reflectivity examples) must
match the sha256 digests in golden.json byte for byte.  Seeded outputs are
checked against the library's own answer and against invariants that hold
for any correct implementation: rates are >= 0 and at most the no-attack
rate at the same point, and searches land inside their final bracket.

Every check returns None when the output is right, else a one-line reason.
"""

import hashlib
import json
import math
from pathlib import Path

from thabound import attacks, budget, channel, characterize, keyrate

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())

# Absolute slack for "attacked rate <= no-attack rate" (rounding only).
RATE_SLACK = 1e-15
ARMS = {"s": characterize.SHORT_ARM, "l": characterize.LONG_ARM}
# Exact SI values, kept here so the lidt check does not reuse the package's.
PLANCK_H_JS = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _channel(params: tuple) -> channel.ChannelParams:
    return channel.ChannelParams(*params)


def _source(s: float | None) -> channel.SourceModel:
    return channel.single_photon() if s is None else channel.decoy_state(s)


def _rate(chan, source, kind: str, mu: float, length: float) -> float:
    query = keyrate.RateQuery(chan, source, attacks.AttackModel(kind, mu), length)
    return keyrate.key_rate(query)


def _reach_bracket(chan, source, kind, mu, km) -> str | None:
    """max_distance returned the midpoint of a bracket no wider than the
    tolerance, with a positive rate at its left end and none at its right."""
    if not 0.0 <= km <= keyrate.LENGTH_BRACKET_KM:
        return f"reach {km!r} outside [0, {keyrate.LENGTH_BRACKET_KM}]"
    tol = keyrate.LENGTH_TOL_KM
    if _rate(chan, source, kind, mu, max(0.0, km - tol)) <= 0.0:
        return f"no key just inside reach {km!r}"
    if km < keyrate.LENGTH_BRACKET_KM and _rate(chan, source, kind, mu, km + tol) > 0.0:
        return f"key just beyond reach {km!r}"
    return None


def _threshold_bracket(chan, source, kind, mu) -> str | None:
    if not 0.0 < mu <= keyrate.MU_BRACKET_HI:
        return f"threshold {mu!r} outside (0, {keyrate.MU_BRACKET_HI}]"
    tol = keyrate.MU_REL_TOL
    if _rate(chan, source, kind, mu * (1.0 - tol), 0.0) <= 0.0:
        return f"no key just below threshold {mu!r}"
    if mu < keyrate.MU_BRACKET_HI and _rate(chan, source, kind, mu * (1.0 + tol), 0.0) > 0.0:
        return f"key just above threshold {mu!r}"
    return None


def _reflectivity_db(peaks: list, region: tuple) -> float | None:
    inside = [10.0 ** (refl / 10.0) for dist, refl, _ in peaks
              if region[0] <= dist <= region[1]]
    return 10.0 * math.log10(math.fsum(inside)) if inside else None


# --- CLI -----------------------------------------------------------------

def check_cli(op: dict, code: int, stdout: bytes, outputs: dict) -> str | None:
    """Check one CLI invocation: exit code, then digests or invariants."""
    if code != 0:
        return f"exit code {code}"
    if "golden" in op:
        pinned = GOLDEN[op["golden"]]
        produced = dict(outputs, stdout=stdout)
        for name, digest in pinned.items():
            if name not in produced:
                return f"{name} not written"
            if sha256(produced[name]) != digest:
                return f"{name} differs from the pinned digest"
        return None
    text = stdout.decode()
    return _CLI_CHECKS[op["check"]](op, text.splitlines(), text)


def _check_convexity(op, lines, text):
    if lines[-1:] != ["checked 1200 pairs, 0 violations"]:
        return f"unexpected summary {lines[-1:]!r}"
    if len(lines) != 7 or not all(line.endswith(" 0 violations") for line in lines):
        return "convexity violations reported"
    return None


def _check_threshold(op, lines, text):
    chan = _channel(op["channel"])
    source = _source(op["s"])
    got = json.loads(text)
    entries = sorted(op["attacks"])
    reports = []
    for kind in sorted({kind for kind, _ in entries}):
        threshold = keyrate.mu_out_threshold(chan, source, kind)
        problem = _threshold_bracket(chan, source, kind, threshold)
        if problem:
            return problem
        distances = {}
        for attack_kind, mu in entries:
            if attack_kind != kind:
                continue
            try:
                km = keyrate.max_distance(chan, source, attacks.AttackModel(kind, mu))
            except keyrate.NoPositiveRateError:
                km = None
            else:
                problem = _reach_bracket(chan, source, kind, mu, km)
                if problem:
                    return problem
            distances[repr(mu)] = km
        reports.append({"attack_kind": kind, "source": source.label(),
                        "mu_out_threshold": threshold, "max_distance_at": distances})
    if got != {"reports": reports}:
        return "JSON differs from the library's answer"
    return None


def _check_budget(op, lines, text):
    gamma = budget.required_isolation(op["mu_out"], op["flux"], op["clock"])
    expected_gamma = 10.0 * math.log10(op["mu_out"] * op["clock"] / op["flux"])
    if abs(gamma - expected_gamma) > 1e-9:
        return f"required isolation {gamma!r}, expected {expected_gamma!r}"
    plans = budget.plan_budget(gamma, allow_attenuator=op["allow_attenuator"])
    if lines[0] != f"required isolation: {gamma:.6g} dB":
        return f"bad first line {lines[0]!r}"
    if not plans or lines[1] != f"feasible combinations: {len(plans)}":
        return f"bad count line {lines[1]!r}"
    rows = lines[3:]
    if len(rows) != len(plans):
        return f"{len(rows)} table rows for {len(plans)} budgets"
    for row in rows:
        fields = row.split()
        if float(fields[-1]) > gamma + 1e-9:
            return f"row {row.strip()!r} misses the target"
        if not op["allow_attenuator"] and float(fields[-4]) != 0.0:
            return f"row {row.strip()!r} uses an attenuator"
    return None


def _check_reflectivity(op, lines, text):
    peaks, region = op["peaks"], op["region"]
    if len(lines) != len(peaks) + 2:
        return f"{len(lines) - 2} rows for {len(peaks)} peaks"
    bound = _reflectivity_db(peaks, region)
    parsed = characterize.parse_trace(
        "\n".join(f"{d!r},{r!r},{t}" for d, r, t in peaks))
    library = characterize.reflectivity_bound(parsed, region)
    if (bound is None) != (library is None) or (
            bound is not None and abs(bound - library) > 1e-9):
        return f"bound {library!r}, expected {bound!r}"
    if bound is None:
        want = f"no reflectors in region {region[0]:g} m to {region[1]:g} m"
    else:
        want = (f"reflectivity bound ({region[0]:g} m to {region[1]:g} m): "
                f"{library:.2f} dB")
    if lines[-1] != want:
        return f"last line {lines[-1]!r}, expected {want!r}"
    return None


def _check_lidt(op, lines, text):
    values = {}
    for line in lines:
        label, _, rest = line.rpartition(": ")
        values[label] = rest
    if "preset" in op:
        flux = 4.3e23 if op["preset"] == "conservative" else 1e20
        flux *= 1.10 if op["bend"] else 1.0
        width = 1e-4 if op["preset"] == "conservative" else 1.0
        wavelength = 1.55e-6
    else:
        flux = op["power"] * op["lambda"] / (PLANCK_H_JS * SPEED_OF_LIGHT_M_S)
        width = 1.0
        wavelength = op["lambda"]
    want = {"photon flux": flux, "reference pulse width": width,
            "reference wavelength": wavelength}
    if "pulse_width" in op:
        flux *= math.sqrt(op["pulse_width"] / width)
        want[f"flux at pulse width {op['pulse_width']:.4e} s"] = flux
        flux *= math.sqrt(op["wavelength"] / wavelength)
        want[f"flux at wavelength {op['wavelength']:.4e} m"] = flux
    for label, value in want.items():
        if label not in values:
            return f"missing line {label!r}"
        number = float(values[label].split()[0])
        if not math.isclose(number, value, rel_tol=1e-3):
            return f"{label}: {number!r}, expected {value!r}"
    return None


_CLI_CHECKS = {
    "convexity": _check_convexity,
    "threshold": _check_threshold,
    "budget": _check_budget,
    "reflectivity": _check_reflectivity,
    "lidt": _check_lidt,
}


# --- library -------------------------------------------------------------

# Library call kind -> (module, function), resolved at call time so that
# traced wrappers are seen.
LIBRARY_CALLS = {
    "key_rate": ("keyrate", "key_rate"),
    "mu_out_threshold": ("keyrate", "mu_out_threshold"),
    "max_distance": ("keyrate", "max_distance"),
    "sweep_distance": ("keyrate", "sweep_distance"),
    "verify_convexity": ("keyrate", "verify_convexity"),
    "required_isolation": ("budget", "required_isolation"),
    "plan_budget": ("budget", "plan_budget"),
    "parse_trace": ("characterize", "parse_trace"),
    "reflectivity_bound": ("characterize", "reflectivity_bound"),
}


def library_args(kind: str, data: tuple) -> tuple:
    """Positional arguments of one library call, built from seeded data."""
    if kind in ("key_rate", "max_distance", "sweep_distance"):
        chan, source = _channel(data[0]), _source(data[1])
        attack = attacks.AttackModel(*data[2])
        if kind == "key_rate":
            return (keyrate.RateQuery(chan, source, attack, data[3]),)
        return (chan, source, attack) + tuple(data[3:])
    if kind == "mu_out_threshold":
        return (_channel(data[0]), _source(data[1]), data[2])
    if kind == "verify_convexity":
        return (_channel(data[0]), _source(data[1])) + tuple(data[2:])
    if kind == "required_isolation":
        return data
    if kind == "plan_budget":
        return (data[0], None, -35.0, data[1])
    if kind == "parse_trace":
        return (data[0],)
    peaks = [characterize.ReflectionPeak(d, r, ARMS[t]) for d, r, t in data[0]]
    return (peaks, data[1])


def check_library(kind: str, data: tuple, result) -> str | None:
    """Check one library call's result, or the exception it raised."""
    if isinstance(result, keyrate.NoPositiveRateError) and kind in (
            "mu_out_threshold", "max_distance"):
        # The documented answer when there is no key at zero distance: with
        # zero leakage for a threshold, at the given leakage for a reach.
        attack_kind, mu = (data[2], 0.0) if kind == "mu_out_threshold" else data[2]
        if _rate(_channel(data[0]), _source(data[1]), attack_kind, mu, 0.0) > 0.0:
            return f"raised {result!r} with a key at zero distance"
        return None
    if isinstance(result, Exception):
        return f"raised {result!r}"
    if kind == "key_rate":
        chan, source = _channel(data[0]), _source(data[1])
        baseline = _rate(chan, source, "none", 0.0, data[3])
        if not 0.0 <= result <= baseline + RATE_SLACK:
            return f"rate {result!r} outside [0, no-attack {baseline!r}]"
        return None
    if kind == "mu_out_threshold":
        return _threshold_bracket(_channel(data[0]), _source(data[1]), data[2], result)
    if kind == "max_distance":
        kind_, mu = data[2]
        return _reach_bracket(_channel(data[0]), _source(data[1]), kind_, mu, result)
    if kind == "sweep_distance":
        chan, source, (attack_kind, mu), l_min, l_max, step = (
            _channel(data[0]), _source(data[1]), data[2], data[3], data[4], data[5])
        count = int(math.floor((l_max - l_min) / step + 1e-9)) + 1
        if len(result.points) != count:
            return f"{len(result.points)} points, expected {count}"
        for index, point in enumerate(result.points):
            if point.length_km != l_min + index * step:
                return f"point {index} at {point.length_km!r} km"
            baseline = _rate(chan, source, "none", 0.0, point.length_km)
            if not 0.0 <= point.rate <= baseline + RATE_SLACK:
                return f"rate {point.rate!r} outside [0, no-attack {baseline!r}]"
            if point.secure != (point.rate > 0.0):
                return f"secure flag wrong at {point.length_km!r} km"
        return None
    if kind == "verify_convexity":
        return None if result is True else "convexity violated"
    if kind == "required_isolation":
        mu, flux, clock = data
        want = 10.0 * math.log10(mu) - 10.0 * math.log10(flux / clock)
        return None if abs(result - want) <= 1e-9 else f"isolation {result!r}, expected {want!r}"
    if kind == "plan_budget":
        gamma, allow = data
        keys = []
        for plan in result:
            total = (2.0 * plan.filter_db + plan.isolator_count * plan.isolator_db
                     + 2.0 * plan.attenuator_db + plan.reflectivity_db)
            if total > gamma:
                return f"budget {plan!r} misses {gamma!r} dB"
            if not allow and plan.attenuator_db != 0.0:
                return "attenuator used where none is allowed"
            keys.append((plan.isolator_count, abs(plan.attenuator_db),
                         abs(plan.isolator_db), abs(plan.reflectivity_db),
                         abs(plan.filter_db)))
        if keys != sorted(keys) or len(set(result)) != len(result):
            return "budgets not sorted or not unique"
        return None
    if kind == "parse_trace":
        want = [(d, r, ARMS[t]) for d, r, t in data[1]]
        got = [(p.distance_m, p.reflectivity_db, p.polarization) for p in result]
        return None if got == want else "parsed peaks differ from the trace"
    bound = _reflectivity_db(data[0], data[1])
    if (bound is None) != (result is None) or (
            bound is not None and abs(bound - result) > 1e-9):
        return f"bound {result!r}, expected {bound!r}"
    return None
