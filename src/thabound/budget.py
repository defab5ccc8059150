"""Damage-threshold scaling and the decibel isolation budget.

Connects three ingredients: the photon-flux damage limit N of the
transmitter's input fiber, the system clock rate f_A, and the per-component
attenuations of the passive optics.  A probe brighter than N destroys the
fiber (detectably), so N / f_A bounds the photons per pulse an eavesdropper
can inject, and the round-trip isolation gamma maps that to the leakage
mu_out = (N / f_A) * gamma.
"""

import math
from collections import namedtuple

from thabound.numerics import (
    Record,
    db_from_linear,
    linear_from_db,
    nonpositive_db,
    positive,
)

# Exact SI defined values.
PLANCK_H_JS = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0

MAX_ISOLATORS = 5
ATTENUATOR_STEP_DB = 5.0
# Deepest attenuator plan_budget considers by default, and the CLI's too.
MAX_ATTENUATOR_DB = -35.0
# Most candidate combinations one plan_budget call may enumerate; the stock
# catalog with the default attenuator ladder gives 177.
MAX_BUDGET_CANDIDATES = 10_000


class LidtSpec(Record, namedtuple(
        "LidtSpec", "photon_flux pulse_width_ref_s wavelength_ref_m")):
    """A laser damage threshold expressed as photon flux.

    photon_flux: photons per second onto the 50 um^2 reference core area.
    pulse_width_ref_s, wavelength_ref_m: exposure conditions the flux value
    refers to.  Worst case for the defender is assumed throughout: the
    eavesdropper matches her pulse width and repetition rate to the
    system's, so the damage bound applies pulse by pulse.
    """

    __slots__ = ()

    def __new__(cls, photon_flux, pulse_width_ref_s, wavelength_ref_m):
        self = tuple.__new__(cls, (photon_flux, pulse_width_ref_s, wavelength_ref_m))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        positive("photon_flux", self.photon_flux)
        positive("pulse_width_ref_s", self.pulse_width_ref_s)
        positive("wavelength_ref_m", self.wavelength_ref_m)


def conservative_preset(bend_edge_compensation: bool = False) -> LidtSpec:
    """Silica softening-point damage flux: 4.3e23 photons/s.

    Referenced to a 0.1 ms exposure at 1550 nm (the 5.5e4 W, 5.5 J bulk
    damage figure for the reference core area).  Very conservative: real
    fibers fail at interfaces and defects long before the bulk does.
    The optional flag adds the ~10% flux headroom available when the probe
    wavelength is pushed out to the 1850 nm bend-loss edge.
    """
    flux = 4.3e23
    if bend_edge_compensation:
        flux *= 1.10
    return LidtSpec(photon_flux=flux, pulse_width_ref_s=1e-4,
                    wavelength_ref_m=1.55e-6)


def fiber_fuse_preset(bend_edge_compensation: bool = False) -> LidtSpec:
    """Thermal-fuse onset flux: 1e20 photons/s (about 12.8 W CW at 1550 nm).

    The fuse is a self-propagating destruction of the fiber core at
    watt-level continuous power, so it caps any sustained probe; treated as
    a continuous exposure, reference pulse width 1 s.
    """
    flux = 1e20
    if bend_edge_compensation:
        flux *= 1.10
    return LidtSpec(photon_flux=flux, pulse_width_ref_s=1.0,
                    wavelength_ref_m=1.55e-6)


def lidt_scale_pulse_width(spec: LidtSpec, tau_new_s: float) -> LidtSpec:
    """Rescale a damage flux to a different pulse width.

    Thermal damage fluence grows as sqrt(tau), so the tolerable flux obeys
    flux(tau1) / flux(tau2) = sqrt(tau1 / tau2).
    """
    positive("pulse_width", tau_new_s)
    factor = math.sqrt(tau_new_s) / math.sqrt(spec.pulse_width_ref_s)
    return LidtSpec(photon_flux=spec.photon_flux * factor,
                    pulse_width_ref_s=tau_new_s,
                    wavelength_ref_m=spec.wavelength_ref_m)


def lidt_scale_wavelength(spec: LidtSpec, lambda_new_m: float) -> LidtSpec:
    """Rescale a damage flux to a different wavelength.

    Shorter wavelengths damage more easily; the flux scales as
    sqrt(lambda_new / lambda_ref).
    """
    positive("wavelength", lambda_new_m)
    factor = math.sqrt(lambda_new_m) / math.sqrt(spec.wavelength_ref_m)
    return LidtSpec(photon_flux=spec.photon_flux * factor,
                    pulse_width_ref_s=spec.pulse_width_ref_s,
                    wavelength_ref_m=lambda_new_m)


def photon_flux_from_power(power_w: float, wavelength_m: float) -> float:
    """Photons per second in an optical beam: N = P lambda / (h c).

    The smaller of P and lambda is divided by h c before the larger one
    multiplies it, so that no intermediate product leaves the float range
    when N itself fits in it.
    """
    positive("power", power_w)
    positive("wavelength_m", wavelength_m)
    small, large = sorted((power_w, wavelength_m))
    return small / (PLANCK_H_JS * SPEED_OF_LIGHT_M_S) * large


class IsolationBudget(Record, namedtuple(
        "IsolationBudget", "filter_db isolator_db isolator_count "
        "attenuator_db reflectivity_db")):
    """Per-component round-trip attenuations, in nonpositive dB.

    filter_db and attenuator_db are traversed twice (in and out), the n
    isolators block the outgoing direction only once each, and
    reflectivity_db is the reflection that turns the probe around.
    """

    __slots__ = ()

    def __new__(cls, filter_db=0.0, isolator_db=0.0, isolator_count=0,
                attenuator_db=0.0, reflectivity_db=0.0):
        self = tuple.__new__(cls, (filter_db, isolator_db, isolator_count,
                                   attenuator_db, reflectivity_db))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        nonpositive_db("filter_db", self.filter_db)
        nonpositive_db("isolator_db", self.isolator_db)
        nonpositive_db("attenuator_db", self.attenuator_db)
        nonpositive_db("reflectivity_db", self.reflectivity_db)
        # NaN fails the first test and inf the second (inf % 1 is NaN).
        if not (0 <= self.isolator_count and self.isolator_count % 1 == 0):
            raise ValueError("isolator_count must be a nonnegative integer, "
                             f"got {self.isolator_count!r}")


def isolation_total(b: tuple) -> float:
    """Round-trip isolation 2 F + n I + 2 A + R (dB) of a budget or its tuple."""
    filter_db, isolator_db, n, attenuator_db, reflectivity_db = b
    return 2.0 * filter_db + n * isolator_db + 2.0 * attenuator_db + reflectivity_db


def mu_out_bound(n_photons: float, f_a_hz: float, gamma_db: float) -> float:
    """Leakage bound mu_out = (N / f_A) * gamma, computed in dB.

    N is the damage-limited photon flux, f_A the clock rate, gamma the
    round-trip isolation.  Each factor is converted on its own, as in
    required_isolation, so a ratio N / f_A outside the float range still
    gives the bound.
    """
    positive("photon_flux", n_photons)
    positive("clock_hz", f_a_hz)
    if not math.isfinite(gamma_db):
        raise ValueError(f"isolation must be finite, got {gamma_db!r}")
    return linear_from_db(db_from_linear(n_photons) - db_from_linear(f_a_hz)
                          + gamma_db)


def required_isolation(mu_out_target: float, n_photons: float,
                       f_a_hz: float) -> float:
    """Isolation (dB) needed to keep the leakage at mu_out_target.

    Each factor is converted on its own, so a ratio N / f_A outside the
    float range still gives a finite target.  The dB round trip rounds to
    either side: mu_out_bound of this target may exceed mu_out_target by up
    to ~1e-13 dB, and so may that of a plan that meets it with no margin.
    """
    positive("mu_out", mu_out_target)
    positive("photon_flux", n_photons)
    positive("clock_hz", f_a_hz)
    return (db_from_linear(mu_out_target) - db_from_linear(n_photons)
            + db_from_linear(f_a_hz))


class ComponentCatalog(Record, namedtuple(
        "ComponentCatalog", "isolator_db_values reflectivity_db_values "
        "filter_db_values")):
    """Available component values for budget planning, in nonpositive dB.

    Defaults are the common stock values: dual-stage isolators at 50 or
    60 dB, connector/termination engineering bringing the reflectivity to
    40 or 50 dB, no dedicated filter.
    """

    __slots__ = ()

    def __new__(cls, isolator_db_values=(-50.0, -60.0),
                reflectivity_db_values=(-40.0, -50.0), filter_db_values=(0.0,)):
        self = tuple.__new__(cls, (isolator_db_values, reflectivity_db_values,
                                   filter_db_values))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        for name, values in zip(self._fields, self):
            if not values:
                raise ValueError(f"{name} must be nonempty")
            for value in values:
                nonpositive_db(name, value)


def plan_budget(gamma_target_db: float,
                catalog: ComponentCatalog | None = None,
                max_attenuator_db: float = MAX_ATTENUATOR_DB,
                allow_attenuator: bool = True) -> list[IsolationBudget]:
    """Enumerate component combinations meeting an isolation target.

    Tries isolator counts 0..MAX_ISOLATORS, every isolator/reflectivity/
    filter value in the catalog and attenuator settings in 5 dB steps down
    to max_attenuator_db (attenuators are disallowed for single-photon
    sources, where the extra loss is unaffordable; pass
    allow_attenuator=False for those).  A combination is feasible when its
    isolation_total is at most gamma_target_db.  The all-zero "nothing
    needed" budget is always considered, so a nonnegative target yields it.
    A repeated catalog value (0.0 and -0.0 alike) is enumerated once.  A
    catalog and ladder giving more than MAX_BUDGET_CANDIDATES candidates
    raises ValueError before any is enumerated.

    Returns feasible budgets in the order (isolator count, attenuation depth,
    isolator value, reflectivity, filter), each shallowest first, or [].
    """
    if catalog is None:
        catalog = ComponentCatalog()
    if not math.isfinite(gamma_target_db):
        raise ValueError(f"isolation target must be finite, got {gamma_target_db!r}")
    nonpositive_db("max_attenuator_db", max_attenuator_db)
    depth = max_attenuator_db if allow_attenuator else 0.0
    steps = int(math.floor(abs(depth) / ATTENUATOR_STEP_DB + 1e-9))
    isolators, reflectivities, filters = (sorted(set(values), key=abs)
                                          for values in catalog)
    if ((MAX_ISOLATORS * len(isolators) + 1) * len(reflectivities) * len(filters)
            * (steps + 1) + 1 > MAX_BUDGET_CANDIDATES):
        raise ValueError("catalog gives more than MAX_BUDGET_CANDIDATES = "
                         f"{MAX_BUDGET_CANDIDATES} budget candidates; give fewer "
                         "distinct values or a shallower max_attenuator_db")
    attenuators = [0.0] + [-ATTENUATOR_STEP_DB * k for k in range(1, steps + 1)]

    # Tuples, not records: the catalog and the check above own every value.
    # The loops nest in output order; the condition skips a second all-zero plan.
    candidates = [(0.0, 0.0, 0, 0.0, 0.0)] + [
        (filter_db, isolator, count, attenuator, reflectivity)
        for count in range(MAX_ISOLATORS + 1)
        for attenuator in attenuators
        for isolator in ([0.0] if count == 0 else isolators)
        for reflectivity in reflectivities
        for filter_db in filters if count or attenuator or reflectivity or filter_db]
    return [IsolationBudget(*c) for c in candidates
            if isolation_total(c) <= gamma_target_db]
