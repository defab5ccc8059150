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

from thabound.numerics import db_from_linear, linear_from_db, validated_make

# Exact SI defined values.
PLANCK_H_JS = 6.62607015e-34
SPEED_OF_LIGHT_M_S = 299792458.0

MAX_ISOLATORS = 5
ATTENUATOR_STEP_DB = 5.0


def _require_positive(name: str, value: float) -> None:
    # Written so that NaN and +inf fail the comparison.
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


class LidtSpec(namedtuple("LidtSpec",
                          "photon_flux pulse_width_ref_s wavelength_ref_m")):
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

    _make = classmethod(validated_make)

    def __post_init__(self) -> None:
        _require_positive("photon_flux", self.photon_flux)
        _require_positive("pulse_width_ref_s", self.pulse_width_ref_s)
        _require_positive("wavelength_ref_m", self.wavelength_ref_m)


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
    _require_positive("pulse width", tau_new_s)
    factor = math.sqrt(tau_new_s / spec.pulse_width_ref_s)
    return LidtSpec(photon_flux=spec.photon_flux * factor,
                    pulse_width_ref_s=tau_new_s,
                    wavelength_ref_m=spec.wavelength_ref_m)


def lidt_scale_wavelength(spec: LidtSpec, lambda_new_m: float) -> LidtSpec:
    """Rescale a damage flux to a different wavelength.

    Shorter wavelengths damage more easily; the flux scales as
    sqrt(lambda_new / lambda_ref).
    """
    _require_positive("wavelength", lambda_new_m)
    factor = math.sqrt(lambda_new_m / spec.wavelength_ref_m)
    return LidtSpec(photon_flux=spec.photon_flux * factor,
                    pulse_width_ref_s=spec.pulse_width_ref_s,
                    wavelength_ref_m=lambda_new_m)


def photon_flux_from_power(power_w: float, wavelength_m: float) -> float:
    """Photons per second in an optical beam: N = P lambda / (h c)."""
    _require_positive("power", power_w)
    _require_positive("wavelength", wavelength_m)
    return power_w * wavelength_m / (PLANCK_H_JS * SPEED_OF_LIGHT_M_S)


class IsolationBudget(namedtuple("IsolationBudget",
                                 "filter_db isolator_db isolator_count "
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

    _make = classmethod(validated_make)

    def __post_init__(self) -> None:
        for value in (self.filter_db, self.isolator_db, self.attenuator_db,
                      self.reflectivity_db):
            if value > 0.0:
                raise ValueError("component values must be <= 0 dB")
        if self.isolator_count < 0 or self.isolator_count != int(self.isolator_count):
            raise ValueError("isolator_count must be a nonnegative integer")


def isolation_total(b: IsolationBudget) -> float:
    """Round-trip isolation: 2 F + n I + 2 A + R (all in dB)."""
    return (2.0 * b.filter_db + b.isolator_count * b.isolator_db
            + 2.0 * b.attenuator_db + b.reflectivity_db)


def mu_out_bound(n_photons: float, f_a_hz: float, gamma_db: float) -> float:
    """Leakage bound mu_out = (N / f_A) * gamma, computed in dB.

    N is the damage-limited photon flux, f_A the clock rate, gamma the
    round-trip isolation.
    """
    _require_positive("photon flux", n_photons)
    _require_positive("clock rate", f_a_hz)
    if not math.isfinite(gamma_db):
        raise ValueError(f"isolation must be finite, got {gamma_db!r}")
    chi_db = db_from_linear(n_photons / f_a_hz)
    return linear_from_db(chi_db + gamma_db)


def required_isolation(mu_out_target: float, n_photons: float,
                       f_a_hz: float) -> float:
    """Isolation (dB) needed to keep the leakage at mu_out_target."""
    _require_positive("mu_out", mu_out_target)
    _require_positive("photon flux", n_photons)
    _require_positive("clock rate", f_a_hz)
    return db_from_linear(mu_out_target) - db_from_linear(n_photons / f_a_hz)


class ComponentCatalog(namedtuple("ComponentCatalog",
                                  "isolator_db_values reflectivity_db_values "
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

    _make = classmethod(validated_make)

    def __post_init__(self) -> None:
        for values in (self.isolator_db_values, self.reflectivity_db_values,
                       self.filter_db_values):
            if not values:
                raise ValueError("catalog value sets must be nonempty")
            for value in values:
                if not -math.inf < value <= 0.0:
                    raise ValueError(
                        f"catalog values must be finite and <= 0 dB, got {value!r}")


def plan_budget(gamma_target_db: float,
                catalog: ComponentCatalog | None = None,
                max_attenuator_db: float = -35.0,
                allow_attenuator: bool = True) -> list[IsolationBudget]:
    """Enumerate component combinations meeting an isolation target.

    Tries isolator counts 0..MAX_ISOLATORS, every isolator/reflectivity/
    filter value in the catalog and attenuator settings in 5 dB steps down
    to max_attenuator_db (attenuators are disallowed for single-photon
    sources, where the extra loss is unaffordable; pass
    allow_attenuator=False for those).  A combination is feasible when its
    isolation_total is at most gamma_target_db.  The all-zero "nothing
    needed" budget is always considered, so a nonnegative target yields it.

    Returns feasible budgets sorted by (isolator count, attenuation depth,
    isolator value, reflectivity, filter); empty list means infeasible.
    """
    if catalog is None:
        catalog = ComponentCatalog()
    if not math.isfinite(gamma_target_db):
        raise ValueError(f"isolation target must be finite, got {gamma_target_db!r}")
    if not -math.inf < max_attenuator_db <= 0.0:
        raise ValueError("max_attenuator_db must be finite and <= 0, "
                         f"got {max_attenuator_db!r}")
    if allow_attenuator:
        steps = int(math.floor(abs(max_attenuator_db) / ATTENUATOR_STEP_DB + 1e-9))
        attenuators = [0.0] + [-ATTENUATOR_STEP_DB * k for k in range(1, steps + 1)]
    else:
        attenuators = [0.0]

    candidates = {IsolationBudget()}
    isolator_values = sorted(set(catalog.isolator_db_values), reverse=True)
    reflectivity_values = sorted(set(catalog.reflectivity_db_values), reverse=True)
    filter_values = sorted(set(catalog.filter_db_values), reverse=True)
    for count in range(MAX_ISOLATORS + 1):
        for isolator in ([0.0] if count == 0 else isolator_values):
            for reflectivity in reflectivity_values:
                for filter_db in filter_values:
                    for attenuator in attenuators:
                        candidates.add(IsolationBudget(
                            filter_db=filter_db,
                            isolator_db=isolator,
                            isolator_count=count,
                            attenuator_db=attenuator,
                            reflectivity_db=reflectivity,
                        ))

    feasible = [b for b in candidates if isolation_total(b) <= gamma_target_db]
    feasible.sort(key=lambda b: (b.isolator_count, abs(b.attenuator_db),
                                 abs(b.isolator_db), abs(b.reflectivity_db),
                                 abs(b.filter_db)))
    return feasible
