"""Fiber/detector model.

Maps fiber length and receiver constants to the per-pulse yields, gains and
error rates that the key-rate formulas consume, for a single-photon source
and for a Poissonian (decoy-state) source.  The decoy estimates are the
asymptotic infinite-decoy ones: the estimated single-photon yield and error
equal the true ones.
"""

import math
from collections import namedtuple

from thabound.numerics import probability, validated_make

SINGLE_PHOTON = "single_photon"
DECOY = "decoy"


class ChannelParams(namedtuple("ChannelParams",
                               "alpha_db_per_km eta_det e_opt p_dark f_ec")):
    """Constants of the link and receiver.

    alpha_db_per_km: fiber loss coefficient.
    eta_det: total detection efficiency (receiver optics and detector).
    e_opt: optical error rate (misalignment, imperfect interference).
    p_dark: dark-count probability per detection gate.
    f_ec: error-correction inefficiency, at least 1.
    """

    __slots__ = ()

    def __new__(cls, alpha_db_per_km, eta_det, e_opt, p_dark, f_ec):
        self = tuple.__new__(cls, (alpha_db_per_km, eta_det, e_opt, p_dark, f_ec))
        self.__post_init__()
        return self

    _make = classmethod(validated_make)

    def __post_init__(self) -> None:
        for name in ("alpha_db_per_km", "eta_det", "e_opt", "p_dark", "f_ec"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.alpha_db_per_km < 0.0:
            raise ValueError("alpha_db_per_km must be >= 0")
        for name in ("eta_det", "e_opt", "p_dark"):
            value = getattr(self, name)
            try:
                probability(value)
            except ValueError:
                raise ValueError(
                    f"{name} must be a probability in [0, 1], got {value!r}") from None
        if self.f_ec < 1.0:
            raise ValueError("f_ec must be >= 1")


class SourceModel(namedtuple("SourceModel", "kind s")):
    """Photon source: ``single_photon`` or ``decoy`` with signal intensity s."""

    __slots__ = ()

    def __new__(cls, kind, s=None):
        self = tuple.__new__(cls, (kind, s))
        self.__post_init__()
        return self

    _make = classmethod(validated_make)

    def __post_init__(self) -> None:
        if self.kind == SINGLE_PHOTON:
            if self.s is not None:
                raise ValueError("single-photon source takes no intensity")
        elif self.kind == DECOY:
            if self.s is None or not self.s > 0.0:
                raise ValueError("decoy source needs signal intensity s > 0")
            if not math.isfinite(self.s):
                raise ValueError(f"s must be finite, got {self.s!r}")
        else:
            raise ValueError(f"unknown source kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == SINGLE_PHOTON:
            return SINGLE_PHOTON
        return f"{DECOY}:{self.s!r}"


def single_photon() -> SourceModel:
    return SourceModel(SINGLE_PHOTON)


def decoy_state(s: float) -> SourceModel:
    return SourceModel(DECOY, s)


class LinkObservables(namedtuple("LinkObservables", "q_x e_x y1 e1 q1")):
    """Per-pulse quantities at one fiber length.

    q_x: detection rate in the key basis.
    e_x: QBER in the key basis.
    y1: single-photon yield (bases are symmetric here, so this is also the
        minimum over bases).
    e1: single-photon error rate.
    q1: single-photon gain entering privacy amplification.
    """

    __slots__ = ()

    def __new__(cls, q_x, e_x, y1, e1, q1):
        self = tuple.__new__(cls, (q_x, e_x, y1, e1, q1))
        self.__post_init__()
        return self

    _make = classmethod(validated_make)

    def __post_init__(self) -> None:
        for field in (self.q_x, self.e_x, self.y1, self.e1, self.q1):
            probability(field)
        if self.e_x > 0.5 + 1e-12:
            raise ValueError(f"e_x above 1/2: {self.e_x!r}")


def transmittance(params: ChannelParams, length_km: float) -> float:
    """Overall transmission eta = eta_det * 10^(-alpha L / 10)."""
    if length_km < 0.0:
        raise ValueError("length_km must be >= 0")
    return params.eta_det * 10.0 ** (-params.alpha_db_per_km * length_km / 10.0)


def single_photon_link(params: ChannelParams, length_km: float) -> LinkObservables:
    """Observables for a true single-photon source.

    Y1 = eta + (1 - eta) p_dark and the error combines the optical error on
    detected photons with random dark counts:
    e1 = (e_opt eta + (1 - eta) p_dark / 2) / Y1.
    The basis-choice factor is 1 (efficient BB84, asymptotic limit).
    """
    eta = transmittance(params, length_km)
    y1 = eta + (1.0 - eta) * params.p_dark
    if y1 == 0.0:
        # No detector clicks at all; every observable is zero and the QBER
        # is conventionally 1/2 (only the all-zero channel reaches this).
        return LinkObservables(q_x=0.0, e_x=0.5, y1=0.0, e1=0.5, q1=0.0)
    e1 = (params.e_opt * eta + 0.5 * (1.0 - eta) * params.p_dark) / y1
    e1 = probability(e1)
    return LinkObservables(q_x=y1, e_x=e1, y1=y1, e1=e1, q1=y1)


def decoy_link(params: ChannelParams, length_km: float, s: float) -> LinkObservables:
    """Observables for a Poissonian source of signal intensity s.

    Signal gain Q = 1 - (1 - p_dark) exp(-eta s) and QBER
    e = (p_dark exp(-eta s) / 2 + e_opt (1 - exp(-eta s))) / Q.
    Single-photon yield and error are taken over exactly from the
    single-photon model (infinite-decoy limit) and the estimated
    single-photon gain is s exp(-s) Y1.
    """
    if not s > 0.0:
        raise ValueError("signal intensity s must be > 0")
    eta = transmittance(params, length_km)
    vac = math.exp(-eta * s)
    q_s = 1.0 - (1.0 - params.p_dark) * vac
    base = single_photon_link(params, length_km)
    if q_s == 0.0:
        return LinkObservables(q_x=0.0, e_x=0.5, y1=base.y1, e1=base.e1, q1=0.0)
    e_s = (0.5 * params.p_dark * vac + params.e_opt * (1.0 - vac)) / q_s
    e_s = probability(e_s)
    q1 = s * math.exp(-s) * base.y1
    return LinkObservables(q_x=q_s, e_x=e_s, y1=base.y1, e1=base.e1, q1=q1)
