"""Fiber/detector model.

Maps fiber length and receiver constants to the per-pulse yields, gains and
error rates that the key-rate formulas consume, for a single-photon source
and for a Poissonian (decoy-state) source.  The decoy estimates are the
asymptotic infinite-decoy ones: the estimated single-photon yield and error
equal the true ones.
"""

import math
from collections import namedtuple

from thabound.numerics import (Record, linear_from_db, nonnegative, positive,
                               probability)

SINGLE_PHOTON = "single_photon"
DECOY = "decoy"


class ChannelParams(Record, namedtuple(
        "ChannelParams", "alpha_db_per_km eta_det e_opt p_dark f_ec")):
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

    def __post_init__(self) -> None:
        nonnegative("alpha_db_per_km", self.alpha_db_per_km)
        probability("eta_det", self.eta_det)
        probability("e_opt", self.e_opt)
        probability("p_dark", self.p_dark)
        # e1 is a weighted mean of e_opt and 1/2, so a larger e_opt leaves
        # every QBER above 1/2.
        if self.e_opt > 0.5:
            raise ValueError(f"e_opt must be at most 1/2, got {self.e_opt!r}")
        if not 1.0 <= self.f_ec < math.inf:
            raise ValueError(f"f_ec must be finite and >= 1, got {self.f_ec!r}")


class SourceModel(Record, namedtuple("SourceModel", "kind s")):
    """Photon source: ``single_photon`` or ``decoy`` with signal intensity s."""

    __slots__ = ()

    def __new__(cls, kind, s=None):
        self = tuple.__new__(cls, (kind, s))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        if self.kind == SINGLE_PHOTON:
            if self.s is not None:
                raise ValueError("single-photon source takes no intensity")
        elif self.kind == DECOY:
            if self.s is None:
                raise ValueError("decoy source needs signal intensity s > 0")
            positive("s", self.s)
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


class LinkObservables(Record, namedtuple("LinkObservables", "q_x e_x y1 e1 q1")):
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

    def __post_init__(self) -> None:
        for value in self:
            probability("link observable", value)


def transmittance(params: ChannelParams, length_km: float) -> float:
    """Overall transmission eta = eta_det * 10^(-alpha L / 10)."""
    nonnegative("length_km", length_km)
    return params.eta_det * linear_from_db(-params.alpha_db_per_km * length_km)


def _single_photon_terms(params: ChannelParams, eta: float) -> tuple[float, float]:
    """(Y1, e1) at transmission eta; (0, 1/2) when nothing ever clicks.

    Y1 = eta + (1 - eta) p_dark and the error combines the optical error on
    detected photons with random dark counts:
    e1 = (e_opt eta + (1 - eta) p_dark / 2) / Y1.
    """
    y1 = eta + (1.0 - eta) * params.p_dark
    if y1 == 0.0:
        # No detector clicks at all; the QBER is conventionally 1/2 (only
        # the all-zero channel reaches this).
        return 0.0, 0.5
    e1 = (params.e_opt * eta + 0.5 * (1.0 - eta) * params.p_dark) / y1
    return y1, e1


def single_photon_link(params: ChannelParams, length_km: float) -> LinkObservables:
    """Observables for a true single-photon source.

    Every detection is a single-photon one, so the gain and QBER are Y1 and
    e1.  The basis-choice factor is 1 (efficient BB84, asymptotic limit).
    """
    y1, e1 = _single_photon_terms(params, transmittance(params, length_km))
    return LinkObservables(y1, e1, y1, e1, y1)


def decoy_link(params: ChannelParams, length_km: float, s: float) -> LinkObservables:
    """Observables for a Poissonian source of signal intensity s.

    Signal gain Q = 1 - (1 - p_dark) exp(-eta s) and QBER
    e = (p_dark exp(-eta s) / 2 + e_opt (1 - exp(-eta s))) / Q.
    Single-photon yield and error are taken over exactly from the
    single-photon model (infinite-decoy limit) and the estimated
    single-photon gain is s exp(-s) Y1.
    """
    eta = transmittance(params, length_km)
    vac = math.exp(-eta * s)
    q_s = 1.0 - (1.0 - params.p_dark) * vac
    y1, e1 = _single_photon_terms(params, eta)
    if q_s == 0.0:
        return LinkObservables(0.0, 0.5, y1, e1, 0.0)
    e_s = (0.5 * params.p_dark * vac + params.e_opt * (1.0 - vac)) / q_s
    q1 = s * math.exp(-s) * y1
    return LinkObservables(q_s, e_s, y1, e1, q1)


def link_at(params: ChannelParams, source: SourceModel,
            length_km: float) -> LinkObservables:
    """Link observables of the source at one length: the link step."""
    if source.kind == SINGLE_PHOTON:
        return single_photon_link(params, length_km)
    return decoy_link(params, length_km, source.s)
