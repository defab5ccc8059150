"""Leakage-dependent quantities of each attack model.

The central parameter everywhere is mu_out, the mean photon number of the
probe light an eavesdropper recovers from the transmitter per pulse.  From
it this module derives the basis-dependence imbalance of the emitted
states, its yield-renormalized form, the inflated phase-error rates of the
three attack models, and the conclusive fraction of an intercept-resend
strategy built on unambiguous state discrimination (USD).

Only ``effective_imbalance`` and ``usd_conclusive_fraction`` can leave the
validity domain of the bound (renormalized imbalance at or above 1/2,
conclusive fraction at or above 1); they return ``None`` as an "insecure"
sentinel, which the key-rate engine maps to a zero rate.  Inputs are taken
as validated: mu_out by ``AttackModel``, a positive yield by ``link_rates``.
"""

import math
from collections import namedtuple

from thabound.numerics import Record, nonnegative

NO_ATTACK = "none"
GENERAL = "general"
PASSIVE = "passive"
USD = "usd"
ATTACK_KINDS = (NO_ATTACK, GENERAL, PASSIVE, USD)


class AttackModel(Record, namedtuple("AttackModel", "kind mu_out")):
    """An attack kind plus the leakage mu_out it is evaluated at.

    Kind ``none`` requires mu_out == 0.  The attack kinds accept any
    mu_out >= 0; with mu_out = 0 they coincide with no attack.
    """

    __slots__ = ()

    def __new__(cls, kind, mu_out):
        self = tuple.__new__(cls, (kind, mu_out))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}; choose from "
                             f"{', '.join(ATTACK_KINDS)}")
        nonnegative("mu_out", self.mu_out)
        if self.kind == NO_ATTACK and self.mu_out != 0.0:
            raise ValueError("kind 'none' requires mu_out = 0")


def no_attack() -> AttackModel:
    return AttackModel(NO_ATTACK, 0.0)


def coin_imbalance(mu_out: float) -> float:
    """Basis-dependence imbalance Delta = [1 - exp(-mu) cos(mu)] / 2.

    Computed as [2 sin^2(mu/2) - expm1(-mu) cos(mu)] / 2, the same value
    without the 1 - (1 - x) cancellation, so tiny mu_out keeps full
    precision (Delta ~ mu_out / 2 there).

    This equals the joint-state value (1 - F) / 2, F the fidelity of the
    basis-averaged emitted states, only for mu_out < pi/4.  Beyond that
    F = exp(-mu) max(|cos mu|, |sin mu|) and the formula is larger, hence
    conservative.  No rate depends on the difference: there both values
    are at least 0.339, so Delta' = Delta / Y >= Delta is above
    sin^2(pi/8) and the general-attack phase error is clamped to 1/2
    either way (on the preset channel Delta' >= 1/2 outright).
    """
    half_sin = math.sin(0.5 * mu_out)
    return 0.5 * (2.0 * half_sin * half_sin
                  - math.expm1(-mu_out) * math.cos(mu_out))


def effective_imbalance(delta: float, yield_min: float) -> float | None:
    """Imbalance renormalized by the minimum yield: Delta' = Delta / yield.

    Returns None (insecure) once Delta' reaches 1/2, where the phase-error
    bound becomes vacuous.
    """
    delta_eff = delta / yield_min
    if delta_eff >= 0.5:
        return None
    return delta_eff


def phase_error_general(e_y: float, delta_eff: float) -> float:
    """Phase error inflated by a general attack, from the Bloch-sphere bound.

    e' = e + 4 d (1-d) (1-2e) + 4 (1-2d) sqrt(d (1-d) e (1-e)) with
    d = delta_eff < 1/2 (see effective_imbalance), clamped to 1/2 (larger
    values carry no extra penalty).
    """
    d = delta_eff
    inflated = (e_y
                + 4.0 * d * (1.0 - d) * (1.0 - 2.0 * e_y)
                + 4.0 * (1.0 - 2.0 * d)
                * math.sqrt(d * (1.0 - d) * e_y * (1.0 - e_y)))
    return min(0.5, inflated)


def phase_error_passive(e_y: float, mu_out: float) -> float:
    """Phase error under a passive attack: e' = [1 - (1-2e) exp(-2 mu)] / 2.

    The honest-channel correlation coefficient entering the bound is
    1 - 2 e_y, which makes e' = e_y exact at mu_out = 0.
    """
    if mu_out == 0.0:
        return e_y
    return 0.5 * (1.0 - (1.0 - 2.0 * e_y) * math.exp(-2.0 * mu_out))


def usd_conclusive_fraction(mu_out: float, yield_min: float) -> float | None:
    """Fraction of detected events Eve resolves unambiguously.

    delta = (1 - exp(-2 mu_out)) / yield, from the Ivanovic-Dieks-Peres
    bound on discriminating the probe states, renormalized by the minimum
    yield.  Returns None (insecure) once delta reaches 1.
    """
    delta = -math.expm1(-2.0 * mu_out) / yield_min
    if delta >= 1.0:
        return None
    return delta
