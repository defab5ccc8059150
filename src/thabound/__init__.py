"""Security bounds for QKD transmitters leaking Trojan-horse light.

The library quantifies how much secret key a BB84 transmitter can still
distill when an eavesdropper injects bright light into the sending module
and reads the modulator settings from the back-reflections.  It covers
three attack models (general, passive, unambiguous-state-discrimination)
for single-photon and decoy-state sources, searches leakage thresholds and
maximum distances, converts laser-damage limits into photon-number leakage,
and plans the passive isolation budget needed to reach a target leakage.
"""

from thabound.attacks import AttackModel, no_attack
from thabound.channel import (
    ChannelParams,
    SourceModel,
    decoy_state,
    single_photon,
)
from thabound.keyrate import (
    max_distance,
    mu_out_threshold,
    rate_at,
    rates_at,
    sweep_lengths,
    verify_convexity,
)

__version__ = "0.1.0"

__all__ = [
    "AttackModel",
    "ChannelParams",
    "SourceModel",
    "decoy_state",
    "max_distance",
    "mu_out_threshold",
    "no_attack",
    "rate_at",
    "rates_at",
    "single_photon",
    "sweep_lengths",
    "verify_convexity",
]
