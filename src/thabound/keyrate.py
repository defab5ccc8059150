"""Key-rate assembly and the searches built on it.

All six attacked rate formulas (three attack kinds, two source models)
share one shape:

    rate = q1 * privacy_factor - q_x * f_ec * h(e_x)

where q1 is the single-photon gain credited with privacy amplification,
q_x and e_x are the observed detection rate and QBER paying the
error-correction cost, and the privacy factor encodes how the attack
inflates the phase error.  This module only assembles it, from
``channel.link_at`` and ``attacks.privacy_factor``.  The no-attack
baseline is the same expression with the uninflated phase error, so an
attack evaluated at mu_out = 0 reproduces it bit for bit.
"""

import math
from collections import namedtuple

from thabound import attacks
from thabound.attacks import AttackModel, privacy_factor
from thabound.channel import ChannelParams, LinkObservables, SourceModel, link_at
from thabound.numerics import Record, binary_entropy, nonnegative, positive

# Fixed search constants, so CLI output is reproducible.
MU_BRACKET_HI = 2.0
MU_REL_TOL = 1e-3
LENGTH_BRACKET_KM = 500.0
LENGTH_TOL_KM = 0.1

# Bisection steps after which a search stops even if its tolerance is not
# met (a zero tolerance never is); the preset searches need 12 to 18.
MAX_HALVINGS = 64

CONVEXITY_SLACK = 1e-12

# Most points one sweep may evaluate (the presets use 201), so a tiny step
# fails at once instead of running for hours.
MAX_GRID_POINTS = 100_000


class NoPositiveRateError(ValueError):
    """A search precondition failed: no key even at the easy bracket end."""


class RateQuery(Record, namedtuple("RateQuery", "channel source attack length_km")):
    __slots__ = ()

    def __new__(cls, channel, source, attack, length_km):
        self = tuple.__new__(cls, (channel, source, attack, length_km))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        nonnegative("length_km", self.length_km)


RatePoint = namedtuple("RatePoint", "length_km rate secure")


class RateSeries(Record, namedtuple("RateSeries", "points")):
    __slots__ = ()

    def __new__(cls, points):
        self = tuple.__new__(cls, (points,))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        for prev, cur in zip(self.points, self.points[1:]):
            if not cur.length_km > prev.length_km:
                raise ValueError("lengths must be strictly increasing")


def link_rates(obs: LinkObservables, f_ec: float,
               attack_list: list[AttackModel] | tuple[AttackModel, ...]
               ) -> list[float]:
    """Secure key rates on one link, one per attack: the rate step.

    Each attack is an AttackModel or a plain (kind, mu_out) pair of values
    the program already knows to be valid.  The error-correction cost
    depends only on the link, so it is evaluated once; only the privacy
    term is taken per attack.  Each rate is never negative.  This is the
    one place that decides a link with no detections (q_x = 0) has no key:
    every rate is then 0.0, whatever the link's placeholder QBER.
    """
    if obs.q_x == 0.0:
        return [0.0] * len(attack_list)
    ec_cost = obs.q_x * f_ec * binary_entropy(obs.e_x)
    q1, e1, y1 = obs.q1, obs.e1, obs.y1
    rates = []
    for kind, mu_out in attack_list:
        rates.append(max(0.0, q1 * privacy_factor(kind, mu_out, e1, y1)
                         - ec_cost))
    return rates


def rates_at(channel: ChannelParams, source: SourceModel,
             attack_list: list[AttackModel] | tuple[AttackModel, ...],
             length_km: float) -> list[float]:
    """Secure key rates at one length, one per attack, in bits per pulse.

    The link step and then the rate step, so the link observables are
    evaluated once for all attacks.
    """
    return link_rates(link_at(channel, source, length_km), channel.f_ec,
                      attack_list)


def key_rate(query: RateQuery) -> float:
    """Secure key rate in bits per pulse; never negative."""
    return rates_at(query.channel, query.source, (query.attack,),
                    query.length_km)[0]


def rate_at(channel: ChannelParams, source: SourceModel, attack: AttackModel,
            length_km: float) -> float:
    """Secure key rate of one attack at one length, in bits per pulse."""
    return rates_at(channel, source, (attack,), length_km)[0]


def sweep_lengths(l_min: float, l_max: float, step: float) -> list[float]:
    """The grid l_min + i*step, i = 0 .. floor((l_max - l_min)/step + 1e-9).

    The 1e-9 slack keeps l_max on the grid despite rounding, so the last
    point can pass l_max by a rounding error: (0, 0.3, 0.1) ends at
    0.30000000000000004.

    A grid of more than MAX_GRID_POINTS points, or one with two equal
    points (a step too fine for the float spacing of its lengths), raises
    ValueError, so a bad step fails before any rate is evaluated.
    """
    nonnegative("l_min", l_min)
    positive("step", step)
    if not l_min < l_max < math.inf:
        raise ValueError("empty sweep grid: l_max must be finite and above "
                         f"l_min, got {l_max!r}")
    last = (l_max - l_min) / step + 1e-9
    if last >= MAX_GRID_POINTS:
        raise ValueError(f"sweep grid exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS} "
                         "points; raise step or narrow [l_min, l_max]")
    grid = [l_min + i * step for i in range(int(math.floor(last)) + 1)]
    # The grid never decreases, so it increases strictly iff no point repeats.
    if len(set(grid)) != len(grid):
        raise ValueError(f"step {step!r} is too small for lengths near "
                         f"{l_max!r}: two sweep grid points are equal")
    return grid


def sweep_distance(channel: ChannelParams, source: SourceModel,
                   attack: AttackModel, l_min: float, l_max: float,
                   step: float) -> RateSeries:
    """Evaluate the key rate on the grid of sweep_lengths(l_min, l_max, step).

    Each rate is kept as computed; a point is secure when its rate is
    positive.
    """
    attack_list = (attack,)
    points = []
    for length in sweep_lengths(l_min, l_max, step):
        rate = rates_at(channel, source, attack_list, length)[0]
        points.append(RatePoint(length, rate, rate > 0.0))
    return RateSeries(tuple(points))


def _last_positive(rate_of, hi: float, rel_tol: float, abs_tol: float,
                   no_key: str) -> float:
    """Bisect [0, hi] for where a nonincreasing rate_of stops being positive.

    Raises NoPositiveRateError(no_key) when rate_of(0) is not positive and
    returns hi when rate_of(hi) still is.  Otherwise halves the bracket
    until it is no wider than max(rel_tol * hi, abs_tol), or MAX_HALVINGS
    times, and returns its midpoint.
    """
    if rate_of(0.0) <= 0.0:
        raise NoPositiveRateError(no_key)
    lo = 0.0
    if rate_of(hi) > 0.0:
        return hi
    for _ in range(MAX_HALVINGS):
        if hi - lo <= max(rel_tol * hi, abs_tol):
            break
        mid = 0.5 * (lo + hi)
        if rate_of(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mu_out_threshold(channel: ChannelParams, source: SourceModel,
                     attack_kind: str) -> float:
    """Largest mu_out with a positive rate at zero distance.

    Rates are monotone nonincreasing in distance, so the supremum over all
    distances is attained at L = 0; the search therefore runs there, with
    the link observables evaluated once and only the rate step per mu.
    Bisection on [0, MU_BRACKET_HI] to relative tolerance MU_REL_TOL.  When
    the rate is still positive at MU_BRACKET_HI, that end is returned: the
    threshold is then at least MU_BRACKET_HI.
    """
    if attack_kind == attacks.NO_ATTACK:
        raise ValueError("threshold search needs an attack kind")
    AttackModel(attack_kind, 0.0)  # validates the kind, once per search
    obs = link_at(channel, source, 0.0)
    f_ec = channel.f_ec

    def rate_of(mu: float) -> float:
        # Every probe lies in [0, MU_BRACKET_HI], so the pair needs no record.
        return link_rates(obs, f_ec, ((attack_kind, mu),))[0]

    return _last_positive(rate_of, MU_BRACKET_HI, MU_REL_TOL, 1e-15,
                          "channel yields no key even without leakage")


def max_distance(channel: ChannelParams, source: SourceModel,
                 attack: AttackModel) -> float:
    """Largest distance with a positive rate, to LENGTH_TOL_KM.

    Bisection on [0, LENGTH_BRACKET_KM]; raises NoPositiveRateError when
    there is no key even at zero distance.  When the rate is still positive
    at LENGTH_BRACKET_KM, that end is returned: the reach is then at least
    LENGTH_BRACKET_KM.
    """
    attack_list = (attack,)

    def rate_of(length: float) -> float:
        return rates_at(channel, source, attack_list, length)[0]

    return _last_positive(rate_of, LENGTH_BRACKET_KM, 0.0, LENGTH_TOL_KM,
                          "no key at zero distance")


def verify_convexity(channel: ChannelParams, source: SourceModel,
                     attack_kind: str, length_km: float, mu1: float,
                     mu2: float) -> bool:
    """Midpoint convexity of the rate in mu_out.

    True iff rate((mu1+mu2)/2) <= [rate(mu1) + rate(mu2)] / 2 up to a small
    slack.  Convexity is what makes a constant-intensity probe optimal for
    the eavesdropper: splitting the same mean photon number unevenly across
    pulses never hurts her.  The AttackModel records reject a negative or
    non-finite mu, and a nonzero one for kind 'none'.  The midpoint lies
    between them, taken as 0.5 mu1 + 0.5 mu2 so that it cannot overflow.
    """
    midpoint, rate1, rate2 = rates_at(
        channel, source, ((attack_kind, 0.5 * mu1 + 0.5 * mu2),
                          AttackModel(attack_kind, mu1),
                          AttackModel(attack_kind, mu2)), length_km)
    return midpoint <= 0.5 * (rate1 + rate2) + CONVEXITY_SLACK
