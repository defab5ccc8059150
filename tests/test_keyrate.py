import math
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from thabound.attacks import (
    ATTACK_KINDS,
    AttackModel,
    coin_imbalance,
    no_attack,
    phase_error_general,
    phase_error_passive,
    privacy_factor,
    usd_conclusive_fraction,
)
import thabound
from thabound import channel as channel_mod
from thabound import keyrate
from thabound.channel import (
    ChannelParams,
    LinkObservables,
    decoy_link,
    decoy_state,
    link_at,
    single_photon,
    single_photon_link,
)
from thabound.keyrate import (
    LENGTH_BRACKET_KM,
    LENGTH_TOL_KM,
    MAX_GRID_POINTS,
    MAX_HALVINGS,
    MU_BRACKET_HI,
    MU_REL_TOL,
    NoPositiveRateError,
    RatePoint,
    RateQuery,
    RateSeries,
    _last_positive,
    key_rate,
    link_rates,
    max_distance,
    mu_out_threshold,
    rate_at,
    rates_at,
    sweep_distance,
    sweep_lengths,
    verify_convexity,
)
from thabound.numerics import binary_entropy

from conftest import REFERENCE_CHANNEL as CHANNEL

SP = single_photon()
DECOY = decoy_state(0.5)

# a channel too noisy to distill any key, even unattacked
DEAD_CHANNEL = ChannelParams(0.2, 0.125, 0.11, 1e-5, 1.2)


class TestKeyRateFrozenValues:
    """Values computed independently at 40-digit precision, then frozen."""

    CASES = [
        (SP, no_attack(), 0.0, 0.1027265745),
        (SP, no_attack(), 100.0, 0.000967374264478),
        (SP, AttackModel("general", 1e-6), 100.0, 0.000889596557218),
        (SP, AttackModel("general", 0.01), 0.0, 0.0150749912626),
        (SP, AttackModel("passive", 0.01), 0.0, 0.0953589619668),
        (SP, AttackModel("usd", 0.01), 0.0, 0.0761781655544),
        (DECOY, no_attack(), 0.0, 0.0289277596511),
        (DECOY, no_attack(), 100.0, 0.000243959855434),
        (DECOY, AttackModel("general", 1e-6), 100.0, 0.000220372573387),
        (DECOY, AttackModel("passive", 0.01), 0.0, 0.0266934182059),
        (DECOY, AttackModel("usd", 0.01), 0.0, 0.0208765476551),
    ]

    @pytest.mark.parametrize("source,attack,length,expected", CASES)
    def test_rate(self, source, attack, length, expected):
        assert rate_at(CHANNEL, source, attack, length) == pytest.approx(
            expected, rel=1e-11)

    def test_rate_zero_above_threshold(self):
        assert rate_at(CHANNEL, SP, AttackModel("general", 0.1), 0.0) == 0.0

    def test_rate_never_negative(self):
        assert rate_at(CHANNEL, SP, AttackModel("general", 0.0152), 9.0) >= 0.0


class TestNoAttackIdentity:
    def test_general_at_zero_leakage_is_bitwise_no_attack(self):
        for source in (SP, DECOY):
            for length in (0.0, 25.5, 50.0, 100.0, 150.25, 170.0):
                baseline = rate_at(CHANNEL, source, no_attack(), length)
                attacked = rate_at(CHANNEL, source, AttackModel("general", 0.0), length)
                assert attacked == baseline


class TestUsdPrivacy:
    def test_zero_once_the_phase_error_ratio_passes_half(self):
        # e1 = 0.4 and a conclusive fraction of 0.3 put e'/(1 - c) near 0.59.
        obs = LinkObservables(q_x=0.5, e_x=0.4, y1=0.5, e1=0.4, q1=0.5)
        attack = AttackModel("usd", -0.5 * math.log1p(-0.15))
        conclusive = usd_conclusive_fraction(attack.mu_out, obs.y1)
        assert conclusive == pytest.approx(0.3)
        assert phase_error_passive(obs.e1, attack.mu_out) / (1.0 - conclusive) > 0.55
        assert privacy_factor(*attack, obs.e1, obs.y1) == 0.0


class TestRatesAt:
    ATTACKS = (no_attack(), AttackModel("general", 1e-6), AttackModel("general", 0.3),
               AttackModel("passive", 0.1), AttackModel("usd", 1e-2),
               AttackModel("usd", 0.5), AttackModel("general", 1e-6))

    @pytest.mark.parametrize("source", [SP, DECOY], ids=["sp", "decoy"])
    @pytest.mark.parametrize("length", [0.0, 37.5, 150.0, 400.0])
    def test_each_rate_as_if_evaluated_alone(self, source, length):
        together = rates_at(CHANNEL, source, self.ATTACKS, length)
        alone = [key_rate(RateQuery(CHANNEL, source, attack, length))
                 for attack in self.ATTACKS]
        assert together == alone

    def test_no_detections_gives_one_zero_per_attack(self):
        # link_rates owns "no detections" (q_x == 0), so the attack
        # formulas are never asked with a zero yield.  At 20,000 km eta
        # underflows to 0.
        blind = ChannelParams(0.2, 0.0, 0.01, 0.0, 1.2)
        dark = ChannelParams(0.2, 0.125, 0.01, 0.0, 1.2)
        for channel, length in ((blind, 10.0), (dark, 20_000.0)):
            for source in (SP, DECOY):
                assert rates_at(channel, source, self.ATTACKS, length) == (
                    [0.0] * len(self.ATTACKS)), (channel, source, length)

    def test_no_detections_decide_alone(self):
        # A link with a single-photon gain but no detections has no key.
        # The decoy link makes one at 1,000 km without dark counts: eta s
        # is below half an ulp of 1, so the signal gain rounds to 0 while
        # q1 = s e^-s Y1 stays positive.
        dark = ChannelParams(0.2, 0.125, 0.01, 0.0, 1.2)
        far = decoy_link(dark, 1000.0, 0.5)
        assert far.q_x == 0.0 < far.q1
        pairs = [(kind, 0.0 if kind == "none" else 1e-4)
                 for kind in ATTACK_KINDS]
        for obs in (LinkObservables(0.0, 0.5, 1e-3, 0.01, 1e-3), far):
            assert link_rates(obs, 1.2, pairs) == [0.0] * len(ATTACK_KINDS)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="length_km"):
            rates_at(CHANNEL, SP, self.ATTACKS, -1.0)


class TestLastPositive:
    def test_zero_tolerance_stops_after_max_halvings(self):
        calls = []

        def rate_of(x):
            calls.append(x)
            return 1.0 if x < 0.3 else 0.0

        result = _last_positive(rate_of, 1.0, 0.0, 0.0, "no key")
        assert abs(result - 0.3) <= 1e-15
        assert len(calls) == 2 + MAX_HALVINGS

    def test_stops_on_tolerance_first(self):
        calls = []

        def rate_of(x):
            calls.append(x)
            return 1.0 if x < 0.3 else 0.0

        _last_positive(rate_of, 1.0, 0.0, 2.0 ** -10, "no key")
        assert len(calls) == 2 + 10

    def test_preset_searches_take_the_halvings_the_readme_states(
            self, monkeypatch):
        # The 6 thresholds and 30 reaches of the two sources and three kinds
        # on the preset channel.  A search probes both bracket ends, then
        # once per halving.
        halvings = {MU_BRACKET_HI: [], LENGTH_BRACKET_KM: []}
        search = keyrate._last_positive

        def counted(rate_of, hi, *tolerances):
            probes = []
            result = search(lambda x: probes.append(x) or rate_of(x), hi,
                            *tolerances)
            halvings[hi].append(len(probes) - 2)
            return result

        monkeypatch.setattr(keyrate, "_last_positive", counted)
        for source in (SP, DECOY):
            for kind in ("general", "passive", "usd"):
                mu_out_threshold(CHANNEL, source, kind)
                for mu in (0.0, 1e-8, 1e-6, 1e-4, 1e-2):
                    max_distance(CHANNEL, source, AttackModel(kind, mu))
        thresholds, reaches = halvings[MU_BRACKET_HI], halvings[LENGTH_BRACKET_KM]
        assert len(thresholds) == 6 and len(reaches) == 30
        assert (min(thresholds), max(thresholds)) == (12, 18)
        assert set(reaches) == {13}
        readme = (pathlib.Path(__file__).resolve().parent.parent
                  / "README.md").read_text(encoding="utf-8")
        assert ("on the preset channel the thresholds reach their tolerance "
                "in 12 to 18 and the reaches in 13" in " ".join(readme.split()))


class TestRateQueryValidation:
    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            RateQuery(CHANNEL, SP, no_attack(), -1.0)

    @pytest.mark.parametrize("length", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_length_named(self, length):
        with pytest.raises(ValueError, match="length_km"):
            key_rate(RateQuery(CHANNEL, SP, no_attack(), length))
        with pytest.raises(ValueError, match="length_km"):
            rates_at(CHANNEL, DECOY, (no_attack(),), length)
        with pytest.raises(ValueError, match="length_km"):
            verify_convexity(CHANNEL, SP, "general", length, 0.0, 0.01)

    def test_key_rate_entry_point(self):
        query = RateQuery(CHANNEL, SP, no_attack(), 0.0)
        assert key_rate(query) == rate_at(CHANNEL, SP, no_attack(), 0.0)


class TestRateSeries:
    def test_lengths_must_increase(self):
        with pytest.raises(ValueError):
            RateSeries((RatePoint(1.0, 0.1, True), RatePoint(1.0, 0.1, True)))


class TestSweepDistance:
    def test_inclusive_grid(self):
        series = sweep_distance(CHANNEL, SP, no_attack(), 0.0, 10.0, 2.5)
        lengths = [p.length_km for p in series.points]
        assert lengths == [0.0, 2.5, 5.0, 7.5, 10.0]

    def test_full_preset_grid_size(self):
        series = sweep_distance(CHANNEL, SP, no_attack(), 0.0, 200.0, 1.0)
        assert len(series.points) == 201

    def test_zero_beyond_cutoff(self):
        series = sweep_distance(CHANNEL, SP, AttackModel("general", 0.01),
                                0.0, 20.0, 1.0)
        beyond = [p for p in series.points if p.length_km >= 10.0]
        assert beyond and all(p.rate == 0.0 and not p.secure for p in beyond)
        near = [p for p in series.points if p.length_km <= 9.0]
        assert all(p.secure and p.rate > 0.0 for p in near)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_distance(CHANNEL, SP, no_attack(), 10.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            sweep_distance(CHANNEL, SP, no_attack(), 0.0, 10.0, 0.0)

    def test_rate_at_floor_is_kept(self):
        # A positive rate below 1e-12, inside the reach, is kept as computed.
        length = 104.504733745
        attack = AttackModel("general", 1e-4)
        rate = rate_at(CHANNEL, SP, attack, length)
        assert 0.0 < rate < 1e-12
        series = sweep_distance(CHANNEL, SP, attack, length, length + 1, 1)
        assert series.points[0] == RatePoint(length, rate, True)

    def test_single_length_grid_rejected(self):
        with pytest.raises(ValueError, match="empty sweep grid"):
            sweep_distance(CHANNEL, SP, no_attack(), 5.0, 5.0, 1.0)

    def test_grid_cap_is_inclusive(self):
        last = float(MAX_GRID_POINTS - 1)
        assert len(sweep_lengths(0.0, last, 1.0)) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            sweep_lengths(0.0, last + 1.0, 1.0)

    def test_colliding_grid_rejected(self):
        # At 1e17 km floats are 16 apart, so 1 km steps repeat points.
        message = "step 1.0 is too small .*: two sweep grid points are equal"
        with pytest.raises(ValueError, match=message):
            sweep_lengths(1e17, 1.0000000000001e17, 1.0)
        with pytest.raises(ValueError, match=message):
            sweep_distance(CHANNEL, SP, no_attack(), 1e17, 1.0000000000001e17,
                           1.0)


class TestPublicApi:
    """`import thabound` exposes the kernel, not the second rate path."""

    KERNEL = ["AttackModel", "ChannelParams", "SourceModel", "decoy_state",
              "max_distance", "mu_out_threshold", "no_attack", "rate_at",
              "rates_at", "single_photon", "sweep_lengths", "verify_convexity"]

    def test_all_lists_the_kernel(self):
        assert thabound.__all__ == self.KERNEL
        assert [name for name in self.KERNEL
                if not hasattr(thabound, name)] == []
        assert thabound.rates_at is keyrate.rates_at

    @pytest.mark.parametrize("name", ["RateQuery", "key_rate", "sweep_distance"])
    def test_second_path_stays_in_keyrate(self, name):
        # Kept in the submodule only as the benchmark's call targets.
        assert not hasattr(thabound, name)
        assert hasattr(keyrate, name)


class TestThresholdSearch:
    # targets computed independently at high precision; the bisection is
    # pinned to a 1e-3 relative bracket
    FROZEN = [
        (SP, "general", 0.0152653610504),
        (DECOY, "general", 0.0123431254851),
        (SP, "passive", 0.496621959741),
        (DECOY, "passive", 0.382106303858),
        (SP, "usd", 0.0458797284399),
        (DECOY, "usd", 0.041466993209),
    ]

    @pytest.mark.parametrize("source,kind,expected", FROZEN)
    def test_matches_independent_bisection(self, source, kind, expected):
        found = mu_out_threshold(CHANNEL, source, kind)
        assert found == pytest.approx(expected, rel=1.5e-3)

    def test_rate_positive_below_and_zero_above(self):
        thr = mu_out_threshold(CHANNEL, SP, "general")
        assert rate_at(CHANNEL, SP, AttackModel("general", 0.9 * thr), 0.0) > 0.0
        assert rate_at(CHANNEL, SP, AttackModel("general", 1.1 * thr), 0.0) == 0.0

    def test_no_attack_kind_rejected(self):
        with pytest.raises(ValueError):
            mu_out_threshold(CHANNEL, SP, "none")

    def test_dead_channel_raises(self):
        with pytest.raises(NoPositiveRateError):
            mu_out_threshold(DEAD_CHANNEL, SP, "general")

    @pytest.mark.parametrize("kind", ["general", "passive", "usd"])
    @pytest.mark.parametrize("source", [SP, DECOY], ids=["sp", "decoy"])
    def test_link_is_evaluated_once_at_zero_length(self, monkeypatch, source,
                                                   kind):
        lengths = []
        for name in ("single_photon_link", "decoy_link"):
            def counting_link(channel, length_km, *rest,
                              link=getattr(channel_mod, name)):
                lengths.append(length_km)
                return link(channel, length_km, *rest)

            monkeypatch.setattr(channel_mod, name, counting_link)
        mu_out_threshold(CHANNEL, source, kind)
        assert lengths == [0.0]

    @pytest.mark.parametrize("kind", ["general", "passive", "usd"])
    @pytest.mark.parametrize("source", [SP, DECOY], ids=["sp", "decoy"])
    def test_builds_one_attack_record(self, monkeypatch, source, kind):
        # The kind is validated once; the probes go to the rate step as pairs.
        built = _count_attack_records(monkeypatch)
        mu_out_threshold(CHANNEL, source, kind)
        assert built == [kind]


def _count_attack_records(monkeypatch):
    """The kind of every AttackModel built from now on, in order."""
    built = []
    post_init = AttackModel.__post_init__

    def counting_post_init(self):
        built.append(self.kind)
        post_init(self)

    monkeypatch.setattr(AttackModel, "__post_init__", counting_post_init)
    return built


def _last_below(f, lo, hi, target):
    """Largest x in [lo, hi] with f(x) < target, for f increasing there.

    Bisects until the midpoint equals an endpoint, so the result is as
    fine as floats allow and no tolerance is chosen.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if f(mid) < target:
            lo = mid
        else:
            hi = mid


def exact_threshold(channel, source, kind):
    """The zero-distance leakage threshold of an attack kind.

    An oracle for mu_out_threshold that inverts the bound instead of
    searching the rate.  At zero distance the rate
    q1 (1 - h(e')) - q_x f_ec h(e_x) is positive iff h(e') is below
    1 - f_ec h(e_x) q_x / q1, so the largest phase error e* follows from
    h^-1.  The passive attack's e' = [1 - (1 - 2 e1) exp(-2 mu)] / 2 then
    inverts in closed form.  The general attack's e' is the angle form
    sin^2(arcsin sqrt(e1) + 2 arcsin sqrt(Delta')), with Delta' = Delta / Y1,
    so Delta* = Y1 sin^2((arcsin sqrt(e*) - arcsin sqrt(e1)) / 2) and
    mu* = coin_imbalance^-1(Delta*) (increasing on [0, 2]).  The USD
    attack's privacy term (1 - c) (1 - h(min(1/2, e' / (1 - c)))), with c the
    conclusive fraction, has no closed inverse, so mu* is bisected to
    adjacent floats on [0, 1], where the rate is nonincreasing in mu
    (TestMonotonicity).  Returns None when there is no key even without
    leakage.
    """
    if source.kind == "single_photon":
        obs = single_photon_link(channel, 0.0)
    else:
        obs = decoy_link(channel, 0.0, source.s)
    if obs.q1 == 0.0:
        return None
    if kind == "usd":
        ec_cost = obs.q_x * channel.f_ec * binary_entropy(obs.e_x)

        def deficit(mu):
            conclusive = usd_conclusive_fraction(mu, obs.y1)
            if conclusive >= 1.0:
                # Eve reads every detection: the bound is vacuous.
                return math.inf
            ratio = min(0.5, phase_error_passive(obs.e1, mu) / (1.0 - conclusive))
            privacy = (1.0 - conclusive) * (1.0 - binary_entropy(ratio))
            return ec_cost - obs.q1 * privacy

        if deficit(0.0) >= 0.0:
            return None
        assert deficit(1.0) > 0.0
        return _last_below(deficit, 0.0, 1.0, 0.0)
    bound = 1.0 - channel.f_ec * binary_entropy(obs.e_x) * obs.q_x / obs.q1
    e_star = _last_below(binary_entropy, 0.0, 0.5, bound)
    if e_star <= obs.e1:
        return None
    if kind == "passive":
        return 0.5 * math.log((1.0 - 2.0 * obs.e1) / (1.0 - 2.0 * e_star))
    half_angle = 0.5 * (math.asin(math.sqrt(e_star)) - math.asin(math.sqrt(obs.e1)))
    return _last_below(coin_imbalance, 0.0, 2.0,
                       obs.y1 * math.sin(half_angle) ** 2)


def exact_reach(channel, source, attack):
    """The largest length with a positive rate, as fine as floats allow.

    An oracle for max_distance that bisects rate_at in L with no tolerance,
    so the result is the last float before the rate drops to 0.  Relies on
    the rate being nonincreasing in length (TestMonotonicity).  Returns None
    when there is no key at zero distance.
    """
    def minus_rate(length):
        return -rate_at(channel, source, attack, length)

    if minus_rate(0.0) >= 0.0:
        return None
    assert minus_rate(LENGTH_BRACKET_KM) == 0.0
    return _last_below(minus_rate, 0.0, LENGTH_BRACKET_KM, 0.0)


def _seeded_cases(seed, count):
    """(channel, source) pairs over the ranges of the planning benchmark."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    cases = []
    for _ in range(count):
        channel = ChannelParams(rng.uniform(0.16, 0.25), log_uniform(0.05, 0.6),
                                rng.uniform(0.005, 0.03), log_uniform(1e-7, 1e-5),
                                rng.uniform(1.05, 1.25))
        cases += [(channel, SP), (channel, decoy_state(rng.uniform(0.2, 0.8)))]
    return cases


class TestExactThreshold:
    """mu_out_threshold brackets the exactly inverted threshold."""

    CASES = [(CHANNEL, SP), (CHANNEL, DECOY), (DEAD_CHANNEL, SP),
             (DEAD_CHANNEL, DECOY), *_seeded_cases(15, 16)]

    @pytest.mark.parametrize("source,kind,expected", TestThresholdSearch.FROZEN)
    def test_oracle_matches_frozen_thresholds(self, source, kind, expected):
        assert exact_threshold(CHANNEL, source, kind) == pytest.approx(
            expected, rel=1e-11)

    @pytest.mark.parametrize("kind", ["general", "passive", "usd"])
    @pytest.mark.parametrize("channel,source", CASES)
    def test_search_brackets_exact_threshold(self, monkeypatch, channel,
                                             source, kind):
        evaluated = []

        def recording_link_rates(obs, f_ec, attack_list):
            rates = link_rates(obs, f_ec, attack_list)
            evaluated.extend((mu, rate)
                             for (_, mu), rate in zip(attack_list, rates))
            return rates

        monkeypatch.setattr(keyrate, "link_rates", recording_link_rates)
        exact = exact_threshold(channel, source, kind)
        try:
            mu_out_threshold(channel, source, kind)
        except NoPositiveRateError:
            assert exact is None
            return
        assert exact is not None
        below = max(mu for mu, rate in evaluated if rate > 0.0)
        above = min((mu for mu, rate in evaluated if rate <= 0.0),
                    default=math.inf)
        assert below < exact < above
        just_below = AttackModel(kind, exact * (1 - 1e-9))
        just_above = AttackModel(kind, exact * (1 + 1e-9))
        assert rate_at(channel, source, just_below, 0.0) > 0.0
        assert rate_at(channel, source, just_above, 0.0) == 0.0


class TestMaxDistance:
    FROZEN = [
        (SP, no_attack(), 171.09691957),
        (SP, AttackModel("general", 1e-2), 9.16290702298),
        (SP, AttackModel("general", 1e-4), 104.504733812),
        (SP, AttackModel("general", 1e-6), 158.066016156),
        (SP, AttackModel("general", 1e-8), 169.590129983),
        (DECOY, no_attack(), 146.201699506),
        (DECOY, AttackModel("general", 1e-6), 138.862806838),
        (DECOY, AttackModel("general", 1e-2), 4.48153493926),
        (SP, AttackModel("passive", 0.1), 159.232696053),
        (DECOY, AttackModel("passive", 0.1), 130.592463072),
        (SP, AttackModel("usd", 0.01), 35.4305082001),
        (DECOY, AttackModel("usd", 0.01), 33.3207878284),
    ]

    @pytest.mark.parametrize("source,attack,expected", FROZEN)
    def test_matches_independent_bisection(self, source, attack, expected):
        assert max_distance(CHANNEL, source, attack) == pytest.approx(
            expected, abs=0.1)

    def test_leakage_above_threshold_raises(self):
        with pytest.raises(NoPositiveRateError):
            max_distance(CHANNEL, SP, AttackModel("general", 0.1))

    def test_builds_no_rate_query(self, monkeypatch):
        built = []

        def counting_query(*args):
            built.append(args)
            return RateQuery(*args)

        monkeypatch.setattr(keyrate, "RateQuery", counting_query)
        reach = max_distance(CHANNEL, SP, AttackModel("general", 1e-6))
        assert built == []
        assert reach == 158.050537109375

    def test_rate_positive_just_inside(self):
        reach = max_distance(CHANNEL, SP, no_attack())
        assert rate_at(CHANNEL, SP, no_attack(), reach - 0.2) > 0.0
        assert rate_at(CHANNEL, SP, no_attack(), reach + 0.2) == 0.0

    @pytest.mark.parametrize("channel,source", TestExactThreshold.CASES)
    def test_within_tolerance_of_exact_reach(self, channel, source):
        for attack in (no_attack(), AttackModel("general", 1e-6),
                       AttackModel("passive", 0.1), AttackModel("usd", 1e-2)):
            exact = exact_reach(channel, source, attack)
            try:
                reach = max_distance(channel, source, attack)
            except NoPositiveRateError:
                assert exact is None, attack
                continue
            assert exact is not None, attack
            assert abs(reach - exact) <= LENGTH_TOL_KM, attack
            assert rate_at(channel, source, attack, exact) > 0.0
            assert rate_at(channel, source, attack,
                           math.nextafter(exact, math.inf)) == 0.0


def _tolerance_bisection(rate_of, hi, rel_tol, abs_tol):
    """The searches' bisection, written out; None when rate_of(0) has no key.

    Returns hi when rate_of(hi) is still positive.  Otherwise halves [0, hi]
    until it is no wider than max(rel_tol * hi, abs_tol), at most
    MAX_HALVINGS times, and returns the bracket's midpoint.
    """
    if rate_of(0.0) <= 0.0:
        return None
    if rate_of(hi) > 0.0:
        return hi
    lo = 0.0
    for _ in range(MAX_HALVINGS):
        if hi - lo <= max(rel_tol * hi, abs_tol):
            break
        mid = 0.5 * (lo + hi)
        if rate_of(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _search_or_none(search, *args):
    try:
        return search(*args)
    except NoPositiveRateError:
        return None


class TestSearchReference:
    """Both searches equal, bit for bit, a bisection over public rate_at
    that builds a fresh AttackModel for every probe."""

    @pytest.mark.parametrize("kind", ["general", "passive", "usd"])
    @pytest.mark.parametrize("channel,source", TestExactThreshold.CASES)
    def test_threshold(self, channel, source, kind):
        expected = _tolerance_bisection(
            lambda mu: rate_at(channel, source, AttackModel(kind, mu), 0.0),
            MU_BRACKET_HI, MU_REL_TOL, 1e-15)
        assert _search_or_none(mu_out_threshold, channel, source, kind) == expected

    @pytest.mark.parametrize("channel,source", TestExactThreshold.CASES)
    def test_reach(self, channel, source):
        for kind in ("general", "passive", "usd"):
            for mu in (0.0, 1e-6, 1e-3):
                expected = _tolerance_bisection(
                    lambda length: rate_at(channel, source, AttackModel(kind, mu),
                                           length),
                    LENGTH_BRACKET_KM, 0.0, LENGTH_TOL_KM)
                found = _search_or_none(max_distance, channel, source,
                                        AttackModel(kind, mu))
                assert found == expected, (kind, mu)


class TestBracketEnd:
    def test_a_positive_bracket_end_is_a_lower_bound(self):
        # Without optical errors or dark counts the passive rate stays
        # positive beyond both brackets, so each search returns its end.
        clear = CHANNEL._replace(e_opt=0.0, p_dark=0.0)
        assert mu_out_threshold(clear, SP, "passive") == MU_BRACKET_HI
        assert rate_at(clear, SP, AttackModel("passive", 5.0), 0.0) > 0.0
        passive = AttackModel("passive", 1.0)
        assert max_distance(clear, SP, passive) == LENGTH_BRACKET_KM
        assert rate_at(clear, SP, passive, 2 * LENGTH_BRACKET_KM) > 0.0


def _powers_of_ten(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


# Channels over the ranges of the planning benchmark, both sources, and
# leakage both uniform and log-uniform down to 1e-10.
CHANNELS = st.builds(ChannelParams,
                     st.floats(min_value=0.16, max_value=0.25),
                     st.floats(min_value=0.05, max_value=0.6),
                     st.floats(min_value=0.005, max_value=0.03),
                     _powers_of_ten(-7.0, -5.0),
                     st.floats(min_value=1.05, max_value=1.25))
SOURCES = st.one_of(st.just(SP), st.builds(
    decoy_state, st.floats(min_value=0.2, max_value=0.8)))
LEAKAGES = st.one_of(st.floats(min_value=0.0, max_value=0.5),
                     _powers_of_ten(-10.0, -1.0))
# The convexity subcommand's default range, uniform on [0, 0.6], as well.
CONVEXITY_LEAKAGES = st.one_of(LEAKAGES, st.floats(min_value=0.0, max_value=0.6))


class TestVerifyConvexity:
    def test_degenerate_pair(self):
        assert verify_convexity(CHANNEL, SP, "general", 0.0, 0.01, 0.01)

    def test_pair_straddling_the_cutoff(self):
        # midpoint 1e-2 yields zero at 50 km while the average of the
        # endpoint rates is positive, so convexity holds with margin
        assert verify_convexity(CHANNEL, SP, "general", 50.0, 0.0, 2e-2)
        assert rate_at(CHANNEL, SP, AttackModel("general", 1e-2), 50.0) == 0.0

    def test_no_attack_kind_only_at_zero(self):
        assert verify_convexity(CHANNEL, SP, "none", 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            verify_convexity(CHANNEL, SP, "none", 0.0, 0.0, 0.1)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            verify_convexity(CHANNEL, SP, "general", 0.0, -0.1, 0.1)

    @pytest.mark.parametrize("kind", ["general", "passive", "usd"])
    def test_extreme_finite_pair(self, kind):
        # mu1 + mu2 overflows to inf; the midpoint 0.5 mu1 + 0.5 mu2 does not.
        assert verify_convexity(CHANNEL, SP, kind, 0.0, 1.7e308, 1.7e308)

    def test_builds_a_record_per_endpoint_only(self, monkeypatch):
        built = _count_attack_records(monkeypatch)
        verify_convexity(CHANNEL, SP, "general", 0.0, 0.01, 0.02)
        assert built == ["general", "general"]

    @pytest.mark.parametrize("rate, convex", [(math.sqrt, False),
                                              (lambda mu: mu, True)],
                             ids=["concave", "linear"])
    def test_compares_the_midpoint_with_the_chord(self, monkeypatch, rate,
                                                  convex):
        # sqrt(mu) is strictly concave; a linear rate meets its chord exactly.
        monkeypatch.setattr(keyrate, "rates_at", lambda channel, source, attacks,
                            length: [rate(mu) for _, mu in attacks])
        assert verify_convexity(CHANNEL, SP, "general", 0.0, 0.0, 0.5) is convex

    @pytest.mark.parametrize("kind, mu1, mu2, message", [
        ("general", -0.1, 0.1, "mu_out must be finite and >= 0"),
        ("passive", 0.1, math.nan, "mu_out must be finite"),
        ("none", 0.0, 0.1, "kind 'none' requires mu_out = 0"),
        ("siphon", 0.1, 0.1, "unknown attack kind 'siphon'"),
    ])
    def test_attack_rules_come_from_the_record(self, kind, mu1, mu2, message):
        with pytest.raises(ValueError, match=message):
            verify_convexity(CHANNEL, SP, kind, 0.0, mu1, mu2)

    @settings(max_examples=150)
    @given(CHANNELS, SOURCES, CONVEXITY_LEAKAGES, CONVEXITY_LEAKAGES,
           st.floats(min_value=0.0, max_value=300.0),
           st.sampled_from(["general", "passive", "usd"]))
    def test_holds_on_random_pairs(self, channel, source, mu1, mu2, length,
                                   kind):
        assert verify_convexity(channel, source, kind, length, mu1, mu2)


# Every channel ChannelParams admits, with the exact ends of each range.
def _unit_interval(hi: float = 1.0):
    return st.one_of(st.sampled_from((0.0, hi)),
                     st.floats(min_value=0.0, max_value=hi))


FULL_CHANNELS = st.builds(ChannelParams, _unit_interval(), _unit_interval(),
                          _unit_interval(0.5), _unit_interval(),
                          st.floats(min_value=1.0, max_value=2.0))
FULL_SOURCES = st.one_of(st.just(SP), st.builds(
    decoy_state, st.floats(min_value=0.0, max_value=10.0, exclude_min=True)))


class TestWholeDomain:
    @settings(max_examples=200)
    @given(FULL_CHANNELS, FULL_SOURCES,
           st.one_of(st.floats(min_value=0.0, max_value=2.0),
                     _powers_of_ten(-12.0, 0.0)),
           st.floats(min_value=0.0, max_value=500.0))
    def test_rates_are_probabilities(self, channel, source, mu, length):
        # Every link observable is checked as a probability with no
        # tolerance, so rounding must never carry one outside [0, 1].
        rates = rates_at(channel, source,
                         (no_attack(), AttackModel("general", mu),
                          AttackModel("passive", mu), AttackModel("usd", mu)),
                         length)
        assert all(0.0 <= rate <= 1.0 for rate in rates), rates


class TestMonotonicity:
    # Slack relative to the rate: rounding moves a rate by a few ulps, and
    # near the reach a rate can be far below any absolute slack.
    @settings(max_examples=100)
    @given(CHANNELS, SOURCES, LEAKAGES, LEAKAGES,
           st.floats(min_value=0.0, max_value=300.0),
           st.sampled_from(["general", "passive", "usd"]))
    def test_rate_nonincreasing_in_leakage(self, channel, source, a, b, length,
                                           kind):
        lo, hi = sorted((a, b))
        r_lo, r_hi = rates_at(channel, source, (AttackModel(kind, lo),
                                                AttackModel(kind, hi)), length)
        assert r_hi <= r_lo * (1 + 1e-13)

    @settings(max_examples=100)
    @given(CHANNELS, SOURCES, st.floats(min_value=0.0, max_value=300.0),
           st.floats(min_value=0.0, max_value=300.0),
           st.sampled_from(["none", "general", "passive", "usd"]), LEAKAGES)
    def test_rate_nonincreasing_in_distance(self, channel, source, a, b, kind,
                                            mu):
        attack = AttackModel(kind, 0.0 if kind == "none" else mu)
        lo, hi = sorted((a, b))
        assert (rate_at(channel, source, attack, hi)
                <= rate_at(channel, source, attack, lo) * (1 + 1e-13))


def _one_interval_from_zero(rates):
    """True when the positive rates are a prefix: key, then none after."""
    first_zero = next((i for i, rate in enumerate(rates) if rate == 0.0),
                      len(rates))
    return all(rate == 0.0 for rate in rates[first_zero:])


class TestKeyIsOneInterval:
    """Where the rate is positive is one interval from 0, as both searches
    assume: on a 0.5 km grid to 300 km, and on a log grid of mu_out."""

    LENGTHS = sweep_lengths(0.0, 300.0, 0.5)
    LEAKAGE_GRID = [0.0] + [10.0 ** (k / 20.0) for k in range(-200, 7)]

    @settings(max_examples=40)
    @given(CHANNELS, SOURCES,
           st.sampled_from(["none", "general", "passive", "usd"]), LEAKAGES)
    def test_in_distance(self, channel, source, kind, mu):
        attack = AttackModel(kind, 0.0 if kind == "none" else mu)
        rates = [rate_at(channel, source, attack, length)
                 for length in self.LENGTHS]
        assert _one_interval_from_zero(rates), rates

    @settings(max_examples=100)
    @given(CHANNELS, SOURCES, st.sampled_from(["general", "passive", "usd"]),
           st.floats(min_value=0.0, max_value=300.0))
    def test_in_leakage(self, channel, source, kind, length):
        rates = rates_at(channel, source, [AttackModel(kind, mu)
                                           for mu in self.LEAKAGE_GRID], length)
        assert _one_interval_from_zero(rates), rates


class TestConvexityNearThreshold:
    """Midpoint convexity on random channels, with both leakages within
    twice the channel's threshold, where the rate bends to zero."""

    @pytest.mark.parametrize("kind", ["general", "passive", "usd"])
    @pytest.mark.parametrize("channel,source", _seeded_cases(10, 12))
    def test_holds(self, channel, source, kind):
        try:
            threshold = mu_out_threshold(channel, source, kind)
        except NoPositiveRateError:
            return
        rng = random.Random(repr((channel, source, kind)))
        for _ in range(40):
            mu1, mu2 = (rng.uniform(0.0, 2.0 * threshold) for _ in range(2))
            length = rng.choice((0.0, 0.0, 25.0, 50.0))
            assert verify_convexity(channel, source, kind, length, mu1, mu2), (
                mu1, mu2, length)


def _reference_privacy_factor(obs, kind, mu_out):
    """Reference privacy term, None where the bound is vacuous: the
    renormalized imbalance at or above 1/2, or the USD conclusive fraction
    at or above 1."""
    if kind == "none":
        return 1.0 - binary_entropy(obs.e1)
    if kind == "general":
        delta_eff = coin_imbalance(mu_out) / obs.y1
        if delta_eff >= 0.5:
            return None
        return 1.0 - binary_entropy(phase_error_general(obs.e1, delta_eff))
    if kind == "passive":
        return 1.0 - binary_entropy(phase_error_passive(obs.e1, mu_out))
    conclusive = -math.expm1(-2.0 * mu_out) / obs.y1
    if conclusive >= 1.0:
        return None
    e_phase = phase_error_passive(obs.e1, mu_out)
    ratio = min(0.5, e_phase / (1.0 - conclusive))
    return (1.0 - conclusive) * (1.0 - binary_entropy(ratio))


def _reference_link_rates(obs, f_ec, attack_list):
    """Reference rate step: no key without detections, and a None privacy
    term gives a zero rate."""
    if obs.q_x == 0.0:
        return [0.0] * len(attack_list)
    ec_cost = obs.q_x * f_ec * binary_entropy(obs.e_x)
    rates = []
    for kind, mu_out in attack_list:
        privacy = _reference_privacy_factor(obs, kind, mu_out)
        rates.append(0.0 if privacy is None
                     else max(0.0, obs.q1 * privacy - ec_cost))
    return rates


def _bitwise_equal(got, want):
    return len(got) == len(want) and all(
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
        for a, b in zip(got, want))


def _privacy_grid(seed, count):
    """(kind, mu_out, obs) cases: seeded draws of every kind, mu_out = 0,
    Delta' and the USD conclusive fraction just below, at and just above
    their limits, and a saturated phase error (e1 = 1/2)."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        e1 = rng.choice((0.0, 0.5, rng.uniform(0.0, 0.5)))
        q_x, e_x, q1 = rng.random(), rng.uniform(0.0, 0.5), rng.random()
        if rng.random() < 0.1:
            # No detections; q1 is kept, as a decoy link whose gain
            # underflows keeps it.
            q_x = 0.0

        def obs(y1):
            return LinkObservables(q_x, e_x, y1, e1, q1)

        y1 = math.exp(rng.uniform(math.log(1e-7), 0.0))
        mu = rng.choice((0.0, 10.0 ** rng.uniform(-10.0, 0.5)))
        cases += [(kind, 0.0 if kind == "none" else mu, obs(y1))
                  for kind in ATTACK_KINDS]
        # A yield of exactly 2 Delta puts Delta' at 1/2, and a yield of
        # exactly 1 - exp(-2 mu) the conclusive fraction at 1.
        mu = 10.0 ** rng.uniform(-8.0, -1.0)
        for kind, edge in (("general", 2.0 * coin_imbalance(mu)),
                           ("usd", -math.expm1(-2.0 * mu))):
            for y1 in (math.nextafter(edge, 1.0), edge,
                       math.nextafter(edge, 0.0)):
                cases.append((kind, mu, obs(y1)))
    return cases


class TestPrivacyFactorReference:
    """attacks.privacy_factor, link_rates and rates_at against the
    reference, bit for bit (sign of zero included)."""

    CASES = _privacy_grid(33, 300)

    def test_grid_reaches_every_edge(self):
        vacuous = {kind for kind, mu, obs in self.CASES
                   if _reference_privacy_factor(obs, kind, mu) is None}
        zero_term = {kind for kind, mu, obs in self.CASES
                     if _reference_privacy_factor(obs, kind, mu) == 0.0}
        assert vacuous == {"general", "usd"}
        assert zero_term == set(ATTACK_KINDS)

    def test_privacy_factor(self):
        for kind, mu, obs in self.CASES:
            want = _reference_privacy_factor(obs, kind, mu)
            want = 0.0 if want is None else want
            got = privacy_factor(kind, mu, obs.e1, obs.y1)
            assert _bitwise_equal([got], [want]), (kind, mu, obs)

    def test_link_rates(self):
        for kind, mu, obs in self.CASES:
            pair = ((kind, mu),)
            assert _bitwise_equal(link_rates(obs, 1.2, pair),
                                  _reference_link_rates(obs, 1.2, pair)), (
                kind, mu, obs)

    @settings(max_examples=150)
    @given(CHANNELS, SOURCES, LEAKAGES, st.floats(min_value=0.0, max_value=300.0))
    def test_rates_at(self, channel, source, mu, length):
        attack_list = [no_attack()] + [AttackModel(kind, mu)
                                       for kind in ATTACK_KINDS[1:]]
        want = _reference_link_rates(link_at(channel, source, length),
                                     channel.f_ec, attack_list)
        assert _bitwise_equal(rates_at(channel, source, attack_list, length),
                              want)
