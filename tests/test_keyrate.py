import math

import pytest
from hypothesis import given, settings, strategies as st

from thabound.attacks import (
    AttackModel,
    general_tha,
    no_attack,
    passive_tha,
    usd_tha,
)
from thabound import keyrate
from thabound.channel import ChannelParams, decoy_state, single_photon
from thabound.keyrate import (
    MAX_GRID_POINTS,
    MAX_HALVINGS,
    NoPositiveRateError,
    RatePoint,
    RateQuery,
    RateSeries,
    _last_positive,
    key_rate,
    max_distance,
    mu_out_threshold,
    rate_at,
    rates_at,
    sweep_distance,
    sweep_lengths,
    verify_convexity,
)

CHANNEL = ChannelParams(0.2, 0.125, 0.01, 1e-5, 1.2)
SP = single_photon()
DECOY = decoy_state(0.5)

# a channel too noisy to distill any key, even unattacked
DEAD_CHANNEL = ChannelParams(0.2, 0.125, 0.11, 1e-5, 1.2)


class TestKeyRateFrozenValues:
    """Values computed independently at 40-digit precision, then frozen."""

    CASES = [
        (SP, no_attack(), 0.0, 0.1027265745),
        (SP, no_attack(), 100.0, 0.000967374264478),
        (SP, general_tha(1e-6), 100.0, 0.000889596557218),
        (SP, general_tha(0.01), 0.0, 0.0150749912626),
        (SP, passive_tha(0.01), 0.0, 0.0953589619668),
        (SP, usd_tha(0.01), 0.0, 0.0761781655544),
        (DECOY, no_attack(), 0.0, 0.0289277596511),
        (DECOY, no_attack(), 100.0, 0.000243959855434),
        (DECOY, general_tha(1e-6), 100.0, 0.000220372573387),
        (DECOY, passive_tha(0.01), 0.0, 0.0266934182059),
        (DECOY, usd_tha(0.01), 0.0, 0.0208765476551),
    ]

    @pytest.mark.parametrize("source,attack,length,expected", CASES)
    def test_rate(self, source, attack, length, expected):
        assert rate_at(CHANNEL, source, attack, length) == pytest.approx(
            expected, rel=1e-11)

    def test_rate_zero_above_threshold(self):
        assert rate_at(CHANNEL, SP, general_tha(0.1), 0.0) == 0.0

    def test_rate_never_negative(self):
        assert rate_at(CHANNEL, SP, general_tha(0.0152), 9.0) >= 0.0


class TestNoAttackIdentity:
    def test_general_at_zero_leakage_is_bitwise_no_attack(self):
        for source in (SP, DECOY):
            for length in (0.0, 25.5, 50.0, 100.0, 150.25, 170.0):
                baseline = rate_at(CHANNEL, source, no_attack(), length)
                attacked = rate_at(CHANNEL, source, general_tha(0.0), length)
                assert attacked == baseline


class TestRatesAt:
    ATTACKS = (no_attack(), general_tha(1e-6), general_tha(0.3),
               passive_tha(0.1), usd_tha(1e-2), usd_tha(0.5), general_tha(1e-6))

    @pytest.mark.parametrize("source", [SP, DECOY], ids=["sp", "decoy"])
    @pytest.mark.parametrize("length", [0.0, 37.5, 150.0, 400.0])
    def test_each_rate_as_if_evaluated_alone(self, source, length):
        together = rates_at(CHANNEL, source, self.ATTACKS, length)
        alone = [key_rate(RateQuery(CHANNEL, source, attack, length))
                 for attack in self.ATTACKS]
        assert together == alone

    def test_no_detections_gives_one_zero_per_attack(self):
        dark = ChannelParams(0.2, 0.0, 0.01, 0.0, 1.2)
        assert rates_at(dark, SP, self.ATTACKS, 10.0) == [0.0] * len(self.ATTACKS)

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

    def test_insecure_points_carry_zero(self):
        with pytest.raises(ValueError):
            RateSeries((RatePoint(0.0, 0.1, False),))


class TestSweepDistance:
    def test_inclusive_grid(self):
        series = sweep_distance(CHANNEL, SP, no_attack(), 0.0, 10.0, 2.5)
        lengths = [p.length_km for p in series.points]
        assert lengths == [0.0, 2.5, 5.0, 7.5, 10.0]

    def test_full_preset_grid_size(self):
        series = sweep_distance(CHANNEL, SP, no_attack(), 0.0, 200.0, 1.0)
        assert len(series.points) == 201

    def test_floor_applied_beyond_cutoff(self):
        series = sweep_distance(CHANNEL, SP, general_tha(0.01), 0.0, 20.0, 1.0)
        beyond = [p for p in series.points if p.length_km >= 10.0]
        assert beyond and all(p.rate == 0.0 and not p.secure for p in beyond)
        near = [p for p in series.points if p.length_km <= 9.0]
        assert all(p.secure and p.rate > 0.0 for p in near)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep_distance(CHANNEL, SP, no_attack(), 10.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            sweep_distance(CHANNEL, SP, no_attack(), 0.0, 10.0, 0.0)

    def test_rate_at_floor_is_kept(self, monkeypatch):
        attack = general_tha(1e-4)
        rate = rate_at(CHANNEL, SP, attack, 10.0)
        for floor, point in ((rate, RatePoint(10.0, rate, True)),
                             (math.nextafter(rate, math.inf),
                              RatePoint(10.0, 0.0, False))):
            monkeypatch.setattr(keyrate, "RATE_FLOOR", floor)
            series = sweep_distance(CHANNEL, SP, attack, 0.0, 10.0, 10.0)
            assert series.points[1] == point

    def test_single_length_grid_rejected(self):
        with pytest.raises(ValueError, match="empty sweep grid"):
            sweep_distance(CHANNEL, SP, no_attack(), 5.0, 5.0, 1.0)

    def test_grid_cap_is_inclusive(self):
        last = float(MAX_GRID_POINTS - 1)
        assert len(sweep_lengths(0.0, last, 1.0)) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            sweep_lengths(0.0, last + 1.0, 1.0)


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
        assert rate_at(CHANNEL, SP, general_tha(0.9 * thr), 0.0) > 0.0
        assert rate_at(CHANNEL, SP, general_tha(1.1 * thr), 0.0) == 0.0

    def test_no_attack_kind_rejected(self):
        with pytest.raises(ValueError):
            mu_out_threshold(CHANNEL, SP, "none")

    def test_dead_channel_raises(self):
        with pytest.raises(NoPositiveRateError):
            mu_out_threshold(DEAD_CHANNEL, SP, "general")


class TestMaxDistance:
    FROZEN = [
        (SP, no_attack(), 171.09691957),
        (SP, general_tha(1e-2), 9.16290702298),
        (SP, general_tha(1e-4), 104.504733812),
        (SP, general_tha(1e-6), 158.066016156),
        (SP, general_tha(1e-8), 169.590129983),
        (DECOY, no_attack(), 146.201699506),
        (DECOY, general_tha(1e-6), 138.862806838),
        (DECOY, general_tha(1e-2), 4.48153493926),
        (SP, passive_tha(0.1), 159.232696053),
        (DECOY, passive_tha(0.1), 130.592463072),
        (SP, usd_tha(0.01), 35.4305082001),
        (DECOY, usd_tha(0.01), 33.3207878284),
    ]

    @pytest.mark.parametrize("source,attack,expected", FROZEN)
    def test_matches_independent_bisection(self, source, attack, expected):
        assert max_distance(CHANNEL, source, attack) == pytest.approx(
            expected, abs=0.1)

    def test_leakage_above_threshold_raises(self):
        with pytest.raises(NoPositiveRateError):
            max_distance(CHANNEL, SP, general_tha(0.1))

    def test_rate_positive_just_inside(self):
        reach = max_distance(CHANNEL, SP, no_attack())
        assert rate_at(CHANNEL, SP, no_attack(), reach - 0.2) > 0.0
        assert rate_at(CHANNEL, SP, no_attack(), reach + 0.2) == 0.0


class TestVerifyConvexity:
    def test_degenerate_pair(self):
        assert verify_convexity(CHANNEL, SP, "general", 0.0, 0.01, 0.01)

    def test_pair_straddling_the_cutoff(self):
        # midpoint 1e-2 yields zero at 50 km while the average of the
        # endpoint rates is positive, so convexity holds with margin
        assert verify_convexity(CHANNEL, SP, "general", 50.0, 0.0, 2e-2)
        assert rate_at(CHANNEL, SP, general_tha(1e-2), 50.0) == 0.0

    def test_no_attack_kind_only_at_zero(self):
        assert verify_convexity(CHANNEL, SP, "none", 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            verify_convexity(CHANNEL, SP, "none", 0.0, 0.0, 0.1)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            verify_convexity(CHANNEL, SP, "general", 0.0, -0.1, 0.1)

    @pytest.mark.parametrize("kind, mu1, mu2, message", [
        ("general", -0.1, 0.1, "mu_out must be >= 0"),
        ("passive", 0.1, math.nan, "mu_out must be finite"),
        ("none", 0.0, 0.1, "kind 'none' requires mu_out = 0"),
        ("siphon", 0.1, 0.1, "unknown attack kind 'siphon'"),
    ])
    def test_attack_rules_come_from_the_record(self, kind, mu1, mu2, message):
        with pytest.raises(ValueError, match=message):
            verify_convexity(CHANNEL, SP, kind, 0.0, mu1, mu2)

    @settings(max_examples=60)
    @given(st.floats(min_value=0.0, max_value=0.6),
           st.floats(min_value=0.0, max_value=0.6),
           st.sampled_from([0.0, 25.0, 75.0]),
           st.sampled_from(["general", "passive", "usd"]))
    def test_holds_on_random_pairs(self, mu1, mu2, length, kind):
        assert verify_convexity(CHANNEL, SP, kind, length, mu1, mu2)
        assert verify_convexity(CHANNEL, DECOY, kind, length, mu1, mu2)


class TestMonotonicity:
    @settings(max_examples=60)
    @given(st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.0, max_value=0.5),
           st.sampled_from(["general", "passive", "usd"]))
    def test_rate_nonincreasing_in_leakage(self, a, b, kind):
        lo, hi = sorted((a, b))
        r_lo = rate_at(CHANNEL, SP, AttackModel(kind, lo), 30.0)
        r_hi = rate_at(CHANNEL, SP, AttackModel(kind, hi), 30.0)
        assert r_hi <= r_lo + 1e-12

    @settings(max_examples=60)
    @given(st.floats(min_value=0.0, max_value=250.0),
           st.floats(min_value=0.0, max_value=250.0))
    def test_rate_nonincreasing_in_distance(self, a, b):
        lo, hi = sorted((a, b))
        assert (rate_at(CHANNEL, SP, no_attack(), hi)
                <= rate_at(CHANNEL, SP, no_attack(), lo) + 1e-12)
