import math

import pytest
from hypothesis import given, strategies as st

from thabound.channel import (
    ChannelParams,
    SourceModel,
    decoy_link,
    single_photon_link,
    transmittance,
)

# module-level copy for @given tests (function-scoped fixtures and
# hypothesis don't mix)
CHANNEL = ChannelParams(0.2, 0.125, 0.01, 1e-5, 1.2)


class TestChannelParams:
    def test_rejects_negative_loss(self):
        with pytest.raises(ValueError):
            ChannelParams(-0.1, 0.1, 0.01, 1e-5, 1.2)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            ChannelParams(0.2, 1.5, 0.01, 1e-5, 1.2)
        with pytest.raises(ValueError):
            ChannelParams(0.2, 0.1, -0.2, 1e-5, 1.2)

    def test_rejects_sub_shannon_error_correction(self):
        with pytest.raises(ValueError):
            ChannelParams(0.2, 0.1, 0.01, 1e-5, 0.9)

    def test_boundary_spill_accepted_unchanged(self):
        spilled = ChannelParams(0.2, 1.0 + 1e-13, 0.01, -1e-13, 1.2)
        assert spilled.eta_det == 1.0 + 1e-13
        assert spilled.p_dark == -1e-13


class TestRecordsAreValidatedTuples:
    def test_equal_to_plain_tuple_of_fields(self):
        assert CHANNEL == (0.2, 0.125, 0.01, 1e-5, 1.2)
        assert tuple(SourceModel("decoy", 0.5)) == ("decoy", 0.5)

    def test_keywords_and_defaults(self):
        assert ChannelParams(f_ec=1.2, p_dark=1e-5, e_opt=0.01, eta_det=0.125,
                             alpha_db_per_km=0.2) == CHANNEL
        assert SourceModel("single_photon").s is None

    def test_immutable(self):
        with pytest.raises(AttributeError):
            CHANNEL.eta_det = 0.5
        with pytest.raises(AttributeError):
            CHANNEL.extra = 1.0

    def test_replace_and_make_validate(self):
        with pytest.raises(ValueError, match="f_ec"):
            CHANNEL._replace(f_ec=0.5)
        with pytest.raises(ValueError, match="unknown source kind"):
            SourceModel._make(("entangled", None))


class TestSourceModel:
    def test_single_photon_takes_no_intensity(self):
        with pytest.raises(ValueError):
            SourceModel("single_photon", 0.5)

    def test_decoy_needs_positive_intensity(self):
        with pytest.raises(ValueError):
            SourceModel("decoy")
        with pytest.raises(ValueError):
            SourceModel("decoy", 0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SourceModel("entangled")


class TestTransmittance:
    def test_zero_length_is_detector_efficiency(self, channel):
        assert transmittance(channel, 0.0) == channel.eta_det

    def test_fifty_km_is_ten_db(self, channel):
        assert transmittance(channel, 50.0) == pytest.approx(
            channel.eta_det * 0.1, rel=1e-12)

    def test_negative_length_raises(self, channel):
        with pytest.raises(ValueError):
            transmittance(channel, -1.0)

    @given(st.floats(min_value=0.0, max_value=500.0),
           st.floats(min_value=0.0, max_value=500.0))
    def test_monotone_in_length(self, a, b):
        lo, hi = sorted((a, b))
        assert transmittance(CHANNEL, hi) <= transmittance(CHANNEL, lo)


class TestSinglePhotonLink:
    def test_frozen_values_at_zero(self, channel):
        obs = single_photon_link(channel, 0.0)
        # independently computed at 40-digit precision
        assert obs.y1 == pytest.approx(0.12500875, rel=1e-12)
        assert obs.e1 == pytest.approx(0.0100342975992, rel=1e-11)

    def test_frozen_values_at_hundred_km(self, channel):
        obs = single_photon_link(channel, 100.0)
        assert obs.y1 == pytest.approx(0.0012599875, rel=1e-12)
        assert obs.e1 == pytest.approx(0.0138840663102, rel=1e-11)

    def test_gain_equals_yield(self, channel):
        obs = single_photon_link(channel, 42.0)
        assert obs.q_x == obs.y1 == obs.q1
        assert obs.e_x == obs.e1

    def test_dead_channel_convention(self):
        dead = ChannelParams(0.2, 0.0, 0.01, 0.0, 1.2)
        obs = single_photon_link(dead, 10.0)
        assert obs.q_x == obs.y1 == obs.q1 == 0.0
        assert obs.e_x == obs.e1 == 0.5

    @given(st.floats(min_value=0.0, max_value=400.0))
    def test_error_rate_bounded(self, length):
        obs = single_photon_link(CHANNEL, length)
        assert 0.0 <= obs.e1 <= 0.5

    @given(st.floats(min_value=0.0, max_value=400.0))
    def test_yield_never_below_dark_count_floor(self, length):
        obs = single_photon_link(CHANNEL, length)
        assert obs.y1 >= CHANNEL.p_dark * (1.0 - transmittance(CHANNEL, length))


class TestDecoyLink:
    def test_frozen_values_at_zero(self, channel):
        obs = decoy_link(channel, 0.0, 0.5)
        assert obs.q_x == pytest.approx(0.0605963313172, rel=1e-11)
        assert obs.e_x == pytest.approx(0.0100759637408, rel=1e-11)

    def test_frozen_values_at_hundred_km(self, channel):
        obs = decoy_link(channel, 100.0, 0.5)
        assert obs.q_x == pytest.approx(0.000634798480136, rel=1e-11)
        assert obs.e_x == pytest.approx(0.0177141622264, rel=1e-11)
        assert obs.q1 == pytest.approx(0.000382110524802, rel=1e-11)

    def test_single_photon_statistics_carried_over(self, channel):
        sp = single_photon_link(channel, 60.0)
        dc = decoy_link(channel, 60.0, 0.5)
        assert dc.y1 == sp.y1
        assert dc.e1 == sp.e1

    def test_estimated_gain_is_poisson_weighted_yield(self, channel):
        s = 0.7
        dc = decoy_link(channel, 30.0, s)
        assert dc.q1 == pytest.approx(s * math.exp(-s) * dc.y1, rel=1e-15)

    def test_intensity_must_be_positive(self, channel):
        with pytest.raises(ValueError):
            decoy_link(channel, 0.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=400.0),
           st.floats(min_value=1e-3, max_value=2.0))
    def test_gain_exceeds_single_photon_share(self, length, s):
        obs = decoy_link(CHANNEL, length, s)
        assert obs.q_x >= obs.q1 - 1e-15
        assert 0.0 <= obs.e_x <= 0.5
