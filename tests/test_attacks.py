import math
import random

import pytest
from hypothesis import given, strategies as st

from thabound.attacks import (
    AttackModel,
    coin_imbalance,
    effective_imbalance,
    no_attack,
    phase_error_general,
    phase_error_passive,
    usd_conclusive_fraction,
)


class TestAttackModel:
    def test_unknown_kind_lists_the_kinds(self):
        with pytest.raises(ValueError) as info:
            AttackModel("quantum", 0.0)
        assert str(info.value) == ("unknown attack kind 'quantum'; choose from "
                                   "none, general, passive, usd")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AttackModel("siphon", 0.1)

    def test_negative_leakage_rejected(self):
        with pytest.raises(ValueError):
            AttackModel("general", -1e-9)

    def test_no_attack_pins_leakage_to_zero(self):
        with pytest.raises(ValueError):
            AttackModel("none", 0.1)
        assert no_attack().mu_out == 0.0


def joint_state_imbalance(mu, n_max=60):
    """Oracle for coin_imbalance: Delta = (1 - F) / 2 from the emitted states.

    The quantum coin covers every system the source emits, so F is the
    fidelity of the basis-averaged joint states: Bob's single-photon qubit,
    (|1,0> + e^{i phi} |0,1>) / sqrt(2), times Eve's back-reflected mode
    |e^{i phi} sqrt(mu)>.  Both take the same phase, so the state at phi
    is e^{i phi N} applied to the phi = 0 state, N = n_arm + n_Eve.  The
    two phases of a basis differ by pi, so each basis state splits into an
    even-N and an odd-N pure block, and the X basis is the Z basis turned
    by e^{i pi N / 2}.  Hence F = |sum_even P(N) i^N| + |sum_odd P(N) i^N|,
    with n_arm in {0, 1} at 1/2 each and n_Eve Poisson(mu), summed here
    term by term up to n_max.  This equals exp(-mu) cos(mu) below pi/4.

    Eve's mode alone gives F = exp(-mu) (cos mu + sin mu) and Delta of
    about mu^2 / 2.  That leaves out the qubit, which carries the basis
    choice itself, and is not the imbalance the phase-error bound needs.
    """
    phases = (1, 1j, -1, -1j)
    poisson = [math.exp(-mu)]
    for n in range(1, n_max):
        poisson.append(poisson[-1] * mu / n)
    sectors = [0j, 0j]
    for n_eve, p_eve in enumerate(poisson):
        for n_arm in (0, 1):
            total = n_arm + n_eve
            sectors[total % 2] += 0.5 * p_eve * phases[total % 4]
    return 0.5 * (1.0 - abs(sectors[0]) - abs(sectors[1]))


class TestCoinImbalance:
    def test_zero_leakage_exactly_zero(self):
        assert coin_imbalance(0.0) == 0.0

    def test_frozen_values(self):
        # independently computed at 40-digit precision
        assert coin_imbalance(0.015) == pytest.approx(0.00749944170609, rel=1e-11)
        assert coin_imbalance(0.01) == pytest.approx(0.004999834165, rel=1e-10)

    def test_small_leakage_no_cancellation(self):
        # naive 0.5*(1 - exp(-mu)*cos(mu)) loses ~10 digits here; the
        # stable form keeps the value at mu/2 to full precision
        assert coin_imbalance(1e-6) == pytest.approx(4.9999999999983333e-7,
                                                     rel=1e-12)
        assert coin_imbalance(1e-8) == pytest.approx(5e-9, rel=1e-12)

    def test_monotone_at_small_leakage(self):
        grid = [i * 0.01 for i in range(201)]
        values = [coin_imbalance(mu) for mu in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @given(st.floats(min_value=0.0, max_value=50.0))
    def test_bounded(self, mu):
        assert 0.0 <= coin_imbalance(mu) <= 1.0

    def test_matches_joint_state_fidelity(self):
        grid = [1e-6 * (0.7 / 1e-6) ** (k / 60) for k in range(61)]
        for mu in grid:
            assert abs(coin_imbalance(mu) - joint_state_imbalance(mu)) <= 1e-14


class TestEffectiveImbalance:
    def test_renormalizes_by_yield(self):
        assert effective_imbalance(0.01, 0.5) == pytest.approx(0.02, rel=1e-15)

    def test_vacuous_when_half_or_more(self):
        assert effective_imbalance(0.3, 0.5) is None
        assert effective_imbalance(0.25, 0.5) is None  # boundary is vacuous
        assert effective_imbalance(0.2, 0.5) == pytest.approx(0.4, rel=1e-15)

    def test_zero_passes_through(self):
        assert effective_imbalance(0.0, 0.125) == 0.0


class TestPhaseErrorGeneral:
    def test_frozen_values(self):
        assert phase_error_general(0.0, 0.01) == pytest.approx(0.0396, rel=1e-12)
        assert phase_error_general(0.01, 0.001388) == pytest.approx(
            0.0302096308528, rel=1e-11)

    def test_zero_imbalance_returns_error_exactly(self):
        for e in (0.0, 0.01, 0.11, 0.3):
            assert phase_error_general(e, 0.0) == e

    def test_clamped_at_half(self):
        assert phase_error_general(0.3, 0.4) == 0.5

    @given(st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.0, max_value=0.49))
    def test_never_below_bare_error(self, e, d):
        inflated = phase_error_general(e, d)
        assert inflated is not None
        assert e - 1e-12 <= inflated <= 0.5

    def test_matches_angle_form(self):
        """Oracle: the Bloch-sphere angle form of the same bound.

        e' = sin^2(arcsin sqrt(e) + 2 arcsin sqrt(d)), or 1/2 once the
        angle reaches pi/4.  Both forms take a few correctly rounded
        operations, so 16 ulps of the larger value bound their gap.
        """
        rng = random.Random(7)
        points = [(rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5))
                  for _ in range(10_000)]
        points += [(math.exp(rng.uniform(math.log(1e-6), math.log(0.5))),
                    math.exp(rng.uniform(math.log(1e-12), math.log(0.5))))
                   for _ in range(10_000)]
        for e, d in points:
            angle = math.asin(math.sqrt(e)) + 2.0 * math.asin(math.sqrt(d))
            expected = 0.5 if angle >= math.pi / 4 else math.sin(angle) ** 2
            got = phase_error_general(e, d)
            assert abs(got - expected) <= 16 * math.ulp(max(got, expected)), (e, d)

    def test_monotone_in_imbalance_for_small_error(self):
        e = 0.01
        grid = [i * 0.001 for i in range(200)]
        values = [phase_error_general(e, d) for d in grid]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestPhaseErrorPassive:
    def test_zero_leakage_is_identity(self):
        for e in (0.0, 0.0100342975992, 0.25):
            assert phase_error_passive(e, 0.0) == e

    def test_frozen_values(self):
        assert phase_error_passive(0.0, 0.01) == pytest.approx(
            0.00990066334662, rel=1e-11)
        assert phase_error_passive(0.010029, 0.01) == pytest.approx(
            0.0197310758412, rel=1e-11)

    def test_saturates_at_half(self):
        assert phase_error_passive(0.01, 1e3) == pytest.approx(0.5, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.0, max_value=10.0))
    def test_bounded_between_error_and_half(self, e, mu):
        out = phase_error_passive(e, mu)
        assert e - 1e-12 <= out <= 0.5 + 1e-12

    def test_closed_form(self):
        e, mu = 0.02, 0.3
        expected = 0.5 * (1.0 - (1.0 - 2.0 * e) * math.exp(-2.0 * mu))
        assert phase_error_passive(e, mu) == pytest.approx(expected, rel=1e-14)


class TestUsdConclusiveFraction:
    def test_zero_leakage_exactly_zero(self):
        assert usd_conclusive_fraction(0.0, 0.125) == 0.0

    def test_frozen_value(self):
        assert usd_conclusive_fraction(0.01, 0.1) == pytest.approx(
            0.198013266932, rel=1e-11)

    def test_vacuous_when_everything_conclusive(self):
        # raw fraction 1.729 exceeds 1: the bound says Eve could
        # unambiguously read every detected pulse
        assert usd_conclusive_fraction(1.0, 0.5) is None

    def test_vacuous_at_exactly_one(self):
        # The yield equals 1 - exp(-2 mu), so delta is exactly 1.
        mu = 0.3
        assert usd_conclusive_fraction(mu, -math.expm1(-2.0 * mu)) is None

    def test_matches_coherent_state_overlap(self):
        """Oracle: 1 - |<sqrt(mu)|-sqrt(mu)>|, the Ivanovic-Dieks-Peres bound.

        The overlap is summed in the Fock basis, exp(-mu) sum (-mu)^n / n!
        over 80 terms.  Its terms are at most 1 and it is subtracted from
        1, so 16 ulps of 1 bound the absolute gap.
        """
        rng = random.Random(11)
        for _ in range(2_000):
            mu = rng.uniform(1e-6, 1.0)
            overlap = math.exp(-mu) * math.fsum(
                (-mu) ** n / math.factorial(n) for n in range(80))
            assert abs(usd_conclusive_fraction(mu, 1.0) - (1.0 - overlap)) <= (
                16 * math.ulp(1.0)), mu

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=1e-6, max_value=1.0))
    def test_in_unit_interval_or_vacuous(self, mu, y):
        out = usd_conclusive_fraction(mu, y)
        assert out is None or 0.0 <= out < 1.0
