import math
import random

import pytest
from hypothesis import given, strategies as st

from thabound import budget as budget_mod
from thabound.attacks import AttackModel
from thabound.budget import (
    ComponentCatalog,
    IsolationBudget,
    LidtSpec,
    conservative_preset,
    fiber_fuse_preset,
    isolation_total,
    lidt_scale_pulse_width,
    lidt_scale_wavelength,
    mu_out_bound,
    photon_flux_from_power,
    plan_budget,
    required_isolation,
)
from thabound.channel import decoy_state, single_photon
from thabound.cli import PRESET_CHANNEL, PRESETS
from thabound.keyrate import mu_out_threshold, rates_at


class TestLidtSpecs:
    def test_conservative_preset(self):
        spec = conservative_preset()
        assert spec.photon_flux == 4.3e23
        assert spec.pulse_width_ref_s == 1e-4
        assert spec.wavelength_ref_m == 1.55e-6

    def test_fiber_fuse_preset(self):
        spec = fiber_fuse_preset()
        assert spec.photon_flux == 1e20
        assert spec.pulse_width_ref_s == 1.0

    def test_bend_edge_headroom_is_ten_percent(self):
        assert conservative_preset(True).photon_flux == pytest.approx(
            4.73e23, rel=1e-15)
        assert fiber_fuse_preset(True).photon_flux == pytest.approx(
            1.1e20, rel=1e-15)

    def test_fields_must_be_positive(self):
        with pytest.raises(ValueError):
            LidtSpec(0.0, 1.0, 1.55e-6)
        with pytest.raises(ValueError):
            LidtSpec(1e20, -1.0, 1.55e-6)


class TestLidtScaling:
    def test_pulse_width_noop(self):
        spec = conservative_preset()
        assert lidt_scale_pulse_width(spec, 1e-4).photon_flux == spec.photon_flux

    def test_pulse_width_square_root_law(self):
        spec = lidt_scale_pulse_width(conservative_preset(), 1e-8)
        # sqrt(1e-8 / 1e-4) = 1e-2
        assert spec.photon_flux == pytest.approx(4.3e21, rel=1e-12)
        assert spec.pulse_width_ref_s == 1e-8

    def test_wavelength_square_root_law(self):
        spec = lidt_scale_wavelength(fiber_fuse_preset(), 1.85e-6)
        # independently computed factor sqrt(1850/1550) = 1.09249640141
        assert spec.photon_flux == pytest.approx(1.09249640141e20, rel=1e-11)
        assert spec.wavelength_ref_m == 1.85e-6

    def test_half_wavelength_factor(self):
        spec = lidt_scale_wavelength(fiber_fuse_preset(), 0.775e-6)
        assert spec.photon_flux == pytest.approx(0.707106781187e20, rel=1e-11)

    def test_scalings_commute(self):
        spec = conservative_preset()
        a = lidt_scale_wavelength(lidt_scale_pulse_width(spec, 1e-6), 1.3e-6)
        b = lidt_scale_pulse_width(lidt_scale_wavelength(spec, 1.3e-6), 1e-6)
        assert a.photon_flux == pytest.approx(b.photon_flux, rel=1e-14)

    def test_invalid_targets_raise(self):
        with pytest.raises(ValueError):
            lidt_scale_pulse_width(conservative_preset(), 0.0)
        with pytest.raises(ValueError):
            lidt_scale_wavelength(conservative_preset(), -1.0)

    @given(st.floats(min_value=1e-12, max_value=10.0))
    def test_round_trip(self, tau):
        spec = lidt_scale_pulse_width(conservative_preset(), tau)
        back = lidt_scale_pulse_width(spec, 1e-4)
        assert back.photon_flux == pytest.approx(4.3e23, rel=1e-12)


class TestPhotonFlux:
    # targets computed independently from exact SI constants
    def test_frozen_conversions(self):
        assert photon_flux_from_power(5.5e4, 1.55e-6) == pytest.approx(
            4.29158437383e23, rel=1e-11)
        assert photon_flux_from_power(2.0, 1550e-9) == pytest.approx(
            1.56057613594e19, rel=1e-11)
        assert photon_flux_from_power(12.8, 1550e-9) == pytest.approx(
            9.98768727e19, rel=1e-9)

    @pytest.mark.parametrize("power, wavelength", [(1e-300, 1e-30),
                                                   (1e-30, 1e-300),
                                                   (1e300, 1e-300),
                                                   (1e-300, 1e300)])
    def test_extreme_finite_inputs(self, power, wavelength):
        # N = P lambda / (h c) fits in a float although P lambda or
        # P / (h c) does not.
        expected = math.exp(math.log(power) + math.log(wavelength)
                            - math.log(budget_mod.PLANCK_H_JS
                                       * budget_mod.SPEED_OF_LIGHT_M_S))
        assert photon_flux_from_power(power, wavelength) == pytest.approx(
            expected, rel=1e-9)

    def test_linear_in_power(self):
        one = photon_flux_from_power(1.0, 1550e-9)
        assert photon_flux_from_power(7.0, 1550e-9) == pytest.approx(
            7.0 * one, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            photon_flux_from_power(0.0, 1550e-9)
        with pytest.raises(ValueError):
            photon_flux_from_power(1.0, 0.0)


class TestIsolationBudget:
    def test_total_combines_double_pass_and_count(self):
        budget = IsolationBudget(filter_db=-3.0, isolator_db=-50.0,
                                 isolator_count=2, attenuator_db=-10.0,
                                 reflectivity_db=-40.0)
        # 2*(-3) + 2*(-50) + 2*(-10) + (-40)
        assert isolation_total(budget) == -166.0

    def test_empty_budget_is_zero(self):
        assert isolation_total(IsolationBudget()) == 0.0

    def test_positive_values_rejected(self):
        with pytest.raises(ValueError):
            IsolationBudget(filter_db=1.0)
        with pytest.raises(ValueError):
            IsolationBudget(isolator_count=-1)

    @pytest.mark.parametrize("count", [-1, 2.5, math.nan, math.inf])
    def test_isolator_count_must_be_a_nonnegative_integer(self, count):
        with pytest.raises(ValueError,
                           match="isolator_count must be a nonnegative integer"):
            IsolationBudget(isolator_count=count)

    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    @pytest.mark.parametrize("field", ["filter_db", "isolator_db",
                                       "attenuator_db", "reflectivity_db"])
    def test_nan_and_minus_inf_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite and <= 0 dB"):
            IsolationBudget(**{field: value})


class TestLeakageArithmetic:
    def test_leakage_bound_round_trip(self):
        assert mu_out_bound(1e20, 1e9, -170.0) == pytest.approx(1e-6, rel=1e-9)

    def test_required_isolation_worked_example(self):
        assert required_isolation(1e-6, 1e20, 1e9) == pytest.approx(
            -170.0, abs=1e-9)

    def test_required_isolation_slow_clock(self):
        assert required_isolation(1e-6, 1e20, 1e3) == pytest.approx(
            -230.0, abs=1e-9)

    def test_required_isolation_trivial(self):
        assert required_isolation(1.0, 1e9, 1e9) == pytest.approx(0.0, abs=1e-12)

    def test_required_isolation_ratio_outside_float_range(self):
        # N / f_A is 0 or inf as a float; the target is still exact.
        assert required_isolation(1e300, 1e-300, 1e300) == 9000.0
        assert required_isolation(1e-300, 1e300, 1e-300) == -9000.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            required_isolation(0.0, 1e20, 1e9)
        with pytest.raises(ValueError):
            mu_out_bound(1e20, 0.0, -170.0)

    def test_leakage_bound_ratio_outside_float_range(self):
        # N / f_A underflows to 0 as a float; the bound is still exact.
        assert mu_out_bound(1e-300, 1e300, 6000.0) == 1.0

    @given(st.floats(min_value=-300.0, max_value=0.0))
    def test_bound_and_requirement_are_inverse(self, gamma):
        mu = mu_out_bound(1e20, 1e9, gamma)
        assert required_isolation(mu, 1e20, 1e9) == pytest.approx(gamma,
                                                                  abs=1e-9)


# the six published component combinations the planner must reproduce:
# (clock label, gamma target, isolator count, isolator dB, attenuator dB,
#  reflectivity dB, attenuator allowed)
REFERENCE_ROWS = [
    ("1GHz", -170.0, 1, -60.0, -35.0, -40.0, True),
    ("1GHz-no-att", -170.0, 2, -60.0, 0.0, -50.0, False),
    ("1MHz", -200.0, 2, -50.0, -30.0, -40.0, True),
    ("1MHz-no-att", -200.0, 3, -50.0, 0.0, -50.0, False),
    ("1kHz", -230.0, 2, -60.0, -35.0, -40.0, True),
    ("1kHz-no-att", -230.0, 3, -60.0, 0.0, -50.0, False),
]


class TestPlanBudget:
    @pytest.mark.parametrize("label,gamma,n,iso,att,refl,allow", REFERENCE_ROWS)
    def test_reference_rows_meet_target_exactly(self, label, gamma, n, iso,
                                                att, refl, allow):
        row = IsolationBudget(filter_db=0.0, isolator_db=iso, isolator_count=n,
                              attenuator_db=att, reflectivity_db=refl)
        assert isolation_total(row) == gamma

    @pytest.mark.parametrize("label,gamma,n,iso,att,refl,allow", REFERENCE_ROWS)
    def test_reference_rows_found_by_planner(self, label, gamma, n, iso, att,
                                             refl, allow):
        budgets = plan_budget(gamma, allow_attenuator=allow)
        row = IsolationBudget(filter_db=0.0, isolator_db=iso, isolator_count=n,
                              attenuator_db=att, reflectivity_db=refl)
        assert row in budgets

    def test_all_results_feasible(self):
        for budgets, gamma in ((plan_budget(-170.0), -170.0),
                               (plan_budget(-230.0, allow_attenuator=False),
                                -230.0)):
            assert budgets
            assert all(isolation_total(b) <= gamma for b in budgets)

    def test_sorted_fewest_isolators_first(self):
        budgets = plan_budget(-170.0)
        counts = [b.isolator_count for b in budgets]
        assert counts == sorted(counts)
        assert budgets[0] == IsolationBudget(filter_db=0.0, isolator_db=-60.0,
                                             isolator_count=1,
                                             attenuator_db=-30.0,
                                             reflectivity_db=-50.0)

    def test_nonnegative_target_admits_empty_budget(self):
        budgets = plan_budget(0.0)
        assert budgets[0] == IsolationBudget()

    def test_infeasible_target_returns_empty(self):
        assert plan_budget(-500.0) == []
        assert plan_budget(-360.0, allow_attenuator=False) == []

    def test_no_attenuator_excludes_attenuators(self):
        budgets = plan_budget(-170.0, allow_attenuator=False)
        assert budgets
        assert all(b.attenuator_db == 0.0 for b in budgets)

    def test_custom_catalog(self):
        catalog = ComponentCatalog(isolator_db_values=(-30.0,),
                                   reflectivity_db_values=(-60.0,),
                                   filter_db_values=(-20.0,))
        budgets = plan_budget(-130.0, catalog=catalog, allow_attenuator=False)
        # 2*(-20) + n*(-30) + (-60) <= -130 needs n >= 1
        assert budgets
        assert all(b.isolator_db in (-30.0, 0.0) for b in budgets)
        best = budgets[0]
        assert best.isolator_count == 1 and best.filter_db == -20.0

    @pytest.mark.parametrize("allow", [True, False])
    @pytest.mark.parametrize("gamma", [0.0, -120.0, -170.0, -230.0])
    def test_catalog_order_and_repeats_change_nothing(self, gamma, allow):
        plain = ComponentCatalog(isolator_db_values=(-50.0, -60.0),
                                 reflectivity_db_values=(-40.0, -50.0),
                                 filter_db_values=(0.0, -10.0))
        shuffled = ComponentCatalog(
            isolator_db_values=(-60.0, -50.0, -60.0),
            reflectivity_db_values=(-50.0, -40.0, -50.0, -40.0),
            filter_db_values=(-10.0, 0.0, -10.0, 0.0))
        budgets = plan_budget(gamma, plain, allow_attenuator=allow)
        assert budgets
        assert plan_budget(gamma, shuffled, allow_attenuator=allow) == budgets

    @pytest.mark.parametrize("gamma", [0.0, -120.0, -170.0, -230.0, -360.0])
    def test_no_attenuator_is_a_zero_depth_ladder(self, gamma):
        assert plan_budget(gamma, allow_attenuator=False) == plan_budget(
            gamma, max_attenuator_db=0.0)

    def test_builds_a_record_only_for_each_returned_plan(self, monkeypatch):
        built = []
        check = IsolationBudget.__post_init__
        monkeypatch.setattr(IsolationBudget, "__post_init__",
                            lambda self: built.append(check(self)))
        budgets = plan_budget(-170.0)
        assert len(built) == len(budgets) == 126

    def test_candidate_cap_is_inclusive(self, monkeypatch):
        # The stock catalog and the default ladder give 177 candidates.
        monkeypatch.setattr(budget_mod, "MAX_BUDGET_CANDIDATES", 177)
        assert plan_budget(-170.0)
        monkeypatch.setattr(budget_mod, "MAX_BUDGET_CANDIDATES", 176)
        with pytest.raises(ValueError, match="MAX_BUDGET_CANDIDATES = 176"):
            plan_budget(-170.0)

    def test_repeated_values_count_once_toward_the_cap(self, monkeypatch):
        monkeypatch.setattr(budget_mod, "MAX_BUDGET_CANDIDATES", 177)
        repeated = ComponentCatalog((-50.0, -60.0) * 50, (-40.0, -50.0) * 50,
                                    (0.0,) * 50)
        assert plan_budget(-170.0, repeated) == plan_budget(-170.0)

    def test_deep_attenuator_ladder_rejected_before_enumerating(self,
                                                               monkeypatch):
        # 2,001 attenuator settings give 44,023 candidates.
        monkeypatch.setattr(budget_mod, "isolation_total", None)
        with pytest.raises(ValueError, match="MAX_BUDGET_CANDIDATES"):
            plan_budget(-170.0, max_attenuator_db=-1e4)

    def test_positive_attenuator_limit_rejected(self):
        with pytest.raises(ValueError):
            plan_budget(-100.0, max_attenuator_db=5.0)

    def test_catalog_validation(self):
        with pytest.raises(ValueError):
            ComponentCatalog(isolator_db_values=())
        with pytest.raises(ValueError):
            ComponentCatalog(isolator_db_values=(10.0,))

    def test_deterministic(self):
        assert plan_budget(-200.0) == plan_budget(-200.0)

    @given(st.floats(min_value=-420.0, max_value=0.0))
    def test_feasibility_is_exact(self, gamma):
        for entry in plan_budget(gamma):
            assert isolation_total(entry) <= gamma


def _set_and_sort_plans(gamma_target_db, catalog, max_attenuator_db,
                        allow_attenuator):
    """plan_budget as a set of every raw candidate, filtered, then sorted.

    An independent statement of the order: the candidates are collected in
    catalog order, repeats fall out in the set (the first one added stays),
    and a five-part key sorts the feasible ones.
    """
    depth = max_attenuator_db if allow_attenuator else 0.0
    steps = int(math.floor(abs(depth) / budget_mod.ATTENUATOR_STEP_DB + 1e-9))
    attenuators = [0.0] + [-budget_mod.ATTENUATOR_STEP_DB * k
                           for k in range(1, steps + 1)]
    candidates = {(0.0, 0.0, 0, 0.0, 0.0)}
    for count in range(budget_mod.MAX_ISOLATORS + 1):
        for isolator in ([0.0] if count == 0 else catalog.isolator_db_values):
            for reflectivity in catalog.reflectivity_db_values:
                for filter_db in catalog.filter_db_values:
                    for attenuator in attenuators:
                        candidates.add((filter_db, isolator, count, attenuator,
                                        reflectivity))
    return sorted((IsolationBudget(*c) for c in candidates
                   if isolation_total(c) <= gamma_target_db),
                  key=lambda b: (b.isolator_count, abs(b.attenuator_db),
                                 abs(b.isolator_db), abs(b.reflectivity_db),
                                 abs(b.filter_db)))


# Repeats, both zeros, an int beside its float and a fractional value.
CATALOG_POOL = (0.0, -0.0, 0, -3.5, -5, -5.0, -10.0, -40.0, -50.0, -60.0)


def _seeded_catalogs(seed, count):
    """(target, catalog) draws, after four targets on a catalog whose
    reflectivity and filter both hold each zero."""
    rng = random.Random(seed)
    zeros = ComponentCatalog((-0.0, -50.0), (-0.0, 0, -40.0), (0, -0.0, 0.0))
    return [(gamma, zeros) for gamma in (10.0, 0.0, -0.0, -170.0)] + [
        (rng.uniform(-450.0, 10.0),
         ComponentCatalog(*(tuple(rng.choice(CATALOG_POOL)
                                  for _ in range(rng.randint(1, 3)))
                            for _ in range(3))))
        for _ in range(count)]


class TestPlanOrder:
    """plan_budget equals the set-and-sort statement, field repr included."""

    @pytest.mark.parametrize("allow", [True, False])
    @pytest.mark.parametrize("depth", [0.0, -12.0, -35.0, -50.0])
    def test_matches_set_and_sort(self, depth, allow):
        for gamma, catalog in _seeded_catalogs(int(-depth) + allow, 100):
            expected = _set_and_sort_plans(gamma, catalog, depth, allow)
            found = plan_budget(gamma, catalog, depth, allow)
            assert found == expected, (gamma, catalog)
            assert [repr(b) for b in found] == [repr(b) for b in expected]

    def test_repeated_value_is_hashed_once_per_occurrence(self):
        # 100,000 copies of one isolator give the single-value plans.  The
        # pre-count sees 97 candidates; a float that counts its hashes
        # shows that the copies are read once, to dedupe them, and that no
        # candidate is hashed at all.
        hashes = []

        class CountingFloat(float):
            def __hash__(self):
                hashes.append(None)
                return float.__hash__(self)

        copies = (CountingFloat(-50.0),) * 100_000
        single = plan_budget(-150.0, ComponentCatalog(isolator_db_values=(-50.0,)))
        found = plan_budget(-150.0, ComponentCatalog(isolator_db_values=copies))
        assert found == single and len(found) == 68
        assert len(hashes) == len(copies)


def _seeded_flux_and_clock(seed, count):
    """(N, f_A) pairs: the three clocks of the reference rows at N = 1e20,
    then log-uniform draws over N in [1e10, 1e25], f_A in [1e6, 1e10]."""
    rng = random.Random(seed)
    return [(1e20, 1e9), (1e20, 1e6), (1e20, 1e3)] + [
        (10.0 ** rng.uniform(10.0, 25.0), 10.0 ** rng.uniform(6.0, 10.0))
        for _ in range(count)]


class TestSpecToKey:
    """The paper's chain: threshold, isolation target, plans, leakage, key."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_plan_leaks_a_mu_out_with_key(self, preset):
        _, s, kind, _ = PRESETS[preset]
        source = single_photon() if s is None else decoy_state(s)
        threshold = mu_out_threshold(PRESET_CHANNEL, source, kind)
        checked = 0
        for n_photons, f_a_hz in _seeded_flux_and_clock(32, 6):
            target = required_isolation(threshold, n_photons, f_a_hz)
            leakages = [mu_out_bound(n_photons, f_a_hz, isolation_total(plan))
                        for plan in plan_budget(target)]
            rates = rates_at(PRESET_CHANNEL, source,
                             [AttackModel(kind, mu) for mu in leakages], 0.0)
            assert all(rate > 0.0 for rate in rates), (n_photons, f_a_hz)
            checked += len(rates)
        assert checked > 0


NON_FINITE_CALLS = {
    "LidtSpec": lambda v: LidtSpec(v, 1.0, 1.55e-6),
    "lidt_scale_pulse_width": lambda v: lidt_scale_pulse_width(conservative_preset(), v),
    "lidt_scale_wavelength": lambda v: lidt_scale_wavelength(conservative_preset(), v),
    "photon_flux_from_power": lambda v: photon_flux_from_power(v, 1550e-9),
    "required_isolation": lambda v: required_isolation(1e-6, v, 1e9),
    "mu_out_bound": lambda v: mu_out_bound(1e20, 1e9, v),
    "plan_budget target": lambda v: plan_budget(v),
    "plan_budget attenuator": lambda v: plan_budget(-170.0, max_attenuator_db=v),
    "ComponentCatalog": lambda v: ComponentCatalog(reflectivity_db_values=(v,)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_input_rejected(call, value):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_CALLS[call](value)
