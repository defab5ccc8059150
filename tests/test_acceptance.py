"""Acceptance gate: one test per acceptance criterion.

Each test computes the quantity the criterion names, prints a single
``criterion N: PASS/FAIL`` line with the measured value, and then asserts.

Criteria 1c and 1d ask that a weakly leaking general-attack curve stay
within 1% of the clean curve.  A point counts as within 1% when it is so
along the rate axis or along the distance axis (see ``curve_band``): a
rate ratio alone is undefined at the clean cutoff, where the clean rate
goes to zero and any leakage the bound counts moves the cutoff inward.
Under that band 1d (mu_out = 1e-8 over 0..200 km) passes, while 2e-8 and
5e-8 leave it.  1c (mu_out = 1e-6 over 0..100 km) fails: criteria 1b and 2
fix the scale of Delta' = Delta / Y1, and with it the 1e-6 curve leaves
the band at 19 km and is 8.04% below the clean one at 100 km.  The source
of the 1% target is not in PAPER.md, which holds only the abstract, so
1c keeps the target and reports the measured gap.
"""

import math
import random

from thabound.attacks import (
    AttackModel,
    coin_imbalance,
    effective_imbalance,
    no_attack,
    phase_error_general,
    phase_error_passive,
    usd_conclusive_fraction,
)
from thabound.budget import (
    IsolationBudget,
    conservative_preset,
    isolation_total,
    lidt_scale_wavelength,
    photon_flux_from_power,
    required_isolation,
)
from thabound.channel import decoy_state, single_photon
from thabound.characterize import ReflectionPeak, parse_trace, reflectivity_bound
from thabound.keyrate import (
    max_distance,
    mu_out_threshold,
    rate_at,
    verify_convexity,
)

from conftest import DATA_DIR, REFERENCE_CHANNEL as CHANNEL

SP = single_photon()
DECOY = decoy_state(0.5)

REL_CURVE_TOL = 0.01  # the 1% band in criteria 1c/1d
GRID_EPS = 1e-12


def report(tag, ok, detail):
    print(f"criterion {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def curve_band(channel, source, attack, lengths):
    """Compare the attacked rate curve with the clean one, length by length.

    A length L with R_clean(L) > 0 is within the band when the attacked
    rate is within REL_CURVE_TOL of the clean one along the rate axis,
    |1 - R_att(L)/R_clean(L)| <= tol, or along the distance axis,
    R_clean((1 + tol) L) <= R_att(L) <= R_clean(L): the clean curve reaches
    the attacked rate within 1% further out.  Returns the first length
    outside the band (None if there is none) and the worst rate-axis gap
    with its length.
    """
    first_out = None
    worst = 0.0
    worst_at = None
    baseline = no_attack()
    for length in lengths:
        clean = rate_at(channel, source, baseline, length)
        if clean <= 0.0:
            continue
        attacked = rate_at(channel, source, attack, length)
        gap = abs(1.0 - attacked / clean)
        if gap > worst:
            worst, worst_at = gap, length
        inside = gap <= REL_CURVE_TOL or (
            rate_at(channel, source, baseline, (1.0 + REL_CURVE_TOL) * length)
            <= attacked <= clean)
        if not inside and first_out is None:
            first_out = length
    return first_out, worst, worst_at


def band_detail(mu_out, lengths, first_out, worst, worst_at):
    where = "stays inside" if first_out is None else f"leaves at {first_out} km"
    return (f"mu_out={mu_out:g} against the {REL_CURVE_TOL:.0%} band over "
            f"{lengths.start}..{lengths.stop - 1} km: {where}; "
            f"{worst:.2%} at {worst_at} km (worst rate-axis gap)")


def test_criterion_1a_clean_single_photon_reach():
    reach = max_distance(CHANNEL, SP, no_attack())
    ok = abs(reach - 170.0) <= 10.0
    report("1a", ok, f"clean single-photon reach {reach:.1f} km vs 170 +/- 10")


def test_criterion_1b_reach_with_strong_leakage():
    reach = max_distance(CHANNEL, SP, AttackModel("general", 1e-2))
    ok = abs(reach - 9.0) <= 2.0
    report("1b", ok, f"reach at mu_out=1e-2 is {reach:.2f} km vs 9 +/- 2")


def test_criterion_1c_weak_leakage_tracks_clean_curve_to_100km():
    lengths = range(0, 101)
    first_out, worst, worst_at = curve_band(CHANNEL, SP,
                                            AttackModel("general", 1e-6), lengths)
    report("1c", first_out is None,
           band_detail(1e-6, lengths, first_out, worst, worst_at))


def test_criterion_1d_negligible_leakage_tracks_full_range():
    lengths = range(0, 201)
    first_out, worst, worst_at = curve_band(CHANNEL, SP,
                                            AttackModel("general", 1e-8), lengths)
    report("1d", first_out is None,
           band_detail(1e-8, lengths, first_out, worst, worst_at))


def test_curve_band_rejects_larger_leakage():
    # the band 1d passes must still reject a leakage only twice as large
    lengths = range(0, 201)
    for mu_out in (2e-8, 5e-8, 1e-6):
        first_out, worst, worst_at = curve_band(CHANNEL, SP,
                                                AttackModel("general", mu_out), lengths)
        assert first_out is not None, band_detail(mu_out, lengths, first_out,
                                                  worst, worst_at)


def test_criterion_2_leakage_thresholds():
    cases = [
        ("general", SP, 0.015, 0.004),
        ("general", DECOY, 0.012, 0.004),
        ("passive", SP, 0.5, 0.1),
        ("passive", DECOY, 0.38, 0.1),
    ]
    details = []
    ok = True
    for kind, source, center, tol in cases:
        found = mu_out_threshold(CHANNEL, source, kind)
        hit = abs(found - center) <= tol
        ok = ok and hit
        details.append(f"{kind}/{source.label()}={found:.4g} "
                       f"vs {center} +/- {tol}")
    report("2", ok, "; ".join(details))


def test_criterion_3_decoy_reach_and_weak_leakage_floor():
    reach = max_distance(CHANNEL, DECOY, no_attack())
    reach_ok = abs(reach - 146.0) <= 10.0
    rate_135 = rate_at(CHANNEL, DECOY, AttackModel("general", 1e-6), 135.0)
    floor_ok = rate_135 > 0.0
    report("3", reach_ok and floor_ok,
           f"decoy clean reach {reach:.1f} km vs 146 +/- 10; rate at "
           f"mu_out=1e-6, 135 km is {rate_135:.3e}")


def test_criterion_4_component_table_arithmetic():
    # (target dB, isolator count, isolator dB, attenuator dB, reflectivity dB)
    rows = [
        (-170.0, 1, -60.0, -35.0, -40.0),
        (-170.0, 2, -60.0, 0.0, -50.0),
        (-200.0, 2, -50.0, -30.0, -40.0),
        (-200.0, 3, -50.0, 0.0, -50.0),
        (-230.0, 2, -60.0, -35.0, -40.0),
        (-230.0, 3, -60.0, 0.0, -50.0),
    ]
    ok = True
    for target, n, iso, att, refl in rows:
        budget = IsolationBudget(filter_db=0.0, isolator_db=iso,
                                 isolator_count=n, attenuator_db=att,
                                 reflectivity_db=refl)
        if not isolation_total(budget) <= target:
            ok = False
    worked = required_isolation(1e-6, 1e20, 1e9)
    ok = ok and worked == -170.0
    report("4", ok,
           f"all {len(rows)} component rows satisfy the additive identity; "
           f"worked example gives {worked:g} dB vs -170")


def test_criterion_5_photon_flux_conversions():
    cases = [
        (5.5e4, 4.3e23, 0.02),
        (2.0, 1.6e19, 0.03),
        (12.8, 1.0e20, 0.02),
    ]
    details = []
    ok = True
    for power_w, expected, tol in cases:
        flux = photon_flux_from_power(power_w, 1.55e-6)
        rel = abs(flux / expected - 1.0)
        ok = ok and rel <= tol
        details.append(f"{power_w:g} W -> {flux:.3e} ({rel:.1%} off)")
    spec = conservative_preset()
    factor = lidt_scale_wavelength(spec, 1.85e-6).photon_flux / spec.photon_flux
    ok = ok and factor < 1.10
    details.append(f"1850/1550 nm factor {factor:.4f} < 1.10")
    report("5", ok, "; ".join(details))


def test_criterion_6_reflectivity_pipeline():
    peaks = parse_trace((DATA_DIR / "transmitter_peaks.csv").read_text())
    fixture_bound = reflectivity_bound(peaks, (0.0, 7.0))
    fixture_ok = abs(fixture_bound - (-42.87)) <= 0.01
    pair = [ReflectionPeak(1.0, -46.0, "short_arm"),
            ReflectionPeak(2.0, -46.0, "long_arm")]
    pair_bound = reflectivity_bound(pair, (0.0, 10.0))
    pair_ok = abs(pair_bound - (-42.99)) <= 0.01
    report("6", fixture_ok and pair_ok,
           f"fixture sums to {fixture_bound:.2f} dB vs -42.87; equal pair "
           f"sums to {pair_bound:.2f} dB vs -42.99")


def test_criterion_7_rate_monotone_in_leakage_and_distance():
    mus = [0.6 * i / 49 for i in range(50)]
    lengths = [200.0 * j / 49 for j in range(50)]
    violations = 0
    for source in (SP, DECOY):
        for kind in ("general", "passive", "usd"):
            grid = [[rate_at(CHANNEL, source, AttackModel(kind, mu), length)
                     for length in lengths] for mu in mus]
            for row in grid:
                for a, b in zip(row, row[1:]):
                    if b > a + GRID_EPS:
                        violations += 1
            for col in zip(*grid):
                for a, b in zip(col, col[1:]):
                    if b > a + GRID_EPS:
                        violations += 1
        clean = [rate_at(CHANNEL, source, no_attack(), length)
                 for length in lengths]
        for a, b in zip(clean, clean[1:]):
            if b > a + GRID_EPS:
                violations += 1
    report("7", violations == 0,
           f"{violations} monotonicity violations on the 50x50 grid "
           f"(3 attack kinds x 2 sources, plus the clean curves)")


def test_criterion_8_rate_convex_in_leakage():
    rng = random.Random(1550)
    lengths = (0.0, 50.0, 100.0)
    violations = 0
    checked = 0
    for source in (SP, DECOY):
        for kind in ("general", "passive", "usd"):
            for i in range(200):
                mu1 = rng.uniform(0.0, 0.6)
                mu2 = rng.uniform(0.0, 0.6)
                length = lengths[i % len(lengths)]
                checked += 1
                if not verify_convexity(CHANNEL, source, kind, length,
                                        mu1, mu2):
                    violations += 1
    report("8", violations == 0,
           f"{checked} random midpoint-convexity checks, "
           f"{violations} violations")


def test_criterion_9_attack_severity_ordering():
    mus = [0.6 * i / 19 for i in range(20)]
    lengths = [200.0 * j / 19 for j in range(20)]
    violations = 0
    for source in (SP, DECOY):
        for mu in mus:
            for length in lengths:
                clean = rate_at(CHANNEL, source, no_attack(), length)
                passive = rate_at(CHANNEL, source, AttackModel("passive", mu), length)
                usd = rate_at(CHANNEL, source, AttackModel("usd", mu), length)
                general = rate_at(CHANNEL, source, AttackModel("general", mu), length)
                if not (clean >= passive - GRID_EPS
                        and passive >= usd - GRID_EPS
                        and usd >= general - GRID_EPS):
                    violations += 1
    report("9", violations == 0,
           f"{violations} ordering violations (clean >= passive >= "
           f"unambiguous-discrimination >= general) on the 20x20 grid")


def test_criterion_10_zero_leakage_limits():
    ok = coin_imbalance(0.0) == 0.0
    for e_y in (0.01, 0.05, 0.11):
        delta_eff = effective_imbalance(coin_imbalance(0.0), 0.125)
        ok = ok and phase_error_general(e_y, delta_eff) == e_y
        ok = ok and phase_error_passive(e_y, 0.0) == e_y
    ok = ok and usd_conclusive_fraction(0.0, 0.125) == 0.0
    bitwise = True
    for length in (0.0, 25.5, 50.0, 100.0, 150.25, 170.0):
        for source in (SP, DECOY):
            zero = rate_at(CHANNEL, source, AttackModel("general", 0.0), length)
            clean = rate_at(CHANNEL, source, no_attack(), length)
            bitwise = bitwise and math.copysign(1.0, zero) == math.copysign(
                1.0, clean) and zero == clean
    report("10", ok and bitwise,
           "zero-leakage maps collapse to the identity and the zero-leakage "
           "general attack reproduces the clean rate bitwise")
