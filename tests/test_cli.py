import argparse
import importlib
import json
import math
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
from collections import Counter

import pytest

from thabound import budget as budget_mod
from thabound import cli, keyrate
from thabound.attacks import AttackModel, no_attack
from thabound.channel import ChannelParams, SourceModel, single_photon
from thabound.cli import SWEEP_CSV_HEADER, main
from thabound.keyrate import rate_at

from conftest import DATA_DIR, REFERENCE_CHANNEL as CHANNEL, read_sweep_csv
from test_golden import CLI_OPS
from test_readme import TRANSCRIPTS

PEAKS = str(DATA_DIR / "transmitter_peaks.csv")
BUDGET = ["budget", "--mu-out", "1e-6", "--photon-flux", "1e20", "--clock-hz", "1e9"]


class TestSweepCommand:
    def run(self, tmp_path, *extra):
        out = tmp_path / "series.csv"
        code = main(["sweep", "--l-min", "0", "--l-max", "5", "--step", "1",
                     "--output", str(out), *extra])
        return code, out

    def test_baseline_only_when_no_attacks_given(self, tmp_path):
        code, out = self.run(tmp_path)
        assert code == 0
        rows = read_sweep_csv(str(out))
        assert len(rows) == 6
        assert all(r.attack == "none" and r.mu_out == 0.0 for r in rows)
        assert all(r.source == "single_photon" for r in rows)

    def test_header_and_cell_round_trip(self, tmp_path):
        code, out = self.run(tmp_path, "--attack", "general:1e-6")
        text = out.read_text().splitlines()
        assert text[0] == SWEEP_CSV_HEADER
        cells = text[1].split(",")
        # every float cell re-parses to a float whose repr is the cell
        assert repr(float(cells[0])) == cells[0]
        assert repr(float(cells[4])) == cells[4]

    def test_blocks_sorted_by_kind_and_leakage(self, tmp_path):
        code, out = self.run(tmp_path, "--attack", "general:1e-2",
                             "--attack", "none", "--attack", "general:1e-6")
        rows = read_sweep_csv(str(out))
        block_order = []
        for row in rows:
            key = (row.attack, row.mu_out)
            if not block_order or block_order[-1] != key:
                block_order.append(key)
        assert block_order == [("general", 1e-6), ("general", 1e-2),
                               ("none", 0.0)]

    def test_duplicate_attacks_give_one_block(self, tmp_path):
        script = tmp_path / "series.gp"
        _, out = self.run(tmp_path, "--attack", "general:1e-4")
        single = out.read_bytes(), script.read_bytes()
        code, out = self.run(tmp_path, "--attack", "general:1e-4",
                             "--attack", "general:1e-4")
        assert code == 0
        assert (out.read_bytes(), script.read_bytes()) == single
        assert len(read_sweep_csv(str(out))) == 6

    def test_rates_below_floor_written_as_zero(self, tmp_path):
        out = tmp_path / "series.csv"
        code = main(["sweep", "--attack", "general:1e-2", "--l-min", "0",
                     "--l-max", "20", "--step", "5", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        dead = [line for line in lines[1:] if line.split(",")[4] == "0"]
        assert dead  # beyond ~9 km this leakage kills the key
        for line in dead:
            assert float(line.split(",")[0]) >= 10.0

    def test_deterministic_bytes(self, tmp_path):
        _, out1 = self.run(tmp_path, "--attack", "general:1e-6")
        first_csv = out1.read_bytes()
        first_gp = (tmp_path / "series.gp").read_bytes()
        _, out2 = self.run(tmp_path, "--attack", "general:1e-6")
        assert out2.read_bytes() == first_csv
        assert (tmp_path / "series.gp").read_bytes() == first_gp

    def test_plot_script_emitted(self, tmp_path):
        code, out = self.run(tmp_path, "--attack", "general:1e-6",
                             "--attack", "none")
        script = (tmp_path / "series.gp").read_text()
        assert "set logscale y" in script
        assert script.count("with lines") == 2
        assert "series.csv" in script
        assert 'strcol(2) eq "1e-06"' in script

    def test_preset_bundles_parameters(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--preset", "fig11"]) == 0
        rows = read_sweep_csv("fig11.csv")
        kinds = {r.attack for r in rows}
        assert kinds == {"none", "usd"}
        mus = sorted({r.mu_out for r in rows if r.attack == "usd"})
        assert mus == [1e-3, 1e-2, 3e-2]
        assert len(rows) == 4 * 201

    def test_output_that_names_the_script_exits_one(self, tmp_path,
                                                    monkeypatch, capsys):
        # fig3.gp would be both the CSV and its gnuplot script.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "rates_at", None)  # no rate is computed
        assert main(["sweep", "--preset", "fig3", "--output", "fig3.gp"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "output 'fig3.gp' is also the gnuplot script path" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_default_grid_ends_at_200_km(self, tmp_path):
        out = tmp_path / "series.csv"
        assert main(["sweep", "--l-min", "199", "--step", "0.1",
                     "--output", str(out)]) == 0
        lengths = [row.length_km for row in read_sweep_csv(str(out))]
        assert len(lengths) == 11 and lengths[-1] == 200.0

    def test_decoy_source_flag(self, tmp_path):
        out = tmp_path / "series.csv"
        code = main(["sweep", "--source", "decoy", "--decoy-s", "0.5",
                     "--l-min", "0", "--l-max", "2", "--step", "1",
                     "--output", str(out)])
        assert code == 0
        rows = read_sweep_csv(str(out))
        assert all(r.source == "decoy:0.5" for r in rows)

    def test_rate_at_floor_written_as_repr(self, tmp_path):
        # Inside the reach that threshold reports (104.52 km for this
        # leakage), with a positive rate below the plot's lower y limit.
        length = 104.504733745
        rate = rate_at(CHANNEL, single_photon(), AttackModel("general", 1e-4),
                       length)
        assert 0.0 < rate < cli.RATE_FLOOR
        out = tmp_path / "out.csv"
        assert main(["sweep", "--attack", "general:1e-4", "--l-min", str(length),
                     "--l-max", str(length + 1), "--step", "1",
                     "--output", str(out)]) == 0
        first = out.read_text().splitlines()[1]
        assert first == f"{length!r},0.0001,general,single_photon,{rate!r}"
        assert "set yrange [1e-12:1]" in (tmp_path / "out.gp").read_text()

    @pytest.mark.parametrize("preset", ["fig4", "fig11"])
    @pytest.mark.parametrize("grid", [
        [],
        ["--l-max", "0.3", "--step", "0.1"],  # last point 0.30000000000000004
        ["--l-min", "3.7", "--l-max", "40", "--step", "0.3"],
    ])
    def test_blocks_match_the_library_sweep(self, tmp_path, preset, grid):
        out = tmp_path / "series.csv"
        argv = ["sweep", "--preset", preset, "--output", str(out), *grid]
        assert main(argv) == 0
        args = cli.build_parser().parse_args(argv)
        channel, source, blocks = cli._resolve_config(args)
        cells = [line.split(",") for line in out.read_text().splitlines()[1:]]
        start = 0
        for attack in blocks:
            points = keyrate.sweep_distance(channel, source, attack, args.l_min,
                                            args.l_max, args.step).points
            block = cells[start:start + len(points)]
            start += len(points)
            assert [(row[0], repr(float(row[4]))) for row in block] == [
                (repr(p.length_km), repr(p.rate)) for p in points]
        assert start == len(cells)


class TestThresholdCommand:
    def test_report_structure_and_values(self, capsys):
        code = main(["threshold", "--attack", "general:0",
                     "--attack", "general:1e-2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        (report,) = payload["reports"]
        assert report["attack_kind"] == "general"
        assert report["source"] == "single_photon"
        assert report["mu_out_threshold"] == pytest.approx(0.0153, abs=4e-4)
        assert report["max_distance_at"]["0.0"] == pytest.approx(171.1, abs=0.2)
        assert report["max_distance_at"]["0.01"] == pytest.approx(9.16, abs=0.2)

    def test_leakage_above_threshold_reported_as_null(self, capsys):
        code = main(["threshold", "--attack", "general:0.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reports"][0]["max_distance_at"]["0.5"] is None

    def test_baseline_kind_has_no_threshold(self, capsys):
        code = main(["threshold", "--attack", "none"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["reports"][0]
        assert report["attack_kind"] == "none"
        assert report["mu_out_threshold"] is None

    def test_duplicate_attacks_searched_once(self, monkeypatch, capsys):
        assert main(["threshold", "--attack", "general:1e-6"]) == 0
        single = capsys.readouterr().out
        calls = []
        search = cli.max_distance
        monkeypatch.setattr(cli, "max_distance",
                            lambda *args: calls.append(args) or search(*args))
        assert main(["threshold", "--attack", "general:1e-6",
                     "--attack", "general:1e-6"]) == 0
        assert capsys.readouterr().out == single
        assert len(calls) == 1

    def test_insecure_channel_exits_two(self, capsys):
        code = main(["threshold", "--attack", "general:1e-6",
                     "--e-opt", "0.11"])
        assert code == 2
        assert "insecure" in capsys.readouterr().err


class TestBudgetCommand:
    def test_worked_example_header_and_row(self, capsys):
        code = main(["budget", "--mu-out", "1e-6", "--photon-flux", "1e20",
                     "--clock-hz", "1e9"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "required isolation: -170 dB"
        # the published single-isolator combination must be present
        assert any("1 x -60" in line and "-35" in line and "-40" in line
                   for line in lines)

    def test_no_attenuator_variant(self, capsys):
        code = main(["budget", "--mu-out", "1e-6", "--photon-flux", "1e20",
                     "--clock-hz", "1e9", "--no-attenuator"])
        assert code == 0
        out = capsys.readouterr().out
        assert any("2 x -60" in line and "-50" in line
                   for line in out.splitlines())
        data_lines = [l for l in out.splitlines() if " x " in l]
        assert all("-5 " not in l and "-35" not in l.split()[3:4]
                   for l in data_lines)

    def test_slow_clock_target(self, capsys):
        code = main(["budget", "--mu-out", "1e-6", "--photon-flux", "1e20",
                     "--clock-hz", "1e3"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "required isolation: -230 dB")

    def test_trivial_target_admits_empty_budget(self, capsys):
        code = main(["budget", "--mu-out", "1", "--photon-flux", "1e9",
                     "--clock-hz", "1e9"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "required isolation: 0 dB"
        first_row = lines[3].split()
        assert first_row[0] == "0"

    def test_underflowing_flux_ratio_gives_finite_target(self, capsys):
        # N / f_A underflows to 0 as a float; each factor alone is finite.
        code = main(["budget", "--mu-out", "1e300", "--photon-flux", "1e-300",
                     "--clock-hz", "1e300"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "required isolation: 9000 dB")

    def test_overflowing_flux_ratio_is_infeasible(self, capsys):
        # N / f_A overflows to inf as a float.
        code = main(["budget", "--mu-out", "1e-300", "--photon-flux", "1e300",
                     "--clock-hz", "1e-300"])
        assert code == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "required isolation: -9000 dB"
        assert "no feasible" in lines[1]

    def test_infeasible_exits_two(self, capsys):
        code = main(["budget", "--mu-out", "1e-30", "--photon-flux", "1e20",
                     "--clock-hz", "1", "--no-attenuator"])
        assert code == 2
        assert "no feasible" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "budget.json"
        code = main(["budget", "--mu-out", "1e-6", "--photon-flux", "1e20",
                     "--clock-hz", "1e9", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["required_isolation_db"] == pytest.approx(-170.0)
        assert payload["budgets"]
        for entry in payload["budgets"]:
            assert entry["total_db"] <= -170.0 + 1e-9

    def test_catalog_from_flags(self, capsys):
        code = main([*BUDGET, "--isolator-db=-5.5e1", "--reflectivity-db",
                     "-45", "--no-attenuator"])
        assert code == 0
        out = capsys.readouterr().out
        assert "x -55" in out
        assert "x -60" not in out

    @pytest.mark.parametrize("flag, field", [
        ("--isolator-db", "isolator_db_values"),
        ("--reflectivity-db", "reflectivity_db_values"),
        ("--filter-db", "filter_db_values"),
    ])
    def test_bad_catalog_value_exits_one_without_output(self, capsys, flag,
                                                        field):
        assert main([*BUDGET, flag, "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {field} must be finite and <= 0 dB, got 5.0" in captured.err

    def test_negative_exponent_is_a_value(self, capsys):
        assert main([*BUDGET, "--isolator-db", "-5e1"]) == 0
        exponent = capsys.readouterr()
        assert main([*BUDGET, "--isolator-db", "-50"]) == 0
        assert exponent == capsys.readouterr()

    def test_option_after_value_flag_is_still_an_option(self, capsys):
        assert main([*BUDGET, "--isolator-db", "-y"]) == 1
        assert "argument --isolator-db: expected one argument" in (
            capsys.readouterr().err)

    def test_misspelled_catalog_flag_exits_one(self, capsys):
        assert main([*BUDGET, "--isolator-dbs", "-30"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --isolator-dbs -30" in captured.err

    def test_json_fields_in_record_order(self, tmp_path, capsys):
        out = tmp_path / "budget.json"
        assert main([*BUDGET, "--output", str(out)]) == 0
        for entry in json.loads(out.read_text())["budgets"]:
            assert list(entry) == ["filter_db", "isolator_db", "isolator_count",
                                   "attenuator_db", "reflectivity_db",
                                   "total_db"]

    @staticmethod
    def _written_budgets(tmp_path, *flags):
        out = tmp_path / "budget.json"
        assert main([*BUDGET, *flags, "--output", str(out)]) == 0
        fields = budget_mod.IsolationBudget._fields
        return [budget_mod.IsolationBudget(*(entry[key] for key in fields))
                for entry in json.loads(out.read_text())["budgets"]]

    def test_default_attenuator_depth_is_the_library_default(self, tmp_path):
        gamma = budget_mod.required_isolation(1e-6, 1e20, 1e9)
        plans = budget_mod.plan_budget(gamma)
        # A target where a 30 dB attenuator cap plans differently.
        assert budget_mod.plan_budget(gamma, max_attenuator_db=-30.0) != plans
        assert self._written_budgets(tmp_path) == plans

    def test_attenuator_depth_flag_is_nonpositive_db(self, tmp_path):
        gamma = budget_mod.required_isolation(1e-6, 1e20, 1e9)
        assert self._written_budgets(tmp_path, "--max-attenuator-db", "-30") == (
            budget_mod.plan_budget(gamma, max_attenuator_db=-30.0))

    def test_candidate_cap_exits_one_before_enumerating(self, monkeypatch,
                                                        capsys):
        # 7 distinct values per catalog flag give 14,113 candidates.
        monkeypatch.setattr(budget_mod, "isolation_total", None)
        flags = [f"--{name}-db=-{value}" for value in range(41, 48)
                 for name in ("isolator", "reflectivity", "filter")]
        assert main([*BUDGET, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MAX_BUDGET_CANDIDATES = 10000" in captured.err

    def test_positive_attenuator_depth_exits_one_without_output(self, capsys):
        # A repeated flag overrides the BUDGET value given before it.
        assert main([*BUDGET, "--max-attenuator-db", "30"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_attenuator_db must be finite and <= 0 dB" in captured.err


class TestReflectivityCommand:
    def test_fixture_total(self, capsys):
        code = main(["reflectivity", "--trace", PEAKS, "--region", "0", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("-42.87 dB")
        assert out.count("yes") == 4
        assert out.count("no") >= 2

    def test_deep_peaks_give_finite_bound(self, tmp_path, capsys):
        # 10**(-500) underflows to 0 in linear units.
        trace = tmp_path / "deep.csv"
        trace.write_text("1.0,-5000,s\n2.0,-4000,l\n")
        code = main(["reflectivity", "--trace", str(trace),
                     "--region", "0", "7"])
        assert code == 0
        assert capsys.readouterr().out.strip().endswith("-4000.00 dB")

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # As a spreadsheet's "CSV UTF-8" export writes it.
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / "transmitter_peaks.csv").read_bytes())
        outputs = []
        for trace in (PEAKS, str(bom)):
            assert main(["reflectivity", "--trace", trace, "--region", "0", "7"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[0]

    def test_no_reflectors_message(self, capsys):
        code = main(["reflectivity", "--trace", PEAKS,
                     "--region", "100", "200"])
        assert code == 0
        assert "no reflectors" in capsys.readouterr().out

    def test_region_ends_are_inside(self, capsys):
        # The table marks the peaks that the bound sums, ends included.
        assert main(["reflectivity", "--trace", PEAKS,
                     "--region", "2.1", "5.2"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:-1]]
        assert [(row[0], row[3]) for row in rows] == [
            ("0.8", "no"), ("2.1", "yes"), ("3.7", "yes"), ("5.2", "yes"),
            ("9.6", "no"), ("12.3", "no")]

    def test_parse_error_exits_one_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.2,-46.0,x\n")
        code = main(["reflectivity", "--trace", str(bad),
                     "--region", "0", "7"])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = main(["reflectivity", "--trace", str(tmp_path / "nope.csv"),
                     "--region", "0", "7"])
        assert code == 1

    def test_bare_minus_inf_region_reaches_the_named_check(self, capsys):
        code = main(["reflectivity", "--trace", PEAKS, "--region", "-inf", "7"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "region must be finite" in captured.err


class TestLidtCommand:
    def test_preset_conservative(self, capsys):
        code = main(["lidt", "--preset", "conservative"])
        assert code == 0
        assert "photon flux: 4.3000e+23 photons/s" in capsys.readouterr().out

    def test_power_conversion(self, capsys):
        code = main(["lidt", "--power", "12.8", "--lambda", "1550e-9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "photon flux: 9.9877e+19 photons/s" in out

    def test_two_watt_conversion(self, capsys):
        # A raw power rating is continuous exposure: reference width 1 s.
        code = main(["lidt", "--power", "2", "--lambda", "1550e-9",
                     "--pulse-width", "1e-4"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "input power: 2.0000e+00 W at 1.5500e-06 m",
            "photon flux: 1.5606e+19 photons/s",
            "reference pulse width: 1.0000e+00 s",
            "reference wavelength: 1.5500e-06 m",
            "flux at pulse width 1.0000e-04 s: 1.5606e+17 photons/s",
        ]

    def test_pulse_width_noop_scaling(self, capsys):
        code = main(["lidt", "--preset", "conservative",
                     "--pulse-width", "1e-4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "flux at pulse width 1.0000e-04 s: 4.3000e+23 photons/s" in out

    def test_wavelength_scaling(self, capsys):
        code = main(["lidt", "--preset", "fiber-fuse",
                     "--wavelength", "1850e-9"])
        assert code == 0
        assert "1.0925e+20" in capsys.readouterr().out

    def test_bend_edge_headroom(self, capsys):
        code = main(["lidt", "--preset", "fiber-fuse",
                     "--bend-edge-compensation"])
        assert code == 0
        assert "1.1000e+20" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, line", [
        (["--preset", "conservative", "--pulse-width", "1e308"],
         "flux at pulse width 1.0000e+308 s: 4.3000e+179 photons/s"),
        (["--preset", "fiber-fuse", "--wavelength", "1e308"],
         "flux at wavelength 1.0000e+308 m: 8.0322e+176 photons/s"),
    ])
    def test_extreme_finite_rescaling(self, capsys, flags, line):
        # The ratio to the reference overflows a float; the flux does not.
        assert main(["lidt", *flags]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == line

    @pytest.mark.parametrize("power, wavelength, line", [
        ("1e-300", "1e-30", "photon flux: 5.0341e-306 photons/s"),
        ("1e300", "1e-300", "photon flux: 5.0341e+24 photons/s"),
    ])
    def test_extreme_finite_power(self, capsys, power, wavelength, line):
        # P lambda underflows in the first case and P / (h c) overflows in
        # the second; the flux fits in a float in both.
        assert main(["lidt", "--power", power, "--lambda", wavelength]) == 0
        assert capsys.readouterr().out.splitlines()[1] == line

    def test_power_without_wavelength_exits_one(self, capsys):
        assert main(["lidt", "--power", "2"]) == 1

    def test_no_input_exits_one(self, capsys):
        assert main(["lidt"]) == 1

    @pytest.mark.parametrize("flags, message", [
        (["--preset", "conservative", "--lambda", "800e-9"],
         "--lambda only applies to --power"),
        (["--preset", "fiber-fuse", "--power", "5", "--lambda", "1550e-9"],
         "argument --power: not allowed with argument --preset"),
        (["--power", "1", "--lambda", "1550e-9", "--bend-edge-compensation"],
         "--bend-edge-compensation only applies to a --preset"),
    ])
    def test_conflicting_inputs_exit_one_without_output(self, capsys, flags,
                                                        message):
        assert main(["lidt", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestConvexityCommand:
    def test_small_run_passes(self, capsys):
        code = main(["convexity", "--pairs", "20", "--seed", "7"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{kind}/{source}: 20 pairs, 0 violations"
            for kind in ("general", "passive", "usd")
            for source in ("single_photon", "decoy:0.5")
        ] + ["checked 120 pairs, 0 violations"]

    def test_pairs_drawn_from_the_seed(self, monkeypatch, capsys):
        # Each pair is two draws on [0, mu_max) from random.Random(seed),
        # checked at 0, 50 and 100 km in turn; mu_max defaults to 0.6.
        calls = []
        monkeypatch.setattr(
            cli, "verify_convexity",
            lambda channel, source, kind, length, mu1, mu2:
                calls.append((length, mu1, mu2)) or True)
        assert main(["convexity", "--pairs", "4", "--seed", "3"]) == 0
        rng = random.Random(3)
        assert calls == [(length, rng.uniform(0.0, 0.6), rng.uniform(0.0, 0.6))
                         for _ in range(6) for length in (0.0, 50.0, 100.0, 0.0)]

    def test_deterministic_output(self, capsys):
        main(["convexity", "--pairs", "10"])
        first = capsys.readouterr().out
        main(["convexity", "--pairs", "10"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flags, field", [
        (["--pairs", "-5"], "--pairs"),
        (["--pairs", "0"], "--pairs"),
        (["--pairs", str(cli.MAX_CONVEXITY_PAIRS + 1)], "--pairs"),
        (["--mu-max", "0"], "mu_max"),
        (["--mu-max", "-0.5"], "mu_max"),
    ])
    def test_bad_bounds_exit_one_without_output(self, capsys, flags, field):
        assert main(["convexity", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err

    def test_violations_exit_two(self, monkeypatch, capsys):
        # sqrt(mu) is strictly concave, so a pair of distinct mu violates.
        monkeypatch.setattr(keyrate, "rates_at", lambda channel, source, attacks,
                            length: [math.sqrt(mu) for _, mu in attacks])
        assert main(["convexity", "--pairs", "1"]) == 2
        assert capsys.readouterr().out.splitlines()[-1] == (
            "checked 6 pairs, 6 violations")

    def test_extreme_finite_mu_max(self, capsys):
        assert main(["convexity", "--pairs", "3", "--mu-max", "1e308"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "checked 18 pairs, 0 violations")

    def test_pairs_cap_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_CONVEXITY_PAIRS", 2)
        assert main(["convexity", "--pairs", "2"]) == 0
        assert "checked 12 pairs, 0 violations" in capsys.readouterr().out
        assert main(["convexity", "--pairs", "3"]) == 1


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_attack_spec(self, capsys):
        assert main(["sweep", "--attack", "quantum:1"]) == 1

    def test_unknown_attack_kind_message(self, capsys):
        assert main(["sweep", "--attack", "quantum:1"]) == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --attack: unknown attack kind 'quantum'; "
            "choose from none, general, passive, usd\n")

    def test_unparsable_leakage_reports_the_float_error(self, capsys):
        assert main(["sweep", "--attack", "quantum:abc"]) == 1
        assert "could not convert string to float: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "threshold", "budget"])
    def test_config_is_unrecognized(self, capsys, command):
        argv = BUDGET if command == "budget" else [command]
        assert main([*argv, "--config", "x.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --config x.json" in captured.err


class TestWriteContract:
    """A command that exits 1 has written no file and printed nothing."""

    @pytest.mark.parametrize("argv", [["sweep", "--l-max", "2"], BUDGET],
                             ids=["sweep", "budget"])
    def test_output_into_missing_directory(self, tmp_path, capsys, argv):
        assert main([*argv, "--output", str(tmp_path / "missing" / "out.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "No such file or directory" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [b"keep\n", None], ids=["kept", "absent"])
    def test_script_path_is_a_directory(self, tmp_path, capsys, existing):
        # The CSV comes first in the file list, so a write-through would
        # already have replaced it when the script fails.
        (tmp_path / "x.gp").mkdir()
        csv = tmp_path / "x.csv"
        if existing is not None:
            csv.write_bytes(existing)
        assert main(["sweep", "--l-max", "2", "--output", str(csv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: output {str(tmp_path / 'x.gp')!r} "
                                "exists and is not a regular file\n")
        expected = ["x.gp"] if existing is None else ["x.csv", "x.gp"]
        assert sorted(path.name for path in tmp_path.iterdir()) == expected
        if existing is not None:
            assert csv.read_bytes() == existing

    def test_failed_write_keeps_every_target(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.gp"
        first.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            # A lone surrogate cannot be encoded, so the second write fails.
            cli._write_files({str(first): "new\n", str(second): "\ud800"})
        assert first.read_text() == "old\n"
        assert [path.name for path in tmp_path.iterdir()] == ["a.csv"]

    def test_replaces_through_a_link_and_keeps_the_mode(self, tmp_path):
        target, link = tmp_path / "data.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        link.symlink_to(target.name)
        cli._write_files({str(link): "new\n"})
        assert link.is_symlink()
        assert target.read_text() == "new\n"
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "data.csv", "link.csv"]


class TestNegativeZero:
    """A -0 input is read as 0.0, so no output shows -0."""

    def test_threshold_attack_key(self, capsys):
        assert main(["threshold", "--attack", "general:-0"]) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert list(report["max_distance_at"]) == ["0.0"]

    def test_sweep_cells_and_plot_clause(self, tmp_path):
        out = tmp_path / "neg.csv"
        assert main(["sweep", "--attack", "passive:-0", "--l-max", "2",
                     "--output", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0.0"] * 3
        assert 'strcol(2) eq "0.0"' in (tmp_path / "neg.gp").read_text()

    def test_budget_filter_column(self, capsys):
        assert main([*BUDGET, "--filter-db", "-0"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]
        assert rows and all(row.split()[-2] == "0" for row in rows)

    def test_trace_distance(self, tmp_path, capsys):
        trace = tmp_path / "neg.csv"
        trace.write_text("-0,-50,l\n")
        assert main(["reflectivity", "--trace", str(trace),
                     "--region", "0", "7"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[0] == "0"

    def test_reflectivity_region(self, capsys):
        assert main(["reflectivity", "--trace", PEAKS,
                     "--region", "-0", "7"]) == 0
        assert "(0 m to 7 m)" in capsys.readouterr().out


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [["threshold", "--preset", "fig3"], BUDGET])
    def test_closed_pipe_exits_one_quietly(self, argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "thabound", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(write_end)
        assert result.stderr == b""
        assert result.returncode == 1


# One valid command line per subcommand.  A boundary case appends one bad
# value, which overrides the value the base line gives; paths are relative,
# so a case runs in an empty directory.
BASE_ARGV = {
    "sweep": ["sweep", "--source", "decoy", "--decoy-s", "0.5", "--l-max", "2",
              "--output", "out.csv"],
    "threshold": ["threshold", "--source", "decoy", "--decoy-s", "0.5"],
    "budget": [*BUDGET, "--output", "budget.json"],
    "reflectivity": ["reflectivity", "--trace", PEAKS, "--region", "0", "7"],
    "lidt": ["lidt", "--power", "2", "--lambda", "1550e-9"],
    "convexity": ["convexity", "--pairs", "1"],
}
# The one flag whose message names something other than its dest: the
# SourceModel record owns the rule on its intensity s.
MESSAGE_NAME = {"decoy_s": "s"}


def _numeric_flags():
    """(command, action) of every int or float flag of build_parser()."""
    parser = cli.build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return [(command, action)
            for command, subparser in commands.choices.items()
            for action in subparser._actions if action.type in (int, float)]


def _bad_argvs(command, action, value):
    """Command lines that give ``value`` to one flag, the rest held valid."""
    base = BASE_ARGV[command]
    option = action.option_strings[0]
    if action.nargs is None:
        return [[*base, option, value], [*base, f"{option}={value}"]]
    # A multi-value flag has no = form.
    start = base.index(option) + 1
    valid = base[start:start + action.nargs]
    return [[*base, option, *valid[:k], value, *valid[k + 1:]]
            for k in range(action.nargs)]


class TestNonFiniteInput:
    """Bad values are rejected where they enter, before any output."""

    @pytest.mark.parametrize("command", BASE_ARGV)
    def test_base_argv_succeeds(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert main(BASE_ARGV[command]) == 0

    @pytest.mark.parametrize("command, action, value", [
        pytest.param(command, action, value,
                     id=f"{command}-{action.dest}-{value}")
        for command, action in _numeric_flags()
        for value in ("nan", "inf", "-inf")
    ])
    def test_numeric_flag_rejects_non_finite(self, tmp_path, monkeypatch,
                                             capsys, command, action, value):
        assert command in BASE_ARGV, f"no base argv for {command}"
        name = MESSAGE_NAME.get(action.dest, action.dest)
        # The name as a word of its own, or as the --option argparse names.
        names_flag = re.compile(rf"(?<![\w-])(?:--)?{name}(?![\w-])")
        monkeypatch.chdir(tmp_path)
        for argv in _bad_argvs(command, action, value):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert names_flag.search(captured.err), captured.err
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, action", [
        pytest.param(command, action, id=f"{command}-{action.dest}")
        for command, action in _numeric_flags()
    ])
    def test_malformed_negative_value_is_named(self, tmp_path, monkeypatch,
                                               capsys, command, action):
        # -0x starts like a negative number, so argparse hands it to the
        # flag's type instead of reading it as an option.
        monkeypatch.chdir(tmp_path)
        for argv in _bad_argvs(command, action, "-0x"):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert (f"argument {action.option_strings[0]}: invalid "
                    f"{action.type.__name__} value: '-0x'") in captured.err
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, field", [
        (["--attack", "general:nan"], "mu_out"),
        (["--attack", "usd:inf"], "mu_out"),
        (["--attack", "general:inf"], "mu_out"),
        (["--l-max", "200", "--step", "0.001"], "MAX_GRID_POINTS"),
        (["--eta-det", "2"], "eta_det"),
        (["--e-opt", "-0.5"], "e_opt"),
        (["--p-dark", "1.5"], "p_dark"),
        (["--e-opt", "0.6"], "e_opt must be at most 1/2, got 0.6"),
        (["--eta-det", "1.0000000000005"], "eta_det must be a probability"),
        (["--p-dark=-1e-13"], "p_dark must be a probability"),
        (["--e-opt=-5e-13"], "e_opt must be a probability"),
        (["--l-min=-1"], "l_min must be finite and >= 0"),
        (["--step", "0"], "step must be finite and > 0"),
        (["--l-min", "1e17", "--l-max", "1.0000000000001e17", "--step", "1"],
         "step 1.0 is too small for lengths near 1.0000000000001e+17: "
         "two sweep grid points are equal"),
    ])
    def test_sweep_exits_one_without_output(self, tmp_path, capsys, flags,
                                            field):
        code = main(["sweep", "--output", str(tmp_path / "out.csv"), *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err
        assert list(tmp_path.iterdir()) == []


class TestOneOwnerPerRule:
    """Each input rule is decided by the record or parser that owns it."""

    @pytest.mark.parametrize("flags, label", [
        ([], "single_photon"),
        (["--preset", "fig4"], "decoy:0.5"),
        (["--preset", "fig4", "--source", "decoy"], "decoy:0.5"),
        (["--preset", "fig4", "--decoy-s", "0.3"], "decoy:0.3"),
        (["--preset", "fig4", "--source", "single_photon"], "single_photon"),
        (["--source", "decoy", "--decoy-s", "0.2"], "decoy:0.2"),
    ])
    def test_source_resolution(self, flags, label):
        args = cli.build_parser().parse_args(["sweep", *flags])
        assert cli._resolve_config(args)[1].label() == label

    @pytest.mark.parametrize("flags, message", [
        (["--source", "single_photon", "--decoy-s", "0.5"],
         "--decoy-s only applies to a decoy source"),
        (["--preset", "fig4", "--source", "single_photon", "--decoy-s", "0.5"],
         "--decoy-s only applies to a decoy source"),
        (["--decoy-s", "0.5"], "--decoy-s only applies to a decoy source"),
        (["--source", "decoy"], "--source decoy needs --decoy-s"),
    ])
    def test_source_flags_exit_one_without_output(self, tmp_path, capsys,
                                                  flags, message):
        code = main(["sweep", "--output", str(tmp_path / "out.csv"), *flags])
        assert code == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_reference_channel_is_the_preset_channel(self):
        # The acceptance criteria run on the channel the figure presets use.
        assert CHANNEL == cli.PRESET_CHANNEL

    def test_channel_override_keeps_other_fields(self):
        args = cli.build_parser().parse_args(
            ["threshold", "--preset", "fig3", "--e-opt", "0.02"])
        assert cli._resolve_config(args)[0] == cli.PRESET_CHANNEL._replace(e_opt=0.02)

    @pytest.mark.parametrize("flags, blocks", [
        ([], [no_attack()]),
        (["--preset", "fig9"],
         [no_attack(), AttackModel("passive", 1e-2), AttackModel("passive", 1e-1),
          AttackModel("passive", 3e-1)]),
        (["--preset", "fig4", "--attack", "usd:1e-3", "--attack", "general:1e-6"],
         [AttackModel("general", 1e-6), AttackModel("usd", 1e-3)]),
        (["--attack", "general:1e-6", "--attack", "general:1e-6"],
         [AttackModel("general", 1e-6)]),
    ])
    def test_attack_blocks(self, flags, blocks):
        args = cli.build_parser().parse_args(["threshold", *flags])
        assert cli._resolve_config(args)[2] == blocks

    @pytest.mark.parametrize("argv, built", [
        (["sweep", "--preset", "fig4", "--attack", "general:1e-6"],
         {"AttackModel": 1, "SourceModel": 1}),
        (["sweep", "--preset", "fig4"], {"AttackModel": 5, "SourceModel": 1}),
        (["threshold", "--attack", "usd:1e-3"], {"ChannelParams": 0}),
    ])
    def test_records_built_only_where_used(self, tmp_path, monkeypatch, capsys,
                                           argv, built):
        counts = Counter()
        for record in (AttackModel, SourceModel, ChannelParams):
            def counted(self, check=record.__post_init__):
                counts[type(self).__name__] += 1
                check(self)
            monkeypatch.setattr(record, "__post_init__", counted)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert {name: counts[name] for name in built} == built

    @pytest.mark.parametrize("flag", ["--l-min", "--l-max", "--step", "--output"])
    def test_threshold_takes_no_grid_flags(self, capsys, flag):
        assert main(["threshold", "--attack", "general:0", flag, "5"]) == 1
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["threshold", "--help"])
        assert flag not in capsys.readouterr().out


def _parse_argvs():
    """Every seed-0 benchmark op, base argv and README command line."""
    readme = [shlex.split(command)[3:] for block in TRANSCRIPTS
              for command, _ in block if command.startswith("python3 -m ")]
    return ([list(op["argv"]) for op in CLI_OPS]
            + list(BASE_ARGV.values()) + readme)


def _run_main(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), help's SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOneSubparser:
    """main builds only the named subcommand's parser, and parses the same."""

    @pytest.mark.parametrize("argv", _parse_argvs(), ids=" ".join)
    def test_one_subparser_parses_like_all_six(self, argv):
        one = cli.build_parser(argv[0]).parse_args(argv)
        assert vars(one) == vars(cli.build_parser().parse_args(argv))

    def test_one_subparser_has_only_its_command(self):
        (commands,) = [action for action in cli.build_parser("lidt")._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert list(commands.choices) == ["lidt"]

    @pytest.mark.parametrize("argv", [
        ["-h"], ["sweep", "--help"], [], ["frobnicate"], ["budget"],
        ["threshold", "--step", "5"],
    ], ids=" ".join)
    def test_help_and_usage_errors_match_the_full_parser(self, monkeypatch,
                                                         capsys, argv):
        got = _run_main(argv, capsys)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert got == _run_main(argv, capsys)
        assert got[0] in (0, 1)

    def test_console_script_reads_sys_argv(self, monkeypatch, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["thabound"]
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        argv = ["lidt", "--preset", "conservative"]
        expected = _run_main(argv, capsys)
        monkeypatch.setattr(sys, "argv", ["thabound", *argv])
        assert _run_main(None, capsys) == expected
        assert expected[0] == 0 and expected[1]
