import json

import pytest

from thabound import cli
from thabound.attacks import AttackModel, general_tha, no_attack
from thabound.channel import ChannelParams, decoy_state, single_photon
from thabound.cli import SWEEP_CSV_HEADER, config_from_json, main

from conftest import DATA_DIR, read_sweep_csv

PEAKS = str(DATA_DIR / "transmitter_peaks.csv")
BUDGET = ["budget", "--mu-out", "1e-6", "--photon-flux", "1e20", "--clock-hz", "1e9"]
CHANNEL = ChannelParams(0.2, 0.125, 0.01, 1e-5, 1.2)


def config_dict(tmp_path, **overrides):
    """A JSON config as the --config flag reads it."""
    base = {
        "channel": {"alpha_db_per_km": 0.2, "eta_det": 0.125, "e_opt": 0.01,
                    "p_dark": 1e-5, "f_ec": 1.2},
        "source": {"kind": "single_photon"},
        "attacks": [{"kind": "none", "mu_out": 0.0},
                    {"kind": "general", "mu_out": 1e-6}],
        "sweep": {"l_min_km": 0.0, "l_max_km": 10.0, "step_km": 1.0},
        "output_path": str(tmp_path / "out.csv"),
    }
    base.update(overrides)
    return base


class TestConfigRoundTrip:
    def test_single_photon(self, tmp_path):
        config = config_from_json(json.dumps(config_dict(tmp_path)))
        assert config == (CHANNEL, single_photon(),
                          (no_attack(), general_tha(1e-6)), (0.0, 10.0, 1.0),
                          str(tmp_path / "out.csv"))

    def test_decoy(self, tmp_path):
        text = json.dumps(config_dict(
            tmp_path, source={"kind": "decoy", "s": 0.5},
            attacks=[{"kind": "usd", "mu_out": 3e-2}]))
        assert config_from_json(text) == (
            CHANNEL, decoy_state(0.5), (AttackModel("usd", 3e-2),),
            (0.0, 10.0, 1.0), str(tmp_path / "out.csv"))

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_json("{}")


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

    def test_duplicate_attacks_duplicate_blocks(self, tmp_path):
        code, out = self.run(tmp_path, "--attack", "general:1e-4",
                             "--attack", "general:1e-4")
        rows = read_sweep_csv(str(out))
        assert len(rows) == 12
        assert rows[:6] == rows[6:]

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

    def test_config_file_input(self, tmp_path):
        config = config_dict(
            tmp_path, attacks=[{"kind": "passive", "mu_out": 0.1}],
            sweep={"l_min_km": 0.0, "l_max_km": 4.0, "step_km": 2.0})
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        assert main(["sweep", "--config", str(path)]) == 0
        rows = read_sweep_csv(config["output_path"])
        assert len(rows) == 3
        assert rows[0].attack == "passive"

    def test_unwritable_output_fails_cleanly(self, tmp_path, capsys):
        code = main(["sweep", "--output",
                     str(tmp_path / "nodir" / "x.csv")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_decoy_source_flag(self, tmp_path):
        out = tmp_path / "series.csv"
        code = main(["sweep", "--source", "decoy", "--decoy-s", "0.5",
                     "--l-min", "0", "--l-max", "2", "--step", "1",
                     "--output", str(out)])
        assert code == 0
        rows = read_sweep_csv(str(out))
        assert all(r.source == "decoy:0.5" for r in rows)


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

    def test_written_report_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["threshold", "--attack", "passive:0.1",
                     "--output", str(out)])
        assert code == 0
        assert out.read_text() == capsys.readouterr().out

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

    def test_catalog_from_config_file(self, tmp_path, capsys):
        config = tmp_path / "catalog.json"
        config.write_text(json.dumps(
            {"catalog": {"isolator_db_values": [-55.0],
                         "reflectivity_db_values": [-45.0]}}))
        code = main(["budget", "--mu-out", "1e-6", "--photon-flux", "1e20",
                     "--clock-hz", "1e9", "--config", str(config),
                     "--no-attenuator"])
        assert code == 0
        out = capsys.readouterr().out
        assert "x -55" in out
        assert "x -60" not in out

    def test_json_fields_in_record_order(self, tmp_path, capsys):
        out = tmp_path / "budget.json"
        assert main([*BUDGET, "--output", str(out)]) == 0
        for entry in json.loads(out.read_text())["budgets"]:
            assert list(entry) == ["filter_db", "isolator_db", "isolator_count",
                                   "attenuator_db", "reflectivity_db",
                                   "total_db"]

    @pytest.mark.parametrize("config, field", [
        ([1], "catalog"),
        ({"catalog": [1]}, "catalog"),
        ({"catalog": {"isolator_db_values": -50}}, "isolator_db_values"),
        ({"catalog": {"filter_db_values": [None]}}, "filter_db_values"),
        ({"catalog": {"reflectivity_db_values": ["deep"]}},
         "reflectivity_db_values"),
    ])
    def test_malformed_config_exits_one_without_output(self, tmp_path, capsys,
                                                       config, field):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(config))
        assert main([*BUDGET, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert field in captured.err


class TestReflectivityCommand:
    def test_fixture_total(self, capsys):
        code = main(["reflectivity", "--trace", PEAKS, "--region", "0", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("-42.87 dB")
        assert out.count("yes") == 4
        assert out.count("no") >= 2

    def test_no_reflectors_message(self, capsys):
        code = main(["reflectivity", "--trace", PEAKS,
                     "--region", "100", "200"])
        assert code == 0
        assert "no reflectors" in capsys.readouterr().out

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
        code = main(["lidt", "--power", "2", "--lambda", "1550e-9"])
        assert code == 0
        assert "1.5606e+19" in capsys.readouterr().out

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

    def test_bad_rescaling_prints_nothing(self, capsys):
        code = main(["lidt", "--preset", "fiber-fuse", "--wavelength", "nan"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "wavelength" in captured.err

    def test_power_without_wavelength_exits_one(self, capsys):
        assert main(["lidt", "--power", "2"]) == 1

    def test_no_input_exits_one(self, capsys):
        assert main(["lidt"]) == 1


class TestConvexityCommand:
    def test_small_run_passes(self, capsys):
        code = main(["convexity", "--pairs", "20", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "checked 120 pairs, 0 violations" in out

    def test_deterministic_output(self, capsys):
        main(["convexity", "--pairs", "10"])
        first = capsys.readouterr().out
        main(["convexity", "--pairs", "10"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flags, field", [
        (["--pairs", "-5"], "--pairs"),
        (["--pairs", "0"], "--pairs"),
        (["--pairs", str(cli.MAX_CONVEXITY_PAIRS + 1)], "--pairs"),
        (["--mu-max", "nan"], "--mu-max"),
        (["--mu-max", "inf"], "--mu-max"),
        (["--mu-max", "0"], "--mu-max"),
        (["--mu-max", "-0.5"], "--mu-max"),
    ])
    def test_bad_bounds_exit_one_without_output(self, capsys, flags, field):
        assert main(["convexity", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err

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

    def test_preset_and_config_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        assert main(["sweep", "--preset", "fig3", "--config", str(cfg)]) == 1


class TestNonFiniteInput:
    """NaN and infinity are rejected where they enter, before any file."""

    @pytest.mark.parametrize("flags, field", [
        (["--attack", "general:nan"], "mu_out"),
        (["--attack", "usd:inf"], "mu_out"),
        (["--attack", "general:inf"], "mu_out"),
        (["--f-ec", "nan"], "f_ec"),
        (["--alpha-db-per-km", "inf"], "alpha_db_per_km"),
        (["--source", "decoy", "--decoy-s", "inf"], "s must be finite"),
        (["--l-max", "inf"], "l_max"),
        (["--step", "nan"], "step"),
        (["--eta-det", "nan"], "eta_det"),
        (["--e-opt", "inf"], "e_opt"),
        (["--p-dark", "inf"], "p_dark"),
        (["--l-max", "200", "--step", "0.001"], "MAX_GRID_POINTS"),
        (["--eta-det", "2"], "eta_det"),
        (["--e-opt", "-0.5"], "e_opt"),
        (["--p-dark", "1.5"], "p_dark"),
    ])
    def test_sweep_exits_one_without_output(self, tmp_path, capsys, flags,
                                            field):
        code = main(["sweep", "--output", str(tmp_path / "out.csv"), *flags])
        assert code == 1
        assert field in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, field", [
        ([*BUDGET, "--max-attenuator-db", "inf"], "max_attenuator_db"),
        ([*BUDGET, "--max-attenuator-db", "nan"], "max_attenuator_db"),
        ([*BUDGET, "--mu-out", "inf"], "mu_out"),
        ([*BUDGET, "--photon-flux", "inf"], "photon flux"),
        ([*BUDGET, "--clock-hz", "nan"], "clock rate"),
        (["lidt", "--power", "inf", "--lambda", "1550e-9"], "power"),
        (["lidt", "--power", "1", "--lambda", "inf"], "wavelength"),
        (["lidt", "--preset", "conservative", "--pulse-width", "inf"], "pulse width"),
        (["reflectivity", "--trace", PEAKS, "--region", "nan", "7"], "region"),
    ])
    def test_planning_exits_one_without_output(self, capsys, argv, field):
        # A repeated flag overrides the BUDGET value given before it.
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err
