"""Command-line front end.

Subcommands:
  sweep         rate-versus-distance CSV plus a gnuplot script
  threshold     leakage thresholds and reachable distances, as JSON
  budget        isolation budget planning from a damage-threshold flux
  reflectivity  worst-case reflectivity bound from an OTDR peak list
  lidt          damage-threshold flux conversions and rescalings
  convexity     randomized midpoint-convexity check of the rate formulas

Exit codes: 0 success, 1 usage or parse error, 2 infeasible or insecure
result.  All output is deterministic for a fixed config: floats are written
with repr (shortest round-trip form) in CSV cells and with fixed-width
formats in text reports.
"""

import argparse
import json
import math
import os
import random
import sys

from thabound import attacks as attacks_mod
from thabound import budget as budget_mod
from thabound.attacks import AttackModel, no_attack
from thabound.channel import (
    ChannelParams,
    DECOY,
    SINGLE_PHOTON,
    SourceModel,
    decoy_state,
    single_photon,
)
from thabound.characterize import parse_trace, reflectivity_bound
from thabound.keyrate import (
    RATE_FLOOR,
    NoPositiveRateError,
    max_distance,
    mu_out_threshold,
    rates_at,
    sweep_lengths,
    verify_convexity,
)

SWEEP_CSV_HEADER = "length_km,mu_out,attack,source,rate"

# Channel used by all figure presets: 0.2 dB/km fiber, 12.5% detection
# efficiency, 1% optical error, 1e-5 dark-count probability, error
# correction at 1.2 times the Shannon limit.
PRESET_CHANNEL = ChannelParams(alpha_db_per_km=0.2, eta_det=0.125,
                               e_opt=0.01, p_dark=1e-5, f_ec=1.2)

PRESET_SWEEP = (0.0, 200.0, 1.0)


class UsageError(Exception):
    """Bad command line; mapped to exit code 1."""


def config_from_json(text: str) -> tuple:
    """(channel, source, attacks, sweep, output_path) from a JSON config."""
    data = json.loads(text)
    try:
        channel = ChannelParams(**data["channel"])
        source_data = data["source"]
        if source_data["kind"] == SINGLE_PHOTON:
            source = single_photon()
        else:
            source = decoy_state(float(source_data["s"]))
        attack_list = tuple(
            AttackModel(entry["kind"], float(entry.get("mu_out", 0.0)))
            for entry in data["attacks"])
        sweep_data = data["sweep"]
        sweep = (float(sweep_data["l_min_km"]), float(sweep_data["l_max_km"]),
                 float(sweep_data["step_km"]))
        return channel, source, attack_list, sweep, str(data["output_path"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad config: {exc}") from None


def _preset_config(name: str) -> tuple:
    general_mu = (1e-8, 1e-6, 1e-4, 1e-2)
    passive_mu = (1e-2, 1e-1, 3e-1)
    usd_mu = (1e-3, 1e-2, 3e-2)
    table = {
        "fig3": (single_photon(), attacks_mod.GENERAL, general_mu),
        "fig4": (decoy_state(0.5), attacks_mod.GENERAL, general_mu),
        "fig9": (single_photon(), attacks_mod.PASSIVE, passive_mu),
        "fig10": (decoy_state(0.5), attacks_mod.PASSIVE, passive_mu),
        "fig11": (single_photon(), attacks_mod.USD, usd_mu),
        "fig12": (decoy_state(0.5), attacks_mod.USD, usd_mu),
    }
    if name not in table:
        raise UsageError(f"unknown preset {name!r}")
    source, kind, mu_values = table[name]
    attack_list = (no_attack(),) + tuple(AttackModel(kind, mu) for mu in mu_values)
    return PRESET_CHANNEL, source, attack_list, PRESET_SWEEP, f"{name}.csv"


PRESET_NAMES = ("fig3", "fig4", "fig9", "fig10", "fig11", "fig12")


def _parse_attack_spec(spec: str) -> AttackModel:
    """Parse an --attack value: 'none', or 'kind:mu' like 'general:1e-6'."""
    kind, _, mu_text = spec.partition(":")
    if kind not in attacks_mod.ATTACK_KINDS:
        raise argparse.ArgumentTypeError(
            f"unknown attack kind {kind!r}; choose from "
            f"{', '.join(attacks_mod.ATTACK_KINDS)}")
    try:
        return AttackModel(kind, float(mu_text) if mu_text else 0.0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=PRESET_NAMES,
                       help="bundled figure configuration")
    group.add_argument("--config", metavar="PATH",
                       help="JSON config file")
    parser.add_argument("--source", choices=(SINGLE_PHOTON, DECOY),
                        help="source model override")
    parser.add_argument("--decoy-s", type=float, metavar="S",
                        help="signal intensity for the decoy source")
    parser.add_argument("--attack", action="append", type=_parse_attack_spec,
                        metavar="KIND[:MU]", dest="attack_list",
                        help="attack entry, e.g. general:1e-6; repeatable")
    parser.add_argument("--l-min", type=float, metavar="KM")
    parser.add_argument("--l-max", type=float, metavar="KM")
    parser.add_argument("--step", type=float, metavar="KM")
    parser.add_argument("--output", metavar="PATH",
                        help="output path override")
    parser.add_argument("--alpha-db-per-km", type=float, metavar="DB")
    parser.add_argument("--eta-det", type=float, metavar="P")
    parser.add_argument("--e-opt", type=float, metavar="P")
    parser.add_argument("--p-dark", type=float, metavar="P")
    parser.add_argument("--f-ec", type=float, metavar="F")


CHANNEL_FIELDS = ("alpha_db_per_km", "eta_det", "e_opt", "p_dark", "f_ec")


def _resolve_config(args: argparse.Namespace) -> tuple:
    """(channel, source, attacks, sweep, output_path) of a sweep or threshold.

    Starts from the preset, the --config file or the defaults, then applies
    every override flag that was given.
    """
    if args.preset:
        channel, source, attack_list, sweep, output_path = _preset_config(args.preset)
    elif args.config:
        with open(args.config, encoding="utf-8") as handle:
            channel, source, attack_list, sweep, output_path = config_from_json(
                handle.read())
    else:
        channel, source, attack_list, sweep, output_path = (
            PRESET_CHANNEL, single_photon(), (), PRESET_SWEEP, "sweep.csv")

    overrides = [getattr(args, field) for field in CHANNEL_FIELDS]
    if any(value is not None for value in overrides):
        channel = ChannelParams(*(
            getattr(channel, field) if value is None else value
            for field, value in zip(CHANNEL_FIELDS, overrides)))

    if args.source == SINGLE_PHOTON:
        source = single_photon()
    elif args.source == DECOY:
        if args.decoy_s is None and source.kind != DECOY:
            raise UsageError("--source decoy needs --decoy-s")
        source = decoy_state(args.decoy_s if args.decoy_s is not None else source.s)
    elif args.decoy_s is not None:
        if source.kind != DECOY:
            raise UsageError("--decoy-s only applies to a decoy source")
        source = decoy_state(args.decoy_s)

    if args.attack_list:
        attack_list = tuple(args.attack_list)
    sweep = tuple(value if flag is None else flag
                  for value, flag in zip(sweep, (args.l_min, args.l_max, args.step)))
    return channel, source, attack_list, sweep, args.output or output_path


def _fmt(value: float) -> str:
    """Shortest exact decimal form of a float, for CSV cells."""
    return repr(float(value))


def _sorted_attacks(attack_list: tuple[AttackModel, ...]) -> list[AttackModel]:
    """Attack blocks in output order; an empty list means baseline only."""
    entries = list(attack_list) or [no_attack()]
    return sorted(entries, key=lambda a: (a.kind, a.mu_out))


def _gnuplot_script(csv_path: str, blocks: list[AttackModel],
                    source: SourceModel) -> str:
    base = os.path.basename(csv_path)
    stem = os.path.splitext(base)[0]
    lines = [
        f"# key rate vs distance, data in {base}",
        'set datafile separator ","',
        "set terminal pngcairo size 900,600",
        f'set output "{stem}.png"',
        'set xlabel "fiber length (km)"',
        'set ylabel "secret key rate (bits per pulse)"',
        "set logscale y",
        "set yrange [1e-12:1]",
        "set key top right",
        f'set title "{stem} ({source.label()})"',
        "plot \\",
    ]
    clauses = []
    for attack in blocks:
        mu_cell = _fmt(attack.mu_out)
        if attack.kind == attacks_mod.NO_ATTACK:
            title = "no attack"
        else:
            title = f"{attack.kind} mu_out={mu_cell}"
        clauses.append(
            f'  "{base}" skip 1 using 1:((strcol(3) eq "{attack.kind}" '
            f'&& strcol(2) eq "{mu_cell}" && $5 > 0) ? $5 : NaN) '
            f'with lines title "{title}"')
    lines.append(", \\\n".join(clauses))
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    channel, source, attack_list, sweep, output_path = _resolve_config(args)
    blocks = _sorted_attacks(attack_list)

    # Rates are evaluated length by length, all blocks at once, and written
    # block by block; rates below RATE_FLOOR are written as 0.
    lengths = sweep_lengths(*sweep)
    rates_by_length = [rates_at(channel, source, blocks, length)
                       for length in lengths]
    length_cells = [_fmt(length) for length in lengths]
    label = source.label()
    rows = [SWEEP_CSV_HEADER]
    for index, attack in enumerate(blocks):
        attack_cells = f"{_fmt(attack.mu_out)},{attack.kind},{label}"
        for length_cell, rates in zip(length_cells, rates_by_length):
            rate = rates[index]
            rate_cell = _fmt(rate) if rate >= RATE_FLOOR else "0"
            rows.append(f"{length_cell},{attack_cells},{rate_cell}")

    with open(output_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(rows) + "\n")
    script_path = os.path.splitext(output_path)[0] + ".gp"
    with open(script_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_gnuplot_script(output_path, blocks, source))

    print(f"wrote {output_path} ({len(rows) - 1} rows)")
    print(f"wrote {script_path}")
    return 0


def cmd_threshold(args: argparse.Namespace) -> int:
    channel, source, attack_list, _, _ = _resolve_config(args)
    entries = _sorted_attacks(attack_list)
    kinds = sorted({a.kind for a in entries})

    reports = []
    for kind in kinds:
        if kind == attacks_mod.NO_ATTACK:
            threshold = None
        else:
            threshold = mu_out_threshold(channel, source, kind)
        distances = {}
        for attack in entries:
            if attack.kind != kind:
                continue
            try:
                km = max_distance(channel, source, attack)
            except NoPositiveRateError:
                km = None
            distances[_fmt(attack.mu_out)] = km
        reports.append({
            "attack_kind": kind,
            "source": source.label(),
            "mu_out_threshold": threshold,
            "max_distance_at": distances,
        })

    text = json.dumps({"reports": reports}, indent=2) + "\n"
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    return 0


def _catalog_from_config(path: str | None) -> budget_mod.ComponentCatalog:
    if path is None:
        return budget_mod.ComponentCatalog()
    with open(path, encoding="utf-8") as handle:
        data = json.loads(handle.read())
    if not isinstance(data, dict):
        raise ValueError("budget config must be a JSON object with a "
                         "'catalog' object")
    entry = data.get("catalog", {})
    if not isinstance(entry, dict):
        raise ValueError(f"catalog must be a JSON object, got {entry!r}")
    kwargs = {}
    for key in ("isolator_db_values", "reflectivity_db_values",
                "filter_db_values"):
        if key in entry:
            values = entry[key]
            try:
                if not isinstance(values, list):
                    raise TypeError
                kwargs[key] = tuple(float(v) for v in values)
            except (TypeError, ValueError):
                raise ValueError(f"catalog {key} must be a list of numbers, "
                                 f"got {values!r}") from None
    return budget_mod.ComponentCatalog(**kwargs)


def cmd_budget(args: argparse.Namespace) -> int:
    # Planning runs before the first line is printed, so bad input exits 1
    # with nothing on stdout.
    gamma = budget_mod.required_isolation(args.mu_out, args.photon_flux,
                                          args.clock_hz)
    catalog = _catalog_from_config(args.config)
    max_att = -abs(args.max_attenuator_db)
    budgets = budget_mod.plan_budget(gamma, catalog=catalog,
                                     max_attenuator_db=max_att,
                                     allow_attenuator=not args.no_attenuator)

    print(f"required isolation: {gamma:.6g} dB")
    if not budgets:
        print("no feasible component combination reaches the target")
        return 2

    print(f"feasible combinations: {len(budgets)}")
    print("  isolators      attenuator_db  reflectivity_db  filter_db  total_db")
    for entry in budgets:
        total = budget_mod.isolation_total(entry)
        isolators = (f"{entry.isolator_count} x {entry.isolator_db:g}"
                     if entry.isolator_count else "0")
        print(f"  {isolators:<13}  {entry.attenuator_db:>13g}  "
              f"{entry.reflectivity_db:>15g}  {entry.filter_db:>9g}  "
              f"{total:>8g}")

    if args.output:
        payload = {
            "required_isolation_db": gamma,
            "budgets": [
                entry._asdict()
                | {"total_db": budget_mod.isolation_total(entry)}
                for entry in budgets
            ],
        }
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_reflectivity(args: argparse.Namespace) -> int:
    with open(args.trace, encoding="utf-8") as handle:
        peaks = parse_trace(handle.read())
    d_min, d_max = args.region
    bound = reflectivity_bound(peaks, (d_min, d_max))
    print("  distance_m  reflectivity_db  polarization  in_region")
    for peak in peaks:
        in_region = "yes" if d_min <= peak.distance_m <= d_max else "no"
        print(f"  {peak.distance_m:>10g}  {peak.reflectivity_db:>15g}  "
              f"{peak.polarization:<12}  {in_region}")
    if bound is None:
        print(f"no reflectors in region {d_min:g} m to {d_max:g} m")
    else:
        print(f"reflectivity bound ({d_min:g} m to {d_max:g} m): {bound:.2f} dB")
    return 0


def _lidt_base_spec(args: argparse.Namespace) -> budget_mod.LidtSpec:
    if args.preset is not None:
        if args.preset == "conservative":
            return budget_mod.conservative_preset(args.bend_edge_compensation)
        return budget_mod.fiber_fuse_preset(args.bend_edge_compensation)
    if args.power is None:
        raise UsageError("lidt needs --preset or --power")
    if args.wavelength_m is None:
        raise UsageError("--power needs --lambda (wavelength in meters)")
    flux = budget_mod.photon_flux_from_power(args.power, args.wavelength_m)
    # A raw power rating is treated as continuous exposure.
    return budget_mod.LidtSpec(photon_flux=flux, pulse_width_ref_s=1.0,
                               wavelength_ref_m=args.wavelength_m)


def cmd_lidt(args: argparse.Namespace) -> int:
    base = _lidt_base_spec(args)
    # Every rescaling runs before the first line is printed, so a bad
    # --pulse-width or --wavelength exits 1 with nothing on stdout.
    spec = base
    rescaled = []
    if args.pulse_width is not None:
        spec = budget_mod.lidt_scale_pulse_width(spec, args.pulse_width)
        rescaled.append(f"flux at pulse width {args.pulse_width:.4e} s: "
                        f"{spec.photon_flux:.4e} photons/s")
    if args.wavelength is not None:
        spec = budget_mod.lidt_scale_wavelength(spec, args.wavelength)
        rescaled.append(f"flux at wavelength {args.wavelength:.4e} m: "
                        f"{spec.photon_flux:.4e} photons/s")

    if args.preset is not None:
        print(f"preset: {args.preset}")
    else:
        print(f"input power: {args.power:.4e} W at {args.wavelength_m:.4e} m")
    print(f"photon flux: {base.photon_flux:.4e} photons/s")
    print(f"reference pulse width: {base.pulse_width_ref_s:.4e} s")
    print(f"reference wavelength: {base.wavelength_ref_m:.4e} m")
    for line in rescaled:
        print(line)
    return 0


CONVEXITY_LENGTHS_KM = (0.0, 50.0, 100.0)
# Most pairs one convexity run may check per attack kind and source.
MAX_CONVEXITY_PAIRS = 10_000


def cmd_convexity(args: argparse.Namespace) -> int:
    if not 1 <= args.pairs <= MAX_CONVEXITY_PAIRS:
        raise UsageError(f"--pairs must be between 1 and {MAX_CONVEXITY_PAIRS}, "
                         f"got {args.pairs}")
    # Written so that NaN and +inf fail the comparison.
    if not 0.0 < args.mu_max < math.inf:
        raise UsageError(f"--mu-max must be finite and > 0, got {args.mu_max!r}")
    rng = random.Random(args.seed)
    sources = (single_photon(), decoy_state(0.5))
    kinds = (attacks_mod.GENERAL, attacks_mod.PASSIVE, attacks_mod.USD)
    total = 0
    violations = 0
    for kind in kinds:
        for source in sources:
            bad = 0
            for index in range(args.pairs):
                mu1 = rng.uniform(0.0, args.mu_max)
                mu2 = rng.uniform(0.0, args.mu_max)
                length = CONVEXITY_LENGTHS_KM[index % len(CONVEXITY_LENGTHS_KM)]
                if not verify_convexity(PRESET_CHANNEL, source, kind,
                                        length, mu1, mu2):
                    bad += 1
            print(f"{kind}/{source.label()}: {args.pairs} pairs, {bad} violations")
            total += args.pairs
            violations += bad
    print(f"checked {total} pairs, {violations} violations")
    return 0 if violations == 0 else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="thabound",
                     description="Trojan-horse leakage bounds for QKD "
                                 "transmitters: key rates, thresholds, and "
                                 "isolation budgets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="rate vs distance CSV + plot script")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_thresh = sub.add_parser("threshold",
                              help="leakage thresholds and max distances")
    _add_config_flags(p_thresh)
    p_thresh.set_defaults(func=cmd_threshold)

    p_budget = sub.add_parser("budget", help="plan an isolation budget")
    p_budget.add_argument("--mu-out", type=float, required=True,
                          help="target leakage (photons per pulse)")
    p_budget.add_argument("--photon-flux", type=float, required=True,
                          help="damage-threshold flux N (photons per second)")
    p_budget.add_argument("--clock-hz", type=float, required=True,
                          help="system clock rate f_A")
    p_budget.add_argument("--config", metavar="PATH",
                          help="JSON file with a component catalog")
    p_budget.add_argument("--no-attenuator", action="store_true",
                          help="exclude attenuators (single-photon sources)")
    p_budget.add_argument("--max-attenuator-db", type=float, default=35.0,
                          help="deepest attenuator to consider (dB magnitude)")
    p_budget.add_argument("--output", metavar="PATH",
                          help="also write the budgets as JSON")
    p_budget.set_defaults(func=cmd_budget)

    p_refl = sub.add_parser("reflectivity",
                            help="reflectivity bound from an OTDR peak CSV")
    p_refl.add_argument("--trace", required=True, metavar="PATH")
    p_refl.add_argument("--region", type=float, nargs=2, required=True,
                        metavar=("MIN_M", "MAX_M"))
    p_refl.set_defaults(func=cmd_reflectivity)

    p_lidt = sub.add_parser("lidt", help="damage-threshold conversions")
    p_lidt.add_argument("--preset", choices=("conservative", "fiber-fuse"))
    p_lidt.add_argument("--power", type=float, metavar="W")
    p_lidt.add_argument("--lambda", type=float, dest="wavelength_m",
                        metavar="M", help="wavelength of the input power")
    p_lidt.add_argument("--pulse-width", type=float, metavar="S",
                        help="rescale the flux to this pulse width")
    p_lidt.add_argument("--wavelength", type=float, metavar="M",
                        help="rescale the flux to this wavelength")
    p_lidt.add_argument("--bend-edge-compensation", action="store_true",
                        help="allow the 10%% headroom of probing at the "
                             "bend-loss edge")
    p_lidt.set_defaults(func=cmd_lidt)

    p_conv = sub.add_parser("convexity",
                            help="randomized convexity check of the rates")
    p_conv.add_argument("--pairs", type=int, default=200)
    p_conv.add_argument("--seed", type=int, default=0)
    p_conv.add_argument("--mu-max", type=float, default=0.6)
    p_conv.set_defaults(func=cmd_convexity)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NoPositiveRateError as exc:
        # Before ValueError, which it subclasses.
        print(f"insecure: {exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
