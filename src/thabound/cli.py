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

Each cmd_* function returns (exit code, stdout lines, {path: text pieces})
and writes nothing; main writes the files, all or none, then stdout.  A
file's text is an iterable of str pieces: sweep's CSV is formatted as it is
written, from rates computed before any file is opened.  So a command that
raises has written no file and printed nothing.
"""

# A stdlib module that only some subcommands use (json, random) is imported
# inside them, so a process running another subcommand never loads it.
import argparse
import os
import re
import sys
from itertools import groupby

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
    NoPositiveRateError,
    max_distance,
    mu_out_threshold,
    rates_at,
    sweep_lengths,
    verify_convexity,
)
from thabound.numerics import positive

# argparse passes its usage and error messages through gettext, whose lookup
# imports locale in every process.  Printing them untranslated saves that
# import's memory and time, and keeps the usage and error text the same bytes
# whatever LANGUAGE, LC_* and LANG say.  These are the rules of
# gettext.NullTranslations.
argparse._ = str
argparse.ngettext = lambda singular, plural, n: singular if n == 1 else plural

SWEEP_CSV_HEADER = "length_km,mu_out,attack,source,rate"

# Channel used by all figure presets: 0.2 dB/km fiber, 12.5% detection
# efficiency, 1% optical error, 1e-5 dark-count probability, error
# correction at 1.2 times the Shannon limit.
PRESET_CHANNEL = ChannelParams(alpha_db_per_km=0.2, eta_det=0.125,
                               e_opt=0.01, p_dark=1e-5, f_ec=1.2)

_GENERAL_MU = (1e-8, 1e-6, 1e-4, 1e-2)
_PASSIVE_MU = (1e-2, 1e-1, 3e-1)
_USD_MU = (1e-3, 1e-2, 3e-2)

# Figure presets, by name: source kind, decoy intensity s, attack kind and
# the mu_out of each attack block, all on PRESET_CHANNEL and the default
# sweep grid.
PRESETS = {
    "fig3": (SINGLE_PHOTON, None, attacks_mod.GENERAL, _GENERAL_MU),
    "fig4": (DECOY, 0.5, attacks_mod.GENERAL, _GENERAL_MU),
    "fig9": (SINGLE_PHOTON, None, attacks_mod.PASSIVE, _PASSIVE_MU),
    "fig10": (DECOY, 0.5, attacks_mod.PASSIVE, _PASSIVE_MU),
    "fig11": (SINGLE_PHOTON, None, attacks_mod.USD, _USD_MU),
    "fig12": (DECOY, 0.5, attacks_mod.USD, _USD_MU),
}


def _float(text: str) -> float:
    """float(text), with -0 read as 0.0 so that no output shows -0."""
    return float(text) + 0.0


def _parse_attack_spec(spec: str) -> AttackModel:
    """Parse an --attack value: 'none', or 'kind:mu' like 'general:1e-6'."""
    kind, _, mu_text = spec.partition(":")
    try:
        return AttackModel(kind, _float(mu_text) if mu_text else 0.0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=PRESETS,
                        help="bundled figure configuration")
    parser.add_argument("--source", choices=(SINGLE_PHOTON, DECOY),
                        help="source model override")
    parser.add_argument("--decoy-s", type=float, metavar="S",
                        help="signal intensity for the decoy source")
    parser.add_argument("--attack", action="append", type=_parse_attack_spec,
                        metavar="KIND[:MU]", dest="attack_list",
                        help="attack entry, e.g. general:1e-6; repeatable")
    parser.add_argument("--alpha-db-per-km", type=float, metavar="DB")
    parser.add_argument("--eta-det", type=float, metavar="P")
    parser.add_argument("--e-opt", type=float, metavar="P")
    parser.add_argument("--p-dark", type=float, metavar="P")
    parser.add_argument("--f-ec", type=float, metavar="F")


def _resolve_config(args: argparse.Namespace) -> tuple:
    """(channel, source, blocks) of a sweep or threshold.

    Starts from the preset or the defaults, then applies every channel,
    source and attack flag that was given.  blocks are the distinct attacks
    in output order: the --attack entries if any were given, else the
    preset's, else the baseline only.
    """
    source_kind, preset_s, attack_kind, mu_values = PRESETS.get(
        args.preset, (SINGLE_PHOTON, None, attacks_mod.NO_ATTACK, ()))

    overrides = {field: getattr(args, field) for field in PRESET_CHANNEL._fields
                 if getattr(args, field) is not None}
    channel = PRESET_CHANNEL._replace(**overrides) if overrides else PRESET_CHANNEL

    kind = args.source or source_kind
    s = args.decoy_s
    if kind == SINGLE_PHOTON:
        if s is not None:
            raise ValueError("--decoy-s only applies to a decoy source")
    elif s is None:
        if preset_s is None:
            raise ValueError("--source decoy needs --decoy-s")
        s = preset_s
    source = SourceModel(kind, s)

    attack_list = args.attack_list or [
        no_attack(), *(AttackModel(attack_kind, mu) for mu in mu_values)]
    return channel, source, sorted(set(attack_list))


def _fmt(value: float) -> str:
    """Shortest exact decimal form of a float, for CSV cells."""
    return repr(float(value))


# The lower y limit of the plot, and nothing else: no rate is floored.  A
# zero rate (no key) is written 0 and plotted as a gap.
RATE_FLOOR = 1e-12


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
        f"set yrange [{RATE_FLOOR:g}:1]",
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


def cmd_sweep(args: argparse.Namespace) -> tuple:
    channel, source, blocks = _resolve_config(args)
    output_path = args.output or f"{args.preset or 'sweep'}.csv"
    script_path = os.path.splitext(output_path)[0] + ".gp"
    if script_path == output_path:
        raise ValueError(f"output {output_path!r} is also the gnuplot script "
                         "path; give the CSV another extension")

    # Rates are evaluated length by length, all blocks at once, before any
    # file is opened; the CSV is formatted block by block as it is written.
    lengths = sweep_lengths(args.l_min, args.l_max, args.step)
    rates_by_length = [rates_at(channel, source, blocks, length)
                       for length in lengths]
    files = {output_path: _sweep_csv(blocks, source.label(), lengths,
                                     rates_by_length),
             script_path: (_gnuplot_script(output_path, blocks, source),)}
    return 0, [f"wrote {output_path} ({len(blocks) * len(lengths)} rows)",
               f"wrote {script_path}"], files


def _sweep_csv(blocks: list[AttackModel], label: str, lengths: list[float],
               rates_by_length: list[list[float]]):
    """The sweep CSV, line by line; a zero rate is written 0, not 0.0."""
    yield f"{SWEEP_CSV_HEADER}\n"
    length_cells = [_fmt(length) for length in lengths]
    for index, attack in enumerate(blocks):
        attack_cells = f"{_fmt(attack.mu_out)},{attack.kind},{label}"
        for length_cell, rates in zip(length_cells, rates_by_length):
            rate = rates[index]
            rate_cell = _fmt(rate) if rate > 0.0 else "0"
            yield f"{length_cell},{attack_cells},{rate_cell}\n"


def cmd_threshold(args: argparse.Namespace) -> tuple:
    channel, source, blocks = _resolve_config(args)
    reports = []
    for kind, entries in groupby(blocks, key=lambda a: a.kind):
        if kind == attacks_mod.NO_ATTACK:
            threshold = None
        else:
            threshold = mu_out_threshold(channel, source, kind)
        distances = {}
        for attack in entries:
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

    import json
    return 0, [json.dumps({"reports": reports}, indent=2)], {}


def cmd_budget(args: argparse.Namespace) -> tuple:
    gamma = budget_mod.required_isolation(args.mu_out, args.photon_flux,
                                          args.clock_hz)
    catalog = budget_mod.ComponentCatalog(**{
        field: tuple(values) for field in budget_mod.ComponentCatalog._fields
        if (values := getattr(args, field)) is not None})
    budgets = budget_mod.plan_budget(gamma, catalog=catalog,
                                     max_attenuator_db=args.max_attenuator_db,
                                     allow_attenuator=not args.no_attenuator)

    lines = [f"required isolation: {gamma:.6g} dB"]
    if not budgets:
        lines.append("no feasible component combination reaches the target")
        return 2, lines, {}

    lines.append(f"feasible combinations: {len(budgets)}")
    lines.append("  isolators      attenuator_db  reflectivity_db  filter_db  total_db")
    for entry in budgets:
        total = budget_mod.isolation_total(entry)
        isolators = (f"{entry.isolator_count} x {entry.isolator_db:g}"
                     if entry.isolator_count else "0")
        lines.append(f"  {isolators:<13}  {entry.attenuator_db:>13g}  "
                     f"{entry.reflectivity_db:>15g}  {entry.filter_db:>9g}  "
                     f"{total:>8g}")

    files = {}
    if args.output:
        import json
        payload = {
            "required_isolation_db": gamma,
            "budgets": [
                entry._asdict()
                | {"total_db": budget_mod.isolation_total(entry)}
                for entry in budgets
            ],
        }
        files[args.output] = (json.dumps(payload, indent=2) + "\n",)
    return 0, lines, files


def cmd_reflectivity(args: argparse.Namespace) -> tuple:
    # utf-8-sig drops the byte-order mark that spreadsheets write.
    with open(args.trace, encoding="utf-8-sig") as handle:
        peaks = parse_trace(handle.read())
    d_min, d_max = args.region
    bound = reflectivity_bound(peaks, (d_min, d_max))
    lines = ["  distance_m  reflectivity_db  polarization  in_region"]
    for peak in peaks:
        in_region = "yes" if d_min <= peak.distance_m <= d_max else "no"
        lines.append(f"  {peak.distance_m:>10g}  {peak.reflectivity_db:>15g}  "
                     f"{peak.polarization:<12}  {in_region}")
    if bound is None:
        lines.append(f"no reflectors in region {d_min:g} m to {d_max:g} m")
    else:
        lines.append(f"reflectivity bound ({d_min:g} m to {d_max:g} m): "
                     f"{bound:.2f} dB")
    return 0, lines, {}


def cmd_lidt(args: argparse.Namespace) -> tuple:
    if args.preset is not None:
        if args.wavelength_m is not None:
            raise ValueError("--lambda only applies to --power")
        preset_spec = (budget_mod.conservative_preset
                       if args.preset == "conservative"
                       else budget_mod.fiber_fuse_preset)
        spec = preset_spec(args.bend_edge_compensation)
        lines = [f"preset: {args.preset}"]
    else:
        if args.bend_edge_compensation:
            raise ValueError("--bend-edge-compensation only applies to a --preset")
        if args.wavelength_m is None:
            raise ValueError("--power needs --lambda (wavelength in meters)")
        flux = budget_mod.photon_flux_from_power(args.power, args.wavelength_m)
        # A raw power rating is treated as continuous exposure.
        spec = budget_mod.LidtSpec(photon_flux=flux, pulse_width_ref_s=1.0,
                                   wavelength_ref_m=args.wavelength_m)
        lines = [f"input power: {args.power:.4e} W at {args.wavelength_m:.4e} m"]
    lines += [f"photon flux: {spec.photon_flux:.4e} photons/s",
              f"reference pulse width: {spec.pulse_width_ref_s:.4e} s",
              f"reference wavelength: {spec.wavelength_ref_m:.4e} m"]
    if args.pulse_width is not None:
        spec = budget_mod.lidt_scale_pulse_width(spec, args.pulse_width)
        lines.append(f"flux at pulse width {args.pulse_width:.4e} s: "
                     f"{spec.photon_flux:.4e} photons/s")
    if args.wavelength is not None:
        spec = budget_mod.lidt_scale_wavelength(spec, args.wavelength)
        lines.append(f"flux at wavelength {args.wavelength:.4e} m: "
                     f"{spec.photon_flux:.4e} photons/s")
    return 0, lines, {}


CONVEXITY_LENGTHS_KM = (0.0, 50.0, 100.0)
# Most pairs one convexity run may check per attack kind and source.
MAX_CONVEXITY_PAIRS = 10_000


def cmd_convexity(args: argparse.Namespace) -> tuple:
    if not 1 <= args.pairs <= MAX_CONVEXITY_PAIRS:
        raise ValueError(f"--pairs must be between 1 and {MAX_CONVEXITY_PAIRS}, "
                         f"got {args.pairs}")
    positive("mu_max", args.mu_max)
    import random
    rng = random.Random(args.seed)
    sources = (single_photon(), decoy_state(0.5))
    lines = []
    total = 0
    violations = 0
    for kind in attacks_mod.ATTACK_KINDS[1:]:
        for source in sources:
            bad = 0
            for index in range(args.pairs):
                mu1 = rng.uniform(0.0, args.mu_max)
                mu2 = rng.uniform(0.0, args.mu_max)
                length = CONVEXITY_LENGTHS_KM[index % len(CONVEXITY_LENGTHS_KM)]
                if not verify_convexity(PRESET_CHANNEL, source, kind,
                                        length, mu1, mu2):
                    bad += 1
            lines.append(f"{kind}/{source.label()}: {args.pairs} pairs, "
                         f"{bad} violations")
            total += args.pairs
            violations += bad
    lines.append(f"checked {total} pairs, {violations} violations")
    return (0 if violations == 0 else 2), lines, {}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Whatever starts like a negative number (-5e1, -inf, a malformed -0x)
        # is a value for the type to judge; no option here starts that way.
        self._negative_number_matcher = re.compile(r"(?i)-(\d|\.\d|inf|nan)")
        # Every type=float flag converts through _float; action.type stays
        # float, so argparse still reports "invalid float value".
        self.register("type", float, _float)

    def error(self, message: str) -> None:
        raise ValueError(message)


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    _add_config_flags(parser)
    parser.add_argument("--output", metavar="PATH",
                        help="output path override")
    parser.add_argument("--l-min", type=float, default=0.0, metavar="KM")
    parser.add_argument("--l-max", type=float, default=200.0, metavar="KM")
    parser.add_argument("--step", type=float, default=1.0, metavar="KM")


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu-out", type=float, required=True,
                        help="target leakage (photons per pulse)")
    parser.add_argument("--photon-flux", type=float, required=True,
                        help="damage-threshold flux N (photons per second)")
    parser.add_argument("--clock-hz", type=float, required=True,
                        help="system clock rate f_A")
    for flag, field in (("--isolator-db", "isolator_db_values"),
                        ("--reflectivity-db", "reflectivity_db_values"),
                        ("--filter-db", "filter_db_values")):
        parser.add_argument(flag, type=float, action="append", dest=field,
                            metavar="DB",
                            help="catalog value (nonpositive); repeatable, "
                                 "replaces the stock set")
    parser.add_argument("--no-attenuator", action="store_true",
                        help="exclude attenuators (single-photon sources)")
    parser.add_argument("--max-attenuator-db", type=float,
                        default=budget_mod.MAX_ATTENUATOR_DB, metavar="DB",
                        help="deepest attenuator to consider (nonpositive)")
    parser.add_argument("--output", metavar="PATH",
                        help="also write the budgets as JSON")


def _add_reflectivity_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", required=True, metavar="PATH")
    parser.add_argument("--region", type=float, nargs=2, required=True,
                        metavar=("MIN_M", "MAX_M"))


def _add_lidt_flags(parser: argparse.ArgumentParser) -> None:
    lidt_input = parser.add_mutually_exclusive_group(required=True)
    lidt_input.add_argument("--preset", choices=("conservative", "fiber-fuse"))
    lidt_input.add_argument("--power", type=float, metavar="W")
    parser.add_argument("--lambda", type=float, dest="wavelength_m",
                        metavar="M", help="wavelength of the input power")
    parser.add_argument("--pulse-width", type=float, metavar="S",
                        help="rescale the flux to this pulse width")
    parser.add_argument("--wavelength", type=float, metavar="M",
                        help="rescale the flux to this wavelength")
    parser.add_argument("--bend-edge-compensation", action="store_true",
                        help="allow the 10%% headroom of probing at the "
                             "bend-loss edge")


def _add_convexity_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mu-max", type=float, default=0.6)


# The subcommands in help order: (name, help, flag adder, handler).
_SUBCOMMANDS = (
    ("sweep", "rate vs distance CSV + plot script", _add_sweep_flags, cmd_sweep),
    ("threshold", "leakage thresholds and max distances", _add_config_flags,
     cmd_threshold),
    ("budget", "plan an isolation budget", _add_budget_flags, cmd_budget),
    ("reflectivity", "reflectivity bound from an OTDR peak CSV",
     _add_reflectivity_flags, cmd_reflectivity),
    ("lidt", "damage-threshold conversions", _add_lidt_flags, cmd_lidt),
    ("convexity", "randomized convexity check of the rates",
     _add_convexity_flags, cmd_convexity),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, with only the subparser of `command` if it names one.

    Any other `command` (None, an option, a typo) gets all six, so help and
    usage errors list every subcommand.
    """
    parser = _Parser(prog="thabound",
                     description="Trojan-horse leakage bounds for QKD "
                                 "transmitters: key rates, thresholds, and "
                                 "isolation budgets.")
    sub = parser.add_subparsers(dest="command", required=True)
    entries = [entry for entry in _SUBCOMMANDS if entry[0] == command]
    for name, help_text, add_flags, handler in entries or _SUBCOMMANDS:
        subparser = sub.add_parser(name, help=help_text)
        add_flags(subparser)
        subparser.set_defaults(func=handler)
    return parser


def _write_files(files: dict) -> None:
    """Write every file or none.

    Each value is an iterable of str pieces, written in order; a bare str
    is one too, and is written one character at a time.  Each file goes to
    a temporary file beside its target, and the temporaries replace their
    targets by rename only once all are written, so a failed write (or a
    value that raises) leaves every target as it was.  A symbolic link is
    followed, and an existing target keeps its mode.  Two paths that
    resolve to the same file are refused before anything is written.
    """
    paths_by_target = {}
    for path in files:
        if os.path.exists(path) and not os.path.isfile(path):
            raise ValueError(f"output {path!r} exists and is not a regular file")
        first = paths_by_target.setdefault(os.path.realpath(path), path)
        if first != path:
            raise ValueError(f"outputs {first!r} and {path!r} are the same file")
    renames = []
    try:
        for target, path in paths_by_target.items():
            temp = f"{target}.{os.getpid()}.tmp"
            try:
                # A file here was left by a killed process with this pid, as
                # no live one has it; "x" refuses a link made after removal.
                if os.path.lexists(temp):
                    os.remove(temp)
                handle = open(temp, "x", encoding="utf-8", newline="\n")
            except OSError as exc:
                # Name the output, not the temporary file.
                raise type(exc)(exc.errno, exc.strerror, path) from None
            renames.append((temp, target))
            with handle:
                handle.writelines(files[path])
            if os.path.exists(target):
                os.chmod(temp, os.stat(target).st_mode & 0o7777)
        for temp, target in renames:
            os.replace(temp, target)
        renames.clear()
    finally:
        # After a failure: remove the temporaries (a renamed one is gone).
        for temp, _ in renames:
            try:
                os.remove(temp)
            except OSError:
                pass


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The first argument is the subcommand whenever it names one.
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        code, lines, files = args.func(args)
        _write_files(files)
        sys.stdout.writelines(f"{line}\n" for line in lines)
        # Flushed here, so a closed pipe is caught below and not at exit.
        sys.stdout.flush()
        return code
    except NoPositiveRateError as exc:
        # Before ValueError, which it subclasses.
        print(f"insecure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Before OSError: the reader closed stdout early, which is no usage
        # error.  Unwritten output goes to /dev/null, so the flush at exit
        # cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
