"""Seeded inputs for the three workloads.

Everything here is plain data drawn from ``random.Random(seed)``; nothing
imports thabound, so the same seed gives the same inputs at any commit.
The ranges stay within the package's intended scale (grids of at most a
few thousand points, traces of tens to hundreds of peaks):

cli_figures   the six figure presets (1005 or 804 rows each, 5226 rows
              per pass) plus ``convexity --seed <seed>`` at its default 200
              pairs (3600 rate evaluations).
cli_planning  per pass: threshold fig3/fig4; 4 threshold runs on a random
              channel (alpha 0.16-0.25 dB/km, eta_det log 0.05-0.6, e_opt
              0.005-0.03, p_dark log 1e-7-1e-5, f_ec 1.05-1.25), either
              source (decoy s 0.2-0.8) and 1-4 attacks with mu_out log
              1e-9-1e-1; the README budget example plus 3 budgets with and
              3 without attenuator (mu_out log 1e-8-1e-4, flux log
              1e18-4.3e23 photons/s, clock log 1e6-1e10 Hz); the bundled
              reflectometry trace plus 3 generated traces of 10-80 peaks
              (0-20 m, -70 to -25 dB) with a random region; 6 lidt runs
              (presets, power log 1e-3-1e2 W at 800-1900 nm, rescaled to a
              pulse width log 1e-12-1e-3 s and a wavelength 800-1900 nm).
library       an endless stream of single library calls, 975 per chunk
              (15 rounds of LIBRARY_MIX, shuffled), each on its own random
              channel, source, attack and length (0-200 km, mu_out log
              1e-10-1e-1), so inputs share almost nothing.  Searches use
              mu_out log 1e-10-1e-3 for reach, sweeps are 10-60 km long
              with a 1-5 km step, traces hold 50-300 peaks, budgets use
              the cli_planning ranges with or without attenuator at even
              odds.  Each worker of a run has its own stream of the seed.
"""

import math
import random

PRESETS = ("fig3", "fig4", "fig9", "fig10", "fig11", "fig12")
ATTACK_KINDS = ("general", "passive", "usd")

# One round of the library workload: calls by kind.  RATIONALE.md derives
# it.  The first four rows are scripts/threshold_report.py at its defaults
# (a threshold search per source and attack kind, 2 x 3, and a reach search
# at each of its 3 leakage values for each) and scripts/isolation_table.py
# at its defaults (per clock rate, 3, one required_isolation and a
# plan_budget with and one without attenuator).  The rest have no caller
# script; their counts are choices, one per pairing or per search.
LIBRARY_MIX = (
    ("mu_out_threshold", 6),
    ("max_distance", 18),
    ("required_isolation", 3),
    ("plan_budget", 6),
    ("key_rate", 18),
    ("sweep_distance", 6),
    ("verify_convexity", 6),
    ("parse_trace", 1),
    ("reflectivity_bound", 1),
)
ROUNDS_PER_CHUNK = 15

# The trace shipped with the package's tests and quoted in its README.
BUNDLED_TRACE = """\
# OTDR reflection peaks of the transmitter module, both polarization arms.
# distance from the entrance connector (m), reflectivity (dB), arm tag
0.8,-48.0,s
2.1,-50.0,l

3.7,-49.5,s
5.2,-48.3647,l
# components behind the isolation stage (outside the 0-7 m budget region)
9.6,-35.0,s
12.3,-30.2,l
"""

# Channel of the figure presets, used for convexity checks as the CLI does.
PRESET_CHANNEL = (0.2, 0.125, 0.01, 1e-5, 1.2)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _channel(rng: random.Random) -> tuple:
    """(alpha_db_per_km, eta_det, e_opt, p_dark, f_ec)."""
    return (rng.uniform(0.16, 0.25), _log_uniform(rng, 0.05, 0.6),
            rng.uniform(0.005, 0.03), _log_uniform(rng, 1e-7, 1e-5),
            rng.uniform(1.05, 1.25))


def _source(rng: random.Random) -> float | None:
    """None for a single-photon source, else the decoy signal intensity."""
    return None if rng.random() < 0.5 else rng.uniform(0.2, 0.8)


def _attack(rng: random.Random, mu_hi: float = 1e-1) -> tuple:
    kind = rng.choice(("none",) + ATTACK_KINDS)
    if kind == "none":
        return kind, 0.0
    return kind, _log_uniform(rng, 1e-10, mu_hi)


def _trace(rng: random.Random, n_peaks: int) -> tuple[str, list]:
    """A reflection-peak CSV with comments and blank lines, and its peaks."""
    lines = ["# generated OTDR peaks: distance_m,reflectivity_db,arm"]
    peaks = []
    for _ in range(n_peaks):
        peak = (round(rng.uniform(0.0, 20.0), 3), round(rng.uniform(-70.0, -25.0), 4),
                rng.choice("sl"))
        peaks.append(peak)
        lines.append(f"{peak[0]!r},{peak[1]!r},{peak[2]}")
        roll = rng.random()
        if roll < 0.05:
            lines.append("")
        elif roll < 0.1:
            lines.append("# splice")
    return "\n".join(lines) + "\n", peaks


def _region(rng: random.Random) -> tuple[float, float]:
    a, b = sorted((round(rng.uniform(0.0, 20.0), 2), round(rng.uniform(0.0, 20.0), 2)))
    return a, b


def cli_figures_ops(seed: int) -> list[dict]:
    """One pass of the figure workload: every preset sweep, then convexity."""
    ops = [{"kind": f"sweep:{name}", "argv": ["sweep", "--preset", name],
            "golden": f"sweep {name}", "outputs": [f"{name}.csv", f"{name}.gp"]}
           for name in PRESETS]
    ops.append({"kind": "convexity", "argv": ["convexity", "--seed", str(seed)],
                "check": "convexity"})
    return ops


def _fmt(x: float) -> str:
    return repr(float(x))


def _channel_flags(channel: tuple) -> list[str]:
    names = ("--alpha-db-per-km", "--eta-det", "--e-opt", "--p-dark", "--f-ec")
    flags = []
    for name, value in zip(names, channel):
        flags += [name, _fmt(value)]
    return flags


def cli_planning_ops(seed: int) -> tuple[list[dict], dict[str, str]]:
    """One pass of the planning workload, and the input files it reads."""
    rng = random.Random(seed)
    ops = [{"kind": "threshold", "argv": ["threshold", "--preset", name],
            "golden": f"threshold {name}"} for name in ("fig3", "fig4")]
    for _ in range(4):
        channel = _channel(rng)
        s = _source(rng)
        attacks = [(kind, _log_uniform(rng, 1e-9, 1e-1))
                   for kind in rng.choices(ATTACK_KINDS, k=rng.randint(1, 4))]
        argv = ["threshold"] + _channel_flags(channel)
        if s is not None:
            argv += ["--source", "decoy", "--decoy-s", _fmt(s)]
        for kind, mu in attacks:
            argv += ["--attack", f"{kind}:{mu!r}"]
        ops.append({"kind": "threshold", "argv": argv, "check": "threshold",
                    "channel": channel, "s": s, "attacks": attacks})

    ops.append({"kind": "budget", "golden": "budget readme",
                "argv": ["budget", "--mu-out", "1e-6", "--photon-flux", "1e20",
                         "--clock-hz", "1e9"]})
    for no_att in (False, False, False, True, True, True):
        mu = _log_uniform(rng, 1e-8, 1e-4)
        flux = _log_uniform(rng, 1e18, 4.3e23)
        clock = _log_uniform(rng, 1e6, 1e10)
        argv = ["budget", "--mu-out", _fmt(mu), "--photon-flux", _fmt(flux),
                "--clock-hz", _fmt(clock)]
        if no_att:
            argv.append("--no-attenuator")
        ops.append({"kind": "budget",
                    "argv": argv, "check": "budget", "mu_out": mu, "flux": flux,
                    "clock": clock, "allow_attenuator": not no_att})

    files = {"transmitter_peaks.csv": BUNDLED_TRACE}
    ops.append({"kind": "reflectivity", "golden": "reflectivity readme",
                "argv": ["reflectivity", "--trace", "transmitter_peaks.csv",
                         "--region", "0", "7"]})
    for index in range(3):
        text, peaks = _trace(rng, rng.randint(10, 80))
        name = f"trace{index}.csv"
        files[name] = text
        region = _region(rng)
        ops.append({"kind": "reflectivity", "check": "reflectivity",
                    "argv": ["reflectivity", "--trace", name, "--region",
                             _fmt(region[0]), _fmt(region[1])],
                    "peaks": peaks, "region": region})

    for index in range(6):
        op = {"kind": "lidt", "check": "lidt"}
        if index in (0, 1, 4):
            op["preset"] = rng.choice(("conservative", "fiber-fuse"))
            op["bend"] = rng.random() < 0.5
            argv = ["lidt", "--preset", op["preset"]]
            if op["bend"]:
                argv.append("--bend-edge-compensation")
        else:
            op["power"] = _log_uniform(rng, 1e-3, 1e2)
            op["lambda"] = rng.uniform(800e-9, 1900e-9)
            argv = ["lidt", "--power", _fmt(op["power"]), "--lambda", _fmt(op["lambda"])]
        if index >= 4:
            op["pulse_width"] = _log_uniform(rng, 1e-12, 1e-3)
            op["wavelength"] = rng.uniform(800e-9, 1900e-9)
            argv += ["--pulse-width", _fmt(op["pulse_width"]),
                     "--wavelength", _fmt(op["wavelength"])]
        op["argv"] = argv
        ops.append(op)
    return ops, files


def _isolation_inputs(rng: random.Random) -> tuple[float, float, float]:
    """(mu_out target, photon flux, clock rate) of an isolation budget."""
    return (_log_uniform(rng, 1e-8, 1e-4), _log_uniform(rng, 1e18, 4.3e23),
            _log_uniform(rng, 1e6, 1e10))


def library_ops(seed: int, stream: int):
    """Endless chunks of library calls; each call is (kind, data tuple).

    Each worker of a run draws from its own stream of the seed.
    """
    rng = random.Random(f"{seed}/{stream}")
    kinds = [kind for kind, count in LIBRARY_MIX for _ in range(count * ROUNDS_PER_CHUNK)]
    while True:
        rng.shuffle(kinds)
        chunk = []
        for kind in kinds:
            if kind == "key_rate":
                data = (_channel(rng), _source(rng), _attack(rng), rng.uniform(0.0, 200.0))
            elif kind == "mu_out_threshold":
                data = (_channel(rng), _source(rng), rng.choice(ATTACK_KINDS))
            elif kind == "max_distance":
                data = (_channel(rng), _source(rng), _attack(rng, mu_hi=1e-3))
            elif kind == "sweep_distance":
                l_min = rng.uniform(0.0, 150.0)
                data = (_channel(rng), _source(rng), _attack(rng), l_min,
                        l_min + rng.uniform(10.0, 60.0), rng.uniform(1.0, 5.0))
            elif kind == "verify_convexity":
                data = (PRESET_CHANNEL, _source(rng), rng.choice(ATTACK_KINDS),
                        rng.uniform(0.0, 200.0), rng.uniform(0.0, 0.6),
                        rng.uniform(0.0, 0.6))
            elif kind == "required_isolation":
                data = _isolation_inputs(rng)
            elif kind == "plan_budget":
                mu, flux, clock = _isolation_inputs(rng)
                gamma = 10.0 * math.log10(mu) - 10.0 * math.log10(flux / clock)
                data = (gamma, rng.random() < 0.5)
            elif kind == "parse_trace":
                data = _trace(rng, rng.randint(50, 300))
            else:
                data = (_trace(rng, rng.randint(50, 300))[1], _region(rng))
            chunk.append((kind, data))
        yield chunk
