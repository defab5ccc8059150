"""Benchmark of thabound: three seeded workloads, end to end or traced.

    python3 benchmarks/run.py --workload cli_figures --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --seed 1      # all three workloads in turn

Run it from anywhere inside a checkout; it uses ``src/`` of that checkout
through PYTHONPATH, without installing.  Each workload is a closed loop with
one client, and spawner.py starts every child.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics from a separate
traced run (spans.py).  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
RATIONALE.md says why each workload and metric exists.
"""

import argparse
import json
import marshal
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"
PYTHON = sys.executable
CLI = [PYTHON, "-m", "thabound"]
WORKLOADS = ("cli_figures", "cli_planning", "library")

LIBRARY_WORKERS = 12     # library workers per untraced run, one after another
REFERENCE_REPEATS = 7    # -X importtime and `python -c pass` runs, best taken
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
CHILD_TIMEOUT_S = 60.0
MAX_REPORTED = 20

E2E_UNITS = {
    "latency_ms_p50": "ms", "latency_ms_tail": "ms", "latency_ms_best": "ms",
    "throughput_ops_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s",
}
SUBCOMMANDS = ("sweep", "threshold", "budget", "reflectivity", "lidt", "convexity")
IMPORTED = ("numerics", "channel", "attacks", "keyrate", "budget", "characterize")


def child_env() -> dict:
    """Environment of every child: this checkout's src, bytecode cache on."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class ChildTimeout(Exception):
    """A child ran past its timeout and was killed."""


class Child:
    """One finished child: when it was spawned, its wall seconds, exit code,
    output and own peak RSS."""

    def __init__(self, reply: dict, stdout: bytes, stderr: bytes) -> None:
        self.spawned, self.elapsed = reply["spawned"], reply["elapsed"]
        self.code, self.maxrss_kb = reply["code"], reply["maxrss_kb"]
        self.stdout, self.stderr = stdout, stderr


class Spawner:
    """spawner.py, which starts every child of one workload run.

    A child started from this process would report at least this process's
    peak RSS as its own; spawner.py is smaller than any child.  It also
    blocks in wait4 while a child runs, so the timing has no polling in it.
    """

    def __init__(self) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.out = WORK / f"child-{os.getpid()}.out"
        self.err = WORK / f"child-{os.getpid()}.err"
        self.proc = subprocess.Popen([PYTHON, str(BENCH / "spawner.py")], env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list, cwd: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
        """Run one child to completion; raises ChildTimeout if it was killed."""
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(self.out),
                   "stderr": str(self.err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited")
        reply = json.loads(line)
        if reply["killed"]:
            raise ChildTimeout(" ".join(argv))
        return Child(reply, self.out.read_bytes(), self.err.read_bytes())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)


class Run:
    """Samples, failures and extras of one workload run."""

    def __init__(self, workload: str, seed: int, spawner: Spawner) -> None:
        self.workload = workload
        self.seed = seed
        self.spawner = spawner
        self.kinds: list[str] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setups: list[float] = []
        self.extra: dict = {}

    def fail(self, name: str, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED:
            self.failures.append(f"{name}: {problem}")
            print(f"FAIL {self.workload} {name}: {problem}", file=sys.stderr)


# --- CLI workloads ---------------------------------------------------------

def cli_ops(workload: str, seed: int) -> tuple[list, dict]:
    import inputs

    if workload == "cli_figures":
        return inputs.cli_figures_ops(seed), {}
    return inputs.cli_planning_ops(seed)


def cli_setup(run: Run, workdir: Path) -> list:
    """Generate inputs into a fresh directory and warm the bytecode cache.

    The time it takes is one sample of setup_s.
    """
    start = time.perf_counter()
    ops, files = cli_ops(run.workload, run.seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, text in files.items():
        (workdir / name).write_text(text)
    child = run.spawner.run([PYTHON, "-c", "import thabound.cli"], workdir)
    if child.code != 0:
        raise RuntimeError(f"cannot import thabound.cli: {child.stderr.decode()[-500:]}")
    run.setups.append(time.perf_counter() - start)
    return ops


class CliChecker:
    """Checks each op's first output fully and later ones by equality."""

    def __init__(self) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        import checks

        self.checks = checks
        self.verdicts: dict[int, tuple] = {}

    def __call__(self, index: int, op: dict, code: int, stdout: bytes,
                 outputs: dict) -> str | None:
        key = (code, stdout, tuple(sorted(outputs.items())))
        if index not in self.verdicts:
            try:
                problem = self.checks.check_cli(op, code, stdout, outputs)
            except Exception as exc:  # a malformed output is a failed op
                problem = f"check raised {exc!r}"
            self.verdicts[index] = (key, problem)
        first, problem = self.verdicts[index]
        return problem if key == first else "output differs between passes"


def cli_invoke(run: Run, checker: CliChecker, index: int, op: dict,
               workdir: Path, prefix: list) -> tuple[Child, dict] | None:
    """One CLI invocation plus its check; returns None when it failed."""
    name = " ".join(op["argv"][:3])
    run.attempted += 1
    try:
        child = run.spawner.run(prefix + op["argv"], workdir)
    except ChildTimeout:
        run.fail(name, "timed out")
        return None
    outputs = {}
    for output in op.get("outputs", ()):
        path = workdir / output
        if path.exists():
            outputs[output] = path.read_bytes()
            path.unlink()
    problem = checker(index, op, child.code, child.stdout, outputs)
    if problem:
        run.fail(name, f"{problem} {child.stderr.decode().strip()[-200:]}".strip())
        return None
    return child, outputs


def cli_workload(run: Run, seconds: float, trace_dir: Path | None) -> None:
    workdir = WORK / f"{run.workload}-{run.seed}-{os.getpid()}"
    checker = CliChecker()
    try:
        if trace_dir is None:
            cli_timed(run, seconds, checker, workdir)
        else:
            cli_traced(run, seconds, cli_setup(run, workdir), checker, workdir, trace_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def cli_timed(run: Run, seconds: float, checker: CliChecker, workdir: Path) -> None:
    """Pass after pass over the op list, each pass after a fresh set-up.

    Spreading the set-ups through the run lets setup_s, their fastest,
    catch a quiet moment of the machine as latency_ms_best does.
    """
    peak_kb = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for index, op in enumerate(cli_setup(run, workdir)):
            if time.perf_counter() - start >= seconds:
                break
            done = cli_invoke(run, checker, index, op, workdir, CLI)
            if done:
                run.kinds.append(op["kind"])
                run.latencies.append(done[0].elapsed)
                peak_kb = max(peak_kb, done[0].maxrss_kb)
    run.extra["peak_rss_kb"] = peak_kb


def cli_traced(run: Run, seconds: float, ops: list, checker: CliChecker,
               workdir: Path, trace_dir: Path) -> None:
    """Alternate plain and traced invocations of every op, pass by pass."""
    from spans import Tally

    tally = Tally()
    spans_file = trace_dir / "cli.spans"
    plain_s = traced_s = 0.0
    passes = bytes_out = points = secure = budgets = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for index, op in enumerate(ops):
            done = cli_invoke(run, checker, index, op, workdir, CLI)
            traced_cmd = [PYTHON, str(BENCH / "spans.py"), str(spans_file), str(index)]
            traced = cli_invoke(run, checker, index, op, workdir, traced_cmd)
            if not (done and traced):
                continue
            plain_s += done[0].elapsed
            traced_s += traced[0].elapsed
            tally.add(str(spans_file), {index: op["argv"][0]})
            stdout, outputs = traced[0].stdout, traced[1]
            bytes_out += len(stdout) + sum(len(data) for data in outputs.values())
            for name, data in outputs.items():
                if name.endswith(".csv"):
                    rates = [row.rpartition(b",")[2] for row in data.splitlines()[1:]]
                    points += len(rates)
                    secure += sum(rate != b"0" for rate in rates)
            if op["argv"][0] == "budget":
                budgets += int(stdout.split(b"feasible combinations: ")[1].split()[0])
        passes += 1
    run.extra.update(tally=tally, ops=passes * len(ops), plain_s=plain_s,
                     traced_s=traced_s, bytes_out=bytes_out, sweep_points=points,
                     sweep_secure=secure, budgets_returned=budgets)


# --- library workload ------------------------------------------------------

def library_worker(run: Run, stream: int, seconds: float,
                   trace_dir: Path | None) -> dict:
    """Run one worker on input stream `stream` for `seconds` and return its
    report.  Its start, up to the moment it is ready to time calls, is one
    sample of setup_s."""
    out = WORK / f"library-{run.seed}-{stream}-{os.getpid()}.out"
    argv = [PYTHON, str(BENCH / "libworker.py"), str(run.seed), str(stream),
            str(seconds), str(out)]
    if trace_dir is not None:
        argv.append(str(trace_dir))
    try:
        child = run.spawner.run(argv, WORK, timeout=seconds * 3 + CHILD_TIMEOUT_S)
        if child.code != 0:
            raise RuntimeError(f"library worker exited {child.code}: "
                               f"{child.stderr.decode()[-500:]}")
        with open(out, "rb") as handle:
            report = marshal.load(handle)
    finally:
        out.unlink(missing_ok=True)
    run.setups.append(report["ready_at"] - child.spawned)
    return report


def library_workload(run: Run, seconds: float, trace_dir: Path | None) -> None:
    """LIBRARY_WORKERS workers in turn, each on its own input stream, or one
    worker for a traced run.  Several start-ups spread through the run let
    setup_s, their fastest, catch a quiet moment of the machine."""
    workers = 1 if trace_dir is not None else LIBRARY_WORKERS
    peak_kb = 0
    for stream in range(workers):
        report = library_worker(run, stream, seconds / workers, trace_dir)
        names = report["kind_names"]
        run.kinds += [names[k] for k in report["kinds"]]
        run.latencies += array("d", report["latencies"]).tolist()
        run.failed += report["failed"]
        for failure in report["failures"]:
            print(f"FAIL library {failure}", file=sys.stderr)
        run.failures += report["failures"][:MAX_REPORTED - len(run.failures)]
        peak_kb = max(peak_kb, report["maxrss_kb"])
    run.attempted = len(run.latencies)
    run.extra["peak_rss_kb"] = peak_kb
    if trace_dir is not None:
        from spans import Tally

        tally = Tally()
        dumped = report["dumped"]
        for index in range(dumped):
            tally.add(str(trace_dir / f"pass{index}.spans"), {})
        # Every plain and traced pass made the same calls; scale the worker's
        # totals to the passes whose spans were folded in.
        runs = 2 * report["passes"]
        run.extra.update(tally=tally, ops=dumped * report["ops_per_pass"],
                         plain_s=sum(report["plain_s"]), traced_s=sum(report["traced_s"]),
                         bytes_out=0, **{key: report[key] // runs * dumped for key in (
                             "sweep_points", "sweep_secure", "budgets_returned")})


# --- metrics ---------------------------------------------------------------

def tail(latencies: list) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = next((pct for pct in TAIL_LADDER if n * (100.0 - pct) / 100.0 >= 10.0),
               TAIL_LADDER[-1])
    return pct, ordered[max(1, math.ceil(n * pct / 100.0)) - 1]


def end_to_end(run: Run) -> dict:
    best = {}
    for kind, latency in zip(run.kinds, run.latencies):
        best[kind] = min(latency, best.get(kind, latency))
    pct, tail_s = tail(run.latencies)
    run.extra.update(tail_percentile=pct, samples=len(run.latencies),
                     beyond_tail=sum(1 for x in run.latencies if x > tail_s),
                     error_rate=run.failed / max(run.attempted, 1))
    values = {
        "latency_ms_p50": statistics.median(run.latencies) * 1e3,
        "latency_ms_tail": tail_s * 1e3,
        "latency_ms_best": statistics.fmean(best.values()) * 1e3,
        "throughput_ops_s": len(run.latencies) / sum(run.latencies),
        "peak_rss_mb": run.extra["peak_rss_kb"] / 1024.0,
        "setup_s": min(run.setups),
    }
    return {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in values.items()}


def parse_importtime(stderr: str) -> dict:
    """Import metrics in ms from one `-X importtime -c "import thabound.cli"`."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((int(own), int(cumulative), depth, name.strip()))
    found = {}
    for index, (own, cumulative, depth, name) in enumerate(rows):
        if name == "site" and depth == 0:
            found["interp.site_import_ms"] = cumulative / 1e3
        elif name == "thabound.cli" and depth == 0:
            found["cli.import_ms"] = cumulative / 1e3
            stdlib = 0
            for own_, _, depth_, name_ in reversed(rows[:index]):
                if depth_ == 0:
                    break
                if not name_.startswith("thabound"):
                    stdlib += own_
            found["cli.import_stdlib_ms"] = stdlib / 1e3
        elif name.startswith("thabound.") and name[9:] in IMPORTED:
            found[f"{name[9:]}.import_ms"] = own / 1e3
    return found


def reference_metrics(spawner: Spawner, workdir: Path) -> dict:
    """Interpreter floor and import times, each the best of several runs."""
    best: dict[str, float] = {}
    for _ in range(REFERENCE_REPEATS):
        floor = spawner.run([PYTHON, "-c", "pass"], workdir).elapsed
        best["interp.floor_ms_best"] = min(floor * 1e3, best.get("interp.floor_ms_best", 1e9))
        stderr = spawner.run([PYTHON, "-X", "importtime", "-c", "import thabound.cli"],
                             workdir).stderr
        for name, value in parse_importtime(stderr.decode()).items():
            best[name] = min(value, best.get(name, value))
    return best


def per_layer(run: Run, reference: dict) -> tuple[dict, list]:
    """Per-layer metrics of a traced run, and the names reported absent."""
    from spans import SEARCHES

    t, extra = run.extra["tally"], run.extra
    ops = max(extra["ops"], 1)
    count, time_in = t.count, t.time

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    searches = sum(count[name] for name in SEARCHES)
    search_time = sum(time_in[name] for name in SEARCHES)
    main_calls = sum(t.main_count.values())
    rows = count["characterize.ReflectionPeak.__post_init__"]
    # name -> (unit, value, traced names it needs)
    table = {
        "interp.floor_ms_best": ("ms", reference.get("interp.floor_ms_best"), ()),
        "interp.site_import_ms": ("ms", reference.get("interp.site_import_ms"), ()),
        "cli.import_ms": ("ms", reference.get("cli.import_ms"), ()),
        "cli.import_stdlib_ms": ("ms", reference.get("cli.import_stdlib_ms"), ()),
    }
    for module in IMPORTED:
        table[f"{module}.import_ms"] = ("ms", reference.get(f"{module}.import_ms"), ())
    table.update({
        "cli.main_ms": ("ms", per(sum(t.main_time.values()), main_calls) * 1e3, ("cli.main",)),
    })
    for command in SUBCOMMANDS:
        table[f"cli.main_ms.{command}"] = (
            "ms", per(t.main_time[command], t.main_count[command]) * 1e3, ("cli.main",))
    table.update({
        "cli.self_ms": ("ms", t.self_time["cli"] / ops * 1e3, ("cli.main",)),
        "cli.bytes_out": ("bytes", extra["bytes_out"] / ops, ()),
        "keyrate.rate_evals": ("count", count["keyrate.key_rate"] / ops, ("keyrate.key_rate",)),
        "keyrate.key_rate_us": ("us", per(time_in["keyrate.key_rate"], count["keyrate.key_rate"]) * 1e6,
                                ("keyrate.key_rate",)),
        "keyrate.search_evals": ("count", per(t.search_evals, searches),
                                 ("keyrate.key_rate",) + SEARCHES),
        "keyrate.search_us": ("us", per(search_time, searches) * 1e6, SEARCHES),
        "keyrate.sweep_ms": ("ms", per(time_in["keyrate.sweep_distance"],
                                       count["keyrate.sweep_distance"]) * 1e3, ("keyrate.sweep_distance",)),
        "keyrate.secure_ratio": ("ratio", per(extra["sweep_secure"], extra["sweep_points"]), ()),
        "keyrate.self_ms": ("ms", t.self_time["keyrate"] / ops * 1e3, ("keyrate.key_rate",)),
        "channel.link_calls": ("count", (count["channel.single_photon_link"]
                                         + count["channel.decoy_link"]) / ops,
                               ("channel.single_photon_link", "channel.decoy_link")),
        "channel.observables_built": ("count", count["channel.LinkObservables.__post_init__"] / ops,
                                      ("channel.LinkObservables.__post_init__",)),
        "channel.self_ms": ("ms", t.self_time["channel"] / ops * 1e3, ("channel.decoy_link",)),
        "numerics.probability_calls": ("count", count["numerics.probability"] / ops,
                                       ("numerics.probability",)),
        "numerics.binary_entropy_calls": ("count", count["numerics.binary_entropy"] / ops,
                                          ("numerics.binary_entropy",)),
        "numerics.self_ms": ("ms", t.self_time["numerics"] / ops * 1e3, ("numerics.probability",)),
        "attacks.calls": ("count", sum(n for name, n in count.items()
                                       if name.startswith("attacks.")) / ops, ("attacks.coin_imbalance",)),
        "attacks.self_ms": ("ms", t.self_time["attacks"] / ops * 1e3, ("attacks.coin_imbalance",)),
    })
    for kind in ("general", "passive", "usd"):
        table[f"attacks.{kind}_us"] = (
            "us", per(t.kind_time[kind], t.kind_calls[kind]) * 1e6, ("keyrate.key_rate",))
    table.update({
        "budget.plan_ms": ("ms", per(time_in["budget.plan_budget"], count["budget.plan_budget"]) * 1e3,
                           ("budget.plan_budget",)),
        "budget.candidates": ("count", count["budget.IsolationBudget.__post_init__"] / ops,
                              ("budget.IsolationBudget.__post_init__",)),
        "budget.feasible_ratio": ("ratio", per(extra["budgets_returned"],
                                               count["budget.IsolationBudget.__post_init__"]),
                                  ("budget.IsolationBudget.__post_init__",)),
        "budget.self_ms": ("ms", t.self_time["budget"] / ops * 1e3, ("budget.plan_budget",)),
        "characterize.rows_parsed": ("count", rows / ops,
                                     ("characterize.ReflectionPeak.__post_init__",)),
        "characterize.parse_us_per_row": ("us", per(time_in["characterize.parse_trace"], rows) * 1e6,
                                          ("characterize.parse_trace",
                                           "characterize.ReflectionPeak.__post_init__")),
        "characterize.bound_us": ("us", per(time_in["characterize.reflectivity_bound"],
                                            count["characterize.reflectivity_bound"]) * 1e6,
                                  ("characterize.reflectivity_bound",)),
        "characterize.self_ms": ("ms", t.self_time["characterize"] / ops * 1e3,
                                 ("characterize.parse_trace",)),
        "trace.overhead_ratio": ("ratio", per(extra["traced_s"], extra["plain_s"]), ()),
    })
    metrics, absent = {}, []
    for name, (unit, value, needs) in table.items():
        if value is None or not t.has(*needs):
            absent.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


# --- command line ----------------------------------------------------------

def environment() -> dict:
    return {"python": platform.python_version(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result record."""
    run = Run(workload, seed, Spawner())
    trace_dir = None
    if trace:
        trace_dir = WORK / f"spans-{workload}-{seed}-{os.getpid()}"
        trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "library":
            library_workload(run, seconds, trace_dir)
        else:
            cli_workload(run, seconds, trace_dir)
        absent = []
        if trace:
            refdir = WORK / f"reference-{os.getpid()}"
            refdir.mkdir(parents=True, exist_ok=True)
            try:
                reference = reference_metrics(run.spawner, refdir)
            finally:
                shutil.rmtree(refdir, ignore_errors=True)
            metrics, absent = per_layer(run, reference)
            del run.extra["tally"]
        else:
            metrics = end_to_end(run)
    finally:
        run.spawner.close()
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": environment(), "attempted": run.attempted,
            "failed": run.failed, "failures": run.failures, "setups_s": run.setups,
            "absent": absent, "extra": run.extra, "metrics": metrics}


def gated(trace: bool) -> set | None:
    """Metric names that BENCHMARK.json gates, or None without that file."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]}


def print_report(record: dict, names: set | None) -> None:
    extra = record["extra"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  {record['environment']}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"error_rate {record['failed'] / max(record['attempted'], 1):.6g}")
    for name, metric in record["metrics"].items():
        note = ""
        if name == "latency_ms_tail":
            note = (f"  (p{extra['tail_percentile']:g} of {extra['samples']} samples, "
                    f"{extra['beyond_tail']} beyond)")
        if names is not None and name not in names:
            note += "  (not gated)"
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}{note}")
    for name in record["absent"]:
        print(f"  {name:<34} {'absent':>14} (traced name missing at this commit)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thabound" / "__init__.py").is_file():
        print(f"error: no thabound package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    names = gated(bool(args.trace))
    records = []
    for workload in workloads:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print_report(record, names)
        RESULTS.mkdir(parents=True, exist_ok=True)
        name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
        (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
        records.append(record)

    failed = sum(record["failed"] for record in records)
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        metrics.update({prefix + name: metric for name, metric in record["metrics"].items()
                        if names is None or name in names})
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(record["attempted"] for record in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
