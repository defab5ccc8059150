"""Worker of the library workload: one warm process making library calls.

    python benchmarks/libworker.py SEED STREAM SECONDS OUT [TRACE_DIR]

It imports thabound, draws the first chunk of seeded calls from input
stream STREAM of SEED and notes that moment in its report as ready_at
(time.perf_counter, the system's monotonic clock): the end of its set-up.
Without TRACE_DIR it then times single calls, chunk after chunk of fresh
inputs, for SECONDS of wall time.  With
TRACE_DIR it repeats the first chunk, untraced and then traced, for
SECONDS of wall time, and writes each traced pass's spans there.  Input
construction and output checks stay outside the timed calls.  Results go
to OUT (marshal).
"""

import gc
import marshal
import resource
import sys
import time
from array import array

from thabound import budget, characterize, keyrate

import checks
import inputs

MODULES = {"keyrate": keyrate, "budget": budget, "characterize": characterize}
KINDS = [kind for kind, _ in inputs.LIBRARY_MIX]
MAX_REPORTED = 20
# Calls whose arguments are built together just before they are timed, so
# that the inputs are still in cache as they would be for a real caller.
SLICE = 50
# Traced passes whose spans are written; later passes only add to the
# plain/traced timing, which keeps the span files and their folding small.
DUMPED_PASSES = 5


def _build(chunk: list) -> list:
    return [(kind, data, checks.library_args(kind, data)) for kind, data in chunk]


def _functions() -> dict:
    return {kind: getattr(MODULES[module], name)
            for kind, (module, name) in checks.LIBRARY_CALLS.items()}


def _run(calls: list, recorder=None) -> tuple[list, list]:
    """Time each call; returns (latencies in s, results or exceptions)."""
    functions = _functions()
    clock = time.perf_counter
    latencies, results = [], []
    for index, (kind, _, args) in enumerate(calls):
        if recorder is not None:
            recorder.op = index
        function = functions[kind]
        start = clock()
        try:
            result = function(*args)
        except Exception as exc:  # a failed call is counted, not fatal
            result = exc
        latencies.append(clock() - start)
        results.append(result)
    return latencies, results


class Outcome:
    """Latencies and check results; arrays keep the collector's work small."""

    def __init__(self) -> None:
        self.kinds = array("B")
        self.latencies = array("d")
        self.failed = 0
        self.failures: list[str] = []
        self.sweep_points = 0
        self.sweep_secure = 0
        self.budgets_returned = 0

    def check(self, calls: list, latencies: list, results: list) -> None:
        for (kind, data, _), latency, result in zip(calls, latencies, results):
            self.kinds.append(KINDS.index(kind))
            self.latencies.append(latency)
            problem = checks.check_library(kind, data, result)
            if problem:
                self.failed += 1
                if len(self.failures) < MAX_REPORTED:
                    self.failures.append(f"{kind}: {problem}")
            elif kind == "sweep_distance":
                self.sweep_points += len(result.points)
                self.sweep_secure += sum(point.secure for point in result.points)
            elif kind == "plan_budget":
                self.budgets_returned += len(result)


def main(argv: list[str]) -> int:
    seed, stream, seconds, out = int(argv[0]), int(argv[1]), float(argv[2]), argv[3]
    trace_dir = argv[4] if len(argv) > 4 else None
    chunks = inputs.library_ops(seed, stream)
    chunk = next(chunks)
    start = time.perf_counter()
    outcome = Outcome()
    report = {"kind_names": KINDS, "ready_at": start}
    # Every chunk or pass starts with the same collector state, so that the
    # garbage of earlier checks is not collected inside a timed call.
    if trace_dir is None:
        while time.perf_counter() - start < seconds:
            gc.collect()
            for first in range(0, len(chunk), SLICE):
                calls = _build(chunk[first:first + SLICE])
                latencies, results = _run(calls)
                outcome.check(calls, latencies, results)
            chunk = next(chunks)
    else:
        from spans import Recorder

        recorder = Recorder()
        calls = _build(chunk)
        plain, traced, passes = [], [], 0
        while passes == 0 or time.perf_counter() - start < seconds:
            gc.collect()
            latencies, results = _run(calls)
            plain.append(sum(latencies))
            outcome.check(calls, latencies, results)
            recorder.install()
            gc.collect()
            latencies, results = _run(calls, recorder)
            recorder.uninstall()
            traced.append(sum(latencies))
            if passes < DUMPED_PASSES:
                recorder.dump(f"{trace_dir}/pass{passes}.spans")
            outcome.check(calls, latencies, results)
            passes += 1
        report.update(plain_s=plain, traced_s=traced, passes=passes,
                      dumped=min(passes, DUMPED_PASSES), ops_per_pass=len(calls))
    # Peak RSS is read before the results are copied out for writing.
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report.update(vars(outcome), kinds=outcome.kinds.tobytes(),
                  latencies=outcome.latencies.tobytes())
    with open(out, "wb") as handle:
        marshal.dump(report, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
