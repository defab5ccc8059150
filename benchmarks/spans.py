"""Span tracing from outside the package, and the per-layer tallies.

``Recorder.install`` wraps every callable named in TRACED at each module
attribute of the loaded thabound package that refers to it (so
``thabound.cli.sweep_distance`` and ``thabound.keyrate.sweep_distance`` are
both wrapped) and each dataclass ``__post_init__`` named there.  A wrapper
records one span: name, start, end, parent span and operation id.  Spans
stay in memory until ``dump`` writes them with marshal.

A name that no longer exists at some commit is reported as missing and the
metrics that need it are reported absent; nothing here crashes on it.  No
end-to-end metric uses spans.

Run as a script, this wraps the CLI and runs one traced invocation:

    python benchmarks/spans.py SPANS_FILE OP_ID sweep --preset fig3
"""

import functools
import importlib
import marshal
import sys
import time
from collections import Counter

# Every traced callable, as "module:attribute" inside the thabound package.
# The span name is "module.attribute" and its layer is the module.
TRACED = (
    "numerics:probability",
    "numerics:binary_entropy",
    "numerics:db_from_linear",
    "numerics:linear_from_db",
    "channel:transmittance",
    "channel:single_photon_link",
    "channel:decoy_link",
    "channel:single_photon",
    "channel:decoy_state",
    "channel:ChannelParams.__post_init__",
    "channel:SourceModel.__post_init__",
    "channel:LinkObservables.__post_init__",
    "attacks:coin_imbalance",
    "attacks:effective_imbalance",
    "attacks:phase_error_general",
    "attacks:phase_error_passive",
    "attacks:usd_conclusive_fraction",
    "attacks:no_attack",
    "attacks:AttackModel.__post_init__",
    "keyrate:key_rate",
    "keyrate:rate_at",
    "keyrate:sweep_distance",
    "keyrate:mu_out_threshold",
    "keyrate:max_distance",
    "keyrate:verify_convexity",
    "keyrate:RateQuery.__post_init__",
    "keyrate:RateSeries.__post_init__",
    "budget:required_isolation",
    "budget:mu_out_bound",
    "budget:plan_budget",
    "budget:isolation_total",
    "budget:photon_flux_from_power",
    "budget:conservative_preset",
    "budget:fiber_fuse_preset",
    "budget:lidt_scale_pulse_width",
    "budget:lidt_scale_wavelength",
    "budget:IsolationBudget.__post_init__",
    "budget:LidtSpec.__post_init__",
    "budget:ComponentCatalog.__post_init__",
    "characterize:parse_trace",
    "characterize:reflectivity_bound",
    "characterize:ReflectionPeak.__post_init__",
    "cli:main",
)

SEARCHES = ("keyrate.mu_out_threshold", "keyrate.max_distance")
# Attack functions that mark the kind of the key_rate call they run under,
# strongest evidence first.
ATTACK_MARKERS = (
    ("general", ("attacks.coin_imbalance", "attacks.effective_imbalance",
                 "attacks.phase_error_general")),
    ("usd", ("attacks.usd_conclusive_fraction",)),
    ("passive", ("attacks.phase_error_passive",)),
)


def _resolve(owner, dotted: str):
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


class Recorder:
    """Wraps the package's callables and keeps their spans in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.missing: list[str] = []
        self.op = 0
        self._restore: list[tuple] = []
        self._clear()

    def _clear(self) -> None:
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self._stack = [-1]

    def _wrap(self, fn, name_id: int):
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ops.append(recorder.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        """Wrap every TRACED name that exists at this commit; drops old spans."""
        self._clear()
        self.names, self.missing = [], []
        resolved = []
        for entry in TRACED:
            module_name, _, attr = entry.partition(":")
            try:
                module = importlib.import_module("thabound." + module_name)
                resolved.append((entry, module, _resolve(module, attr)))
            except (ImportError, AttributeError):
                self.missing.append(entry)
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "thabound" or name.startswith("thabound.")]
        for entry, module, target in resolved:
            module_name, _, attr = entry.partition(":")
            self.names.append(f"{module_name}.{attr}")
            wrapper = self._wrap(target, len(self.names) - 1)
            if "." in attr:
                owner_path, _, method = attr.rpartition(".")
                owner = _resolve(module, owner_path)
                self._restore.append((owner, method, target))
                setattr(owner, method, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._restore.append((mod, key, target))
                        setattr(mod, key, wrapper)
        if self.missing:
            print("warning: traced names missing at this commit: "
                  + ", ".join(self.missing), file=sys.stderr)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def dump(self, path: str) -> None:
        with open(path, "wb") as handle:
            marshal.dump((self.names, self.missing, self.name_ids, self.starts,
                          self.ends, self.parents, self.ops), handle)


class Tally:
    """Per-layer counts and times accumulated from span dumps."""

    def __init__(self) -> None:
        self.count = Counter()      # span name -> calls
        self.time = Counter()       # span name -> seconds inside
        self.self_time = Counter()  # layer -> seconds not covered by children
        self.main_time = Counter()  # subcommand -> seconds inside cli.main
        self.main_count = Counter()
        self.kind_calls = Counter()  # attack kind -> key_rate calls
        self.kind_time = Counter()   # attack kind -> seconds in attacks under them
        self.search_evals = 0
        self.missing: set[str] = set()

    def add(self, path: str, op_commands: dict[int, str]) -> None:
        """Fold one dump in; op_commands maps op id -> CLI subcommand."""
        with open(path, "rb") as handle:
            names, missing, name_ids, starts, ends, parents, ops = marshal.load(handle)
        self.missing.update(missing)
        # Per-name facts, looked up by name id in the loop below.
        layer = [name.split(".", 1)[0] for name in names]
        searching = [name in SEARCHES for name in names]
        attack = [name.startswith("attacks.") for name in names]
        rank = [next((r for r, (_, marks) in enumerate(ATTACK_MARKERS) if name in marks),
                     len(ATTACK_MARKERS)) for name in names]
        key_rate = names.index("keyrate.key_rate") if "keyrate.key_rate" in names else -1
        main = names.index("cli.main") if "cli.main" in names else -1

        n = len(name_ids)
        durations = [end - start for start, end in zip(starts, ends)]
        covered = [0.0] * n
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += durations[i]
        calls = [0] * len(names)
        inside = [0.0] * len(names)
        own = [0.0] * len(names)
        in_search = [False] * n
        attack_time: dict[int, float] = {}  # key_rate span -> seconds in attacks
        attack_rank: dict[int, int] = {}    # key_rate span -> strongest marker
        for i in range(n):
            k, parent, duration = name_ids[i], parents[i], durations[i]
            calls[k] += 1
            inside[k] += duration
            own[k] += duration - covered[i]
            in_search[i] = searching[k] or (parent >= 0 and in_search[parent])
            if k == key_rate:
                self.search_evals += in_search[i]
                attack_time[i] = 0.0
                attack_rank[i] = len(ATTACK_MARKERS)
            elif attack[k] and parent in attack_time:
                attack_time[parent] += duration
                attack_rank[parent] = min(attack_rank[parent], rank[k])
            elif k == main:
                command = op_commands.get(ops[i], "")
                self.main_time[command] += duration
                self.main_count[command] += 1
        for k, name in enumerate(names):
            self.count[name] += calls[k]
            self.time[name] += inside[k]
            self.self_time[layer[k]] += own[k]
        kinds = [kind for kind, _ in ATTACK_MARKERS] + ["none"]
        for i, seconds in attack_time.items():
            self.kind_calls[kinds[attack_rank[i]]] += 1
            self.kind_time[kinds[attack_rank[i]]] += seconds

    def has(self, *names: str) -> bool:
        return not any(name.replace(".", ":", 1) in self.missing for name in names)


def main(argv: list[str]) -> int:
    spans_path, op_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    import thabound.cli

    recorder = Recorder()
    recorder.install()
    recorder.op = op_id
    try:
        return thabound.cli.main(cli_argv)
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
