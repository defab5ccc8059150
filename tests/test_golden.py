"""Byte-identical output of the pinned CLI runs, and the benchmark's checks.

``benchmarks/golden.json`` holds the sha256 of stdout and of every file
written by the six preset sweeps, ``threshold`` fig3/fig4 and the README
``budget`` and ``reflectivity`` examples.  It is the only copy of those
digests.  The argv and output names of each run come from the ops in
``benchmarks/inputs.py`` that carry a ``"golden"`` key, and so does the
bundled reflectometry trace.  Each run goes through ``thabound.cli.main``
in a fresh directory.

Every seed-0 CLI op of the benchmark, and the first chunk of its library
calls, must also pass ``benchmarks/checks.py``, so a broken output or
library contract fails here before the benchmark counts failed ops.

The benchmark's per-layer metrics need every name its tracer wraps and
every module it times the import of; a metric whose name is gone is left
out of its result, so those names are checked here too.
"""

import hashlib
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from thabound.cli import main

from conftest import DATA_DIR

BENCH_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"thabound_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INPUTS = _load("inputs")
CHECKS = _load("checks")
SPANS = _load("spans")
RUN = _load("run")
PLANNING_OPS, INPUT_FILES = INPUTS.cli_planning_ops(0)
CLI_OPS = INPUTS.cli_figures_ops(0) + PLANNING_OPS
GOLDEN_OPS = {op["golden"]: op for op in CLI_OPS if "golden" in op}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_output_matches_pinned_digest(key, tmp_path, monkeypatch, capsys):
    assert key in GOLDEN_OPS, f"no op in benchmarks/inputs.py for {key!r}"
    op = GOLDEN_OPS[key]
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    assert main(list(op["argv"])) == 0
    produced = {"stdout": capsys.readouterr().out.encode("utf-8")}
    for name in op.get("outputs", ()):
        produced[name] = (tmp_path / name).read_bytes()

    assert sorted(produced) == sorted(GOLDEN[key])
    for name, digest in GOLDEN[key].items():
        assert _sha256(produced[name]) == digest, f"{key}: {name} differs"


def test_bundled_trace_is_the_test_fixture():
    # The golden reflectivity digest is taken from the benchmark's copy of
    # the README trace; the tests read the fixture file.
    fixture = DATA_DIR / "transmitter_peaks.csv"
    assert fixture.read_bytes() == INPUTS.BUNDLED_TRACE.encode("utf-8")


@pytest.mark.parametrize("index", range(len(CLI_OPS)),
                         ids=[f"{i}-{op['kind']}" for i, op in enumerate(CLI_OPS)])
def test_cli_op_passes_benchmark_check(index, tmp_path, monkeypatch, capsys):
    op = CLI_OPS[index]
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    code = main(list(op["argv"]))
    stdout = capsys.readouterr().out.encode("utf-8")
    outputs = {name: (tmp_path / name).read_bytes()
               for name in op.get("outputs", ()) if (tmp_path / name).exists()}
    assert CHECKS.check_cli(op, code, stdout, outputs) is None


def test_library_chunk_passes_benchmark_checks():
    problems = []
    for index, (kind, data) in enumerate(next(INPUTS.library_ops(0, 0))):
        module, name = CHECKS.LIBRARY_CALLS[kind]
        function = getattr(importlib.import_module(f"thabound.{module}"), name)
        try:
            result = function(*CHECKS.library_args(kind, data))
        except Exception as exc:  # the checks judge a raised error too
            result = exc
        problem = CHECKS.check_library(kind, data, result)
        if problem:
            problems.append(f"call {index} ({kind}): {problem}")
    assert problems == []


def test_every_traced_name_resolves():
    recorder = SPANS.Recorder()
    recorder.install()
    try:
        assert recorder.missing == []
    finally:
        recorder.uninstall()


def _python(*args: str, cwd=None, check=True) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh process, with src on the path."""
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, check=check)


def _importtime_stderr(*args: str, cwd=None) -> str:
    """Standard error of `python -X importtime ARGS`, which must exit 0."""
    return _python("-X", "importtime", *args, cwd=cwd).stderr


def _import_cli_stderr(*flags: str) -> str:
    """Standard error of `python -X importtime FLAGS -c "import thabound.cli"`."""
    return _importtime_stderr(*flags, "-c", "import thabound.cli")


def test_cli_import_times_every_module():
    found = RUN.parse_importtime(_import_cli_stderr())
    wanted = ["cli.import_ms"] + [f"{m}.import_ms" for m in RUN.IMPORTED]
    assert [name for name in wanted if name not in found] == []


def _loaded(stderr: str) -> set:
    """Modules an -X importtime report names.  A run under -S leaves out
    whatever the site's .pth files import."""
    return {line.rpartition("|")[2].strip() for line in stderr.splitlines()}


def _loaded_by_cli_import() -> set:
    """Modules `import thabound.cli` loads."""
    return _loaded(_import_cli_stderr("-S"))


def test_cli_import_loads_no_dataclasses():
    # The records are named tuples; dataclasses and the inspect module it
    # pulls in were the largest part of this import.
    assert {"dataclasses", "inspect"} & _loaded_by_cli_import() == set()


def test_cli_import_loads_no_json_or_random():
    # Only threshold and budget --output write JSON and only convexity
    # draws random numbers, so each imports its module where it is used.
    assert {"json", "random"} & _loaded_by_cli_import() == set()


@pytest.mark.parametrize("argv, code", [
    (["sweep", "--l-max", "2"], 0),
    (["threshold", "--attack", "general:1e-6"], 0),
    (["budget", "--mu-out", "1e-6", "--photon-flux", "1e20", "--clock-hz",
      "1e9"], 0),
    (["reflectivity", "--trace", str(DATA_DIR / "transmitter_peaks.csv"),
      "--region", "0", "7"], 0),
    (["lidt", "--preset", "conservative"], 0),
    (["convexity", "--pairs", "2"], 0),
    (["sweep", "--l-max", "nan"], 1),
], ids=["sweep", "threshold", "budget", "reflectivity", "lidt", "convexity",
        "usage-error"])
def test_cli_run_loads_no_locale(argv, code, tmp_path):
    # main prints argparse's messages untranslated, before any is built, so
    # no gettext lookup imports locale, not even for a usage error.
    run = _python("-X", "importtime", "-S", "-m", "thabound", *argv,
                  cwd=tmp_path, check=False)
    assert run.returncode == code, run.stderr[-500:]
    assert "locale" not in _loaded(run.stderr)


def test_cli_import_leaves_argparse_alone():
    # Only main sets the untranslated messages, so a program that imports
    # the module to call build_parser keeps argparse's translations.
    run = _python("-c", "import argparse, gettext, thabound.cli; "
                        "print(argparse._ is gettext.gettext, "
                        "argparse.ngettext is gettext.ngettext)")
    assert run.stdout == "True True\n"
