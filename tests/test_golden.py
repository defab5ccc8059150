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
"""

import hashlib
import importlib
import importlib.util
import json
import pathlib

import pytest

from thabound.cli import main

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
