"""Byte-identical output of the pinned CLI runs.

``benchmarks/golden.json`` holds the sha256 of stdout and of every file
written by the six preset sweeps, ``threshold`` fig3/fig4 and the README
``budget`` and ``reflectivity`` examples.  It is the only copy of those
digests.  The argv and output names of each run come from the ops in
``benchmarks/inputs.py`` that carry a ``"golden"`` key, and so does the
bundled reflectometry trace.  Each run goes through ``thabound.cli.main``
in a fresh directory.
"""

import hashlib
import importlib.util
import json
import pathlib

import pytest

from thabound.cli import main

BENCH_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))


def _load_inputs():
    spec = importlib.util.spec_from_file_location(
        "thabound_bench_inputs", BENCH_DIR / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


INPUTS = _load_inputs()
PLANNING_OPS, INPUT_FILES = INPUTS.cli_planning_ops(0)
GOLDEN_OPS = {op["golden"]: op
              for op in INPUTS.cli_figures_ops(0) + PLANNING_OPS
              if "golden" in op}


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
