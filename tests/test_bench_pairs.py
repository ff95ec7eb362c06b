"""scripts/bench_pairs.py: the summary and its exit status, on stand-in runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("failing", [None, ("change", 2)])
def test_failed_checks_exit_1_after_the_summary(monkeypatch, tmp_path, capsys, failing):
    bench_pairs = _load()

    def run(argv, **kwargs):
        # argv: python, script, --one, tree, workload, seed, seconds
        tree, seed = argv[3], int(argv[5])
        record = {name: 1.0 for name in bench_pairs._METRICS}
        record["failed_checks"] = int((tree, seed) == failing)
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(record) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", [
        str(SCRIPT), "--parent", "parent", "--change", "change", "--workloads", "dor_pool",
        "--pairs", "2", "--seed0", "1", "--out", str(out)])
    assert bench_pairs.main() == (0 if failing is None else 1)
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert len(summary["runs"]) == 4
    named = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("failed checks:")]
    assert named == ([] if failing is None
                     else ["failed checks: dor_pool change seed 2 (1 failed)"])
