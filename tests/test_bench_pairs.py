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
    # equal values in every pair: won by neither side
    assert {key: summary["workloads"]["dor_pool"]["trials_per_s"][key]
            for key in ("parent_won", "change_won", "verdict")} == {
        "parent_won": 0, "change_won": 0, "verdict": "tie"}
    named = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("failed checks:")]
    assert named == ([] if failing is None
                     else ["failed checks: dor_pool change seed 2 (1 failed)"])


def test_one_pair_exits_2_before_any_run(monkeypatch, capsys):
    bench_pairs = _load()
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *args, **kwargs: pytest.fail("ran a benchmark"))
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--parent", "p", "--change", "c",
                                      "--pairs", "1"])
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert exc.value.code == 2 and "need at least 2 pairs" in capsys.readouterr().err


def _git(tree, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tree,
                   check=True, capture_output=True)


def test_each_run_records_whether_its_checkout_is_dirty(tmp_path):
    # a stand-in benchmarks/bench.py in a git checkout of its own, run
    # through the script's one-run entry point
    tree = tmp_path / "tree"
    (tree / "benchmarks").mkdir(parents=True)
    (tree / "benchmarks" / "bench.py").write_text(
        "def run(workload, seed, seconds, trace):\n"
        "    return {'metrics': {'trials_per_s': (2.0, '1/s')}, 'failed': 0,\n"
        "            'env': {'git_commit': 'abc'},\n"
        "            'log': ['repeats 2; measured trials/s 1.5 (per repeat 1 2)',\n"
        "                    'host: mean CPU 1 s, slowdown 1.25']}\n", encoding="utf-8")
    (tree / "notes.txt").write_text("a\n", encoding="utf-8")

    def one():
        proc = subprocess.run([sys.executable, str(SCRIPT), "--one", str(tree), "dor_pool",
                               "1", "0.1"], capture_output=True, text=True, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    assert _load().git_dirty(str(tree)) is None   # not a git checkout yet
    assert one()["git_dirty"] is None
    _git(tree, "init", "-q")
    _git(tree, "add", "-A")
    _git(tree, "commit", "-q", "-m", "stand-in")
    record = one()
    assert record["git_dirty"] is False and record["git_commit"] == "abc"
    assert record["trials_per_s"] == 2.0 and record["slowdown"] == 1.25
    (tree / "untracked.txt").write_text("b\n", encoding="utf-8")
    assert one()["git_dirty"] is False   # untracked files do not count
    (tree / "notes.txt").write_text("c\n", encoding="utf-8")
    assert one()["git_dirty"] is True
