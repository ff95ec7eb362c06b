"""scripts/ab_sweep.py: its sweeps, its summary and its row check."""

import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rfvlc
from rfvlc import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_sweep.py"


def _load(path, name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)   # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_sweeps_mirror_the_benchmark_workloads(monkeypatch):
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    bench = _load(ROOT / "benchmarks" / "bench.py", "benchmark_bench", monkeypatch)
    assert set(ab_sweep.SWEEPS) == set(bench.WORKLOADS)
    for name, (argv, lines, trials) in ab_sweep.SWEEPS.items():
        w = bench.WORKLOADS[name]
        assert (argv, lines, trials) == (w.argv, w.config, w.trials)


class _Captured(Exception):
    pass


@pytest.mark.parametrize("flags", [False, True], ids=["defaults", "flags"])
@pytest.mark.parametrize("subcommand", ["prp-sweep", "rate-sweep", "dor-sweep"])
def test_cli_call_is_the_sweep_the_cli_runs(monkeypatch, tmp_path, subcommand, flags):
    # what cli.main hands run_sweep, against what the scripts time
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    captured = []

    def run_sweep(config, spec, metric, n_workers):
        captured.append((config, spec, metric, n_workers))
        raise _Captured

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    argv = [subcommand, "--workers", "2"]
    if flags:
        argv += ["--distances", "30,60", "--modes", "la,pure_rf", "--weather", "fog,clear"]
        argv += ["--t-th-ms", "1,2.5"] if subcommand == "dor-sweep" else []
    lines = ["seed = 7", "trials = 300", "rho_access = 0.5", "weather = rain"]
    call = ab_sweep.cli_call(rfvlc, argv, lines, tmp_path / "sweep.cfg")
    with pytest.raises(_Captured):
        cli.main([*argv, "--config", str(tmp_path / "sweep.cfg"),
                  "--out", str(tmp_path / "out")])
    assert captured == [call]
    config, spec, metric, _ = call
    assert (config.rho_access, spec.master_seed, spec.n_trials) == (0.5, 7, 300)
    assert metric == {"prp-sweep": "prp", "rate-sweep": "rate_mbps", "dor-sweep": "dor"}[
        subcommand]
    if flags:
        assert (spec.distances, spec.modes, spec.weathers) == (
            (30.0, 60.0), ("la", "pure_rf"), ("fog", "clear"))
        assert spec.t_th == ((1e-3, 2.5e-3) if metric == "dor" else ())


def test_timed_text_is_the_csv_the_cli_writes(monkeypatch, tmp_path):
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    argv = ["dor-sweep", "--distances", "50,100", "--t-th-ms", "1,3"]
    call = ab_sweep.cli_call(rfvlc, argv, ["trials = 200"], tmp_path / "sweep.cfg")
    seconds, text = ab_sweep.timed(rfvlc, call)
    assert seconds > 0.0
    assert cli.main([*argv, "--config", str(tmp_path / "sweep.cfg"),
                     "--out", str(tmp_path / "out")]) == 0
    assert text == (tmp_path / "out" / "dor_sweep.csv").read_text(encoding="utf-8")


def test_timed_counts_the_csv_text(monkeypatch):
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)

    class Package:
        class cli:
            @staticmethod
            def _sweep_csv(rows, metric):
                time.sleep(0.05)
                return f"{metric}: {rows}"

        @staticmethod
        def run_sweep(config, spec, metric, n_workers):
            return ("row",)

    seconds, text = ab_sweep.timed(Package, ("config", "spec", "prp", 1))
    assert seconds >= 0.05 and text == "prp: ('row',)"


def test_one_checkout_against_itself(monkeypatch, capsys):
    # real run_sweep calls on both sides: equal CSV text, exit 0, one summary
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    assert ab_sweep.main(["--parent", str(ROOT), "--change", str(ROOT),
                          "--sweeps", "prp_sparse", "--pairs", "2", "--warmup", "0"]) == 0
    summary = json.loads(capsys.readouterr().out)["sweeps"]["prp_sparse"]
    assert summary["pairs"] == 2 and 0 <= summary["change_faster_pairs"] <= 2
    # one traced call per side; a prp_sparse sweep holds a group's sums, over 0.1 MB
    assert summary["parent_peak_mb"] > 0.1 and summary["change_peak_mb"] > 0.1
    # each side is the checkout's package under its own name
    for name in ("rfvlc_parent", "rfvlc_change"):
        package = sys.modules.pop(name)
        for sub in [m for m in sys.modules if m.startswith(name + ".")]:
            del sys.modules[sub]
        assert Path(package.__file__).parent == ROOT / "src" / "rfvlc"


@pytest.mark.parametrize("same_rows", [True, False])
def test_speedup_summary_and_row_check(monkeypatch, same_rows):
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    calls = []

    def timed(package, call):
        # stand-in: the change takes half the parent's time
        calls.append(package)
        rows = "a,b\n" if same_rows or package == "parent" else "a,c\n"
        return (2.0 if package == "parent" else 1.0), rows

    monkeypatch.setattr(ab_sweep, "timed", timed)
    packages = {"parent": "parent", "change": "change"}
    if not same_rows:
        with pytest.raises(ValueError, match="side change rows differ in pair 0"):
            ab_sweep.compare(packages, packages, 4, warmup=1)
        return
    summary = ab_sweep.compare(packages, packages, 4, warmup=1)
    assert calls == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    assert summary["pairs"] == 4 and summary["change_faster_pairs"] == 4
    assert summary["speedup_median"] == summary["speedup_q1"] == 2.0


def test_traced_peak_counts_the_call_and_stops_tracing(monkeypatch):
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)

    class Package:
        @staticmethod
        def run_sweep(config, spec, metric, n_workers):
            # a transient 8 MB array: the peak sees it, the end does not
            assert (config, spec, metric, n_workers) == ("config", "spec", "prp", 1)
            return float(np.ones(10 ** 6).sum())

    peak = ab_sweep.traced_peak_mb(Package, ("config", "spec", "prp", 1))
    assert 8.0 <= peak < 9.0
    assert not ab_sweep.tracemalloc.is_tracing()
