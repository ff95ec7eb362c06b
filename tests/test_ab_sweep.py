"""scripts/ab_sweep.py: its sweeps, its summary, its verdict, its forced
split and its row check; in benchmark mode, the summary and its exit
status on stand-in runs, and each run's git_dirty."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

import rfvlc
from rfvlc import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_sweep.py"


def _checkout(root, bench=True):
    """A stand-in checkout: the files the script looks for, empty."""
    for path in ("src/rfvlc/__init__.py", "benchmarks/bench.py")[:1 + bench]:
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).touch()
    return str(root)


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
    assert len(ab_sweep.SWEEPS) == 9 and ab_sweep.WORKLOADS == tuple(bench.WORKLOADS)
    for name, w in bench.WORKLOADS.items():
        assert ab_sweep.SWEEPS[name] == (w.argv, w.config, w.trials)


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


def _forget_sides():
    """Unload both sides' packages; each was the checkout's under its own name."""
    for name in ("rfvlc_parent", "rfvlc_change"):
        package = sys.modules.pop(name)
        for sub in [m for m in sys.modules if m.startswith(name + ".")]:
            del sys.modules[sub]
        assert Path(package.__file__).parent == ROOT / "src" / "rfvlc"


@pytest.mark.parametrize("workers", [None, "1,2"], ids=["as_in_the_table", "forced_split"])
def test_one_checkout_against_itself(monkeypatch, capsys, workers):
    # real run_sweep calls on both sides: equal CSV text, exit 0, one summary
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    argv = ["--sweeps", "dense_clear_2", "--pairs", "2", "--warmup", "0"]
    argv += ["--workers", workers] if workers else []
    assert ab_sweep.main(["--parent", str(ROOT), "--change", str(ROOT), *argv]) == 0
    _forget_sides()
    out = json.loads(capsys.readouterr().out)
    assert out["workers"] == (workers and {"parent": 1, "change": 2})
    summary = out["sweeps"]["dense_clear_2"]
    assert summary["pairs"] == 2 and summary["parent_won"] + summary["change_won"] <= 2
    assert summary["verdict"] in ("parent", "change", "tie")
    # below 2 x _SPLIT_WORK, so one process on any host
    assert summary["cap_picks"] == 1 and summary["work_k"] == pytest.approx(125.7, abs=0.1)
    # one traced call per side; a dense sweep holds a chunk's sums, over 0.1 MB
    assert summary["parent_peak_mb"] > 0.1 and summary["change_peak_mb"] > 0.1


def test_the_forced_side_starts_one_helper_and_restores_the_cap(monkeypatch, tmp_path):
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    package = ab_sweep.load(str(ROOT), "rfvlc_forced")
    monkeypatch.delitem(sys.modules, "rfvlc_forced")
    engine = package.engine
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    started = []
    start_helper = engine._start_helper
    monkeypatch.setattr(engine, "_start_helper",
                        lambda *share: started.append(share) or start_helper(*share))
    argv, lines, _ = ab_sweep.SWEEPS["dense_clear_2"]
    # two chunk indices, the second one partial
    call = ab_sweep.cli_call(package, [*argv, "--trials", "4296"], ["seed = 1", *lines],
                             tmp_path / "sweep.cfg")
    split_work = engine._SPLIT_WORK
    assert call[3] == 2 and engine.sweep_workers(*call[:2], 2) == 1
    one = ab_sweep.timed(package, call[:3] + (1,), force=True)[1]
    assert started == []
    assert ab_sweep.timed(package, call, force=False)[1] == one and started == []
    assert ab_sweep.timed(package, call, force=True)[1] == one
    assert len(started) == 1 and engine._SPLIT_WORK == split_work
    ab_sweep.traced_peak_mb(package, call, force=True)
    assert len(started) == 2 and engine._SPLIT_WORK == split_work


def test_rows_that_differ_exit_1(monkeypatch, capsys):
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    monkeypatch.setattr(ab_sweep, "timed", lambda package, call, force: (
        1.0, f"csv {package.__name__} {call[3]}\n"))
    assert ab_sweep.main(["--parent", str(ROOT), "--change", str(ROOT), "--workers", "2,2",
                          "--sweeps", "dor_pool", "--pairs", "2"]) == 1
    _forget_sides()
    assert capsys.readouterr().err == "dor_pool: side change rows differ in pair 0\n"


@pytest.mark.parametrize("argv, error", [
    (["--pairs", "1"], "need at least 2 pairs"), (["--pairs", "0"], "need at least 2 pairs"),
    (["--workers", "2"], "expected P,C"), (["--workers", "0,2"], "expected P,C"),
    (["--workers", "1,2,2"], "expected P,C"),
    (["--parent", "{root}"], "required: --change"),
    (["--change", "{root}"], "required: --parent"),
    (["--parent", "{empty}", "--change", "{root}"], "--parent: no src/rfvlc/__init__.py in"),
    (["--parent", "{root}", "--change", "{empty}", "--seconds", "1"],
     "--change: no src/rfvlc/__init__.py in"),
    (["--parent", "{root}", "--change", "{no_bench}", "--seconds", "1"],
     "--change: no benchmarks/bench.py in"),
    (["--parent", "{no_bench}", "--change", "{root}", "--seconds", "1"],
     "--parent: no benchmarks/bench.py in"),
    (["--sweeps", "prp_sparse,nope"], "--sweeps: nope not among"),
    (["--sweeps", ""], "--sweeps:  not among"), (["--warmup", "-1"], "--warmup must be"),
    (["--seed0", "3"], "--seed0 goes only with --seconds"),
    (["--seconds", "1", "--pairs", "1"], "need at least 2 pairs"),
    (["--seconds", "1", "--sweeps", "dor_pool,dor_sparse_50"],
     "--sweeps: dor_sparse_50 not among prp_sparse,dense_interference,dor_pool"),
    (["--seconds", "1", "--warmup", "0"], "--warmup goes only without --seconds"),
    (["--seconds", "1", "--workers", "1,2"], "--workers goes only without --seconds"),
    (["--seconds", "0"], "--seconds must be positive"),
    (["--seconds", "inf"], "--seconds must be positive and finite, not inf"),
    (["--seconds", "nan"], "--seconds must be positive and finite, not nan"),
    (["--rows", "99"], "need at least 100 trials, not 99"),
    (["--rows", "100", "--seconds", "1"], "--seconds goes only without --rows"),
    (["--rows", "100", "--pairs", "3"], "--pairs goes only without --rows"),
    (["--rows", "100", "--sweeps", "dor_pool"], "--sweeps goes only without --rows"),
    (["--parent", "{root}", "--change", "{no_bench}", "--rows", "100"],
     "--change: no tests/test_golden.py in"),
], ids=["pairs_1", "pairs_0", "workers_2", "workers_0_2", "workers_1_2_2", "no_change",
        "no_parent", "parent_not_a_checkout", "change_not_a_checkout", "change_no_bench",
        "parent_no_bench", "unknown_sweep", "no_sweep", "warmup_-1", "seed0", "bench_pairs_1",
        "not_a_workload", "bench_warmup", "bench_workers", "seconds_0", "seconds_inf",
        "seconds_nan", "rows_99", "rows_seconds", "rows_pairs", "rows_sweeps",
        "rows_no_golden"])
def test_bad_options_exit_2_before_any_run(monkeypatch, tmp_path, capsys, argv, error):
    # {root} is this checkout, {empty} a directory, {no_bench} a tree with
    # src/rfvlc but no benchmarks/bench.py
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    monkeypatch.setattr(ab_sweep, "load", lambda tree, name: pytest.fail("loaded"))
    monkeypatch.setattr(ab_sweep.subprocess, "run",
                        lambda *args, **kwargs: pytest.fail("ran a benchmark"))
    trees = {"root": str(ROOT), "empty": str(tmp_path),
             "no_bench": _checkout(tmp_path / "no_bench", bench=False)}
    argv = [arg.format(**trees) for arg in argv]
    sides = [] if argv[0] in ("--parent", "--change") else ["--parent", str(ROOT),
                                                             "--change", str(ROOT)]
    with pytest.raises(SystemExit) as exc:
        ab_sweep.main([*sides, *argv])
    assert exc.value.code == 2 and error in capsys.readouterr().err


def test_speedup_summary(monkeypatch):
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    calls = []

    def timed(package, call, force):
        # stand-in: the change takes half the parent's time
        calls.append(package)
        return (2.0 if package == "parent" else 1.0), "a,b\n"

    monkeypatch.setattr(ab_sweep, "timed", timed)
    packages = {"parent": "parent", "change": "change"}
    summary = ab_sweep.compare(packages, packages, 4, warmup=1)
    assert calls == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]
    assert summary["pairs"] == 4 and summary["change_won"] == 4
    assert summary["speedup_median"] == summary["speedup_q1"] == 2.0
    assert summary["verdict"] == "change"


@pytest.mark.parametrize("won_1, won_2, ties, faster", [
    (10, 0, 0, "parent"), (9, 1, 0, "parent"), (8, 2, 0, "tie"), (1, 9, 0, "change"),
    (0, 18, 2, "change"), (0, 17, 3, "tie"), (5, 5, 0, "tie"), (0, 0, 4, "tie"),
    (27, 3, 0, "parent"), (26, 4, 0, "tie"),
], ids=["all", "9_of_10", "8_of_10", "change_wins", "ties_count_against", "too_many_ties",
        "even", "all_equal", "27_of_30", "26_of_30"])
@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_side_is_better_only_where_it_wins_9_in_10_pairs(
        monkeypatch, better, won_1, won_2, ties, faster):
    # seconds: a pair of equal times is won by neither side; negated, the
    # same pairs as a higher-is-better metric
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    parent = [1.0] * won_1 + [2.0] * won_2 + [1.5] * ties
    change = [2.0] * won_1 + [1.0] * won_2 + [1.5] * ties
    if better == "higher":
        parent, change = [-x for x in parent], [-x for x in change]
    assert ab_sweep.verdict(parent, change, better) == {
        "parent_won": won_1, "change_won": won_2, "verdict": faster}


@pytest.mark.parametrize("shift, faster", [
    (0.5, "tie"), (-0.5, "tie"), (4.5, "tie"), (-4.5, "tie"), (5.0, "parent"),
    (-5.0, "change")])
def test_a_gap_inside_the_parents_interquartile_range_is_a_tie(monkeypatch, shift, faster):
    # the change shifts every pair one way, so one side wins 10 in 10; the
    # parent's quartiles are 3.25 and 7.75, so only a gap over 4.5 counts
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    parent = [float(x) for x in range(1, 11)]
    change = [x + shift for x in parent]
    assert ab_sweep.verdict(parent, change, "lower") == {
        "parent_won": 10 * (shift > 0), "change_won": 10 * (shift < 0), "verdict": faster}


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


@pytest.mark.parametrize("failing", [None, ("change", 2)])
def test_failed_checks_exit_1_after_the_summary(monkeypatch, tmp_path, capsys, failing):
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)

    def run(argv, **kwargs):
        # argv: python, script, --one, tree, workload, seed, seconds
        tree, seed = Path(argv[3]).name, int(argv[5])
        record = {name: 1.0 for name in ab_sweep.BENCH_METRICS}
        record["failed_checks"] = int((tree, seed) == failing)
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(record) + "\n")

    monkeypatch.setattr(ab_sweep.subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert ab_sweep.main([
        "--parent", _checkout(tmp_path / "parent"), "--change", _checkout(tmp_path / "change"),
        "--sweeps", "dor_pool", "--pairs", "2",
        "--seconds", "1", "--seed0", "1", "--out", str(out)]) == (0 if failing is None else 1)
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert set(summary) == {"command", "runs", "workloads"} and len(summary["runs"]) == 4
    assert [(r["side"], r["seed"], r["first"]) for r in summary["runs"]] == [
        ("parent", 1, "parent"), ("change", 1, "parent"),
        ("change", 2, "change"), ("parent", 2, "change")]
    metrics = summary["workloads"]["dor_pool"]
    assert set(metrics) == set(ab_sweep.BENCH_METRICS)
    assert set(metrics["trials_per_s"]) == {"unit", "better", "parent", "change", "parent_won",
                                            "change_won", "verdict", "change_over_parent"}
    # equal values in every pair: won by neither side
    assert {key: metrics["trials_per_s"][key]
            for key in ("parent_won", "change_won", "verdict")} == {
        "parent_won": 0, "change_won": 0, "verdict": "tie"}
    named = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("failed checks:")]
    assert named == ([] if failing is None
                     else ["failed checks: dor_pool change seed 2 (1 failed)"])


def _git(tree, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tree,
                   check=True, capture_output=True)


def test_each_run_records_whether_its_checkout_is_dirty(monkeypatch, tmp_path):
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

    assert _load(SCRIPT, "ab_sweep", monkeypatch).git_dirty(str(tree)) is None
    assert one()["git_dirty"] is None   # not a git checkout yet
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


_PRP = "distance_m,weather,mode,prp,stderr,ci95_low,ci95_high,n_trials\n"
_RATE = "distance_m,weather,mode,rate_mbps,stderr,ci95_low,ci95_high,n_trials\n"


def _prp_table(rows):
    """A stand-in prp CSV: rows of (distance, successes) of 1000 trials."""
    lines = []
    for distance, k in rows:
        p = k / 1000
        lines.append(f"{distance},clear,la,{p!r},{(p * (1 - p) / 1000) ** 0.5!r},0,1,1000\n")
    return _PRP + "".join(lines)


def _rate_table(rows):
    """A stand-in rate CSV: rows of (distance, mean, stderr) of 1000 trials."""
    return _RATE + "".join(f"{d},fog,pure_vlc,{m!r},{se!r},0,1,1000\n" for d, m, se in rows)


def _bound(rows):
    """The Bonferroni bound on |z| over rows rows."""
    return NormalDist().inv_cdf(1 - 0.025 / rows)


def _verdict(monkeypatch, tables):
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    return ab_sweep.rows_verdict(tables)


def test_rows_within_the_bound_pass(monkeypatch):
    # 20 rows: the bound is Phi^-1(1 - 0.025 / 20) = 3.02; the largest
    # move, 900 -> 930 of 1000, is |z| = 2.4
    parent = [(10 * i, 900) for i in range(10)]
    change = [(10 * i, 900 + 3 * i + 3) for i in range(10)]
    rates = [(10 * i, 2.0 + i, 0.01) for i in range(10)]
    summary, failures = _verdict(monkeypatch, {
        "prp": (_prp_table(parent), _prp_table(change)),
        "rate": (_rate_table(rates), _rate_table(rates[:9] + [(90, 11.02, 0.01)]))})
    assert failures == []
    assert summary["rows"] == 20
    assert summary["bound"] == _bound(20) == pytest.approx(3.023, abs=1e-3)
    prp, rate = summary["cases"]["prp"], summary["cases"]["rate"]
    assert prp["rows"] == 10 and prp["equal"] == 0 and prp["at"] == "90,clear,la"
    assert prp["max_abs_z"] == pytest.approx(2.40, abs=0.01)
    assert rate["equal"] == 9 and rate["max_abs_z"] == pytest.approx(0.02 / 0.01 / 2 ** 0.5)


def test_a_row_moved_by_five_standard_errors_fails(monkeypatch):
    rates = [(10 * i, 2.0 + i, 0.01) for i in range(10)]
    moved = rates[:4] + [(40, 6.0 + 5 * 0.01 * 2 ** 0.5, 0.01)] + rates[5:]
    summary, failures = _verdict(monkeypatch, {"rate": (_rate_table(rates),
                                                        _rate_table(moved))})
    assert summary["cases"]["rate"]["max_abs_z"] == pytest.approx(5.0)
    assert failures == [f"rate: |z| = 5 at 40,fog,pure_vlc exceeds {summary['bound']:.3g}"]


def test_a_deterministic_row_moved_by_one_ulp_fails(monkeypatch):
    value = 0.417758047
    rates = [(50, value, 0.0), (100, 0.2, 0.001)]
    moved = [(50, float(np.nextafter(value, 1.0)), 0.0), (100, 0.2, 0.001)]
    _, failures = _verdict(monkeypatch, {"rate": (_rate_table(rates), _rate_table(moved))})
    assert failures == [f"rate: zero-stderr row 50,fog,pure_vlc moved: {value!r} -> "
                        f"{float(np.nextafter(value, 1.0))!r}",
                        f"rate: |z| = inf at 50,fog,pure_vlc exceeds {_bound(2):.3g}"]


def test_a_key_on_one_side_only_fails(monkeypatch):
    rows = [(10, 900), (20, 800)]
    _, failures = _verdict(monkeypatch, {"prp": (_prp_table(rows), _prp_table(rows[:1])),
                                         "more": (_prp_table(rows[:1]), _prp_table(rows))})
    assert failures == ["prp: row 20,clear,la only in the parent",
                        "more: row 20,clear,la only in the change"]


def test_a_changed_header_fails(monkeypatch):
    rows = [(10, 900)]
    _, failures = _verdict(monkeypatch, {"prp": (
        _prp_table(rows), _prp_table(rows).replace("n_trials", "trials"))})
    assert failures == ["prp: header distance_m,weather,mode,prp,stderr,ci95_low,ci95_high,"
                        "n_trials -> distance_m,weather,mode,prp,stderr,ci95_low,ci95_high,"
                        "trials"]


def test_golden_rows_of_one_checkout_against_itself(monkeypatch, capsys):
    # every golden case runs on both sides at 100 trials: every row equal
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    monkeypatch.setattr(sys, "path", list(sys.path))   # golden_cases adds src
    assert ab_sweep.main(["--parent", str(ROOT), "--change", str(ROOT), "--rows", "100"]) == 0
    _forget_sides()
    out = json.loads(capsys.readouterr().out)
    cases = ab_sweep.golden_cases(str(ROOT))
    assert out["trials"] == 100 and out["failures"] == [] and set(out["cases"]) == set(cases)
    assert out["rows"] == sum(c["rows"] for c in out["cases"].values()) > 0
    for case in out["cases"].values():
        assert case["equal"] == case["rows"] > 0 and case["max_abs_z"] == 0.0


def test_case_argv_sets_the_trials_and_drops_gnuplot(monkeypatch):
    ab_sweep = _load(SCRIPT, "ab_sweep", monkeypatch)
    argv = ["prp-sweep", "--distances", "40", "--gnuplot", "--trials", "5000", "--seed", "11"]
    assert ab_sweep.case_argv(argv, 100_000) == [
        "prp-sweep", "--distances", "40", "--trials", "100000", "--seed", "11"]
    assert "--gnuplot" in argv   # the case itself is left as it is
