#!/usr/bin/env python3
"""Alternating before/after pairs of two checkouts: sweeps or benchmark runs.

Without --seconds, sweeps run in this one process: each checkout's
src/rfvlc is loaded under a name of its own (rfvlc_parent, rfvlc_change),
and a pair times one call per side of run_sweep plus cli._sweep_csv (the
CSV text the benchmark hashes), the config and spec from each checkout's
own cli.sweep_call:

    python3 scripts/ab_sweep.py --parent ../parent --change . \\
        --sweeps prp_sparse,dense_interference,dor_pool --pairs 200

The first three sweeps mirror benchmarks/bench.py's workloads (seed 1);
the other six are more shapes of the work cap's split and of the pooled
groups, prp_default the paper's default grid (25 distances x 100k
trials).  Every call's CSV text must equal the first call's, or the
script exits 1.  With --workers P,C the parent runs on P processes and
the change on C, the split forced above one (engine._SPLIT_WORK is 1
for the call): on one checkout, --workers 1,2 re-derives _SPLIT_WORK on
another host.  Per sweep it reports each side's median seconds, the
per-pair speedup's quartiles, the verdict, the change's
engine.sweep_workers pick (cap_picks), the work W in thousands (work_k),
and each side's tracemalloc peak (MB) of one more call, which misses
forked helpers.  Sharing one interpreter and heap, these pairs separate
changes of a few percent that benchmark pairs cannot.

With --seconds S, a pair calls benchmarks/bench.py's run() once per side,
as `bench.py --trace 0` does, each in a fresh interpreter, with seed
--seed0 plus the pair index, on the benchmark's workloads only:

    python3 scripts/ab_sweep.py --parent ../parent --change . \\
        --pairs 10 --seconds 10 --seed0 1501 --out BENCH_15.json

A run records the host-scaled metrics, the raw trials/s and slowdown
from the benchmark's log, its own minor page faults (the set-up probes'
and helpers' apart, as minor_faults_children), git_commit and git_dirty
(uncommitted changes to tracked files; null outside a git checkout).  It
exits 1 after the summary if any run reports a failed check.

In both modes the parent runs first on even pairs, verdict() names a
better side, and the JSON goes to stdout or --out.

With --rows N, nothing is timed: each case of the change's
tests/test_golden.py CASES runs once per side through that side's
cli.main, at N trials and without --gnuplot, for a deliberate change of
output bits (a version bump) to show that every row moved only within
Monte Carlo error:

    python3 scripts/ab_sweep.py --parent ../parent --change . --rows 100000

The rows are joined by their key columns.  Per case it reports the rows,
the rows equal, and the largest |z| and its row: the pooled proportion
for prp and dor rows, the two standard errors for rate rows.  It exits 1
after the summary if any |z| exceeds the Bonferroni bound over all rows,
Phi^-1(1 - 0.025 / rows), if a row with zero stderr on both sides moved
at all, if a key is on one side only, or if a header changed.

A missing side, a side that is not a checkout, an option of another
mode, an unknown sweep or fewer than 2 pairs exit 2 before any run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from unittest import mock

SIDES = ("parent", "change")
# name -> (command line, config lines, trials per point); the first three
# as in bench.py
SWEEPS = {
    "prp_sparse": (("prp-sweep", "--workers", "1"), (), 4096),
    "dense_interference": (("prp-sweep", "--workers", "1", "--weather", "clear",
                            "--distances", "10,25,50,100"), ("rho_access = 1.0",), 4096),
    "dor_pool": (("dor-sweep", "--workers", "2"), (), 4 * 4096),
    "dor_sparse_16": (("dor-sweep", "--workers", "2"), (), 8 * 4096),
    "dor_sparse_50": (("dor-sweep", "--workers", "2"), (), 100_000),
    "dor_1e-3_8": (("dor-sweep", "--workers", "2"), ("rho_access = 0.1",), 4 * 4096),
    "dense_clear_2": (("prp-sweep", "--workers", "2", "--weather", "clear",
                       "--distances", "10,25"), ("rho_access = 1.0",), 2 * 4096),
    # no lane points: only metrics._GROUP closes a pooled group
    "prp_lambda0": (("prp-sweep", "--workers", "1"), ("lambda_density = 0",), 100_000),
    # the paper's default grid, 25 distances x 100k trials: many pooled
    # groups, each scored at many distances
    "prp_default": (("prp-sweep", "--workers", "1"), (), 100_000),
}
WORKLOADS = tuple(SWEEPS)[:3]   # bench.WORKLOADS
SEED = 1
# what a benchmark pair summarises: name -> (unit, better)
BENCH_METRICS = {"trials_per_s": ("1/s", "higher"), "setup_s": ("s", "lower"),
                 "peak_rss_mb": ("MB", "lower"), "raw_trials_per_s": ("1/s", "higher"),
                 "slowdown": ("ratio", "lower"),
                 "minor_faults_per_repeat": ("count", "lower")}


def load(tree: str, name: str):
    """The checkout's src/rfvlc package, imported as name (cli included)."""
    init = Path(tree, "src", "rfvlc", "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def sweep_call(package, sweep: str, work_dir: Path):
    """(config, spec, metric, workers) of a sweep, as the package's CLI reads it."""
    argv, lines, trials = SWEEPS[sweep]
    return cli_call(package, argv, [f"seed = {SEED}", f"trials = {trials}", *lines],
                    work_dir / f"{package.__name__}_{sweep}.cfg")


def cli_call(package, argv, lines, path: Path):
    """(config, spec, metric, workers) of a sweep command line whose config
    file, written to path, holds lines, as the package's CLI reads them."""
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    args = package.cli.build_parser().parse_args([*argv, "--config", str(path)])
    return (*package.cli.sweep_call(args), args.workers)


def forced(package, force: bool):
    """A context in which, if force, the package's work cap splits any sweep
    over the workers asked for (engine._SPLIT_WORK is 1, restored after)."""
    return mock.patch.object(package.engine, "_SPLIT_WORK", 1) if force else nullcontext()


def timed(package, call, force: bool = False) -> tuple[float, str]:
    """Seconds of one run_sweep call and of its rows' CSV text
    (cli._sweep_csv), and that text; the split forced if force."""
    config, spec, metric, workers = call
    gc.collect()
    with forced(package, force):
        t0 = time.perf_counter()
        text = package.cli._sweep_csv(
            package.run_sweep(config, spec, metric, n_workers=workers), metric)
        seconds = time.perf_counter() - t0
    return seconds, text


def traced_peak_mb(package, call, force: bool = False) -> float:
    """The tracemalloc peak, in MB, of one untimed run_sweep call."""
    config, spec, metric, workers = call
    gc.collect()
    tracemalloc.start()
    try:
        with forced(package, force):
            package.run_sweep(config, spec, metric, n_workers=workers)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def run_order(pair: int) -> tuple[str, str]:
    """The sides in the order a pair runs them: the parent first on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def timed_pairs(sides: dict, pairs: int, warmup: int = 0) -> dict:
    """Each side's seconds over alternating pairs, the first warmup of them
    untimed.

    sides maps "parent" and "change" to a call that runs the side once and
    returns its seconds and its rows (as CSV text, say); a pair calls them
    in run_order.  ValueError if any call's rows differ from the first
    call's.
    """
    seconds = {side: [] for side in SIDES}
    expected = None
    for i in range(warmup + pairs):
        for side in run_order(i):
            wall, rows = sides[side]()
            expected = expected or rows
            if rows != expected:
                raise ValueError(f"side {side} rows differ in pair {i}")
            if i >= warmup:
                seconds[side].append(wall)
    return seconds


def verdict(parent: list, change: list, better: str) -> dict:
    """The pairs each side won and the better side of paired values, where
    better is "higher" or "lower": "parent" or "change" if it won at least 9
    in 10 of the pairs (a tie is won by neither) and its median is better
    than the other's by more than the parent's interquartile range, else
    "tie"."""
    sign = 1.0 if better == "higher" else -1.0
    gap = sign * (statistics.median(change) - statistics.median(parent))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    won = {"parent": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
           "change": sum(sign * (c - p) > 0 for p, c in zip(parent, change))}
    side = "change" if gap > 0 else "parent"
    wins = 10 * won[side] >= 9 * len(parent) and abs(gap) > q3 - q1
    return {"parent_won": won["parent"], "change_won": won["change"],
            "verdict": side if wins else "tie"}


def compare(packages: dict, calls: dict, pairs: int, warmup: int = 0,
            force: bool = False) -> dict:
    """The summary of one sweep's timed_pairs, parent against change."""
    seconds = timed_pairs({side: partial(timed, packages[side], calls[side], force)
                           for side in packages}, pairs, warmup)
    speedup = [p / c for p, c in zip(seconds["parent"], seconds["change"])]
    q1, median, q3 = statistics.quantiles(speedup, n=4, method="inclusive")
    return {"pairs": pairs, "parent_s_median": statistics.median(seconds["parent"]),
            "change_s_median": statistics.median(seconds["change"]),
            "speedup_median": median, "speedup_q1": q1, "speedup_q3": q3,
            **verdict(seconds["parent"], seconds["change"], "lower")}


def pair_count(text: str) -> int:
    """An argparse type: a number of pairs, at least 2 (the quartiles need two)."""
    pairs = int(text)
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs, not {pairs}")
    return pairs


def row_trials(text: str) -> int:
    """An argparse type: trials per sweep point, at least the CLI's 100."""
    trials = int(text)
    if trials < 100:
        raise argparse.ArgumentTypeError(f"need at least 100 trials, not {trials}")
    return trials


def worker_counts(text: str) -> dict:
    """An argparse type: "P,C", the parent's and the change's processes."""
    counts = text.split(",")
    if len(counts) != 2 or not all(c.isdigit() and int(c) > 0 for c in counts):
        raise argparse.ArgumentTypeError(f"expected P,C, two positive counts, not {text!r}")
    return {"parent": int(counts[0]), "change": int(counts[1])}


def sweep_pairs(args) -> tuple[dict | None, int]:
    """The in-process summary of every sweep and the exit status: no
    summary and 1, the sweep named on stderr, if a call's rows differ."""
    packages = {"parent": load(args.parent, "rfvlc_parent"),
                "change": load(args.change, "rfvlc_change")}
    # the process-wide heap settings cli.main makes, as in the benchmark
    packages["change"].cli._steady_heap()
    engine = packages["change"].engine
    force = args.workers is not None
    out = {"method": "same-process alternating run_sweep + cli._sweep_csv pairs; speedup = "
                     "parent seconds / change seconds per pair",
           "workers": args.workers, "split_work": engine._SPLIT_WORK,
           "usable_cpus": engine._usable_cpus(), "sweeps": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for sweep in args.sweeps:
            calls = {side: sweep_call(p, sweep, Path(tmp)) for side, p in packages.items()}
            if force:
                calls = {side: call[:3] + (args.workers[side],) for side, call in calls.items()}
            config, spec = calls["change"][:2]
            try:
                summary = compare(packages, calls, args.pairs, args.warmup, force)
            except ValueError as exc:
                print(f"{sweep}: {exc}", file=sys.stderr)
                return None, 1
            summary.update(
                cap_picks=engine.sweep_workers(config, spec, max(c[3] for c in calls.values())),
                work_k=engine._sweep_work(config, spec) / 1e3,
                **{f"{side}_peak_mb": traced_peak_mb(p, calls[side], force)
                   for side, p in packages.items()})
            out["sweeps"][sweep] = summary
            print(json.dumps({sweep: summary}), file=sys.stderr)
    return out, 0


def git_dirty(tree: str) -> bool | None:
    """Whether a checkout has uncommitted changes to tracked files; None if
    it is not a git checkout of its own (git searches no directory above it)."""
    root = Path(tree).resolve()
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def bench_one(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of a checkout, in this process."""
    sys.path.insert(0, str(Path(tree, "benchmarks").resolve()))
    import bench

    ru = [resource.getrusage(who).ru_minflt
          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result = bench.run(workload, seed, seconds, False)
    faults, children = (resource.getrusage(who).ru_minflt - before for who, before in
                        zip((resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN), ru))
    log = "\n".join(result["log"])
    repeats = int(re.search(r"repeats (\d+);", log).group(1))
    record = {name: value for name, (value, _) in result["metrics"].items()}
    record.update(
        raw_trials_per_s=float(re.search(r"measured trials/s (\S+)", log).group(1)),
        slowdown=float(re.search(r"slowdown (\S+)", log).group(1)),
        repeats=repeats, minor_faults=faults, minor_faults_per_repeat=faults / repeats,
        minor_faults_children=children, failed_checks=result["failed"],
        git_commit=result["env"]["git_commit"], git_dirty=git_dirty(tree))
    return record


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def bench_pairs(args) -> tuple[dict, int]:
    """The benchmark summary of every workload, each run in a fresh
    interpreter (this script's hidden --one entry), and the exit status:
    1, the runs named on stderr, if any run reports a failed check."""
    trees = {"parent": args.parent, "change": args.change}
    out = {"command": "python3 benchmarks/bench.py --workload <workload> --seed <seed> "
                      f"--seconds {args.seconds:g} --trace 0, through "
                      "scripts/ab_sweep.py --seconds",
           "runs": [], "workloads": {}}
    for workload in args.sweeps:
        records = {side: [] for side in SIDES}
        for i in range(args.pairs):
            seed = args.seed0 + i
            for side in run_order(i):
                proc = subprocess.run(
                    [sys.executable, __file__, "--one", trees[side], workload, str(seed),
                     str(args.seconds)], capture_output=True, text=True, check=True)
                record = json.loads(proc.stdout.splitlines()[-1])
                record.update(workload=workload, side=side, seed=seed, pair=i,
                              first=run_order(i)[0])
                records[side].append(record)
                out["runs"].append(record)
                print(json.dumps(record), file=sys.stderr)
        summary = {}
        for name, (unit, better) in BENCH_METRICS.items():
            a = [r[name] for r in records["parent"]]
            b = [r[name] for r in records["change"]]
            summary[name] = {"unit": unit, "better": better, "parent": _quartiles(a),
                             "change": _quartiles(b), **verdict(a, b, better),
                             "change_over_parent": statistics.median(b) / statistics.median(a)}
        out["workloads"][workload] = summary
    failed = [r for r in out["runs"] if r["failed_checks"] > 0]
    for r in failed:
        print(f"failed checks: {r['workload']} {r['side']} seed {r['seed']} "
              f"({r['failed_checks']} failed)", file=sys.stderr)
    return out, 1 if failed else 0


def golden_cases(tree: str) -> dict:
    """CASES of a checkout's tests/test_golden.py, imported with its
    src on the path: case name -> CLI argv."""
    sys.path.insert(0, str(Path(tree, "src").resolve()))
    spec = importlib.util.spec_from_file_location(
        "golden_cases", Path(tree, "tests", "test_golden.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


def case_argv(argv, trials: int) -> list:
    """A golden case's argv at trials trials, without --gnuplot."""
    out = [arg for arg in argv if arg != "--gnuplot"]
    out[out.index("--trials") + 1] = str(trials)
    return out


def csv_rows(text: str) -> tuple[list, dict]:
    """The header and the rows of a sweep CSV: the key columns (every one
    before the metric's) -> (value, stderr, n_trials, the rest of the line)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    k = header.index("stderr") - 1   # the metric's column
    rows = {}
    for line in lines[1:]:
        fields = line.split(",")
        rows[tuple(fields[:k])] = (float(fields[k]), float(fields[k + 1]), int(fields[-1]),
                                   fields[k:])
    return header, rows


def row_z(metric: str, a: tuple, b: tuple) -> float:
    """|z| between one row's two estimates, (value, stderr, n_trials, ...):
    0 for equal values, the pooled proportion's standard error for prp and
    dor, the two standard errors for rate_mbps; inf where that is 0."""
    (va, sa, na), (vb, sb, nb) = a[:3], b[:3]
    if va == vb:
        return 0.0
    if metric == "rate_mbps":
        se = math.hypot(sa, sb)
    else:
        p = (va * na + vb * nb) / (na + nb)
        se = math.sqrt(p * (1.0 - p) * (1.0 / na + 1.0 / nb))
    return abs(va - vb) / se if se > 0.0 else math.inf


def rows_verdict(tables: dict) -> tuple[dict, list]:
    """The summary and the failures of parent-against-change tables:
    tables maps a case to its (parent CSV text, change CSV text)."""
    cases, failures, worst = {}, [], {}
    for case, (parent, change) in tables.items():
        (head_a, a), (head_b, b) = csv_rows(parent), csv_rows(change)
        if head_a != head_b:
            failures.append(f"{case}: header {','.join(head_a)} -> {','.join(head_b)}")
            continue
        metric = head_a[head_a.index("stderr") - 1]
        failures += [f"{case}: row {','.join(key)} only in the {side}"
                     for side, mine, other in (("parent", a, b), ("change", b, a))
                     for key in mine if key not in other]
        both = [key for key in a if key in b]
        for key in both:
            if a[key][1] == b[key][1] == 0.0 and a[key][0] != b[key][0]:
                failures.append(f"{case}: zero-stderr row {','.join(key)} moved: "
                                f"{a[key][0]!r} -> {b[key][0]!r}")
        z = {key: row_z(metric, a[key], b[key]) for key in both}
        at = max(z, key=z.get, default=None)
        worst[case] = (z[at] if z else 0.0, at)
        cases[case] = {"rows": len(both), "equal": sum(a[key][3] == b[key][3] for key in both),
                       "max_abs_z": worst[case][0], "at": at and ",".join(at)}
    rows = sum(c["rows"] for c in cases.values())
    bound = statistics.NormalDist().inv_cdf(1.0 - 0.025 / rows) if rows else math.inf
    failures += [f"{case}: |z| = {z:.3g} at {','.join(at)} exceeds {bound:.3g}"
                 for case, (z, at) in worst.items() if z > bound]
    return {"rows": rows, "bound": bound, "cases": cases, "failures": failures}, failures


def rows_pairs(args) -> tuple[dict, int]:
    """The row verdict of every golden case at args.rows trials, run once
    per side, and the exit status: 1, the failures on stderr, if any."""
    cases = golden_cases(args.change)
    packages = {side: load(getattr(args, side), f"rfvlc_{side}") for side in SIDES}
    tables = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in cases.items():
            texts = []
            for side, package in packages.items():
                out = Path(tmp, side, case)
                if package.cli.main([*case_argv(argv, args.rows), "--out", str(out)]) != 0:
                    raise RuntimeError(f"{case}: the {side} run failed")
                csv, = out.glob("*_sweep.csv")
                texts.append(csv.read_text(encoding="utf-8"))
            tables[case] = tuple(texts)
    summary, failures = rows_verdict(tables)
    for failure in failures:
        print(failure, file=sys.stderr)
    return {"method": "each golden case once per side at --rows trials; |z| by the pooled "
                      "proportion (prp, dor) or the two stderrs (rate_mbps); bound "
                      "Phi^-1(1 - 0.025 / rows)", "trials": args.rows, **summary}, \
        1 if failures else 0


def parse_args(argv) -> argparse.Namespace:
    """The options, each mode's defaults filled in; exit 2 on a side
    without src/rfvlc/__init__.py (or, with --seconds, benchmarks/bench.py),
    an option of the other mode, an unknown sweep, negative warm-up pairs
    or a run length that is not positive and finite."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--sweeps", help="comma-separated (default: all of the mode's)")
    parser.add_argument("--pairs", type=pair_count, help="default 200, or 10 with --seconds")
    parser.add_argument("--out", help="write the JSON summary here, not to stdout")
    parser.add_argument("--seconds", type=float, help="benchmark pairs of S-second runs")
    parser.add_argument("--seed0", type=int, help="with --seconds: the first pair's seed "
                                                  "(default 1)")
    parser.add_argument("--warmup", type=int, help="untimed pairs per sweep (default 2)")
    parser.add_argument("--workers", type=worker_counts, metavar="P,C",
                        help="parent and change processes, the split forced above one")
    parser.add_argument("--rows", type=row_trials, metavar="N",
                        help="no timing: compare the golden cases' rows at N trials")
    args = parser.parse_args(argv)
    benchmark = args.seconds is not None
    if args.rows is not None:
        for option in ("seconds", "seed0", "warmup", "workers", "pairs", "sweeps"):
            if getattr(args, option) is not None:
                parser.error(f"--{option} goes only without --rows")
    for option in ("warmup", "workers") if benchmark else ("seed0",):
        if getattr(args, option) is not None:
            parser.error(f"--{option} goes only with{'out' if benchmark else ''} --seconds")
    for side in SIDES:
        needs = ["src/rfvlc/__init__.py"] + ["benchmarks/bench.py"] * benchmark
        needs += ["tests/test_golden.py"] * (args.rows is not None and side == "change")
        for need in needs:
            if not Path(getattr(args, side), need).is_file():
                parser.error(f"--{side}: no {need} in {getattr(args, side)}")
    if benchmark and not 0 < args.seconds < math.inf:
        parser.error(f"--seconds must be positive and finite, not {args.seconds:g}")
    if args.warmup is not None and args.warmup < 0:
        parser.error(f"--warmup must be at least 0, not {args.warmup}")
    known = WORKLOADS if benchmark else tuple(SWEEPS)
    args.sweeps = list(known) if args.sweeps is None else args.sweeps.split(",")
    unknown = [sweep for sweep in args.sweeps if sweep not in known]
    if unknown:
        parser.error(f"--sweeps: {','.join(unknown)} not among {','.join(known)}")
    args.pairs = args.pairs or (10 if benchmark else 200)
    args.warmup = 2 if args.warmup is None else args.warmup
    args.seed0 = 1 if args.seed0 is None else args.seed0
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--one"]:   # TREE WORKLOAD SEED SECONDS: one run of bench_pairs
        tree, workload, seed, seconds = argv[1:]
        print(json.dumps(bench_one(tree, workload, int(seed), float(seconds))))
        return 0
    args = parse_args(argv)
    if args.rows is not None:
        out, status = rows_pairs(args)
    else:
        out, status = (sweep_pairs if args.seconds is None else bench_pairs)(args)
    if out is not None:
        text = json.dumps(out, indent=1) + "\n"
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
