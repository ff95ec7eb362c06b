#!/usr/bin/env python3
"""Alternating before/after runs of benchmarks/bench.py, with page faults.

Runs the benchmark of two checkouts (say, a parent commit and a change)
in pairs, alternating which side runs first, one fresh interpreter per
run, and writes a BENCH_<n>.json-style summary:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads prp_sparse,dense_interference,dor_pool \\
        --pairs 10 --seconds 10 --seed0 1501 --out BENCH_15.json

Each run imports the checkout's own benchmarks/bench.py, calls its run()
as `bench.py --trace 0` does, and records the host-scaled metrics, the
raw trials/s and the host slowdown factor from its log, and the minor
page faults of the benchmark process itself (warm-up, repeats and set-up
probe launches; the probes and any sweep helpers are child processes and
are reported apart, as minor_faults_children).  Next to the commit the
benchmark reports, git_dirty records whether the checkout had uncommitted
changes to tracked files (null outside a git checkout), since the commit
alone does not say which tree ran.  Each metric's summary holds the pairs
each side won and scripts/ab_sweep.py's verdict: a side is better only
where it won at least 9 in 10 pairs and its median beats the other's by
more than the parent's interquartile range, else "tie".  (ab_sweep.py
times sweeps in one process, and with --workers 1,2 one process against
two.)  It exits 1,
after writing the summary, if any run reports a failed benchmark check,
and names those runs on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_sweep import pair_count, verdict  # noqa: E402

_METRICS = {"trials_per_s": ("1/s", "higher"), "setup_s": ("s", "lower"),
            "peak_rss_mb": ("MB", "lower"), "raw_trials_per_s": ("1/s", "higher"),
            "slowdown": ("ratio", "lower"), "minor_faults_per_repeat": ("count", "lower")}


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


def run_one(tree: str, workload: str, seed: int, seconds: float) -> dict:
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


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workloads", default="prp_sparse,dense_interference,dor_pool")
    parser.add_argument("--pairs", type=pair_count, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--one", nargs=4, metavar=("TREE", "WORKLOAD", "SEED", "SECONDS"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        tree, workload, seed, seconds = args.one
        print(json.dumps(run_one(tree, workload, int(seed), float(seconds))))
        return 0

    sides = {"parent": args.parent, "change": args.change}
    out = {"command": "python3 benchmarks/bench.py --workload <workload> --seed <seed> "
                      f"--seconds {args.seconds:g} --trace 0, through scripts/bench_pairs.py",
           "runs": [], "workloads": {}}
    for workload in args.workloads.split(","):
        records = {side: [] for side in sides}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                proc = subprocess.run(
                    [sys.executable, __file__, "--one", sides[side], workload, str(seed),
                     str(args.seconds)], capture_output=True, text=True, check=True)
                record = json.loads(proc.stdout.splitlines()[-1])
                record.update(workload=workload, side=side, seed=seed, pair=i,
                              first=order[0])
                records[side].append(record)
                out["runs"].append(record)
                print(json.dumps(record), file=sys.stderr)
        summary = {}
        for name, (unit, better) in _METRICS.items():
            a = [r[name] for r in records["parent"]]
            b = [r[name] for r in records["change"]]
            summary[name] = {"unit": unit, "better": better, "parent": _summary(a),
                             "change": _summary(b), **verdict(a, b, better),
                             "change_over_parent": statistics.median(b) / statistics.median(a)}
        out["workloads"][workload] = summary
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    failed = [r for r in out["runs"] if r["failed_checks"] > 0]
    for r in failed:
        print(f"failed checks: {r['workload']} {r['side']} seed {r['seed']} "
              f"({r['failed_checks']} failed)", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
