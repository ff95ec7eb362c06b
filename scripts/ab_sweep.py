#!/usr/bin/env python3
"""Same-process A/B timing of sweeps and their CSV text on two checkouts.

Loads each checkout's src/rfvlc under a package name of its own
(rfvlc_parent, rfvlc_change) into this one process, then times
alternating calls of run_sweep and cli._sweep_csv, which turns the rows
into the CSV text the benchmark hashes:

    python3 scripts/ab_sweep.py --parent ../parent --change . \\
        --sweeps prp_sparse,dense_interference,dor_pool --pairs 200

The first three sweeps mirror benchmarks/bench.py's workloads (same
subcommand, flags, config lines and trials per point, seed 1); the other
four are more shapes of the work cap's split.  Each sweep's config and
spec come from each checkout's own CLI (cli.sweep_call, which both
checkouts must have).  A pair runs both sides once, alternating which
runs first.  Every call's CSV text must equal the first call's, or the
script exits 1.

With --workers P,C the parent side runs on P processes and the change
side on C, the split forced above one (engine._SPLIT_WORK is 1 for the
call, so a helper is forked whatever the sweep's work).  On one checkout
this times where splitting pays, to re-derive engine._SPLIT_WORK on
another host as half the work from which two processes run faster:

    python3 scripts/ab_sweep.py --parent . --change . --workers 1,2 --pairs 30

It prints, per sweep, each side's median seconds, the median per-pair
speedup (parent seconds over change seconds) and its quartiles, the
verdict (see verdict()), the processes the change's work cap picks for
the larger worker count (engine.sweep_workers), the sweep's work W
(engine._sweep_work, in thousands of trial-equivalents), and each side's
tracemalloc peak (MB, 10^6 bytes) from one more untimed call after the
pairs, as one JSON object.  The peak is this process's: a sweep that
forks helpers traces none of their memory.  Both sides share the
interpreter, the heap and the host's noise, so pairs taken this way
separate changes of a few percent that fresh-process benchmark pairs
cannot.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from functools import partial
from pathlib import Path

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
                       "--distances", "10,25"), ("rho_access = 1.0",), 4096),
}
SEED = 1


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


@contextmanager
def forced(package, force: bool):
    """A context in which, if force, the package's work cap splits any sweep
    over the workers asked for (engine._SPLIT_WORK is 1, restored after)."""
    if not force:
        yield
        return
    engine = package.engine
    split_work, engine._SPLIT_WORK = engine._SPLIT_WORK, 1
    try:
        yield
    finally:
        engine._SPLIT_WORK = split_work


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


def timed_pairs(sides: dict, pairs: int, warmup: int = 0) -> dict:
    """Each side's seconds over alternating pairs, the first warmup of them
    untimed.

    sides maps a name to a call that runs the side once and returns its
    seconds and its rows (as CSV text, say).  A pair calls every side
    once, in order on even pairs and in reverse on odd ones.  ValueError
    if any call's rows differ from the first call's.
    """
    seconds = {side: [] for side in sides}
    expected = None
    for i in range(warmup + pairs):
        for side in list(sides)[::1 if i % 2 == 0 else -1]:
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


def worker_counts(text: str) -> dict:
    """An argparse type: "P,C", the parent's and the change's processes."""
    counts = text.split(",")
    if len(counts) != 2 or not all(c.isdigit() and int(c) > 0 for c in counts):
        raise argparse.ArgumentTypeError(f"expected P,C, two positive counts, not {text!r}")
    return {"parent": int(counts[0]), "change": int(counts[1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--sweeps", default=",".join(SWEEPS))
    parser.add_argument("--pairs", type=pair_count, default=200)
    parser.add_argument("--warmup", type=int, default=2, help="untimed pairs per sweep")
    parser.add_argument("--workers", type=worker_counts, metavar="P,C",
                        help="parent and change processes, the split forced above one")
    args = parser.parse_args(argv)
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
        for sweep in args.sweeps.split(","):
            calls = {side: sweep_call(p, sweep, Path(tmp)) for side, p in packages.items()}
            if force:
                calls = {side: call[:3] + (args.workers[side],) for side, call in calls.items()}
            config, spec = calls["change"][:2]
            try:
                summary = compare(packages, calls, args.pairs, args.warmup, force)
            except ValueError as exc:
                print(f"{sweep}: {exc}", file=sys.stderr)
                return 1
            summary.update(
                cap_picks=engine.sweep_workers(config, spec, max(c[3] for c in calls.values())),
                work_k=engine._sweep_work(config, spec) / 1e3,
                **{f"{side}_peak_mb": traced_peak_mb(p, calls[side], force)
                   for side, p in packages.items()})
            out["sweeps"][sweep] = summary
            print(json.dumps({sweep: summary}), file=sys.stderr)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
