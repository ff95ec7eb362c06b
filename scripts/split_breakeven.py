#!/usr/bin/env python3
"""Where splitting a sweep over two processes pays: 1 vs 2 workers.

Times alternating run_sweep calls of each shape below in this one
process, on 1 worker and on 2 with the split forced (engine._SPLIT_WORK
lowered for the call, so the helper is forked whatever the sweep's
work), and prints a table: per shape its chunks, its estimated work
(engine._sweep_work, in thousands of trial-equivalents), the processes
the work cap as it stands picks for `--workers 2`, the median
milliseconds of each side and the faster side:

    python3 scripts/split_breakeven.py --pairs 30

The cap is right for a host where it picks the faster side, up to pair
noise; elsewhere, re-derive engine._SPLIT_WORK from the work at which
the faster side changes (about twice a helper's fixed cost).  The
shapes are the README's table, seed 1.  A pair runs both sides once,
alternating which runs first; both must give equal rows, or the script
exits 1.  A split needs two usable CPUs: on one, both sides run in one
process.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_sweep import cli_call, load, timed, timed_pairs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# name -> (command line, config lines)
SHAPES = {
    "dor_sparse_8": (("dor-sweep", "--trials", "16384"), ()),
    "dor_sparse_16": (("dor-sweep", "--trials", "32768"), ()),
    "dor_sparse_50": (("dor-sweep",), ()),
    "prp_grid_25": (("prp-sweep", "--trials", "4096"), ()),
    "dor_1e-3_8": (("dor-sweep", "--trials", "16384"), ("rho_access = 0.1",)),
    "dense_clear_2": (("prp-sweep", "--weather", "clear", "--distances", "10,25",
                       "--trials", "4096"), ("rho_access = 1.0",)),
    "dense_clear_4": (("prp-sweep", "--weather", "clear", "--distances", "10,25,50,100",
                       "--trials", "4096"), ("rho_access = 1.0",)),
}
SEED = 1


def split_timed(package, call, workers: int):
    """timed(package, call) on workers processes, the split forced beyond one."""
    engine = package.engine
    split_work = engine._SPLIT_WORK
    if workers > 1:
        engine._SPLIT_WORK = 1
    try:
        return timed(package, call[:3] + (workers,))
    finally:
        engine._SPLIT_WORK = split_work


def measure(package, call, pairs: int, warmup: int) -> dict:
    """Median seconds on 1 and 2 workers over timed_pairs; ValueError if
    the two sides' rows differ."""
    sides = {workers: partial(split_timed, package, call, workers) for workers in (1, 2)}
    return {workers: statistics.median(s)
            for workers, s in timed_pairs(sides, pairs, warmup).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=str(ROOT), help="checkout to measure")
    parser.add_argument("--shapes", default=",".join(SHAPES))
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--warmup", type=int, default=2, help="untimed pairs per shape")
    args = parser.parse_args(argv)
    package = load(args.tree, "rfvlc_breakeven")
    package.cli._steady_heap()   # the heap settings cli.main makes
    engine = package.engine
    print(f"usable CPUs {engine._usable_cpus()}; _SPLIT_WORK {engine._SPLIT_WORK}; "
          f"medians of {args.pairs} alternating pairs\n")
    print("| Shape | Chunks | Work (k) | Rule picks | 1 worker | 2 workers | Faster |")
    print("|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for shape in args.shapes.split(","):
            argv, lines = SHAPES[shape]
            call = cli_call(package, [*argv, "--workers", "2"],
                            [f"seed = {SEED}", *lines], Path(tmp, f"{shape}.cfg"))
            config, spec = call[:2]
            chunks = len(spec.distances) * -(-spec.n_trials // engine._CHUNK)
            try:
                ms = {w: 1e3 * s for w, s in
                      measure(package, call, args.pairs, args.warmup).items()}
            except ValueError as exc:
                print(f"{shape}: {exc}", file=sys.stderr)
                return 1
            print(f"| {shape} | {chunks} | {engine._sweep_work(config, spec) / 1e3:.1f} "
                  f"| {engine.sweep_workers(config, spec, 2)} | {ms[1]:.1f} ms "
                  f"| {ms[2]:.1f} ms | {1 if ms[1] <= ms[2] else 2} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
