#!/usr/bin/env python3
"""Same-process A/B timing of sweeps and their CSV text on two checkouts.

Loads each checkout's src/rfvlc under a package name of its own
(rfvlc_parent, rfvlc_change) into this one process, then times
alternating calls of run_sweep and cli._sweep_csv, which turns the rows
into the CSV text the benchmark hashes, on the benchmark's three sweeps:

    python3 scripts/ab_sweep.py --parent ../parent --change . \\
        --sweeps prp_sparse,dense_interference,dor_pool --pairs 200

The sweeps mirror benchmarks/bench.py's workloads (same subcommand,
flags, config lines and trials per point, seed 1), and their config and
spec come from each checkout's own CLI (cli.sweep_call, which both
checkouts must have).  A pair runs both sides once, alternating which
runs first.  Every call's CSV text must equal the first call's, or the
script exits 1.
It prints, per sweep, the median per-pair speedup (parent seconds over
change seconds), its quartiles and the pairs the change ran faster, and
each side's tracemalloc peak (MB, 10^6 bytes) from one more untimed call
after the pairs, as one JSON object.  The peak is this process's: a
sweep that forks helpers traces none of their memory.  Both sides share
the interpreter, the heap and the host's noise, so pairs taken this way
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
from functools import partial
from pathlib import Path

# name -> (command line, config lines, trials per point), as in bench.py
SWEEPS = {
    "prp_sparse": (("prp-sweep", "--workers", "1"), (), 4096),
    "dense_interference": (("prp-sweep", "--workers", "1", "--weather", "clear",
                            "--distances", "10,25,50,100"), ("rho_access = 1.0",), 4096),
    "dor_pool": (("dor-sweep", "--workers", "2"), (), 4 * 4096),
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


def timed(package, call) -> tuple[float, str]:
    """Seconds of one run_sweep call and of its rows' CSV text
    (cli._sweep_csv), and that text."""
    config, spec, metric, workers = call
    gc.collect()
    t0 = time.perf_counter()
    text = package.cli._sweep_csv(package.run_sweep(config, spec, metric, n_workers=workers),
                                  metric)
    seconds = time.perf_counter() - t0
    return seconds, text


def traced_peak_mb(package, call) -> float:
    """The tracemalloc peak, in MB, of one untimed run_sweep call."""
    config, spec, metric, workers = call
    gc.collect()
    tracemalloc.start()
    try:
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


def compare(packages: dict, calls: dict, pairs: int, warmup: int = 0) -> dict:
    """The speedup summary of one sweep's timed_pairs, parent against change."""
    seconds = timed_pairs({side: partial(timed, packages[side], calls[side])
                           for side in packages}, pairs, warmup)
    speedup = [p / c for p, c in zip(seconds["parent"], seconds["change"])]
    q1, median, q3 = statistics.quantiles(speedup, n=4, method="inclusive")
    return {"pairs": pairs, "speedup_median": median, "speedup_q1": q1, "speedup_q3": q3,
            "change_faster_pairs": sum(s > 1.0 for s in speedup),
            "parent_s_median": statistics.median(seconds["parent"]),
            "change_s_median": statistics.median(seconds["change"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--sweeps", default=",".join(SWEEPS))
    parser.add_argument("--pairs", type=int, default=200)
    parser.add_argument("--warmup", type=int, default=2, help="untimed pairs per sweep")
    args = parser.parse_args(argv)
    packages = {"parent": load(args.parent, "rfvlc_parent"),
                "change": load(args.change, "rfvlc_change")}
    # the process-wide heap settings cli.main makes, as in the benchmark
    packages["change"].cli._steady_heap()
    out = {"method": "same-process alternating run_sweep + cli._sweep_csv pairs; speedup = "
                     "parent seconds / change seconds per pair", "sweeps": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for sweep in args.sweeps.split(","):
            calls = {side: sweep_call(p, sweep, Path(tmp)) for side, p in packages.items()}
            try:
                out["sweeps"][sweep] = compare(packages, calls, args.pairs, args.warmup)
            except ValueError as exc:
                print(f"{sweep}: {exc}", file=sys.stderr)
                return 1
            out["sweeps"][sweep].update({f"{side}_peak_mb": traced_peak_mb(p, calls[side])
                                         for side, p in packages.items()})
            print(json.dumps({sweep: out["sweeps"][sweep]}), file=sys.stderr)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
