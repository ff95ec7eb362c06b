"""Command-line front end: metric sweeps and CSV emission.

Subcommands:
  prp-sweep    packet reception probability vs distance
  dor-sweep    delay outage rate vs delay threshold, at fixed distances
  rate-sweep   achievable data rate vs distance
  validate     parse and check a configuration, print violations

All numeric CSV fields are printed with 9 significant digits so that
golden-file comparisons are exact; outputs are byte-identical across runs
and worker counts for equal manifests.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import resource
import sys
import time
from dataclasses import replace
from functools import cache

from . import __version__
from .config import (DEFAULT_MODES, DEFAULT_PRP_DISTANCES, config_digest, parse_config,
                     parse_list)
from .engine import _CHUNK, RNG_SCHEME, SweepRow, SweepSpec, run_sweep, sweep_workers
from .errors import ConfigError
from .metrics import MODES
from .scenario import ScenarioConfig

# subcommand -> (help, metric, file stem, default distances, default modes)
_SWEEPS = {
    "prp-sweep": ("packet reception probability vs distance", "prp", "prp",
                  DEFAULT_PRP_DISTANCES, DEFAULT_MODES),
    "dor-sweep": ("delay outage rate vs delay threshold", "dor", "dor",
                  (50.0, 200.0), DEFAULT_MODES),
    "rate-sweep": ("achievable data rate vs distance", "rate_mbps", "rate",
                   (50.0, 100.0, 150.0, 200.0, 250.0), MODES),
}
_DEFAULT_T_TH_MS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.5, 10.0)


def _fmt(x: float) -> str:
    return format(x, ".9g")


def _load(args) -> tuple[ScenarioConfig, SweepSpec]:
    text = ""
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not UTF-8 text: {exc}") from None
    config, spec = parse_config(text)
    if args.seed is not None:
        spec = replace(spec, master_seed=args.seed)
    if args.trials is not None:
        spec = replace(spec, n_trials=args.trials)
    if args.weather is not None:
        spec = replace(spec, weathers=parse_list(args.weather, str))
    if args.modes is not None:
        spec = replace(spec, modes=parse_list(args.modes, str))
    return config, spec


def _write_files(out_dir: str, files: dict[str, str]) -> None:
    """Write files ({name: text}, in order) into out_dir, all or nothing.

    Each path is recorded before it is opened, so a write that fails
    partway removes every file of the run, the half-written one too.
    """
    os.makedirs(out_dir, exist_ok=True)
    opened = []
    try:
        for name, text in files.items():
            opened.append(os.path.join(out_dir, name))
            with open(opened[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
    except BaseException:
        for path in opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _sweep_csv(rows: tuple[SweepRow, ...], metric: str) -> str:
    """One row per (distance, weather, mode), led by t_th_ms on DOR rows."""
    # "%.9g" % x is format(x, ".9g"): one format per line
    line = "%.9g,%s,%s,%.9g,%.9g,%.9g,%.9g,%d"
    lines = [f"distance_m,weather,mode,{metric},stderr,ci95_low,ci95_high,n_trials"]
    if metric == "dor":
        line, lines[0] = "%.9g," + line, "t_th_ms," + lines[0]
    for row in rows:
        est = row.estimate
        fields = (row.distance, row.weather, row.mode, est.value, est.stderr,
                  est.ci95_low, est.ci95_high, est.n_trials)
        lines.append(line % (fields if row.t_th is None else (row.t_th * 1000.0, *fields)))
    return "\n".join(lines) + "\n"


def _gnuplot_files(rows: tuple[SweepRow, ...], stem: str) -> dict[str, str]:
    """One whitespace-delimited file per curve, {name: text}.

    A curve is a (weather, mode) pair over distance, or for DOR rows a
    (distance, weather, mode) triple over the delay threshold in seconds.
    """
    curves: dict[str, list[str]] = {}
    for row in rows:
        if row.t_th is None:
            name, x = f"{stem}_{row.weather}_{row.mode}", row.distance
        else:
            name, x = f"{stem}_{_fmt(row.distance)}m_{row.weather}_{row.mode}", row.t_th
        curves.setdefault(f"{name}.dat", []).append(
            "%.9g %.9g %.9g" % (x, row.estimate.value, row.estimate.stderr))
    return {name: "\n".join(lines) + "\n" for name, lines in curves.items()}


def _minor_faults() -> int:
    """Minor page faults so far, of this process and its reaped helpers."""
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def sweep_call(args) -> tuple[ScenarioConfig, SweepSpec, str]:
    """The (config, spec, metric) a sweep subcommand's parsed args give run_sweep."""
    _, metric, _, _, default_modes = _SWEEPS[args.subcommand]
    config, spec = _load(args)
    if args.modes is None:
        spec = replace(spec, modes=default_modes)
    spec = replace(spec, distances=parse_list(args.distances))
    if metric == "dor":
        spec = replace(spec, t_th=tuple(t / 1000.0 for t in parse_list(args.t_th_ms)))
    return config, spec, metric


def _sweep(args) -> int:
    """One metric per sweep point and mode: prp-, rate- and dor-sweep."""
    config, spec, metric = sweep_call(args)
    stem = _SWEEPS[args.subcommand][2]
    # run (and validate) before the output directory is made: a rejected
    # sweep leaves nothing behind
    faults = _minor_faults()
    t0 = time.perf_counter()
    rows = run_sweep(config, spec, metric, n_workers=args.workers)
    seconds = time.perf_counter() - t0
    faults = _minor_faults() - faults
    files = {f"{stem}_sweep.csv": _sweep_csv(rows, metric)}
    if args.gnuplot:
        files.update(_gnuplot_files(rows, stem))
    manifest = {
        "tool": "rfvlc",
        "tool_version": __version__,
        # the numpy the engine loaded, whose pows made the link powers
        "python_version": sys.version,
        "numpy_version": sys.modules["numpy"].__version__,
        "subcommand": args.subcommand,
        "config_path": args.config or "",
        "output_dir": args.out,
        "master_seed": spec.master_seed,
        "n_trials": spec.n_trials,
        "rng_scheme": RNG_SCHEME,
        "chunk_size": _CHUNK,
        "config_sha256": config_digest(config, spec),
        "workers": sweep_workers(config, spec, args.workers),
        "sweep_seconds": seconds,
        "trials_per_s": len(spec.distances) * spec.n_trials / seconds,
        "minor_faults": faults,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    files["run.manifest"] = json.dumps(manifest, indent=2) + "\n"
    _write_files(args.out, files)
    return 0


def cmd_validate(args) -> int:
    # parse_config has checked the file; the flags may still spoil the sweep
    problems = _load(args)[1].check()
    if problems:
        raise ConfigError("; ".join(problems))
    print("ok")
    return 0


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="path to key = value configuration file")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=None,
                   help="master seed override (64-bit)")
    p.add_argument("--trials", type=int, default=None,
                   help="trials per sweep point")
    p.add_argument("--weather", default=None,
                   help="comma list of clear,rain,fog,dry_snow (overrides "
                        "the config's weather key)")
    p.add_argument("--modes", default=None,
                   help="comma list of pure_vlc,pure_rf,la,non_la")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The rfvlc argument parser, built once per process; parsing leaves
    it as it was."""
    parser = argparse.ArgumentParser(
        prog="rfvlc",
        description="Monte Carlo simulator for hybrid RF-VLC V2I uplinks "
                    "at a road intersection")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, (help_text, metric, _, distances, _) in _SWEEPS.items():
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes, this one included (capped by the "
                            "usable CPUs, the chunks and the sweep's estimated "
                            "work, so small sweeps run in one; results are "
                            "identical for any worker count)")
        p.add_argument("--gnuplot", action="store_true",
                       help="also emit whitespace-delimited per-curve files")
        p.add_argument("--distances", default=",".join(_fmt(d) for d in distances))
        if metric == "dor":
            p.add_argument("--t-th-ms", dest="t_th_ms",
                           default=",".join(_fmt(t) for t in _DEFAULT_T_TH_MS))
        p.set_defaults(func=_sweep)

    p = sub.add_parser("validate", help="check a configuration file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_validate)

    return parser


# glibc mallopt parameters (malloc.h) and the values a sweep sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 64 << 20
_MMAP_THRESHOLD = 32 << 20


@cache
def _steady_heap() -> None:
    """Keep freed chunk temporaries in the heap, once per process.

    By default glibc maps large arrays on their own and unmaps them when
    they are freed, and trims the heap top, so every chunk faults its
    temporaries in again.  Serving blocks up to _MMAP_THRESHOLD from the
    heap and trimming only above _TRIM_THRESHOLD lets the next chunk
    reuse the pages.  Without glibc's mallopt nothing changes.
    """
    # Imported here, not at the top: importing rfvlc stays as fast.
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def main(argv=None) -> int:
    _steady_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
