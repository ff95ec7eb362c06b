#!/usr/bin/env python3
"""rfvlc sweep benchmark: requested trials per second on three sweep workloads.

Run from the repository root:

    python3 benchmarks/bench.py --workload prp_sparse --seed 1 --seconds 20 --trace 0

Each repeat is one in-process ``rfvlc.cli.main([...])`` call (a closed loop
of batch sweeps, one at a time). The workload seed goes into a generated
config file, which is the only input the simulator receives. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
repeats and reports per-layer metrics. The last line of standard output is
one JSON object; benchmarks/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

if not (SRC / "rfvlc" / "__init__.py").is_file():
    raise SystemExit(f"bench: rfvlc sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import rfvlc  # noqa: E402
import rfvlc.cli  # noqa: E402
import rfvlc.engine  # noqa: E402
import rfvlc.metrics  # noqa: E402
from rfvlc.config import parse_config  # noqa: E402
from rfvlc.scenario import EXCLUSION_RADIUS_M  # noqa: E402

from oracle import binomial_two_sided_p, prp_rf_closed_form  # noqa: E402
from reference import IMPORT_PROBE, NOMINAL_IMPORT_S, NOMINAL_SLICE_S, HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402

if not Path(rfvlc.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"bench: imported rfvlc from {rfvlc.__file__}, not from {SRC}")

MODES = ("pure_vlc", "pure_rf", "la")   # the sweeps' default modes
WARMUP_TRIALS = 100                     # smallest n_trials the engine accepts
MIN_REPEATS = 2                         # so the determinism check always runs
SETUP_REPEATS = 11
SETUP_RESERVE_S = 6.0                   # of --seconds, kept for the set-up probes
# Trials per point are whole engine chunks, the shape that makes up almost
# all of a default 100k-trial run (24 full chunks of 25). benchmarks/README.md
# compares the per-trial cost at these sizes with a default-sized run.
FULL_CHUNK = 4096
ORACLE_MIN_P = 1e-4
DENSITY_MAX_SE = 4.0


@dataclass(frozen=True)
class Workload:
    """One sweep command and what its output must look like.

    groups is the number of (sweep point, weather) row groups in the CSV.
    points is the number of distinct point indices, which key the random
    streams: weathers, and in dor-sweep the distances, reuse the same
    trials, so a repeat draws points * trials independent deployments.
    """

    subcommand: str
    flags: tuple[str, ...]
    config: tuple[str, ...]
    trials: int
    groups: int
    points: int
    workers: int
    csv: str
    oracle_distances: tuple[float, ...] = ()

    @property
    def argv(self) -> tuple[str, ...]:
        return (self.subcommand, "--workers", str(self.workers), *self.flags)


WORKLOADS = {
    # Default prp-sweep grid (25 distances x 4 weathers) at lambda*rho = 1e-4:
    # ~0.2 interferers per trial, so per-trial fixed cost in the engine
    # dominates and the per-interferer work is nearly idle.
    "prp_sparse": Workload(
        subcommand="prp-sweep", flags=(), config=(),
        trials=FULL_CHUNK, groups=100, points=25, workers=1,
        csv="prp_sweep.csv"),
    # rho_access = 1 gives lambda*rho = 1e-2, ~20 interferers per trial:
    # scenario, rf_channel, vlc_channel and the metrics interference loop
    # do most of the work. The pure_rf PRP is checked against the PPP
    # closed form at every distance.
    "dense_interference": Workload(
        subcommand="prp-sweep",
        flags=("--weather", "clear", "--distances", "10,25,50,100"),
        config=("rho_access = 1.0",),
        trials=FULL_CHUNK, groups=4, points=4, workers=1,
        csv="prp_sweep.csv", oracle_distances=(10.0, 25.0, 50.0, 100.0)),
    # Default dor-sweep (2 distances x 10 thresholds x 4 weathers) on two
    # worker processes: the only workload through the process pool, and
    # the one that re-simulates the same trials once per threshold. Four
    # chunks per point give each worker 20 pool tasks per distance, enough
    # to keep both busy through the tail as in a default-sized run.
    "dor_pool": Workload(
        subcommand="dor-sweep", flags=(), config=(),
        trials=4 * FULL_CHUNK, groups=80, points=10, workers=2,
        csv="dor_sweep.csv"),
}


def config_text(name: str, seed: int, trials: int) -> str:
    w = WORKLOADS[name]
    lines = [f"# rfvlc benchmark workload {name}", f"seed = {seed}",
             f"trials = {trials}", *w.config]
    return "\n".join(lines) + "\n"


class Checks:
    """Output checks, each counted as one operation."""

    def __init__(self):
        self.tally: dict[str, list[int]] = {}
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = ""):
        t = self.tally.setdefault(name, [0, 0])
        t[0] += 1
        if not ok:
            t[1] += 1
            self.failures.append(f"{name}: {detail}")

    @property
    def attempted(self) -> int:
        return sum(t[0] for t in self.tally.values())

    @property
    def failed(self) -> int:
        return sum(t[1] for t in self.tally.values())


def _num(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def check_csv(w: Workload, trials: int, data: bytes | None, checks: Checks,
              first_digest: str | None) -> str | None:
    """Check one sweep CSV; returns its sha256."""
    names = ("rows", "finite", "range", "n_trials", "deterministic")
    if w.csv == "prp_sweep.csv":
        names += ("la_dominance",)
    if data is None:
        for name in names:
            checks.record(name, False, "no CSV written")
        return None
    digest = hashlib.sha256(data).hexdigest()
    if first_digest is not None:
        checks.record("deterministic", digest == first_digest,
                      f"sha256 {digest} != first repeat's {first_digest}")

    header, *rows = list(csv.reader(io.StringIO(data.decode())))
    m = header.index("mode")
    groups: dict[tuple, dict[str, float]] = {}
    numeric = []
    for row in rows:
        groups.setdefault(tuple(row[:m]), {})[row[m]] = _num(row[m + 1])
        numeric.extend(_num(v) for i, v in enumerate(row) if header[i] not in ("weather", "mode"))
    checks.record("rows", len(rows) == w.groups * len(MODES) and len(groups) == w.groups
                  and all(set(g) == set(MODES) for g in groups.values()),
                  f"{len(rows)} rows in {len(groups)} groups")
    checks.record("finite", all(math.isfinite(v) for v in numeric), "non-finite value")
    checks.record("range", all(0.0 <= _num(r[m + 1]) <= 1.0 for r in rows),
                  f"{header[m + 1]} outside [0, 1]")
    n_col = header.index("n_trials")
    checks.record("n_trials", all(r[n_col] == str(trials) for r in rows),
                  f"n_trials column differs from {trials}")
    if "la_dominance" in names:
        # A missing or unparsable value fails the rows or finite check.
        bad = [k for k, g in groups.items()
               if not g.get("la", math.nan) >= max(g.get("pure_vlc", -math.inf),
                                                   g.get("pure_rf", -math.inf))]
        checks.record("la_dominance", not bad, f"PRP(la) < max(pure) at {bad[:3]}")
    return digest


def check_oracle(w: Workload, text: str, data: bytes, checks: Checks, log: list[str]):
    """Exact binomial test of the pure_rf PRP against the PPP closed form."""
    base, _ = parse_config(text)
    rows = {(float(r["distance_m"]), r["weather"], r["mode"]): r
            for r in csv.DictReader(io.StringIO(data.decode()))}
    for d in w.oracle_distances:
        row = rows.get((d, "clear", "pure_rf"))
        if row is None:
            checks.record("oracle", False, f"no pure_rf row at {d} m")
            continue
        n = int(row["n_trials"])
        k = round(float(row["prp"]) * n)
        p_cf = prp_rf_closed_form(base.with_distance(d))
        p_val = binomial_two_sided_p(k, n, p_cf)
        log.append(f"oracle {d:g} m: MC {k}/{n} = {k / n:.6g}, closed form {p_cf:.6g}, "
                   f"two-sided p = {p_val:.3g}")
        checks.record("oracle", p_val >= ORACLE_MIN_P,
                      f"{d:g} m: MC {k}/{n} vs closed form {p_cf:.6g}, p = {p_val:.3g}")


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Repeats one workload's sweep command in this process."""

    def __init__(self, name: str, seed: int, trials: int, work_dir: Path):
        self.w = WORKLOADS[name]
        self.trials = trials
        self.seed = seed
        self.text = config_text(name, seed, trials)
        self.cfg_path = work_dir / "workload.cfg"
        self.cfg_path.write_text(self.text, encoding="utf-8")
        self.out = work_dir / "out"
        self.argv = [*self.w.argv, "--config", str(self.cfg_path), "--out", str(self.out)]
        self.checks = Checks()
        self.first_digest: str | None = None
        self.first_csv: bytes | None = None
        self.requested = self.w.groups * trials
        self.cpu = (0.0, 0.0)  # (own, children's) CPU seconds of the last repeat

    def warm_up(self):
        rc = rfvlc.cli.main(self.argv[:1] + ["--trials", str(WARMUP_TRIALS)] + self.argv[1:])
        self.checks.record("exit", rc == 0, f"warm-up exit code {rc}")

    def repeat(self) -> float:
        """One timed sweep; checks its CSV and returns its wall time."""
        gc.collect()
        c_self, c_child = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        rc = rfvlc.cli.main(self.argv)
        wall = time.perf_counter() - t0
        self.cpu = (_cpu(resource.RUSAGE_SELF) - c_self,
                    _cpu(resource.RUSAGE_CHILDREN) - c_child)
        self.checks.record("exit", rc == 0, f"exit code {rc}")
        path = self.out / self.w.csv
        data = path.read_bytes() if rc == 0 and path.is_file() else None
        digest = check_csv(self.w, self.trials, data, self.checks, self.first_digest)
        if self.first_digest is None:
            self.first_digest, self.first_csv = digest, data
        return wall


def measure_setup(runner: Runner) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up: import rfvlc, parse and validate the config.

    Each probe is paired with a fresh interpreter that only imports numpy
    (reference.IMPORT_PROBE), run right after it. Returns both lists of
    wall times.
    """
    probe = ("import sys\n"
             "import rfvlc.cli\n"
             "from rfvlc.config import parse_config\n"
             "from rfvlc.scenario import validate\n"
             "with open(sys.argv[1], encoding='utf-8') as fh:\n"
             "    config, spec = parse_config(fh.read())\n"
             "sys.exit(1 if validate(config) + spec.check() else 0)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def timed(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              capture_output=True, timeout=60)
        return time.perf_counter() - t0, proc

    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        wall, proc = timed(["-c", probe, str(runner.cfg_path)])
        walls.append(wall)
        runner.checks.record("setup", proc.returncode == 0,
                             proc.stderr.decode(errors="replace")[-300:])
        wall, proc = timed(["-c", IMPORT_PROBE])
        if proc.returncode != 0:
            raise RuntimeError("reference import probe failed: "
                               + proc.stderr.decode(errors="replace")[-300:])
        imports.append(wall)
    return walls, imports


def _room_for(step: float, end: float) -> bool:
    """Whether another step of this length ends before the deadline."""
    return time.perf_counter() + step <= end


def run_end_to_end(runner: Runner, seconds: float, log: list[str]) -> dict:
    """Repeats, then set-up probes, within `seconds`.

    Both timings are scaled to the nominal host by references measured at
    the same moments (see reference.py).
    """
    end = time.perf_counter() + seconds - SETUP_RESERVE_S
    host = HostSpeed()
    walls = []
    with host.sampling():
        while len(walls) < MIN_REPEATS or _room_for(statistics.median(walls), end):
            walls.append(runner.repeat())
    w = runner.w
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if w.workers > 1:
        # The largest pool child, once per worker: an upper bound, since
        # forked children share pages with the parent. Read before the
        # set-up probes, which are children too.
        rss_kb += w.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup, imports = measure_setup(runner)
    # A time average, like the slice mean it is scaled by: the host
    # switches between fast and slow states within one repeat.
    rate = runner.requested * len(walls) / sum(walls)
    slowdown = host.slowdown
    setup_ratio = statistics.median(s / i for s, i in zip(setup, imports))
    log.append(f"repeats {len(walls)}; measured trials/s {rate:.6g} (per repeat "
               + " ".join(f"{runner.requested / t:.6g}" for t in walls) + ")")
    log.append(f"host: {len(host.samples)} reference slices in the sweeps, mean CPU "
               f"{statistics.fmean(host.samples):.6g} s, nominal {NOMINAL_SLICE_S:g} s, "
               f"slowdown {slowdown:.6g}")
    log.append(f"setup: measured median {statistics.median(setup):.6g} s, numpy import "
               f"median {statistics.median(imports):.6g} s (nominal {NOMINAL_IMPORT_S:g} s), "
               f"median ratio {setup_ratio:.6g}")
    return {
        "trials_per_s": (rate * slowdown, "1/s"),
        "setup_s": (setup_ratio * NOMINAL_IMPORT_S, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def install_tracing(tracer: Tracer):
    tracer.span(rfvlc.cli, "main", "cli.main")
    tracer.span(rfvlc.cli, "parse_config", "config.parse_config")
    tracer.span(rfvlc.cli, "run_sweep", "engine.run_sweep")
    # Job tuple: (config, seed, point, start, end, ...).
    tracer.chunk_boundary(rfvlc.engine, "_chunk_stats_job", "engine.chunk",
                          tally=lambda job: job[4] - job[3])
    tracer.span(rfvlc.engine, "run_trial", "metrics.run_trial", record=True)
    tracer.span(rfvlc.engine, "proportion_estimate", "estimate.proportion_estimate")
    tracer.span(rfvlc.engine, "mean_estimate", "estimate.mean_estimate")
    tracer.span(rfvlc.metrics, "sample_interferers", "scenario.sample_interferers",
                tally=lambda deployment: len(deployment.positions))
    tracer.counter(rfvlc.metrics, "sample_fading", "rf_channel.sample_fading")
    tracer.counter(rfvlc.metrics, "rf_mean_rx_power", "rf_channel.rf_mean_rx_power")
    tracer.counter(rfvlc.metrics, "vlc_los_gain", "vlc_channel.vlc_los_gain")


def derive_seed_us(seed: int) -> float:
    """Median per-call cost of the public derive_seed, in microseconds."""
    n = 10_000
    per_call = []
    for batch in range(5):
        t0 = time.perf_counter()
        for j in range(n):
            rfvlc.engine.derive_seed(seed, batch, j)
        per_call.append((time.perf_counter() - t0) / n)
    return statistics.median(per_call) * 1e6


def run_traced(runner: Runner, seconds: float, spool: Path, log: list[str]) -> dict:
    """Alternate untraced and traced repeats; per-layer metrics from the traced ones."""
    tracer = Tracer(str(spool))
    untraced, traced = [], []
    parent_cpu = child_cpu = 0.0
    end = time.perf_counter() + seconds
    while not traced or _room_for(statistics.median(untraced) + statistics.median(traced), end):
        untraced.append(runner.repeat())
        install_tracing(tracer)
        try:
            traced.append(runner.repeat())
        finally:
            tracer.uninstall()
        parent_cpu += runner.cpu[0]
        child_cpu += runner.cpu[1]
        tracer.collect_children()
    if tracer.missing:
        log.append("trace: not found, metrics read 0: " + ", ".join(tracer.missing))

    w = runner.w
    reps = len(traced)
    trials = runner.requested * reps
    st = tracer.span_stats
    sweep_wall = st("engine.run_sweep")[1]
    trial_total, trial_self = st("metrics.run_trial")[1:3]
    est = [st("estimate.proportion_estimate"), st("estimate.mean_estimate")]
    deploy = st("scenario.sample_interferers")
    chunk = st("engine.chunk")
    durations = np.frombuffer(tracer.samples["metrics.run_trial"], dtype=float)
    p50, p99 = np.percentile(durations, [50, 99]) * 1e6 if durations.size else (0.0, 0.0)
    per_trial_us = 1e6 / trials

    # Density check: the world each workload simulates has the density it claims.
    base, _ = parse_config(runner.text)
    if deploy[0]:
        lam = base.lambda_density * base.rho_access
        expected = lam * (4.0 * base.geometry.lane_half_length - 2.0 * EXCLUSION_RADIUS_M)
        observed = deploy[3] / deploy[0]
        se = math.sqrt(expected / (w.points * runner.trials))  # Poisson counts
        runner.checks.record("density", abs(observed - expected) <= DENSITY_MAX_SE * se,
                             f"{observed:.6g} interferers/trial, expected {expected:.6g} "
                             f"+- {DENSITY_MAX_SE:g} x {se:.3g}")
        log.append(f"density: {observed:.6g} interferers per trial, expected {expected:.6g}, "
                   f"SE {se:.3g}")

    return {
        "engine.self_us_per_trial":
            ((w.workers * sweep_wall - trial_total - sum(e[1] for e in est)) * per_trial_us,
             "us/trial"),
        "engine.trials_simulated": (chunk[3] / reps, "count"),
        "engine.chunks": (chunk[0] / reps, "count"),
        "engine.derive_seed_us": (derive_seed_us(runner.seed), "us"),
        "engine.pool_busy_ratio":
            ((parent_cpu + child_cpu) / (w.workers * sum(traced)), "ratio"),
        "engine.parent_cpu_s": (parent_cpu / reps, "s"),
        "metrics.run_trial_self_us_per_trial": (trial_self * per_trial_us, "us/trial"),
        "metrics.run_trial_us_p50": (float(p50), "us"),
        "metrics.run_trial_us_p99": (float(p99), "us"),
        "scenario.sample_interferers_us_per_trial": (deploy[1] * per_trial_us, "us/trial"),
        "scenario.interferers_per_trial": (deploy[3] / deploy[0] if deploy[0] else 0.0,
                                           "count/trial"),
        "rf_channel.sample_fading_calls_per_trial":
            (tracer.count("rf_channel.sample_fading") / trials, "calls/trial"),
        "rf_channel.rf_mean_rx_power_calls_per_trial":
            (tracer.count("rf_channel.rf_mean_rx_power") / trials, "calls/trial"),
        "vlc_channel.vlc_los_gain_calls_per_trial":
            (tracer.count("vlc_channel.vlc_los_gain") / trials, "calls/trial"),
        "config.parse_config_s": (st("config.parse_config")[1] / reps, "s"),
        "cli.self_s": (st("cli.main")[2] / reps, "s"),
        "estimate.self_s": (sum(e[2] for e in est) / reps, "s"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced), "ratio"),
    }


def git_commit() -> str | None:
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(workload: str, seed: int, seconds: float, trace: bool,
        trials: int | None = None) -> dict:
    """Run one workload and return the result, with checks and environment."""
    w = WORKLOADS[workload]
    trials = w.trials if trials is None else trials
    load_start = os.getloadavg()[0]
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_tmp"))
    log: list[str] = []
    try:
        runner = Runner(workload, seed, trials, work_dir)
        runner.warm_up()
        if trace:
            metrics = run_traced(runner, seconds, work_dir / "spool", log)
        else:
            metrics = run_end_to_end(runner, seconds, log)
        if w.oracle_distances and runner.first_csv is not None:
            check_oracle(w, runner.text, runner.first_csv, runner.checks, log)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    checks = runner.checks
    env = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "trials_per_point": trials, "requested_trials_per_repeat": runner.requested,
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": np.__version__, "rfvlc": rfvlc.__version__,
        "git_commit": git_commit(),
        "loadavg_1m_start": load_start, "loadavg_1m_end": os.getloadavg()[0],
    }
    return {"env": env, "log": log, "checks": checks.tally, "failures": checks.failures,
            "correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("env " + json.dumps(result["env"], sort_keys=True))
    for line in result["log"]:
        print(line)
    for name, (attempted, failed) in sorted(result["checks"].items()):
        print(f"check {name}: {attempted - failed}/{attempted} passed")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"failed_checks {result['failed']}/{result['attempted']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
