"""Sweep orchestration: seeding, trial batching, and result tables.

Trials are simulated in chunks of _CHUNK on a fixed grid, and every
(sweep point, chunk) pair owns a private counter-derived random stream
(the counter-based stream idea of Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11).  Results are therefore a pure function of
(config, spec): reruns and runs with different worker counts produce
bit-identical tables.  A process simulates its share of chunks in order
(metrics.simulate_chunks, where consecutive sparse chunks share one
interferer pass and every chunk gets the SINRs it gets alone), scores
each chunk, for every weather and mode, for the one metric the sweep
writes, and the chunk partials are reduced in chunk order, which keeps
floating-point summation order independent of the worker count.  Trial
counts (PRP successes, DOR late trials, one threshold at a time) are
summed in a narrow integer accumulator and widened to int64 per chunk.

A sweep splits its chunk list once, interleaved, over k processes, k = 1
being the split with no helper: this process computes chunks[0::k]
while k - 1 forked helper processes compute chunks[j::k] and send their
partials back over a pipe.  Every chunk is scored through the module
global _chunk_stats_job, looked up at call time in this process and in
the helpers alike.  Helpers are reaped only after the reduction and the
rows, so they exit while this process builds the table.

A helper costs a fixed ~10-12 ms (mostly copy-on-write faults in this
process after the fork), so k is capped not only by the chunks and the
usable CPUs but by the sweep's estimated one-process work: one process
per _SPLIT_WORK trial-equivalents (sweep_workers), a trial weighing one
plus a third per expected lane point.  Small sweeps run in one process.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .estimate import MetricEstimate, confidence_interval, mean_estimate, proportion_estimate
from .metrics import MODES, mode_rates, mode_success, outage_rate, simulate_chunks
from .scenario import WEATHER_KINDS, ScenarioConfig, validate

__all__ = [
    "SweepSpec", "SweepRow", "MetricEstimate",
    "derive_seed", "run_sweep", "sweep_workers", "confidence_interval", "trial_rng",
]

_METRICS = ("prp", "rate_mbps", "dor")

_CHUNK = 4096  # trials per chunk and random stream; fixed so the worker
               # count cannot change the streams or the summation order
_COUNT = np.uint16   # a chunk's trial counts: _CHUNK < 2**16, so they fit

# One-process work, in trial-equivalents (_sweep_work), per process a sweep
# may run: about twice a forked helper's fixed cost (~10-12 ms, or ~24k
# trial-equivalents, on a 2-vCPU VM), since two processes halve the work
# and add that cost.  Read at call time; scripts/split_breakeven.py
# measures the break-even on another host.
_SPLIT_WORK = 48_000

# Trials per sweep point at most: run_sweep lists every chunk up front,
# ~0.8 KB each, so 25 distances come to ~0.5 GB at this bound.
_MAX_TRIALS = 10**8

# Recorded in run manifests: SplitMix64 keys one PCG64 stream per chunk.
RNG_SCHEME = "splitmix64-chunk/pcg64"

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    """One round of the SplitMix64 avalanche function (bit-exact)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, point_index: int, stream_index: int) -> int:
    """64-bit stream seed for one (point, stream) pair.

    s0 = splitmix64(master); s1 = splitmix64(s0 ^ splitmix64(point));
    seed = splitmix64(s1 ^ splitmix64(stream)).  Deterministic across runs
    and platforms; collision-free in practical index ranges.  The engine
    uses one stream per chunk: stream_index = first trial // _CHUNK.
    """
    if point_index < 0 or stream_index < 0:
        raise ConfigError("indices must be >= 0")
    s = _splitmix64(master_seed & _MASK64)
    s = _splitmix64(s ^ _splitmix64(point_index))
    return _splitmix64(s ^ _splitmix64(stream_index))


# A 64-bit stream seed expands to a PCG64 stream as follows (bit-exact):
# state = (splitmix64(seed) << 64) | splitmix64(splitmix64(seed)), with the
# fixed odd increment below.  Direct state injection is ~6x faster than
# SeedSequence and just as well-spread; streams for distinct seeds occupy
# 2^128-spaced positions and cannot overlap at desk-scale draw counts.
_STREAM_INC = 0xA161E4A42EC16CF3
_STATE_TEMPLATE = np.random.PCG64(0).state


def _seed_state(seed: int) -> dict:
    s1 = _splitmix64(seed & _MASK64)
    s2 = _splitmix64(s1)
    st = dict(_STATE_TEMPLATE)
    st["state"] = {"state": (s1 << 64) | s2, "inc": _STREAM_INC}
    return st


def trial_rng(seed: int) -> np.random.Generator:
    """The random stream for one derive_seed value (one chunk of trials)."""
    bg = np.random.PCG64(0)
    bg.state = _seed_state(seed)
    return np.random.Generator(bg)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: distances x weathers, scored per mode and delay threshold.

    Each distance is simulated once for all weathers.  The trials of a
    (distance, weather) point give the PRP, the rate or, for every delay
    threshold in t_th (seconds; empty unless the sweep scores DOR), the
    DOR of every mode.
    """

    distances: tuple[float, ...]
    weathers: tuple[str, ...]       # WEATHER_KINDS names
    modes: tuple[str, ...]
    n_trials: int
    master_seed: int
    t_th: tuple[float, ...] = ()

    def check(self) -> list[str]:
        out = []
        if not self.distances:
            out.append("sweep.distances: must be nonempty")
        for name, values in (("distances", self.distances), ("t_th", self.t_th)):
            if not all(math.isfinite(v) for v in values):
                out.append(f"sweep.{name}: must be finite")
            elif any(b <= a for a, b in zip(values, values[1:])):
                out.append(f"sweep.{name}: must be strictly increasing")
        if any(t <= 0 for t in self.t_th):
            out.append("sweep.t_th: delay thresholds must be > 0")
        if self.n_trials < 100:
            out.append("sweep.n_trials: must be >= 100")
        elif self.n_trials > _MAX_TRIALS:
            out.append(f"sweep.n_trials: must be <= {_MAX_TRIALS}")
        if not 0 <= self.master_seed <= _MASK64:
            out.append("sweep.master_seed: must be in [0, 2^64)")
        for name, values, known in (("weathers", self.weathers, WEATHER_KINDS),
                                    ("modes", self.modes, MODES)):
            if not values:
                out.append(f"sweep.{name}: must be nonempty")
            out.extend(f"sweep.{name}: unknown {name[:-1]} {v!r}"
                       for v in values if v not in known)
            if len(set(values)) < len(values):
                out.append(f"sweep.{name}: must not repeat")
        return out


@dataclass(frozen=True)
class SweepRow:
    distance: float
    t_th: float | None                  # None on "prp" and "rate_mbps" rows
    weather: str
    mode: str
    estimate: MetricEstimate


def run_sweep(config: ScenarioConfig, spec: SweepSpec, metric: str,
              n_workers: int = 1) -> tuple[SweepRow, ...]:
    """Run the full sweep for one metric and return its rows in order.

    metric is "prp", "rate_mbps" or "dor"; only its statistics are
    computed.  Each distance is simulated once for every weather: weather
    only attenuates optical paths, so one deployment and one set of RF
    draws per chunk serve all of them.  Per distance, there is one row per
    (weather, mode), or for "dor" one per (delay threshold, weather,
    mode), a trial being late iff its rate is below 8H / t_th; every
    threshold is scored on the same trials, so DOR is exactly
    nonincreasing in t_th.  The streams are keyed by the distance's index
    in spec.distances, so every metric sees the same trials.
    """
    points = [config.with_distance(distance) for distance in spec.distances]
    problems = list(dict.fromkeys(p for cfg in points for p in validate(cfg)))
    problems += spec.check()
    if n_workers < 1:
        problems.append(f"n_workers: must be >= 1, got {n_workers}")
    if metric not in _METRICS:
        problems.append(f"metric: must be one of {', '.join(_METRICS)}, got {metric!r}")
    elif (metric == "dor") != bool(spec.t_th):
        problems.append(f"sweep.t_th: must be nonempty for dor and empty for {metric}")
    if problems:
        raise ConfigError("; ".join(problems))

    # Fixed chunk grid, independent of worker count.
    n = spec.n_trials
    starts = range(0, n, _CHUNK)
    chunks = [(cfg, spec.master_seed, d_idx, start, min(start + _CHUNK, n),
               spec.weathers, spec.t_th, metric)
              for d_idx, cfg in enumerate(points) for start in starts]

    n_workers = sweep_workers(config, spec, n_workers)
    helpers = []   # (process, pipe end) per helper, reaped once the rows are built
    try:
        return _rows(spec, metric, _run_split(chunks, n_workers, helpers))
    finally:
        _reap(helpers)


def _rows(spec: SweepSpec, metric: str, partials) -> tuple[SweepRow, ...]:
    """The rows of a sweep from its chunk partials, in chunk order."""
    # Reduce per distance (and weather): sum() adds the partials in chunk order.
    n = spec.n_trials
    grid = (len(spec.distances), math.ceil(n / _CHUNK))
    stats = [sum(np.reshape(field, grid + np.shape(field[0])).swapaxes(0, 1))
             for field in zip(*partials)]

    rows = []
    for d_idx, distance in enumerate(spec.distances):
        for k, t_th in enumerate(spec.t_th or (None,)):
            for w_idx, weather in enumerate(spec.weathers):
                for mode in spec.modes:
                    at = (d_idx, w_idx, MODES.index(mode)) + (() if t_th is None else (k,))
                    if metric == "rate_mbps":
                        est = mean_estimate(float(stats[0][at]), float(stats[1][at]), n)
                    else:
                        est = proportion_estimate(int(stats[0][at]), n)
                    rows.append(SweepRow(distance, t_th, weather, mode, est))
    return tuple(rows)


def _sweep_work(config: ScenarioConfig, spec: SweepSpec) -> float:
    """The sweep's estimated one-process work, in trial-equivalents:
    distances x trials x (1 + m / 3), m = 4 lambda rho L being the expected
    lane points per trial (a lane point costs about a third of a trial's
    fixed work).  Deterministic: no timing goes into it."""
    m = (4.0 * config.lambda_density * config.rho_access
         * config.geometry.lane_half_length)
    return len(spec.distances) * spec.n_trials * (1.0 + m / 3.0)


def sweep_workers(config: ScenarioConfig, spec: SweepSpec, n_workers: int) -> int:
    """The processes run_sweep(config, spec, metric, n_workers) runs: no more
    than there are chunks or usable CPUs, and one per _SPLIT_WORK of
    _sweep_work at most, so no helper for a single chunk or a small sweep."""
    n_chunks = len(spec.distances) * math.ceil(spec.n_trials / _CHUNK)
    paid = max(1, int(_sweep_work(config, spec) // _SPLIT_WORK))
    return min(n_workers, n_chunks, paid, _usable_cpus())


def _run_share(jobs):
    """The partials of jobs, one process's share, in order.

    Each job draws from its own chunk stream; consecutive jobs share the
    interferer pass of simulate_chunks, and every job is then scored
    through _chunk_stats_job.
    """
    chunks = ((job[0], trial_rng(derive_seed(job[1], job[2], job[3] // _CHUNK)),
               job[4] - job[3]) for job in jobs)
    sinrs = simulate_chunks(chunks, jobs[0][5])
    # no name holds a chunk's SINRs once it is scored
    return [_chunk_stats_job((*job, next(sinrs))) for job in jobs]


def _chunk_stats_job(job):
    """Score one chunk for its metric alone, per weather and mode in MODES
    order: the success counts, [W, 4] (prp); the rate sum and sum of
    squares in Mbps, [W, 4] each (rate_mbps); or late[weather, mode, k],
    the trials whose rate falls below outage_rate(H, t_th[k]) (dor).

    job is (config, seed, point, start, end, weathers, t_th, metric,
    sinrs): the chunk's trials start..end of sweep point `point`, start a
    multiple of _CHUNK, and their SINRs.
    """
    config, *_, t_th, metric, sinrs = job
    if metric == "prp":
        return (_count(mode_success(*sinrs, config)).astype(np.int64),)
    rate = mode_rates(*sinrs, config)
    if metric == "rate_mbps":
        mbps = rate / 1e6
        return mbps.sum(axis=-1), (mbps * mbps).sum(axis=-1)
    # one threshold at a time: no [W, 4, K, n] flags
    late = np.empty(rate.shape[:-1] + (len(t_th),), np.int64)
    for k, t in enumerate(t_th):
        late[..., k] = _count(rate < outage_rate(config.payload_h, t))
    return (late,)


def _count(flags):
    """flags.sum(axis=-1), as _COUNT: the flags summed as uint8 into a
    _COUNT accumulator, which holds any count of a chunk."""
    return flags.view(np.uint8).sum(axis=-1, dtype=_COUNT)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_main(share, conn):
    """Helper process body: compute share, send (True, partials) or, on any
    exception, (False, exc) for the parent to re-raise."""
    try:
        result = (True, _run_share(share))
    except BaseException as exc:
        result = (False, exc)
    conn.send(result)
    conn.close()


def _start_helper(share):
    """Fork a helper that computes share; return it and its receiving end.

    A forked helper inherits the jobs and this module's globals as they
    are, so nothing but the partials is pickled.
    """
    # Imported here, not at the top: only multi-worker sweeps pay for it.
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    recv_end, send_end = ctx.Pipe(duplex=False)
    helper = ctx.Process(target=_helper_main, args=(share, send_end), daemon=True)
    helper.start()
    # Only the helper holds the sending end now, so its death reads as EOF.
    send_end.close()
    return helper, recv_end


def _run_split(chunks, k, helpers):
    """The partials of every chunk, in chunk order, from this process and
    k - 1 helpers (none when k = 1); helper j computes chunks[j::k] and
    this process chunks[0::k].  Each helper started is appended to
    helpers, for the caller to _reap, and the call returns once every
    partial has arrived.  A failure in any share is raised here."""
    for j in range(1, k):
        helpers.append(_start_helper(chunks[j::k]))
    partials = [None] * len(chunks)
    partials[0::k] = _run_share(chunks[0::k])
    for j, (helper, conn) in enumerate(helpers, 1):
        try:
            ok, value = conn.recv()
        except EOFError:
            helper.join()
            raise RuntimeError(f"sweep helper {j} of {k - 1} died with exit code "
                               f"{helper.exitcode} before sending its chunks") from None
        if not ok:
            raise value
        partials[j::k] = value
    return partials


def _reap(helpers):
    """Close each helper's pipe, terminate it if it still runs, and wait
    for it: no helper outlives this call."""
    for helper, conn in helpers:
        conn.close()
        if helper.is_alive():
            helper.terminate()
        helper.join()
