"""Sweep orchestration: seeding, trial batching, and result tables.

Trials are simulated in chunks of _CHUNK on a fixed grid, and every
chunk index owns a private counter-derived random stream (derive_seed,
trial_rng), drawn once and scored at every distance of the sweep.  A
chunk's partials at the D distances are one [D, ...] slice of each
field, and are reduced in chunk order, so results are a pure function of
(config, spec), and each row one of (config, distance, seed, trials),
whatever the other distances: reruns and runs with different worker
counts produce bit-identical tables.

A sweep splits its chunk indices once, interleaved, over k processes,
k = 1 being the split with no helper: process j computes the chunks
range(j, C, k), this process being j = 0 and k - 1 forked helper
processes the others, which send their partials back over a pipe;
helpers are reaped only after the reduction and the rows.  Each (chunk,
distance) is scored through the module global _score_chunk, looked up
at call time in this process and in the helpers alike.  k is capped by
the chunk indices, the usable CPUs and the sweep's estimated work
(sweep_workers: one process per _SPLIT_WORK trial-equivalents).

README.md explains the streams and the helpers' cost ("Command line")
and the per-chunk and per-sweep work ("Performance notes").
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .estimate import (MetricEstimate, mean_estimates, merged_moments, moments,
                       proportion_estimates)
from .metrics import MODES, mode_rates, mode_success, outage_rate, simulate_chunks
from .scenario import (WEATHER_KINDS, ScenarioConfig, is_integer, is_real,
                       validate_distances)

__all__ = [
    "SweepSpec", "SweepRow", "MetricEstimate",
    "derive_seed", "run_sweep", "sweep_workers", "trial_rng",
]

_METRICS = ("prp", "rate_mbps", "dor")

_CHUNK = 4096  # trials per chunk and random stream; fixed so the worker
               # count cannot change the streams or the summation order
_COUNT = np.uint16   # a chunk's trial counts: _CHUNK < 2**16, so they fit

# One-process work, in trial-equivalents (_sweep_work), per process a sweep
# may run: a sweep splits in two from twice this.  Two processes halve the
# work and add a forked helper's fixed cost (~10-17 ms on a 2-vCPU VM).
# Since every distance shares a chunk's draws, a sweep does less work than
# _sweep_work counts: there 1 against 2 workers in two runs of 30 pairs
# found one process faster on every shape, the 213k default dor-sweep
# (2 x 100k trials) included, 30 of 30 pairs in each run.  Read at call
# time; `scripts/ab_sweep.py --workers 1,2` measures the break-even on
# another host.
_SPLIT_WORK = 120_000

# Trials per sweep point at most: run_sweep holds a partial per (distance, chunk),
# 24 B for prp's [4, 3] and 240 B for dor's [10, 4, 3]: ~15 MB for prp at 25 distances.
_MAX_TRIALS = 10**8

# Recorded in run manifests: SplitMix64 keys one PCG64 stream per chunk
# index, shared by every distance of a sweep.
RNG_SCHEME = "splitmix64-shared-chunk/pcg64"

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
    uses one stream per chunk, for every distance: point_index = 0 and
    stream_index = the chunk index.
    """
    if point_index < 0 or stream_index < 0:
        raise ConfigError("indices must be >= 0")
    s = _splitmix64(int(master_seed) & _MASK64)   # a numpy integer too
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


def _reals(values) -> bool:
    """Whether values is a tuple of real numbers (is_real)."""
    return isinstance(values, tuple) and all(map(is_real, values))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: distances x weathers, scored per mode and delay threshold.

    Each chunk is simulated once for all distances and weathers.  The trials of a
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
        """Every problem of the spec.  A list field that is not a tuple is
        reported alone, before any check reads the values."""
        out = [f"sweep.{name}: must be a tuple, got {type(values).__name__}"
               for name, values in (("distances", self.distances), ("t_th", self.t_th),
                                    ("weathers", self.weathers), ("modes", self.modes))
               if not isinstance(values, tuple)]
        if out:
            return out
        if not self.distances:
            out.append("sweep.distances: must be nonempty")
        for name, values in (("distances", self.distances), ("t_th", self.t_th)):
            if not _reals(values):
                out.append(f"sweep.{name}: must be real numbers")
            elif not all(math.isfinite(v) for v in values):
                out.append(f"sweep.{name}: must be finite")
            elif any(b <= a for a, b in zip(values, values[1:])):
                out.append(f"sweep.{name}: must be strictly increasing")
        if _reals(self.t_th) and any(t <= 0 for t in self.t_th):
            out.append("sweep.t_th: delay thresholds must be > 0")
        if not is_integer(self.n_trials):
            out.append("sweep.n_trials: must be an integer")
        elif self.n_trials < 100:
            out.append("sweep.n_trials: must be >= 100")
        elif self.n_trials > _MAX_TRIALS:
            out.append(f"sweep.n_trials: must be <= {_MAX_TRIALS}")
        if not is_integer(self.master_seed):
            out.append("sweep.master_seed: must be an integer")
        elif not 0 <= self.master_seed <= _MASK64:
            out.append("sweep.master_seed: must be in [0, 2^64)")
        for name, values, known in (("weathers", self.weathers, WEATHER_KINDS),
                                    ("modes", self.modes, MODES)):
            if not values:
                out.append(f"sweep.{name}: must be nonempty")
            # a name is a str: any other value is unknown, and not hashed
            out.extend(f"sweep.{name}: unknown {name[:-1]} {v!r}"
                       for v in values if not (isinstance(v, str) and v in known))
            names = [v for v in values if isinstance(v, str)]
            if len(set(names)) < len(names):
                out.append(f"sweep.{name}: must not repeat")
        return out


class SweepRow(NamedTuple):
    """One row of a sweep's table: a (distance, delay threshold, weather,
    mode) point and its estimate."""

    distance: float
    t_th: float | None                  # None on "prp" and "rate_mbps" rows
    weather: str
    mode: str
    estimate: MetricEstimate


def run_sweep(config: ScenarioConfig, spec: SweepSpec, metric: str,
              n_workers: int = 1) -> tuple[SweepRow, ...]:
    """Run the full sweep for one metric and return its rows in order.

    metric is "prp", "rate_mbps" or "dor"; only its statistics are
    computed, and only for spec.modes.  A chunk is drawn once for every
    distance and weather: weather only attenuates optical paths and
    distance only moves the desired link and its exclusion disc, so one
    deployment and one set of RF draws per chunk serve all of them.  Per
    distance, there is one row per (weather, mode), or for "dor" one per
    (delay threshold, weather, mode), a trial being late iff its rate is
    below 8H / t_th; every threshold is scored on the same trials, so DOR
    is exactly nonincreasing in t_th.  The streams are keyed by the chunk
    alone, so every metric and every distance sees the same trials, and a
    row does not depend on the other distances listed.
    """
    problems = spec.check()
    if _reals(spec.distances):   # else spec.check says so
        problems[:0] = validate_distances(config, spec.distances)
    if not is_integer(n_workers):
        problems.append(f"n_workers: must be an integer, got {n_workers!r}")
    elif n_workers < 1:
        problems.append(f"n_workers: must be >= 1, got {n_workers}")
    if metric not in _METRICS:
        problems.append(f"metric: must be one of {', '.join(_METRICS)}, got {metric!r}")
    elif isinstance(spec.t_th, tuple) and (metric == "dor") != bool(spec.t_th):
        problems.append(f"sweep.t_th: must be nonempty for dor and empty for {metric}")
    if problems:
        raise ConfigError("; ".join(problems))

    helpers = []   # (process, pipe end) per helper, reaped once the rows are built
    try:
        return _rows(spec, metric, _run_split(config, spec, metric,
                                              sweep_workers(config, spec, n_workers), helpers))
    finally:
        _reap(helpers)


def _rows(spec: SweepSpec, metric: str, fields) -> tuple[SweepRow, ...]:
    """The rows of a sweep from its chunk partials, per field one array
    [C, D, W, M] (for dor [C, D, K, W, M]), their estimates computed as
    arrays in one pass: the _COUNT counts summed over the chunks as int64,
    the rate moments merged in chunk order (merged_moments)."""
    n = spec.n_trials
    if metric == "rate_mbps":
        sizes = [min(_CHUNK, n - start) for start in range(0, n, _CHUNK)]
        estimates = mean_estimates(*merged_moments(*fields, sizes), n)
    else:
        estimates = proportion_estimates(fields[0].sum(axis=0, dtype=np.int64), n)
    # [D, W, M] or for dor [D, K, W, M]: the rows' order
    keys = itertools.product(spec.distances, spec.t_th or (None,), spec.weathers, spec.modes)
    return tuple(SweepRow(*key, MetricEstimate(value, stderr, n, low, high))
                 for key, value, stderr, low, high
                 in zip(keys, *(f.ravel().tolist() for f in estimates)))


def _sweep_work(config: ScenarioConfig, spec: SweepSpec) -> float:
    """The sweep's estimated one-process work, in trial-equivalents:
    distances x trials x (1 + m / 3), m = 4 lambda rho L being the expected
    lane points per trial (a lane point costs about a third of a trial's
    fixed work).  Deterministic: no timing goes into it.  Each chunk's
    draws and interferer terms are shared by the distances, so this
    overstates a sweep of many distances."""
    m = (4.0 * config.lambda_density * config.rho_access
         * config.geometry.lane_half_length)
    return len(spec.distances) * spec.n_trials * (1.0 + m / 3.0)


def sweep_workers(config: ScenarioConfig, spec: SweepSpec, n_workers: int) -> int:
    """The processes run_sweep(config, spec, metric, n_workers) runs: no more
    than there are chunk indices (each carrying every distance) or usable
    CPUs, and one per _SPLIT_WORK of _sweep_work at most, so no helper for
    a single chunk or a small sweep."""
    n_chunks = math.ceil(spec.n_trials / _CHUNK)
    paid = max(1, int(_sweep_work(config, spec) // _SPLIT_WORK))
    return min(n_workers, n_chunks, paid, _usable_cpus())


def _fields(spec: SweepSpec, metric: str, n_chunks: int):
    """Per field of _score_chunk's partials, an empty array [n_chunks, D,
    W, M] (for dor [n_chunks, D, K, W, M])."""
    shape = ((n_chunks, len(spec.distances)) + ((len(spec.t_th),) if spec.t_th else ())
             + (len(spec.weathers), len(spec.modes)))
    if metric == "rate_mbps":
        return [np.empty(shape), np.empty(shape)]
    return [np.empty(shape, _COUNT)]


def _run_share(config: ScenarioConfig, spec: SweepSpec, metric: str, chunks, fields):
    """Fill and return fields (from _fields) with the partials of the
    chunk indices chunks, one process's share: field[i, d] is chunks[i]'s
    partial at spec.distances[d], scored through _score_chunk as
    simulate_chunks yields its SINRs.

    One generator serves every chunk: chunk c's stream state, from
    derive_seed(spec.master_seed, 0, c), is injected into it as
    simulate_chunks pulls the chunk, which is safe because simulate_chunks
    draws all of a chunk's numbers before it pulls the next.
    """
    n = int(spec.n_trials)   # chunk sizes as Python ints, whatever integer type
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)

    def draws():
        for c in chunks:
            bit_generator.state = _seed_state(derive_seed(spec.master_seed, 0, c))
            yield rng, min(_CHUNK, n - c * _CHUNK)

    for i, d, sinrs in simulate_chunks(config, spec.distances, spec.weathers, draws()):
        for field, part in zip(fields, _score_chunk(config, spec, metric, sinrs)):
            field[i, d] = part
        del sinrs   # no name holds a group's sums once its chunks are scored
    return fields


def _score_chunk(config: ScenarioConfig, spec: SweepSpec, metric: str, sinrs):
    """Score one chunk's SINRs at one distance for metric alone, per
    weather and for spec.modes only, in that order: the success counts,
    [W, M] of _COUNT (prp); the rate's mean and sum of squared deviations
    in Mbps (moments), [W, M] each (rate_mbps); or late[k, weather, mode]
    of _COUNT, the trials whose rate falls below outage_rate(H,
    spec.t_th[k]) (dor).  Nothing scored reads the distance."""
    if metric == "prp":
        return (_count(mode_success(*sinrs, config, spec.modes)),)
    rate = mode_rates(*sinrs, config, spec.modes)
    if metric == "rate_mbps":
        rate /= 1e6   # Mbps
        return moments(rate)
    # one threshold at a time, into one flag buffer: no [K, W, M, n] flags
    late = np.empty((len(spec.t_th),) + rate.shape[:-1], _COUNT)
    flags = np.empty(rate.shape, bool)
    for k, t in enumerate(spec.t_th):
        late[k] = _count(np.less(rate, outage_rate(config.payload_h, t), out=flags))
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


def _helper_main(conn, config, spec, metric, chunks):
    """Helper process body: compute the partials of chunks, send (True,
    partials) or, on any exception, (False, exc) for the parent to
    re-raise."""
    try:
        result = (True, _run_share(config, spec, metric, chunks,
                                   _fields(spec, metric, len(chunks))))
    except BaseException as exc:
        result = (False, exc)
    conn.send(result)
    conn.close()


def _start_helper(config, spec, metric, chunks):
    """Fork a helper that computes the partials of chunks; return it and
    its receiving end.

    A forked helper inherits the config, the spec and this module's
    globals as they are, so nothing but the partials is pickled.
    """
    # Imported here, not at the top: only multi-worker sweeps pay for it.
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    recv_end, send_end = ctx.Pipe(duplex=False)
    helper = ctx.Process(target=_helper_main, args=(send_end, config, spec, metric, chunks),
                         daemon=True)
    helper.start()
    # Only the helper holds the sending end now, so its death reads as EOF.
    send_end.close()
    return helper, recv_end


def _run_split(config: ScenarioConfig, spec: SweepSpec, metric: str, k: int, helpers):
    """The sweep's partials, per field one [C, D, ...] array, from this
    process and k - 1 helpers (none when k = 1).  Process j (helper j, or
    this process for j = 0) computes the chunk indices range(j, C, k), its
    share field[j::k]: this process fills its own in place, and each
    helper's is placed as it arrives.  Each helper started is appended to
    helpers, for the caller to _reap.  A failure in any share is raised
    here."""
    n_chunks = math.ceil(spec.n_trials / _CHUNK)
    for j in range(1, k):
        helpers.append(_start_helper(config, spec, metric, range(j, n_chunks, k)))
    fields = _fields(spec, metric, n_chunks)
    _run_share(config, spec, metric, range(0, n_chunks, k), [f[::k] for f in fields])
    for j, (helper, conn) in enumerate(helpers, 1):
        try:
            ok, share = conn.recv()
        except EOFError:
            helper.join()
            raise RuntimeError(f"sweep helper {j} of {k - 1} died with exit code "
                               f"{helper.exitcode} before sending its chunks") from None
        if not ok:
            raise share
        for field, part in zip(fields, share):
            field[j::k] = part
    return fields


def _reap(helpers):
    """Close each helper's pipe, terminate it if it still runs, and wait
    for it: no helper outlives this call."""
    for helper, conn in helpers:
        conn.close()
        if helper.is_alive():
            helper.terminate()
        helper.join()
