"""Sweep orchestration: seeding, trial batching, and result tables.

Trials are simulated in chunks of _CHUNK on a fixed grid, and every
(sweep point, chunk) pair owns a private counter-derived random stream
(the counter-based stream idea of Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11).  Results are therefore a pure function of
(config, spec): reruns and runs with different worker counts produce
bit-identical tables.  Each chunk is one array pass (simulate_trials), and
the chunk partials are reduced in chunk order, which keeps floating-point
summation order independent of the worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .estimate import MetricEstimate, confidence_interval, mean_estimate, proportion_estimate
from .metrics import MODES, db_to_linear, outage_rate, score_modes, simulate_trials
from .scenario import ScenarioConfig, WeatherCondition, validate

__all__ = [
    "SweepSpec", "SweepRow", "SweepTable", "MetricEstimate",
    "derive_seed", "run_sweep", "confidence_interval", "trial_rng",
]

SWEEP_DISTANCE = "distance_r"
SWEEP_T_TH = "t_th"

_CHUNK = 4096  # trials per chunk and random stream; fixed so the worker
               # count cannot change the streams or the summation order

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
    """One sweep: which variable, which values, how many trials."""

    variable: str                       # "distance_r" or "t_th"
    values: tuple[float, ...]
    weathers: tuple[WeatherCondition, ...]
    modes: tuple[str, ...]
    n_trials: int
    master_seed: int

    def check(self) -> list[str]:
        out = []
        if self.variable not in (SWEEP_DISTANCE, SWEEP_T_TH):
            out.append(f"sweep.variable: unknown {self.variable!r}")
        if not self.values:
            out.append("sweep.values: must be nonempty")
        elif not all(math.isfinite(v) for v in self.values):
            out.append("sweep.values: must be finite")
        elif any(b <= a for a, b in zip(self.values, self.values[1:])):
            out.append("sweep.values: must be strictly increasing")
        elif self.variable == SWEEP_T_TH and self.values[0] <= 0:
            out.append("sweep.values: delay thresholds must be > 0")
        if self.n_trials < 100:
            out.append("sweep.n_trials: must be >= 100")
        if not self.weathers:
            out.append("sweep.weathers: must be nonempty")
        for m in self.modes:
            if m not in MODES:
                out.append(f"sweep.modes: unknown mode {m!r}")
        return out


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float
    weather: str
    mode: str
    metric: str
    estimate: MetricEstimate


@dataclass(frozen=True)
class SweepTable:
    variable: str
    rows: tuple[SweepRow, ...]


def _chunk_stats(config: ScenarioConfig, master_seed: int, point_index: int,
                 start: int, end: int, theta_vlc: float, theta_rf: float,
                 rate_threshold: float | None):
    """Simulate one chunk of trials, start a multiple of _CHUNK.

    Returns per-mode success counts, rate sums (Mbps), rate sums of
    squares, and delay-outage counts (trials whose rate falls below
    rate_threshold bits/s), all in MODES order.
    """
    rng = trial_rng(derive_seed(master_seed, point_index, start // _CHUNK))
    sinr_vlc, sinr_rf = simulate_trials(config, rng, end - start)
    ok, rate = score_modes(sinr_vlc, sinr_rf, config, theta_vlc, theta_rf)
    mbps = rate / 1e6
    if rate_threshold is None:
        late = [0] * len(MODES)
    else:
        late = (rate < rate_threshold).sum(axis=1).tolist()
    return (ok.sum(axis=1).tolist(), mbps.sum(axis=1).tolist(),
            (mbps * mbps).sum(axis=1).tolist(), late)


def _point_config(config: ScenarioConfig, spec: SweepSpec, value: float,
                  weather: WeatherCondition) -> ScenarioConfig:
    cfg = replace(config, weather=weather)
    if spec.variable == SWEEP_DISTANCE:
        cfg = replace(cfg, distance_r=value)
    return cfg


def run_sweep(config: ScenarioConfig, spec: SweepSpec,
              n_workers: int = 1) -> SweepTable:
    """Run the full sweep and return the ordered result table.

    Distance sweeps report "prp" and "rate_mbps" rows; delay-threshold
    sweeps report "dor" rows (the trials themselves do not depend on the
    threshold).  The point index that seeds the trials is the position of
    the value in spec.values, shared across weathers, so equal-seed
    comparisons across weather conditions see identical randomness.
    """
    problems = validate(config) + spec.check()
    if n_workers < 1:
        problems.append(f"n_workers: must be >= 1, got {n_workers}")
    if problems:
        raise ConfigError("; ".join(problems))
    points = [[_point_config(config, spec, value, weather)
               for weather in spec.weathers] for value in spec.values]
    problems = list(dict.fromkeys(p for row in points for cfg in row
                                  for p in validate(cfg)))
    if problems:
        raise ConfigError("; ".join(problems))

    theta_vlc = db_to_linear(config.sinr_threshold_vlc_db)
    theta_rf = db_to_linear(config.sinr_threshold_rf_db)

    # Fixed chunk grid, independent of worker count.
    chunks = []
    for p_idx, value in enumerate(spec.values):
        if spec.variable == SWEEP_T_TH:
            rate_threshold = outage_rate(config.payload_h, value)
        else:
            rate_threshold = None
        for w_idx, cfg in enumerate(points[p_idx]):
            for start in range(0, spec.n_trials, _CHUNK):
                end = min(start + _CHUNK, spec.n_trials)
                chunks.append((cfg, spec.master_seed, p_idx, start, end,
                               theta_vlc, theta_rf, rate_threshold, w_idx))

    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            partials = list(pool.map(_chunk_stats_job, chunks, chunksize=4))
    else:
        partials = [_chunk_stats_job(c) for c in chunks]

    # Reduce per (point, weather) in chunk order.
    n_modes = len(MODES)
    acc: dict[tuple[int, int], list] = {}
    for job, part in zip(chunks, partials):
        key = (job[2], job[8])
        if key not in acc:
            acc[key] = [[0] * n_modes, [0.0] * n_modes, [0.0] * n_modes,
                        [0] * n_modes]
        a = acc[key]
        for field_idx in range(4):
            for i in range(n_modes):
                a[field_idx][i] += part[field_idx][i]

    rows = []
    n = spec.n_trials
    for p_idx, value in enumerate(spec.values):
        for w_idx, weather in enumerate(spec.weathers):
            succ, rsum, rsq, late = acc[(p_idx, w_idx)]
            for mode in spec.modes:
                m_idx = MODES.index(mode)
                if spec.variable == SWEEP_DISTANCE:
                    rows.append(SweepRow(value, weather.kind, mode, "prp",
                                         proportion_estimate(succ[m_idx], n)))
                    rows.append(SweepRow(value, weather.kind, mode, "rate_mbps",
                                         mean_estimate(rsum[m_idx], rsq[m_idx], n)))
                else:
                    rows.append(SweepRow(value, weather.kind, mode, "dor",
                                         proportion_estimate(late[m_idx], n)))
    return SweepTable(variable=spec.variable, rows=tuple(rows))


def _chunk_stats_job(args):
    cfg, seed, p_idx, start, end, tv, tr, rate_threshold, _w_idx = args
    return _chunk_stats(cfg, seed, p_idx, start, end, tv, tr, rate_threshold)
