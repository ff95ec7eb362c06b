"""Seed derivation, estimators and sweep-orchestration tests."""

import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rfvlc import (ConfigError, InvalidArgumentError, MODE_LA, MODE_PURE_RF,
                   MODE_PURE_VLC, MODES, WEATHER_KINDS, ScenarioConfig, SweepSpec,
                   derive_seed, prp_rf_closed_form, run_sweep)
from rfvlc import engine, metrics, scenario
from rfvlc.engine import _CHUNK, trial_rng
from rfvlc.metrics import mode_rates, mode_success, outage_rate, simulate_trials
from rfvlc.estimate import (Z_95, MetricEstimate, mean_estimates, merged_moments, moments,
                            proportion_estimates)

CLEAR = ("clear",)
ALL_WEATHERS = WEATHER_KINDS
# lambda * rho = 1e-2: ~20 interferers per trial
DENSE = dataclasses.replace(ScenarioConfig(), rho_access=1.0)


class _ChunkFailure(Exception):
    """Raised for one chunk to check that failures keep their type."""


def _simulate(config, weathers, rng, n):
    """simulate_trials at config's own distance alone: [W, n] and [n]."""
    sinr_vlc, sinr_rf = simulate_trials(config, (config.distance_r,), weathers, rng, n)
    return sinr_vlc[0], sinr_rf[0]


def _spec(**over):
    base = dict(distances=(50.0, 150.0), weathers=CLEAR,
                modes=(MODE_PURE_VLC, MODE_PURE_RF, MODE_LA), n_trials=500,
                master_seed=12345)
    base.update(over)
    return SweepSpec(**base)


def _is_proportion(est):
    k = round(est.value * est.n_trials)
    return 0 <= k <= est.n_trials and est == _proportion(k, est.n_trials)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3, 7) == derive_seed(42, 3, 7)

    def test_distinct_over_index_scan(self):
        seen = {derive_seed(42, p, t) for p in range(100) for t in range(100)}
        assert len(seen) == 10_000

    def test_distinct_across_masters(self):
        a = {derive_seed(1, 0, t) for t in range(1000)}
        b = {derive_seed(2, 0, t) for t in range(1000)}
        assert not (a & b)

    def test_avalanche(self):
        # flipping one trial bit should flip about half the output bits
        flips = []
        for t in range(256):
            a = derive_seed(9, 5, t)
            b = derive_seed(9, 5, t ^ 1)
            flips.append(bin(a ^ b).count("1"))
        assert 24 < np.mean(flips) < 40

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigError):
            derive_seed(1, -1, 0)

    def test_trial_rng_reproducible(self):
        seed = derive_seed(7, 0, 0)
        a = trial_rng(seed).uniform(size=8)
        b = trial_rng(seed).uniform(size=8)
        assert np.array_equal(a, b)
        c = trial_rng(derive_seed(7, 0, 1)).uniform(size=8)
        assert not np.array_equal(a, c)


def _wilson(successes, n):
    """The Wilson 95% interval (low, high) of one count, as floats."""
    return tuple(map(float, proportion_estimates(successes, n)[2:]))


class TestEstimators:
    def test_wilson_midpoint_example(self):
        low, high = _wilson(50, 100)
        assert low == pytest.approx(0.40383, abs=1e-4)
        assert high == pytest.approx(0.59617, abs=1e-4)

    def test_wilson_stays_in_unit_interval(self):
        assert _wilson(0, 50)[0] == 0.0
        assert _wilson(50, 50)[1] == 1.0
        low, high = _wilson(1, 1000)
        assert 0.0 < low < 1 / 1000 < high < 1.0

    @pytest.mark.parametrize("n", [1, 100, 200, 4096, 5000, 16384, 100_000, 10**8])
    def test_wilson_ends_are_exact(self, n):
        # no success: low is exactly 0 (center - half rounds to 5.42e-20 at
        # n = 5000); every success: high is exactly 1 (it rounds to
        # 0.9999999999999999 at n = 4096); both contain the estimate
        low, high = _wilson(0, n)
        assert low == 0.0 and math.copysign(1.0, low) == 1.0 and 0.0 < high < 1.0
        low, high = _wilson(n, n)
        assert high == 1.0 and 0.0 < low < 1.0
        k = np.arange(n + 1) if n <= 5000 else np.array([0, 1, 2, n // 2, n - 2, n - 1, n])
        p, _, low, high = proportion_estimates(k, n)
        assert ((low <= p) & (p <= high)).all()

    def test_wilson_bad_inputs(self):
        with pytest.raises(InvalidArgumentError):
            _wilson(5, 0)
        with pytest.raises(InvalidArgumentError):
            _wilson(6, 5)

    def test_proportion_stderr(self):
        est = _proportion(30, 100)
        assert est.value == 0.3
        assert est.stderr == pytest.approx(math.sqrt(0.3 * 0.7 / 100), rel=1e-12)
        assert est.n_trials == 100

    def test_mean_estimate(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        est = _mean(*moments(data), len(data))
        assert est.value == 2.5
        assert est.stderr == pytest.approx(math.sqrt(1.25 / 4), rel=1e-12)
        assert est.ci95_low < 2.5 < est.ci95_high


def _reference_proportion(successes, n):
    """proportion_estimates of one count as scalar Python arithmetic (Wilson interval)."""
    p = successes / n
    z2 = Z_95 * Z_95
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (Z_95 / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    low = max(0.0, center - half) if successes > 0 else 0.0
    high = min(1.0, center + half) if successes < n else 1.0
    return MetricEstimate(p, math.sqrt(p * (1.0 - p) / n), n, low, high)


def _reference_mean(mean, m2, n):
    """mean_estimates of one mean and m2 as scalar Python arithmetic."""
    stderr = math.sqrt(m2 / n / n)
    return MetricEstimate(mean, stderr, n, mean - Z_95 * stderr, mean + Z_95 * stderr)


def _reference_moments(values):
    """(mean, m2) of a sample by two passes of exact rational arithmetic,
    rounded once."""
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    return float(mean), float(sum((v - mean) ** 2 for v in exact))


def _rows_of(fields, n):
    """MetricEstimates from the arrays of proportion_estimates or mean_estimates."""
    return [MetricEstimate(v, s, n, lo, hi)
            for v, s, lo, hi in zip(*(np.ravel(f).tolist() for f in fields))]


def _proportion(successes, n):
    """The MetricEstimate of one count, as a sweep's row holds it."""
    est, = _rows_of(proportion_estimates(successes, n), n)
    return est


def _mean(mean, m2, n):
    """The MetricEstimate of one mean and m2, as a sweep's row holds it."""
    est, = _rows_of(mean_estimates(mean, m2, n), n)
    return est


class TestArrayEstimators:
    """The array estimates a sweep's rows take equal their scalar inputs'
    estimates and the scalar arithmetic, bit for bit."""

    @pytest.mark.parametrize("n", [100, 4096 + 300, 10**8])
    def test_proportions(self, n):
        rng = np.random.default_rng(n)
        k = np.concatenate([[0, 1, n // 3, n // 2, n - 1, n], rng.integers(0, n + 1, 500),
                            rng.integers(0, 20, 50), n - rng.integers(0, 20, 50)])
        got = _rows_of(proportion_estimates(k.reshape(2, 3, -1), n), n)
        assert got == [_proportion(x, n) for x in k.tolist()]
        assert got == [_reference_proportion(x, n) for x in k.tolist()]
        assert _wilson(int(k[7]), n) == (got[7].ci95_low, got[7].ci95_high)

    @pytest.mark.parametrize("n", [100, 4096 + 300, 10**8])
    def test_means(self, n):
        rng = np.random.default_rng(n)
        mean = np.concatenate([[0.0, -0.0, 7.5], rng.uniform(0, 500, 300)])
        m2 = np.concatenate([[0.0, 0.0, 56.25 * n], rng.uniform(0, 500, 300) ** 2 * n])
        got = _rows_of(mean_estimates(mean, m2, n), n)
        args = list(zip(mean.tolist(), m2.tolist()))
        assert got == [_mean(x, x2, n) for x, x2 in args]
        assert got == [_reference_mean(x, x2, n) for x, x2 in args]

    @pytest.mark.parametrize("n", [1, 2, 300, 4096])
    def test_moments_of_a_sample(self, n):
        # the moments of real data within rounding of the exact ones, and a
        # constant sample's exactly: its value and an m2 of 0
        rng = np.random.default_rng(n)
        data = rng.uniform(0.0, 500.0, (3, n))
        mean, m2 = moments(data)
        assert mean.shape == m2.shape == (3,)
        for row, x, x2 in zip(data, mean.tolist(), m2.tolist()):
            want, want2 = _reference_moments(row.tolist())
            assert x == pytest.approx(want, rel=1e-14)
            assert x2 == pytest.approx(want2, rel=1e-10, abs=1e-9)
        for value in (0.1, 2.47950975, 1e-300, 0.0):
            mean, m2 = moments(np.full(n, value))
            assert float(mean) == value and float(m2) == 0.0
            assert _mean(mean, m2, n).stderr == 0.0

    @pytest.mark.parametrize("sizes", [(4096,), (4096, 300), (4096,) * 5 + (1,), (1, 1, 7)],
                             ids=str)
    def test_merged_moments_of_parts(self, sizes):
        # parts merged in order give the moments of the whole sample, and
        # parts of one value merge to it with an m2 of exactly 0 (a sum of
        # squares less a squared sum would round, 3.33e-11 at 100k samples)
        rng = np.random.default_rng(len(sizes))
        data = rng.lognormal(3.0, 1.5, sum(sizes))
        parts = np.split(data, np.cumsum(sizes)[:-1])
        mean, m2 = merged_moments(*zip(*(moments(part) for part in parts)), sizes)
        want, want2 = _reference_moments(data.tolist())
        assert float(mean) == pytest.approx(want, rel=1e-13)
        assert float(m2) == pytest.approx(want2, rel=1e-11)
        constant = [moments(np.full(size, 0.417758047)) for size in sizes]
        mean, m2 = merged_moments(*zip(*constant), sizes)
        assert float(mean) == 0.417758047 and float(m2) == 0.0

    def test_signed_zeros(self):
        # a mean of -0.0 keeps its sign; an m2 of 0 gives a stderr of +0.0
        assert math.copysign(1.0, _mean(-0.0, 0.0, 100).value) == -1.0
        stderr = _mean(0.0, 0.0, 100).stderr
        assert stderr == 0.0 and math.copysign(1.0, stderr) == 1.0

    def test_bad_inputs(self):
        with pytest.raises(InvalidArgumentError):
            proportion_estimates(np.array([1, 2]), 0)
        with pytest.raises(InvalidArgumentError):
            proportion_estimates(np.array([1, 6]), 5)
        with pytest.raises(InvalidArgumentError):
            proportion_estimates(np.array([-1, 2]), 5)
        with pytest.raises(InvalidArgumentError):
            mean_estimates(np.ones(2), np.ones(2), 0)


class TestSweepSpec:
    def test_values_must_increase(self):
        assert any("increasing" in v for v in _spec(distances=(100.0, 50.0)).check())

    def test_thresholds_must_increase(self):
        assert any("t_th: must be strictly increasing" in v
                   for v in _spec(t_th=(2e-3, 1e-3)).check())

    def test_minimum_trials(self):
        assert any("n_trials" in v for v in _spec(n_trials=10).check())

    def test_maximum_trials(self):
        assert _spec(n_trials=engine._MAX_TRIALS).check() == []
        assert _spec(n_trials=engine._MAX_TRIALS + 1).check() == [
            f"sweep.n_trials: must be <= {engine._MAX_TRIALS}"]

    def test_unknown_mode(self):
        assert any("mode" in v for v in _spec(modes=("teleport",)).check())

    @pytest.mark.parametrize("field, value", [
        ("n_trials", 1e5), ("n_trials", 500.0), ("n_trials", "500"), ("n_trials", math.nan),
        ("master_seed", 1.5), ("master_seed", 12345.0), ("master_seed", "7"),
        ("n_trials", True), ("master_seed", True), ("master_seed", np.bool_(True))])
    def test_counts_must_be_integers(self, field, value):
        # a ConfigError before any chunk, not a TypeError from the chunk grid
        # or the seed derivation
        spec = _spec(**{field: value})
        assert spec.check() == [f"sweep.{field}: must be an integer"]
        with pytest.raises(ConfigError, match=f"sweep.{field}: must be an integer"):
            run_sweep(ScenarioConfig(), spec, "prp")

    @pytest.mark.parametrize("field, values", [
        ("distances", ("50",)), ("distances", (None,)), ("distances", (-5.0, None)),
        ("t_th", ("1",)), ("t_th", (1e-3, None)), ("distances", (True,)),
        ("distances", (50.0, np.bool_(True))), ("t_th", (False, 1e-3))])
    def test_values_must_be_real_numbers(self, field, values):
        # a ConfigError before any chunk, not a TypeError from validate's
        # distance checks or from math.isfinite; a distance that is not a
        # number skips validate, so its neighbours are not reported
        spec = _spec(**{field: values})
        assert spec.check() == [f"sweep.{field}: must be real numbers"]
        with pytest.raises(ConfigError) as err:
            run_sweep(ScenarioConfig(), spec, "dor" if field == "t_th" else "prp")
        assert str(err.value) == f"sweep.{field}: must be real numbers"

    @pytest.mark.parametrize("integer", [np.int64, np.uint64])
    def test_numpy_integers_are_integers(self, integer):
        # the rows of the same Python ints
        spec = _spec(n_trials=integer(500), master_seed=integer(12345))
        assert spec.check() == []
        assert run_sweep(ScenarioConfig(), spec, "prp") == run_sweep(
            ScenarioConfig(), _spec(), "prp")

    def test_clean_spec(self):
        assert _spec().check() == []

    @pytest.mark.parametrize("field", ["distances", "t_th", "weathers", "modes"])
    @pytest.mark.parametrize("kind", [list, np.array, None])
    def test_lists_must_be_tuples(self, field, kind):
        # one message per field, not numpy's ambiguous truth value or a
        # TypeError; the field is checked no further
        value = None if kind is None else kind(getattr(_spec(t_th=(1e-3,)), field))
        spec = _spec(**{field: value})
        message = f"sweep.{field}: must be a tuple, got {type(value).__name__}"
        assert spec.check() == [message]
        with pytest.raises(ConfigError) as err:
            run_sweep(ScenarioConfig(), spec, "dor" if field == "t_th" else "prp")
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("field, values, unknown", [
        ("modes", (["la"],), "unknown mode ['la']"),
        ("modes", (MODE_LA, {"la": 1}), "unknown mode {'la': 1}"),
        ("weathers", ("clear", ["clear"]), "unknown weather ['clear']"),
        ("weathers", (np.array(["clear", "rain"]),), "unknown weather array(['clear', 'rain']"),
    ])
    def test_names_must_be_strings(self, field, values, unknown):
        # an unhashable or array name is unknown, not a TypeError
        problems = _spec(**{field: values}).check()
        assert len(problems) == 1 and problems[0].startswith(f"sweep.{field}: {unknown}")
        with pytest.raises(ConfigError, match=f"sweep.{field}: unknown"):
            run_sweep(ScenarioConfig(), _spec(**{field: values}), "prp")


# Any value of a sweep's inputs: ints, floats, bools, strings, None, numpy
# scalars and arrays, and lists and tuples of them.  Ints stay within
# [-300, 300], or a few 64-bit edges, so that a sweep that runs is small.
_SCALARS = st.one_of(
    st.integers(-300, 300), st.sampled_from([2**63, 2**64, -2**64]), st.floats(),
    st.booleans(), st.none(), st.text(max_size=3), st.sampled_from(WEATHER_KINDS + MODES),
    st.integers(-300, 300).map(np.int64), st.floats(width=32).map(np.float32),
    st.floats().map(np.float64), st.booleans().map(np.bool_),
    arrays(np.float64, st.integers(0, 3), elements=st.floats(0.0, 300.0)))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                    st.lists(_SCALARS, max_size=3).map(tuple))
# the sweep's fields, the config's own float fields and the worker count
_INPUTS = (tuple(f.name for f in dataclasses.fields(SweepSpec))
           + tuple(f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "float")
           + ("n_workers",))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.dictionaries(st.sampled_from(_INPUTS), _VALUES, min_size=1, max_size=3),
       st.sampled_from(["prp", "dor"]))
def test_any_inputs_give_rows_or_config_error(inputs, metric):
    spec_fields = {f.name for f in dataclasses.fields(SweepSpec)}
    spec = _spec(**{"n_trials": 100, "t_th": (1e-3,) if metric == "dor" else (),
                    **{k: v for k, v in inputs.items() if k in spec_fields}})
    config = dataclasses.replace(ScenarioConfig(), **{
        k: v for k, v in inputs.items() if k not in spec_fields and k != "n_workers"})
    try:
        rows = run_sweep(config, spec, metric, n_workers=inputs.get("n_workers", 1))
    except ConfigError:
        return
    assert rows and all(math.isfinite(row.estimate.value) for row in rows)


class TestChunkCounts:
    """_score_chunk counts in a narrow accumulator, and keeps the counts
    narrow: _rows widens them as it sums them over the chunks."""

    @staticmethod
    def _sinrs(config, n):
        return _simulate(config, ALL_WEATHERS, trial_rng(derive_seed(7, 0, 0)), n)

    # a tiny t_th makes every trial late, and thresholds far below any SINR
    # make every trial decode: both count _CHUNK in every cell
    @pytest.mark.parametrize("config, n, t_th, full", [
        (ScenarioConfig(), _CHUNK, (5e-4, 1e-3, 3e-3, 1e-2), False),
        # 3e-2 rather than 1e-2: a dense chunk has a few pure_rf trials on time
        (DENSE, _CHUNK, (5e-4, 1e-3, 3e-3, 3e-2), False),
        (ScenarioConfig(), 300, (1e-3, 3e-3), False),
        (dataclasses.replace(ScenarioConfig(), sinr_threshold_vlc_db=-300.0,
                             sinr_threshold_rf_db=-300.0), _CHUNK, (1e-12,), True),
    ], ids=["sparse", "dense", "partial", "full"])
    @pytest.mark.parametrize("metric", ["prp", "dor"])
    def test_counts_equal_the_flag_sums(self, config, n, t_th, full, metric):
        sinrs = self._sinrs(config, n)
        if metric == "prp":
            flags = mode_success(*sinrs, config)
        else:
            cutoffs = np.array([outage_rate(config.payload_h, t) for t in t_th])
            # late[k, weather, mode]
            flags = mode_rates(*sinrs, config) < cutoffs[:, None, None, None]
        expected = flags.sum(axis=-1)
        spec = _spec(weathers=ALL_WEATHERS, modes=metrics.MODES,
                     t_th=t_th if metric == "dor" else ())
        counts, = engine._score_chunk(config, spec, metric, sinrs)
        assert counts.dtype == engine._COUNT
        assert counts.shape == expected.shape
        assert np.array_equal(counts, expected)
        assert (expected == n).all() == full

    def test_accumulator_holds_a_chunk(self):
        assert _CHUNK <= np.iinfo(engine._COUNT).max


def _selected_rows(config, spec, metric):
    """The rows of run_sweep(config, spec, metric) from chunks scored for all
    of MODES, each chunk simulated once for every distance, the spec's modes
    then selected from the reduced statistics (as _rows did before chunks
    scored the spec's modes alone)."""
    n = spec.n_trials
    every_mode = dataclasses.replace(spec, modes=metrics.MODES)
    partials = {}
    for start in range(0, n, _CHUNK):
        end = min(start + _CHUNK, n)
        rng = trial_rng(derive_seed(spec.master_seed, 0, start // _CHUNK))
        sinr_vlc, sinr_rf = simulate_trials(config, spec.distances, spec.weathers, rng,
                                            end - start)
        for p, distance in enumerate(spec.distances):
            partials[p, start] = engine._score_chunk(
                config.with_distance(distance), every_mode, metric, (sinr_vlc[p], sinr_rf[p]))
    # [C, D, W, M] or for dor [C, D, K, W, M], the spec's modes
    modes = [metrics.MODES.index(mode) for mode in spec.modes]
    fields = [np.array([[partials[p, start][f] for p in range(len(spec.distances))]
                        for start in range(0, n, _CHUNK)])[..., modes]
              for f in range(len(partials[0, 0]))]
    if metric == "rate_mbps":
        sizes = [min(_CHUNK, n - start) for start in range(0, n, _CHUNK)]
        estimates = mean_estimates(*merged_moments(*fields, sizes), n)
    else:
        estimates = proportion_estimates(sum(fields[0]), n)
    fields = (f.ravel().tolist() for f in estimates)
    keys = itertools.product(spec.distances, spec.t_th or (None,), spec.weathers, spec.modes)
    return [engine.SweepRow(*key, MetricEstimate(value, stderr, n, low, high))
            for key, value, stderr, low, high in zip(keys, *fields)]


class TestRunSweep:
    def test_rerun_is_identical(self):
        cfg = ScenarioConfig()
        a = run_sweep(cfg, _spec(), "prp")
        b = run_sweep(cfg, _spec(), "prp")
        assert a == b

    @pytest.mark.parametrize("n_trials, shares", [
        # three chunk indices: one each
        (2 * _CHUNK + 300, [[1], [2]]),
        # seven: shares of 3, 2 and 2, interleaved; a rate merged out of
        # chunk order would show
        (6 * _CHUNK + 300, [[1, 4], [2, 5]]),
    ], ids=["3_chunks", "7_chunks"])
    def test_worker_count_does_not_change_results(self, monkeypatch, forced_split,
                                                  n_trials, shares):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
        cfg = ScenarioConfig()
        for metric, t_th in (("prp", ()), ("rate_mbps", ()), ("dor", (1e-3, 4e-3))):
            spec = _spec(n_trials=n_trials, t_th=t_th)
            one = run_sweep(cfg, spec, metric, n_workers=1)
            three = run_sweep(cfg, spec, metric, n_workers=3)
            assert [r[:4] for r in one] == [r[:4] for r in three]
            assert np.array_equal(np.array([r.estimate for r in one]).view(np.uint64),
                                  np.array([r.estimate for r in three]).view(np.uint64))
        # each 3-worker sweep really ran in three processes, on these shares
        assert forced_split == shares * 3

    def test_worker_count_does_not_change_results_at_density(
            self, monkeypatch, forced_split):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        # two full chunks and a partial one per point
        spec = _spec(n_trials=2 * _CHUNK + 300)
        for metric in ("prp", "rate_mbps"):
            assert (run_sweep(DENSE, spec, metric, n_workers=1)
                    == run_sweep(DENSE, spec, metric, n_workers=2))
        # the helper's share: chunk 1, at every distance
        assert forced_split == [[1]] * 2

    def test_pure_rf_identical_across_weathers_at_density(self):
        spec = _spec(weathers=ALL_WEATHERS, n_trials=_CHUNK + 300)
        for metric in ("prp", "rate_mbps"):
            rows = run_sweep(DENSE, spec, metric)
            for value in spec.distances:
                estimates = [r.estimate for r in rows
                             if r.distance == value and r.mode == MODE_PURE_RF]
                assert len(estimates) == 4 and len(set(estimates)) == 1

    def test_one_stream_per_chunk(self):
        # chunk c draws from trial_rng(derive_seed(master, 0, c)) at every
        # distance, the second one included
        spec = _spec(distances=(50.0, 150.0), modes=(MODE_PURE_RF,), n_trials=_CHUNK + 500)
        rows = run_sweep(DENSE, spec, "prp")
        for row, distance in zip(rows, spec.distances):
            cfg = DENSE.with_distance(distance)
            wins = 0
            for chunk, n in enumerate((_CHUNK, 500)):
                rng = trial_rng(derive_seed(spec.master_seed, 0, chunk))
                ok = mode_success(*_simulate(cfg, CLEAR, rng, n), cfg)
                wins += int(ok[0, 1].sum())
            assert row.estimate.value == wins / spec.n_trials

    @pytest.mark.parametrize("config", [ScenarioConfig(), DENSE], ids=["sparse", "dense"])
    def test_shared_generator_gives_each_chunk_its_stream(self, monkeypatch, config):
        # the state each chunk starts its draws from, against its own
        # trial_rng: one draw per chunk, for all three distances
        drawn = []
        draw = metrics.draw_deployment

        def recording(cfg, rng, n):
            drawn.append((n, rng.bit_generator.state, rng))
            return draw(cfg, rng, n)

        monkeypatch.setattr(metrics, "draw_deployment", recording)
        spec = _spec(distances=(30.0, 150.0, 1000.0), n_trials=2 * _CHUNK + 300)
        run_sweep(config, spec, "prp")
        n = spec.n_trials
        assert [d[:2] for d in drawn] == [
            (min(start + _CHUNK, n) - start,
             trial_rng(derive_seed(spec.master_seed, 0, start // _CHUNK)).bit_generator.state)
            for start in range(0, n, _CHUNK)]
        assert len({id(d[2]) for d in drawn}) == 1   # one generator for the share

    def test_dor_rows_score_the_prp_trials(self):
        # every threshold counts the late trials of the same chunk streams
        spec = _spec(distances=(150.0,), modes=(MODE_LA,), n_trials=_CHUNK + 500,
                     t_th=(4e-3, 8e-3))
        rows = run_sweep(DENSE, spec, "dor")
        cfg = DENSE.with_distance(150.0)
        rates = np.concatenate([
            mode_rates(*_simulate(
                cfg, CLEAR, trial_rng(derive_seed(spec.master_seed, 0, chunk)), n),
                cfg)[0, 2]
            for chunk, n in enumerate((_CHUNK, 500))])
        assert len(rows) == 2
        for row in rows:
            late = (rates < outage_rate(cfg.payload_h, row.t_th)).sum()
            assert row.estimate.value == late / spec.n_trials

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("modes", [
        (metrics.MODE_NON_LA,), (MODE_LA, MODE_PURE_VLC), metrics.MODES[::-1]], ids=str)
    @pytest.mark.parametrize("metric", ["prp", "rate_mbps", "dor"])
    def test_mode_subsets_keep_their_bytes(self, monkeypatch, forced_split, metric,
                                           modes, workers):
        # a sweep of some modes gives the rows of a sweep that scores all four
        # modes and then selects them, bit for bit
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        spec = _spec(weathers=ALL_WEATHERS, modes=modes, n_trials=_CHUNK + 300,
                     t_th=(1e-3, 4e-3) if metric == "dor" else ())
        rows = run_sweep(ScenarioConfig(), spec, metric, n_workers=workers)
        assert len(forced_split) == workers - 1
        expected = _selected_rows(ScenarioConfig(), spec, metric)
        assert [r[:4] for r in rows] == [r[:4] for r in expected]
        assert np.array_equal(np.array([r.estimate for r in rows]).view(np.uint64),
                              np.array([r.estimate for r in expected]).view(np.uint64))

    @pytest.mark.parametrize("n_thresholds", [0, 1, 10])
    def test_one_chunk_call_per_point_whatever_the_thresholds(
            self, monkeypatch, n_thresholds):
        # one call per (distance, chunk) serves all four weathers
        calls = []
        score = engine._score_chunk
        monkeypatch.setattr(engine, "_score_chunk",
                            lambda *args: calls.append(args) or score(*args))
        spec = _spec(weathers=ALL_WEATHERS, n_trials=_CHUNK + 300,
                     t_th=tuple(1e-3 * (k + 1) for k in range(n_thresholds)))
        metric = "dor" if n_thresholds else "prp"
        run_sweep(ScenarioConfig(), spec, metric, n_workers=1)
        assert len(calls) == (len(spec.distances)
                              * math.ceil(spec.n_trials / _CHUNK))
        assert all(c[1] is spec and c[2] == metric for c in calls)
        # distance after distance, each distance's chunks in order: the
        # chunk's SINRs, [W, n] and [n]
        assert [(c[3][0].shape, c[3][1].shape) for c in calls] == [
            ((len(ALL_WEATHERS), n), (n,)) for _ in spec.distances for n in (_CHUNK, 300)]

    @staticmethod
    def _report_cpus(monkeypatch, cpus):
        """Report cpus usable CPUs (None: no affinity mask and an unknown
        CPU count)."""
        if cpus is None:
            monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)

    def test_pool_starts_no_more_workers_than_chunks(self, monkeypatch, forced_split):
        # k workers are this process and k - 1 helpers
        self._report_cpus(monkeypatch, cpus=64)
        cfg = ScenarioConfig()
        one_chunk = _spec(distances=(50.0,))
        assert (run_sweep(cfg, one_chunk, "prp", n_workers=8)
                == run_sweep(cfg, one_chunk, "prp"))
        assert forced_split == []
        # three distances share one chunk index: no helper either
        one_chunk = _spec(distances=(50.0, 100.0, 150.0))
        assert (run_sweep(cfg, one_chunk, "prp", n_workers=8)
                == run_sweep(cfg, one_chunk, "prp"))
        assert forced_split == []
        three_chunks = _spec(distances=(50.0, 100.0), n_trials=2 * _CHUNK + 300)
        assert (run_sweep(cfg, three_chunks, "prp", n_workers=8)
                == run_sweep(cfg, three_chunks, "prp"))
        assert forced_split == [[1], [2]]

    @pytest.mark.parametrize("cpus, started", [
        (2, [[1]]), (1, []), (None, [])])
    def test_pool_starts_no_more_workers_than_cpus(
            self, monkeypatch, forced_split, cpus, started):
        self._report_cpus(monkeypatch, cpus)
        cfg = ScenarioConfig()
        spec = _spec(distances=(50.0, 100.0, 150.0), n_trials=_CHUNK + 300)
        assert (run_sweep(cfg, spec, "prp", n_workers=100_000)
                == run_sweep(cfg, spec, "prp"))
        assert forced_split == started

    def test_estimated_work_caps_the_processes(self, monkeypatch):
        # at most max(1, work // _SPLIT_WORK) processes, read at call time; a
        # trial weighs 1 + m / 3 with m = 4 lambda rho L = 20 lane points here
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 64)
        spec = _spec(n_trials=30 * _CHUNK)   # 30 chunk indices, 2 distances each
        work = engine._sweep_work(DENSE, spec)
        assert work == pytest.approx(2 * 30 * _CHUNK * (1 + 20 / 3), rel=1e-12)
        for split_work, workers in ((2 * work, 1), (work, 1), (work / 2.5, 2),
                                    (work / 100, 30)):
            monkeypatch.setattr(engine, "_SPLIT_WORK", split_work)
            assert engine.sweep_workers(DENSE, spec, 64) == workers
        assert engine.sweep_workers(DENSE, spec, 3) == 3

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert engine._usable_cpus() == 1
        monkeypatch.delattr(engine.os, "sched_getaffinity")
        assert engine._usable_cpus() == 64

    def test_every_chunk_runs_once_through_the_module_globals(
            self, monkeypatch, tmp_path, forced_split):
        # derive_seed and _score_chunk are looked up at call time, in this
        # process and the helpers alike: each chunk is seeded once, in its
        # own process, and scored there at both distances
        log = tmp_path / "chunks.log"
        seed, score = engine.derive_seed, engine._score_chunk

        def logged(what, index):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {what} {index}\n")

        def seeded(master, point, chunk):
            logged("seed", chunk)
            return seed(master, point, chunk)

        spec = _spec(n_trials=2 * _CHUNK + 300)
        expected = run_sweep(ScenarioConfig(), spec, "prp")
        monkeypatch.setattr(engine, "derive_seed", seeded)
        monkeypatch.setattr(engine, "_score_chunk",
                            lambda *args: logged("score", -1) or score(*args))
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
        assert run_sweep(ScenarioConfig(), spec, "prp", n_workers=3) == expected
        by_pid = {}
        for line in log.read_text().splitlines():
            pid, what, index = line.split()
            by_pid.setdefault(int(pid), []).append((what, int(index)))
        # process j seeds chunk j, then scores it at both distances
        shares = [[("seed", c), ("score", -1), ("score", -1)] for c in range(3)]
        assert by_pid.pop(os.getpid()) == shares[0]
        assert sorted(by_pid.values()) == shares[1:]
        assert forced_split == [[1], [2]]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("config, window, cap, groups", [
        # ~820 lane points per full chunk: groups close at the cap, ten chunks
        (ScenarioConfig(), metrics._WINDOW, metrics._GROUP,
         lambda sizes, points: max(sizes) >= 5 and max(points) < metrics._WINDOW),
        # a 1000-point window: a group closes at its second chunk, whose
        # points bring it past the window
        (ScenarioConfig(), 1000, metrics._GROUP, lambda sizes, points: {1, 2} <= set(sizes)
         and max(sizes) == 2 and max(points) < 2 * 1000),
        # ~80k lane points per full chunk: every chunk alone, in many term
        # windows
        (DENSE, metrics._WINDOW, metrics._GROUP, lambda sizes, points: set(sizes) == {1}
         and max(points) > 4 * metrics._WINDOW),
        # lambda rho = 1e-6, a few points per lane and chunk, none on some:
        # groups close at the cap, their lane parts merged empty or not
        (dataclasses.replace(ScenarioConfig(), rho_access=1e-4), metrics._WINDOW, 4,
         lambda sizes, points: max(sizes) == 4 and 0 < max(points) < 80),
    ], ids=["sparse", "small_window", "dense", "very_sparse"])
    def test_pooled_pass_gives_every_chunk_its_bits_alone(
            self, monkeypatch, tmp_path, forced_split, workers, config, window, cap, groups):
        # each (distance, chunk)'s SINRs and partials in a sweep equal those
        # of the chunk's own simulate_trials run at that distance alone, a
        # group of one; the last chunk is partial.  The SINRs of every
        # (distance, chunk) differ, so their digests name it
        monkeypatch.setattr(metrics, "_WINDOW", window)
        monkeypatch.setattr(metrics, "_GROUP", cap)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        log = tmp_path / "chunks.log"
        score = engine._score_chunk

        def digest(arrays):
            return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

        def logged(config, spec, metric, sinrs):
            partial = score(config, spec, metric, sinrs)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{digest(sinrs)} {digest(partial)}\n")
            return partial

        chunk_points, windows = [], []   # each group's chunks' lane points; each window's
        merged, block_terms = metrics._merged, metrics._block_terms
        monkeypatch.setattr(metrics, "_merged", lambda chunks: chunk_points.append(
            [len(c.coord) for c in chunks]) or merged(chunks))
        monkeypatch.setattr(metrics, "_block_terms",
                            lambda base, lane, coord, *rest:
                            windows.append(len(coord)) or block_terms(base, lane, coord, *rest))
        monkeypatch.setattr(engine, "_score_chunk", logged)
        # 13 chunk indices: 7 in this process on 2 workers, enough for the
        # groups of five and of the cap
        spec = _spec(distances=(30.0, 100.0, 150.0), weathers=ALL_WEATHERS,
                     n_trials=12 * _CHUNK + 500)
        run_sweep(config, spec, "rate_mbps", n_workers=workers)
        assert len(forced_split) == workers - 1   # a 2-worker sweep really splits
        # the groups and term windows of this process: a group closes at the
        # chunk that brings it to the cap or to the window's points, the
        # last one also at the end of the chunks
        sizes, points = [len(g) for g in chunk_points], [sum(g) for g in chunk_points]
        assert all(sum(g[:-1]) < window for g in chunk_points) and max(sizes) <= cap
        assert all(len(g) == cap or sum(g) >= window for g in chunk_points[:-1])
        assert 0 < max(windows) <= window
        assert groups(sizes, points)
        got = sorted(tuple(line.split()) for line in log.read_text().splitlines())

        expected = []
        for p, distance in enumerate(spec.distances):
            cfg = config.with_distance(distance)
            for start in range(0, spec.n_trials, _CHUNK):
                end = min(start + _CHUNK, spec.n_trials)
                rng = trial_rng(derive_seed(spec.master_seed, 0, start // _CHUNK))
                sinrs = _simulate(cfg, spec.weathers, rng, end - start)
                partial = score(cfg, spec, "rate_mbps", sinrs)
                expected.append((digest(sinrs), digest(partial)))
        assert got == sorted(expected)

    @pytest.mark.parametrize("failing, where", [(1, "helper"), (0, "this process")])
    def test_failure_reaches_the_caller_with_its_type(
            self, monkeypatch, forced_split, failing, where):
        seed = engine.derive_seed

        def failing_chunk(master, point, chunk):
            if chunk == failing:
                raise _ChunkFailure(chunk, os.getpid())
            return seed(master, point, chunk)

        monkeypatch.setattr(engine, "derive_seed", failing_chunk)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
        spec = _spec(distances=(50.0, 100.0), n_trials=2 * _CHUNK + 300)
        with pytest.raises(_ChunkFailure) as failure:
            run_sweep(ScenarioConfig(), spec, "prp", n_workers=3)
        chunk, pid = failure.value.args
        assert chunk == failing
        assert (pid == os.getpid()) == (where == "this process")
        assert len(forced_split) == 2
        assert multiprocessing.active_children() == []

    def test_helper_that_dies_is_runtime_error(self, monkeypatch, forced_split):
        seed = engine.derive_seed
        parent = os.getpid()

        def dying_chunk(master, point, chunk):
            if chunk == 1 and os.getpid() != parent:
                os._exit(7)
            return seed(master, point, chunk)

        monkeypatch.setattr(engine, "derive_seed", dying_chunk)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        spec = _spec(distances=(50.0, 100.0), n_trials=_CHUNK + 300)
        with pytest.raises(RuntimeError, match="exit code 7"):
            run_sweep(ScenarioConfig(), spec, "prp", n_workers=2)
        assert forced_split == [[1]]
        assert multiprocessing.active_children() == []

    def test_successful_split_reaps_its_helpers(self, monkeypatch):
        started = []
        start_helper = engine._start_helper

        def recording(*share):
            started.append(start_helper(*share))
            return started[-1]

        monkeypatch.setattr(engine, "_start_helper", recording)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(engine, "_SPLIT_WORK", 1)
        spec = _spec(distances=(50.0, 100.0), n_trials=_CHUNK + 300)
        assert run_sweep(ScenarioConfig(), spec, "prp", n_workers=2) == run_sweep(
            ScenarioConfig(), spec, "prp")
        assert len(started) == 1
        for helper, _ in started:
            # joined by run_sweep: nothing is left for waitpid to collect
            with pytest.raises(ChildProcessError):
                os.waitpid(helper.pid, os.WNOHANG)
        assert multiprocessing.active_children() == []

    def test_seed_changes_results(self):
        cfg = ScenarioConfig()
        a = run_sweep(cfg, _spec(n_trials=2000), "prp")
        b = run_sweep(cfg, _spec(n_trials=2000, master_seed=999), "prp")
        assert a != b

    def test_row_layout_distance_sweep(self):
        # one row of the sweep's metric per (distance, weather, mode)
        spec = _spec()
        for metric in ("prp", "rate_mbps"):
            rows = run_sweep(ScenarioConfig(), spec, metric)
            assert all(r.t_th is None for r in rows)
            assert [(r.distance, r.mode) for r in rows] == [
                (d, m) for d in spec.distances for m in spec.modes]
            # prp rows hold success proportions, rate rows mean Mbps
            assert all(_is_proportion(r.estimate) for r in rows) == (metric == "prp")

    def test_row_layout_threshold_sweep(self):
        # one dor row per (distance, threshold, weather, mode)
        spec = _spec(t_th=(1e-3, 3e-3, 10e-3))
        rows = run_sweep(ScenarioConfig(), spec, "dor")
        assert all(_is_proportion(r.estimate) for r in rows)
        assert [(r.distance, r.t_th, r.mode) for r in rows] == [
            (d, t, m) for d in spec.distances for t in spec.t_th for m in spec.modes]

    def test_dor_nonincreasing_in_threshold(self):
        spec = _spec(distances=(150.0,), t_th=(0.5e-3, 1e-3, 2e-3, 4e-3, 8e-3),
                     n_trials=2000)
        rows = run_sweep(ScenarioConfig(), spec, "dor")
        for mode in spec.modes:
            curve = [r.estimate.value for r in rows if r.mode == mode]
            assert all(b <= a for a, b in zip(curve, curve[1:]))

    def test_invalid_config_rejected(self):
        bad = dataclasses.replace(ScenarioConfig(), beta_ov=2.0)
        with pytest.raises(ConfigError):
            run_sweep(bad, _spec(), "prp")

    def test_every_point_is_validated(self):
        with pytest.raises(ConfigError, match="distance_r"):
            run_sweep(ScenarioConfig(), _spec(distances=(-50.0, 10.0)), "prp")
        with pytest.raises(ConfigError, match="finite"):
            run_sweep(ScenarioConfig(), _spec(distances=(10.0, math.inf)), "prp")

    @pytest.mark.parametrize("config", [
        ScenarioConfig(),
        dataclasses.replace(ScenarioConfig(), beta_ov=1.2),
        # fields that pass, and a derived constant (the Lambertian order) that does not
        dataclasses.replace(ScenarioConfig(), vlc=dataclasses.replace(
            ScenarioConfig().vlc, semi_angle_half_power=1e-7)),
    ], ids=["default", "bad_field", "bad_derived"])
    @pytest.mark.parametrize("distances", [
        (0.0,), (-5.0,), (math.nan,), (1e308,), (50.0,),
        (50.0, 0.0, math.nan, 1e308, -5.0), (0.0, 50.0), (-5.0, 1e308, 0.0, math.inf),
    ], ids=str)
    def test_distance_problems_read_as_one_validate_per_distance(self, config, distances):
        # the ConfigError text of a validate call per distance, as run_sweep
        # once made it
        points = [config.with_distance(distance) for distance in distances]
        problems = list(dict.fromkeys(p for cfg in points for p in scenario.validate(cfg)))
        spec = _spec(distances=distances)
        problems += spec.check()
        if not problems:
            assert run_sweep(config, spec, "prp")
            return
        with pytest.raises(ConfigError) as err:
            run_sweep(config, spec, "prp")
        assert str(err.value) == "; ".join(problems)

    def test_derived_constants_are_checked_once_per_sweep(self):
        scenario._derived_problems.cache_clear()
        spec = _spec(distances=tuple(10.0 * (i + 1) for i in range(25)), n_trials=100)
        run_sweep(ScenarioConfig(), spec, "prp")
        assert scenario._derived_problems.cache_info().misses == 1

    @pytest.mark.parametrize("lambda_density", [0.0, ScenarioConfig().lambda_density],
                             ids=["lambda_zero", "default"])
    def test_sweep_memory_does_not_grow_with_trials(self, lambda_density):
        # with no lane points, only the group cap closes a pooled group; at
        # the default density a group holds ten chunks, ~8k lane points, so
        # the cap closes it too.  Either way a sweep holds one group's draws
        # and sums at a time.
        config = dataclasses.replace(ScenarioConfig(), lambda_density=lambda_density)

        def peak(n_trials):
            spec = _spec(distances=(50.0,), n_trials=n_trials)
            tracemalloc.start()
            try:
                run_sweep(config, spec, "prp")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(50_000)
        assert peak(400_000) < 1.5 * small

    def test_nonpositive_delay_threshold_rejected(self):
        with pytest.raises(ConfigError, match="delay thresholds"):
            run_sweep(ScenarioConfig(), _spec(t_th=(0.0, 1e-3)), "dor")

    @pytest.mark.parametrize("workers", [0, -3, 2.5, True, "2", None])
    def test_worker_count_must_be_positive(self, workers):
        with pytest.raises(ConfigError, match="n_workers"):
            run_sweep(ScenarioConfig(), _spec(), "prp", n_workers=workers)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError, match="metric: must be one of"):
            run_sweep(ScenarioConfig(), _spec(), "throughput")

    def test_dor_needs_delay_thresholds(self):
        with pytest.raises(ConfigError, match="t_th: must be nonempty for dor"):
            run_sweep(ScenarioConfig(), _spec(), "dor")

    @pytest.mark.parametrize("metric", ["prp", "rate_mbps"])
    def test_delay_thresholds_only_for_dor(self, metric):
        # a threshold the sweep would not score is a mistake, not a no-op
        with pytest.raises(ConfigError, match=f"empty for {metric}"):
            run_sweep(ScenarioConfig(), _spec(t_th=(1e-3,)), metric)

    @pytest.mark.parametrize("metric, unused", [
        ("prp", "mode_rates"), ("rate_mbps", "mode_success"), ("dor", "mode_success")])
    def test_sweep_scores_only_its_metric(self, monkeypatch, metric, unused):
        def refuse(*args):
            raise AssertionError(f"a {metric} sweep called {unused}")

        monkeypatch.setattr(engine, unused, refuse)
        spec = _spec(n_trials=_CHUNK + 300, t_th=(1e-3,) if metric == "dor" else ())
        assert run_sweep(DENSE, spec, metric, n_workers=1)

    def test_matches_rf_closed_form_without_interferers(self):
        cfg = dataclasses.replace(ScenarioConfig(), lambda_density=0.0)
        spec = _spec(distances=(100.0,), modes=(MODE_PURE_RF,), n_trials=20_000)
        row, = run_sweep(cfg, spec, "prp")
        exact = prp_rf_closed_form(cfg.with_distance(100.0))
        assert abs(row.estimate.value - exact) < 3.5 * max(row.estimate.stderr, 1e-4)

    def test_la_prp_dominates_pure_modes(self):
        spec = _spec(n_trials=2000)
        rows = run_sweep(ScenarioConfig(), spec, "prp")
        for value in spec.distances:
            by_mode = {r.mode: r.estimate.value for r in rows
                       if r.distance == value}
            assert by_mode[MODE_LA] >= max(by_mode[MODE_PURE_VLC],
                                           by_mode[MODE_PURE_RF])
