"""Seed derivation, estimators and sweep-orchestration tests."""

import dataclasses
import math
import multiprocessing
import os

import numpy as np
import pytest

from rfvlc import (ConfigError, InvalidArgumentError, MODE_LA, MODE_PURE_RF,
                   MODE_PURE_VLC, WEATHER_KINDS, ScenarioConfig, SweepSpec,
                   confidence_interval, derive_seed, prp_rf_closed_form, run_sweep)
from rfvlc import engine
from rfvlc.engine import _CHUNK, trial_rng
from rfvlc.metrics import mode_rates, mode_success, outage_rate, simulate_trials
from rfvlc.estimate import mean_estimate, proportion_estimate

CLEAR = ("clear",)
ALL_WEATHERS = WEATHER_KINDS
# lambda * rho = 1e-2: ~20 interferers per trial
DENSE = dataclasses.replace(ScenarioConfig(), rho_access=1.0)


class _ChunkFailure(Exception):
    """Raised by a stand-in chunk to check that failures keep their type."""


def _spec(**over):
    base = dict(distances=(50.0, 150.0), weathers=CLEAR,
                modes=(MODE_PURE_VLC, MODE_PURE_RF, MODE_LA), n_trials=500,
                master_seed=12345)
    base.update(over)
    return SweepSpec(**base)


def _is_proportion(est):
    k = round(est.value * est.n_trials)
    return 0 <= k <= est.n_trials and est == proportion_estimate(k, est.n_trials)


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


class TestEstimators:
    def test_wilson_midpoint_example(self):
        low, high = confidence_interval(50, 100)
        assert low == pytest.approx(0.40383, abs=1e-4)
        assert high == pytest.approx(0.59617, abs=1e-4)

    def test_wilson_stays_in_unit_interval(self):
        assert confidence_interval(0, 50)[0] == 0.0
        assert confidence_interval(50, 50)[1] == 1.0
        low, high = confidence_interval(1, 1000)
        assert 0.0 < low < 1 / 1000 < high < 1.0

    def test_wilson_bad_inputs(self):
        with pytest.raises(InvalidArgumentError):
            confidence_interval(5, 0)
        with pytest.raises(InvalidArgumentError):
            confidence_interval(6, 5)

    def test_proportion_stderr(self):
        est = proportion_estimate(30, 100)
        assert est.value == 0.3
        assert est.stderr == pytest.approx(math.sqrt(0.3 * 0.7 / 100), rel=1e-12)
        assert est.n_trials == 100

    def test_mean_estimate(self):
        data = np.array([1.0, 2.0, 3.0, 4.0])
        est = mean_estimate(data.sum(), (data ** 2).sum(), len(data))
        assert est.value == 2.5
        assert est.stderr == pytest.approx(math.sqrt(1.25 / 4), rel=1e-12)
        assert est.ci95_low < 2.5 < est.ci95_high


class TestSweepSpec:
    def test_values_must_increase(self):
        assert any("increasing" in v for v in _spec(distances=(100.0, 50.0)).check())

    def test_thresholds_must_increase(self):
        assert any("t_th: must be strictly increasing" in v
                   for v in _spec(t_th=(2e-3, 1e-3)).check())

    def test_minimum_trials(self):
        assert any("n_trials" in v for v in _spec(n_trials=10).check())

    def test_unknown_mode(self):
        assert any("mode" in v for v in _spec(modes=("teleport",)).check())

    def test_clean_spec(self):
        assert _spec().check() == []


class TestRunSweep:
    def test_rerun_is_identical(self):
        cfg = ScenarioConfig()
        a = run_sweep(cfg, _spec(), "prp")
        b = run_sweep(cfg, _spec(), "prp")
        assert a == b

    def test_worker_count_does_not_change_results(self):
        cfg = ScenarioConfig()
        spec = _spec(n_trials=5000)
        for metric in ("prp", "rate_mbps"):
            assert (run_sweep(cfg, spec, metric, n_workers=1)
                    == run_sweep(cfg, spec, metric, n_workers=3))

    def test_worker_count_does_not_change_results_at_density(self):
        # two full chunks and a partial one per point
        spec = _spec(n_trials=2 * _CHUNK + 300)
        for metric in ("prp", "rate_mbps"):
            assert (run_sweep(DENSE, spec, metric, n_workers=1)
                    == run_sweep(DENSE, spec, metric, n_workers=2))

    def test_pure_rf_identical_across_weathers_at_density(self):
        spec = _spec(weathers=ALL_WEATHERS, n_trials=_CHUNK + 300)
        for metric in ("prp", "rate_mbps"):
            rows = run_sweep(DENSE, spec, metric)
            for value in spec.distances:
                estimates = [r.estimate for r in rows
                             if r.distance == value and r.mode == MODE_PURE_RF]
                assert len(estimates) == 4 and len(set(estimates)) == 1

    def test_one_stream_per_chunk(self):
        # chunk c of point p draws from trial_rng(derive_seed(master, p, c))
        spec = _spec(distances=(150.0,), modes=(MODE_PURE_RF,), n_trials=_CHUNK + 500)
        row, = run_sweep(DENSE, spec, "prp")
        cfg = DENSE.with_distance(150.0)
        wins = 0
        for chunk, n in enumerate((_CHUNK, 500)):
            rng = trial_rng(derive_seed(spec.master_seed, 0, chunk))
            ok = mode_success(*simulate_trials(cfg, CLEAR, rng, n), cfg)
            wins += int(ok[0, 1].sum())
        assert row.estimate.value == wins / spec.n_trials

    def test_dor_rows_score_the_prp_trials(self):
        # every threshold counts the late trials of the same chunk streams
        spec = _spec(distances=(150.0,), modes=(MODE_LA,), n_trials=_CHUNK + 500,
                     t_th=(4e-3, 8e-3))
        rows = run_sweep(DENSE, spec, "dor")
        cfg = DENSE.with_distance(150.0)
        rates = np.concatenate([
            mode_rates(*simulate_trials(
                cfg, CLEAR, trial_rng(derive_seed(spec.master_seed, 0, chunk)), n),
                cfg)[0, 2]
            for chunk, n in enumerate((_CHUNK, 500))])
        assert len(rows) == 2
        for row in rows:
            late = (rates < outage_rate(cfg.payload_h, row.t_th)).sum()
            assert row.estimate.value == late / spec.n_trials

    @pytest.mark.parametrize("n_thresholds", [0, 1, 10])
    def test_one_chunk_call_per_point_whatever_the_thresholds(
            self, monkeypatch, n_thresholds):
        # one job per (distance, chunk) serves all four weathers
        calls = []
        job = engine._chunk_stats_job
        monkeypatch.setattr(engine, "_chunk_stats_job",
                            lambda args: calls.append(args) or job(args))
        spec = _spec(weathers=ALL_WEATHERS, n_trials=_CHUNK + 300,
                     t_th=tuple(1e-3 * (k + 1) for k in range(n_thresholds)))
        metric = "dor" if n_thresholds else "prp"
        run_sweep(ScenarioConfig(), spec, metric, n_workers=1)
        assert len(calls) == (len(spec.distances)
                              * math.ceil(spec.n_trials / _CHUNK))
        # the job layout (config, seed, point, start, end, weathers, t_th, metric)
        assert [c[2:] for c in calls] == [
            (p, start, min(start + _CHUNK, spec.n_trials), ALL_WEATHERS, spec.t_th,
             metric)
            for p in range(len(spec.distances)) for start in (0, _CHUNK)]

    @staticmethod
    def _recording_helpers(monkeypatch, cpus):
        """Record the (point, start) chunks of every helper process started,
        and report cpus usable CPUs (None: no affinity mask and an unknown
        CPU count)."""
        helpers = []
        start_helper = engine._start_helper

        def recording(share):
            helpers.append([job[2:4] for job in share])
            return start_helper(share)

        monkeypatch.setattr(engine, "_start_helper", recording)
        if cpus is None:
            monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
        return helpers

    def test_pool_starts_no_more_workers_than_chunks(self, monkeypatch):
        # k workers are this process and k - 1 helpers
        helpers = self._recording_helpers(monkeypatch, cpus=64)
        cfg = ScenarioConfig()
        one_chunk = _spec(distances=(50.0,))
        assert (run_sweep(cfg, one_chunk, "prp", n_workers=8)
                == run_sweep(cfg, one_chunk, "prp"))
        assert helpers == []
        three_chunks = _spec(distances=(50.0, 100.0, 150.0))
        assert (run_sweep(cfg, three_chunks, "prp", n_workers=8)
                == run_sweep(cfg, three_chunks, "prp"))
        assert helpers == [[(1, 0)], [(2, 0)]]

    @pytest.mark.parametrize("cpus, started", [(2, [[(1, 0)]]), (1, []), (None, [])])
    def test_pool_starts_no_more_workers_than_cpus(self, monkeypatch, cpus, started):
        helpers = self._recording_helpers(monkeypatch, cpus)
        cfg = ScenarioConfig()
        spec = _spec(distances=(50.0, 100.0, 150.0))
        assert (run_sweep(cfg, spec, "prp", n_workers=100_000)
                == run_sweep(cfg, spec, "prp"))
        assert helpers == started

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert engine._usable_cpus() == 1
        monkeypatch.delattr(engine.os, "sched_getaffinity")
        assert engine._usable_cpus() == 64

    def test_every_chunk_runs_once_through_the_job_entry_point(
            self, monkeypatch, tmp_path):
        # the benchmark's tracer wraps this name in this process and the helpers
        log = tmp_path / "chunks.log"
        job = engine._chunk_stats_job

        def logged(args):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {args[2]} {args[3]}\n")
            return job(args)

        spec = _spec(n_trials=2 * _CHUNK + 300)
        expected = run_sweep(ScenarioConfig(), spec, "prp")
        monkeypatch.setattr(engine, "_chunk_stats_job", logged)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
        assert run_sweep(ScenarioConfig(), spec, "prp", n_workers=3) == expected
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        chunks = [(p, start) for p in range(2) for start in (0, _CHUNK, 2 * _CHUNK)]
        by_pid = {}
        for pid, point, start in calls:
            by_pid.setdefault(pid, []).append((point, start))
        assert len(calls) == len(chunks)
        assert by_pid.pop(os.getpid()) == chunks[0::3]
        assert sorted(by_pid.values()) == [chunks[1::3], chunks[2::3]]

    @pytest.mark.parametrize("failing, where", [(1, "helper"), (0, "this process")])
    def test_failure_reaches_the_caller_with_its_type(self, monkeypatch, failing, where):
        chunk_stats = engine._chunk_stats

        def failing_chunk(config, seed, point, *rest):
            if point == failing:
                raise _ChunkFailure(point, os.getpid())
            return chunk_stats(config, seed, point, *rest)

        monkeypatch.setattr(engine, "_chunk_stats", failing_chunk)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
        spec = _spec(distances=(50.0, 100.0, 150.0))
        with pytest.raises(_ChunkFailure) as failure:
            run_sweep(ScenarioConfig(), spec, "prp", n_workers=3)
        point, pid = failure.value.args
        assert point == failing
        assert (pid == os.getpid()) == (where == "this process")
        assert multiprocessing.active_children() == []

    def test_helper_that_dies_is_runtime_error(self, monkeypatch):
        chunk_stats = engine._chunk_stats
        parent = os.getpid()

        def dying_chunk(config, seed, point, *rest):
            if point == 1 and os.getpid() != parent:
                os._exit(7)
            return chunk_stats(config, seed, point, *rest)

        monkeypatch.setattr(engine, "_chunk_stats", dying_chunk)
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
        spec = _spec(distances=(50.0, 100.0))
        with pytest.raises(RuntimeError, match="exit code 7"):
            run_sweep(ScenarioConfig(), spec, "prp", n_workers=2)
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

    def test_nonpositive_delay_threshold_rejected(self):
        with pytest.raises(ConfigError, match="delay thresholds"):
            run_sweep(ScenarioConfig(), _spec(t_th=(0.0, 1e-3)), "dor")

    @pytest.mark.parametrize("workers", [0, -3])
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
