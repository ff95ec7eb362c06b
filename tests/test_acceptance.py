"""Acceptance gate: one criterion per test, one printed verdict line each.

Criteria 1-6, 9, 10 are expected to pass.  Criterion 7 (its cross-mode DOR
clause) and criterion 8 encode targets that the calibrated physics cannot
meet; they are implemented exactly as stated and are expected to fail, with
the failure message explaining the mechanism.  See the README.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest
from scipy import stats

from rfvlc import (FADING_RAYLEIGH, MODE_LA, MODE_PURE_RF, MODE_PURE_VLC,
                   RfParams, WEATHER_KINDS, ScenarioConfig, SweepSpec,
                   db_to_linear, derive_seed, draw_deployment, prp_rf_closed_form,
                   run_sweep, sample_fading, simulate_trials, vlc_cutoff_distance,
                   vlc_snr)
from rfvlc import engine
from rfvlc.cli import main as cli_main
from rfvlc.engine import trial_rng
from rfvlc.scenario import LANE_SAME, outside_exclusion

ALL_WEATHERS = WEATHER_KINDS
CLEAR = ("clear",)


def _verdict(capsys, cid, ok, detail):
    with capsys.disabled():
        print(f"[acceptance] criterion {cid:>2}: "
              f"{'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def test_criterion_01_rf_oracle_equivalence(capsys):
    """lambda=0 Rayleigh Monte Carlo PRP matches the closed form, < 10 s."""
    t0 = time.monotonic()
    cfg = dataclasses.replace(ScenarioConfig(), lambda_density=0.0)
    spec = SweepSpec(distances=(50.0, 100.0, 200.0),
                     weathers=CLEAR, modes=(MODE_PURE_RF,), n_trials=100_000,
                     master_seed=101)
    rows = run_sweep(cfg, spec, "prp")
    worst = 0.0
    for row in rows:
        exact = prp_rf_closed_form(cfg.with_distance(row.distance))
        z = abs(row.estimate.value - exact) / max(row.estimate.stderr, 1e-9)
        worst = max(worst, z)
    elapsed = time.monotonic() - t0
    ok = worst < 3.0 and elapsed < 10.0
    _verdict(capsys, 1, ok,
             f"RF closed-form match, worst |z| = {worst:.2f} (< 3), "
             f"{elapsed:.1f} s (< 10 s)")


def test_criterion_02_vlc_oracle_equivalence(capsys):
    """lambda=0 VLC PRP equals the 0/1 oracle around d*; d* seed-stable."""
    cfg = dataclasses.replace(ScenarioConfig(), lambda_density=0.0)
    theta_v = db_to_linear(cfg.sinr_threshold_vlc_db)
    clear = CLEAR[0]
    cutoff = vlc_cutoff_distance(cfg, clear, theta_v, tol=1e-4)

    distances = np.linspace(cutoff - 10.0, cutoff + 10.0, 20)
    mismatches = 0
    for seed in (1, 2, 3):
        for d in distances:
            point = cfg.with_distance(float(d))
            oracle = vlc_snr(point, clear) >= theta_v
            sinr_vlc, _ = simulate_trials(cfg, (float(d),), CLEAR,
                                          trial_rng(derive_seed(seed, 0, 0)), 200)
            mc = (sinr_vlc[0, 0] >= theta_v).mean()
            if mc != oracle:
                mismatches += 1
        # the Monte Carlo step sits at d* itself for every seed
        lo = cfg.with_distance(cutoff - 0.05)
        hi = cfg.with_distance(cutoff + 0.05)
        if not vlc_snr(lo, clear) >= theta_v > vlc_snr(hi, clear):
            mismatches += 1
    ok = mismatches == 0
    _verdict(capsys, 2, ok,
             f"VLC step oracle exact at 20x3 bracketing points, "
             f"d* = {cutoff:.2f} m stable to < 0.1 m ({mismatches} mismatches)")


@pytest.fixture(scope="module")
def prp_grid_rows():
    spec = SweepSpec(distances=tuple(float(d) for d in range(10, 251, 10)),
                     weathers=ALL_WEATHERS,
                     modes=(MODE_PURE_VLC, MODE_PURE_RF, MODE_LA),
                     n_trials=10_000, master_seed=303)
    return spec, run_sweep(ScenarioConfig(), spec, "prp")


def test_criterion_03_la_dominance(capsys, prp_grid_rows):
    """PRP(la) >= max(pure) on every point of the 25 x 4 grid, exactly."""
    spec, rows = prp_grid_rows
    violations = 0
    for value in spec.distances:
        for weather in spec.weathers:
            by_mode = {r.mode: r.estimate.value for r in rows
                       if r.distance == value and r.weather == weather}
            if by_mode[MODE_LA] < max(by_mode[MODE_PURE_VLC],
                                      by_mode[MODE_PURE_RF]):
                violations += 1
    ok = violations == 0
    _verdict(capsys, 3, ok,
             f"PRP(la) >= max(pure modes) on all 100 grid points "
             f"({violations} violations)")


def test_criterion_04_weather_ordering(capsys, prp_grid_rows):
    """VLC reception ordered clear >= rain >= fog >= dry_snow; RF untouched.

    The comparison is per trial on shared seeds, so it is exact: with the
    same deployment and fading draws, a packet received under worse weather
    must also be received under better weather.  (The raw SINR itself is
    not pointwise monotone: weather attenuates a far interferer more than
    a near desired signal, which can raise the SINR of an interference-
    dominated near-field trial without ever changing reception.)  The
    kernel returns one RF SINR array for all weathers, so per trial RF is
    weather-invariant by construction; the engine-level check below still
    compares the pure-RF rows of every weather.
    """
    cfg = ScenarioConfig()
    theta_v = db_to_linear(cfg.sinr_threshold_vlc_db)
    bad = 0
    for d in range(10, 251, 20):
        # rows: weathers, best first; columns: the 200 shared trials
        sinr_vlc, _ = simulate_trials(cfg, (float(d),), ALL_WEATHERS,
                                      trial_rng(derive_seed(404, d, 0)), 200)
        ok_v = sinr_vlc[0] >= theta_v
        bad += int((ok_v[1:] > ok_v[:-1]).any(axis=0).sum())
    # engine level: VLC-involving PRP ordered, pure-RF estimates identical
    spec, rows = prp_grid_rows
    for value in spec.distances:
        for mode in (MODE_PURE_VLC, MODE_LA):
            by_weather = {r.weather: r.estimate.value for r in rows
                          if r.distance == value and r.mode == mode}
            curve = [by_weather[w] for w in ALL_WEATHERS]
            if any(b > a for a, b in zip(curve, curve[1:])):
                bad += 1
        rf_rows = {r.estimate for r in rows
                   if r.distance == value and r.mode == MODE_PURE_RF}
        if len(rf_rows) != 1:
            bad += 1
    ok = bad == 0
    _verdict(capsys, 4, ok,
             f"per-trial VLC reception weather-monotone, PRP curves ordered, "
             f"RF weather-invariant ({bad} violations)")


def test_criterion_05_prp_crossover(capsys):
    """Clear-weather VLC / RF PRP curves cross once in [100, 140] m."""
    t0 = time.monotonic()
    spec = SweepSpec(distances=tuple(float(d) for d in range(50, 251, 10)),
                     weathers=CLEAR, modes=(MODE_PURE_VLC, MODE_PURE_RF),
                     n_trials=100_000, master_seed=505)
    rows = run_sweep(ScenarioConfig(), spec, "prp")
    diff = []
    for value in spec.distances:
        by_mode = {r.mode: r.estimate.value for r in rows
                   if r.distance == value}
        diff.append(by_mode[MODE_PURE_VLC] - by_mode[MODE_PURE_RF])
    crossings = [(spec.distances[i], spec.distances[i + 1])
                 for i in range(len(diff) - 1)
                 if diff[i] > 0.0 >= diff[i + 1]]
    elapsed = time.monotonic() - t0
    ok = (len(crossings) == 1 and crossings[0][0] >= 100.0
          and crossings[0][1] <= 140.0 and elapsed < 120.0)
    where = crossings[0] if crossings else None
    _verdict(capsys, 5, ok,
             f"single PRP crossover in {where} m (target [100, 140]), "
             f"{elapsed:.0f} s (< 120 s)")


def test_criterion_06_rate_endpoints(capsys):
    """Calibrated LA mean rate: 83.2 Mbps +-25% at 50 m, 39.8 +-25% at 250 m."""
    spec = SweepSpec(distances=(50.0, 100.0, 150.0, 200.0, 250.0),
                     weathers=CLEAR, modes=(MODE_LA,), n_trials=20_000,
                     master_seed=606)
    rows = run_sweep(ScenarioConfig(), spec, "rate_mbps")
    rate = {r.distance: r.estimate.value for r in rows}
    ok = (abs(rate[50.0] - 83.2) <= 0.25 * 83.2
          and abs(rate[250.0] - 39.8) <= 0.25 * 39.8
          and all(rate[d] >= 10.0 for d in (100.0, 150.0, 200.0, 250.0)))
    _verdict(capsys, 6, ok,
             f"LA rate {rate[50.0]:.1f} Mbps at 50 m (62.4-104.0), "
             f"{rate[250.0]:.1f} at 250 m (29.9-49.8), "
             f">= 10 Mbps beyond 100 m")


@pytest.fixture(scope="module")
def dor_grid():
    """Default DOR grid: t_th 0.5-10 ms at 50 and 200 m, all weathers."""
    thresholds = (0.5e-3, 1e-3, 1.5e-3, 2e-3, 2.5e-3, 3e-3, 4e-3, 5e-3,
                  7.5e-3, 10e-3)
    spec = SweepSpec(distances=(50.0, 200.0), t_th=thresholds,
                     weathers=ALL_WEATHERS,
                     modes=(MODE_PURE_VLC, MODE_PURE_RF, MODE_LA),
                     n_trials=10_000, master_seed=707)
    return spec, run_sweep(ScenarioConfig(), spec, "dor")


def test_criterion_07a_dor_monotone(capsys, dor_grid):
    """DOR nonincreasing in t_th for every (distance, weather, mode) curve."""
    spec, rows = dor_grid
    bad = 0
    for distance in spec.distances:
        for weather in spec.weathers:
            for mode in spec.modes:
                curve = [r.estimate.value for r in rows
                         if r.distance == distance and r.weather == weather
                         and r.mode == mode]
                if any(b > a for a, b in zip(curve, curve[1:])):
                    bad += 1
    ok = bad == 0
    _verdict(capsys, "7a", ok,
             f"DOR nonincreasing in t_th on all 24 curves ({bad} violations)")


def test_criterion_07b_dor_la_dominance(capsys, dor_grid):
    """DOR(la) <= min(DOR of pure modes) over the whole grid.

    Expected to fail: whenever the weaker link carries less than a
    quarter of the stronger one, the overhead-discounted aggregated rate
    0.8 * (r_weak + r_strong) falls below r_strong, so any delay
    threshold between the two rates makes aggregation late while the
    better pure mode is on time.  An overhead-discounted sum cannot
    dominate its best summand at every threshold.
    """
    spec, rows = dor_grid
    violations = []
    for distance in spec.distances:
        for t_th in spec.t_th:
            for weather in spec.weathers:
                by_mode = {r.mode: r.estimate.value for r in rows
                           if r.distance == distance and r.t_th == t_th
                           and r.weather == weather}
                if by_mode[MODE_LA] > min(by_mode[MODE_PURE_VLC],
                                          by_mode[MODE_PURE_RF]) + 1e-12:
                    violations.append((distance, weather, t_th * 1e3,
                                       by_mode[MODE_LA],
                                       min(by_mode[MODE_PURE_VLC],
                                           by_mode[MODE_PURE_RF])))
    ok = not violations
    sample = violations[0] if violations else None
    _verdict(capsys, "7b", ok,
             f"DOR(la) <= min(pure) over 80 grid cells: "
             f"{len(violations)} violations"
             + (f", e.g. {sample[0]:.0f} m / {sample[1]} / "
                f"{sample[2]:.1f} ms: DOR(la) = {sample[3]:.4f} > "
                f"{sample[4]:.4f}; with one link much weaker than the "
                f"other the aggregated rate is ~0.8x the stronger pure "
                f"rate per trial, so thresholds between the two rates "
                f"penalize aggregation" if sample else ""))


def test_criterion_07c_mtt_fixture(capsys):
    """115.2 Mbps, 50 KB payload -> minimum transmission time 3.556 ms."""
    from rfvlc import minimum_transmission_time
    t = minimum_transmission_time(115.2e6, 50 * 1024)
    err = abs(t - 409600 / 115.2e6)
    ok = err < 1e-9 and abs(t - 3.556e-3) < 1e-6
    _verdict(capsys, "7c", ok,
             f"MTT fixture 3.556 ms reproduced (error {err:.1e})")


def test_criterion_08_la_dor_tail(capsys):
    """LA DOR < 1e-3 at 200 m, clear, t_th = 3 ms, 10^6 trials.

    Expected to fail: at 3 ms a 50 KB payload needs an instantaneous
    aggregated rate of 136.5 Mbps.  At 200 m the optical link is beyond
    its ~122 m cutoff and the calibrated radio link averages ~45 Mbps, so
    nearly every trial is in outage; the target would need a mean rate
    roughly three times the long-range calibration targets.
    """
    spec = SweepSpec(distances=(200.0,), t_th=(3e-3,), weathers=CLEAR,
                     modes=(MODE_LA,), n_trials=1_000_000, master_seed=808)
    row, = run_sweep(ScenarioConfig(), spec, "dor", n_workers=4)
    value = row.estimate.value
    ok = value < 1e-3
    _verdict(capsys, 8, ok,
             f"LA DOR at 200 m / 3 ms = {value:.4f} (target < 1e-3); "
             f"3 ms requires an instantaneous 136.5 Mbps while the 200 m "
             f"mean aggregated rate is ~45 Mbps, so outage is near-certain")


@pytest.mark.skipif(not os.environ.get("RFVLC_LONG_TESTS"),
                    reason="10^7-trial tail estimate; set RFVLC_LONG_TESTS=1")
def test_criterion_08_long_tail_estimate(capsys):
    """Optional 10^7-trial version of the 3 ms tail probe."""
    spec = SweepSpec(distances=(200.0,), t_th=(3e-3,), weathers=CLEAR,
                     modes=(MODE_LA,), n_trials=10_000_000, master_seed=808)
    row, = run_sweep(ScenarioConfig(), spec, "dor", n_workers=8)
    value = row.estimate.value
    _verdict(capsys, "8L", value < 1e-3,
             f"LA DOR at 200 m / 3 ms over 10^7 trials = {value:.6f}")


def test_criterion_09_determinism(capsys, tmp_path, monkeypatch, forced_split):
    """prp-sweep: rerun and worker-count changes are byte-identical."""
    # this small sweep would run in one process: let it split three ways,
    # one chunk index each
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 3)
    dirs = [str(tmp_path / n) for n in ("a", "b", "c")]
    base = ["prp-sweep", "--distances", "50,100,150", "--weather",
            "clear,dry_snow", "--trials", "9000", "--seed", "909"]
    rcs = [cli_main(base + ["--out", dirs[0]]),
           cli_main(base + ["--out", dirs[1]]),
           cli_main(base + ["--out", dirs[2], "--workers", "3"])]
    texts = []
    for d in dirs:
        with open(os.path.join(d, "prp_sweep.csv"), encoding="utf-8") as fh:
            texts.append(fh.read())
    assert len(forced_split) == 2   # the third run split three ways
    ok = rcs == [0, 0, 0] and texts[0] == texts[1] == texts[2]
    _verdict(capsys, 9, ok,
             "prp-sweep CSVs byte-identical across reruns and 1 vs 3 workers")


def test_criterion_10_statistical_sanity(capsys):
    """Poisson deployment chi-square and fading mean / KS at the 1% level."""
    cfg = ScenarioConfig()
    deployment = draw_deployment(cfg, np.random.default_rng(1010), 50_000)
    part = deployment.lanes[LANE_SAME]
    active = outside_exclusion(cfg, LANE_SAME, deployment.coord[part])
    same = np.bincount(deployment.trial[part][active], minlength=deployment.n)
    p0 = stats.poisson.pmf(0, 0.1)
    p1 = stats.poisson.pmf(1, 0.1)
    observed = np.array([(same == 0).sum(), (same == 1).sum(), (same >= 2).sum()])
    expected = len(same) * np.array([p0, p1, 1.0 - p0 - p1])
    _, p_chi = stats.chisquare(observed, expected)

    rng = np.random.default_rng(1011)
    p = RfParams(fading=FADING_RAYLEIGH)
    draws = sample_fading(p, rng, 50_000)
    stderr = draws.std(ddof=1) / math.sqrt(len(draws))
    mean_ok = abs(draws.mean() - 1.0) < 3 * stderr
    _, p_ks = stats.kstest(draws[:20_000], "expon")

    ok = p_chi > 0.01 and p_ks > 0.01 and mean_ok
    _verdict(capsys, 10, ok,
             f"Poisson chi-square p = {p_chi:.3f}, fading KS p = {p_ks:.3f}, "
             f"unit mean within 3 SE (all at 1% level)")
