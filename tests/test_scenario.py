"""Geometry, weather and interferer-deployment tests."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from rfvlc import (WEATHER_ATTENUATION_DB_PER_KM, WEATHER_KINDS, ConfigError,
                   InvalidArgumentError, ScenarioConfig, SweepSpec, VlcParams,
                   attenuation_factor, draw_deployment, rf_mean_rx_power, rf_noise_power,
                   run_sweep, validate, vlc_noise_power, vlc_rx_electrical_power)
from rfvlc import scenario
from rfvlc.scenario import (_POWER_HEADROOM, EXCLUSION_RADIUS_M, LANE_SAME, LANES,
                            _derived_problems, outside_exclusion, rsu_paths)
from rfvlc.vlc_channel import path_gain


class TestAttenuationFactor:
    def test_clear_weather_is_lossless(self):
        assert attenuation_factor(0.0, 500.0) == 1.0

    def test_zero_distance_is_lossless(self):
        assert attenuation_factor(131.0, 0.0) == 1.0

    def test_dry_snow_one_km(self):
        # 10^(-131 * 1.0 / 10) evaluated directly
        assert attenuation_factor(131.0, 1000.0) == pytest.approx(10.0 ** -13.1, rel=1e-12)

    def test_rain_100m(self):
        # 10^(-21.9 * 0.1 / 10)
        assert attenuation_factor(21.9, 100.0) == pytest.approx(10.0 ** -0.219, rel=1e-12)
        assert attenuation_factor(21.9, 100.0) == pytest.approx(0.6039, abs=5e-5)

    def test_multiplicative_in_distance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            c = rng.uniform(0, 200)
            d1, d2 = rng.uniform(0, 2000, 2)
            f = attenuation_factor
            assert f(c, d1 + d2) == pytest.approx(f(c, d1) * f(c, d2), rel=1e-12)

    def test_strictly_decreasing(self):
        assert attenuation_factor(78.8, 100.0) > attenuation_factor(78.8, 101.0)
        assert attenuation_factor(21.9, 100.0) > attenuation_factor(78.8, 100.0)

    @pytest.mark.parametrize("coeff,dist", [(-1.0, 10.0), (10.0, -1.0)])
    def test_negative_inputs_rejected(self, coeff, dist):
        with pytest.raises(InvalidArgumentError):
            attenuation_factor(coeff, dist)


class TestWeatherPresets:
    def test_preset_coefficients(self):
        assert WEATHER_ATTENUATION_DB_PER_KM == {
            "clear": 0.0, "rain": 21.9, "fog": 78.8, "dry_snow": 131.0}
        assert WEATHER_KINDS == ("clear", "rain", "fog", "dry_snow")

    def test_ordering(self):
        coeffs = [WEATHER_ATTENUATION_DB_PER_KM[k] for k in WEATHER_KINDS]
        assert coeffs == sorted(coeffs)
        assert len(set(coeffs)) == 4

    def test_unknown_kind(self):
        spec = SweepSpec(distances=(50.0,), weathers=("clear", "hail"),
                         modes=("la",), n_trials=100, master_seed=1)
        assert spec.check() == ["sweep.weathers: unknown weather 'hail'"]


def _with_geometry(**changes):
    cfg = ScenarioConfig()
    return dataclasses.replace(cfg, geometry=dataclasses.replace(cfg.geometry, **changes))


class TestPose3:
    # validate checks the RSU mount: the one pose a config carries
    def test_below_ground_rejected(self):
        problems = validate(_with_geometry(rsu_height=-0.1))
        assert "geometry.rsu_height: must be >= 0" in problems


class TestValidate:
    def test_default_config_is_ok(self):
        assert validate(ScenarioConfig()) == []

    def test_default_matches_case_study_values(self):
        cfg = ScenarioConfig()
        assert cfg.lambda_density == 0.01
        assert cfg.rho_access == 0.01
        assert cfg.rho_a == 0.9
        assert cfg.beta_ov == 0.8
        assert cfg.payload_h == 50 * 1024
        assert cfg.vlc.bandwidth == 20e6
        assert cfg.rf.bandwidth == 20e6

    def test_bad_beta_ov(self):
        bad = dataclasses.replace(ScenarioConfig(), beta_ov=1.2)
        assert any("beta_ov" in v for v in validate(bad))

    @pytest.mark.parametrize("field, value", [
        ("rho_access", "0.1"), ("rho_access", None), ("beta_ov", True),
        ("lambda_density", np.bool_(False)), ("payload_h", [1024.0]),
        ("sinr_threshold_rf_db", np.array(5.0))])
    def test_floats_must_be_real_numbers(self, field, value):
        # reported alone, before a range check compares the value
        bad = dataclasses.replace(ScenarioConfig(), **{field: value})
        assert validate(bad) == [f"{field}: must be a real number"]
        with pytest.raises(ConfigError, match=f"^{field}: must be a real number$"):
            run_sweep(bad, SweepSpec(distances=(50.0,), weathers=("clear",), modes=("la",),
                                     n_trials=100, master_seed=1), "prp")

    def test_section_floats_must_be_real_numbers(self):
        cfg = ScenarioConfig()
        bad = dataclasses.replace(cfg, vlc=dataclasses.replace(cfg.vlc, fov="60"),
                                  geometry=dataclasses.replace(cfg.geometry, tx_height=None))
        assert validate(bad) == ["geometry.tx_height: must be a real number",
                                 "vlc.fov: must be a real number"]

    def test_bad_distance(self):
        bad = dataclasses.replace(ScenarioConfig(), distance_r=-5.0)
        assert any("distance_r" in v for v in validate(bad))

    def test_lane_geometry_invariants(self):
        assert validate(_with_geometry(lane_half_length=-1.0)) == [
            "geometry.lane_half_length: must be > 0"]
        assert validate(_with_geometry(tx_height=0.0)) == [
            "geometry.tx_height: must be > 0"]
        assert validate(_with_geometry(tx_height=6.0)) == [  # above the default RSU
            "geometry.rsu_height: must exceed geometry.tx_height"]


def _offset_peak_vlc(near, vlc):
    """The VLC peak power as validate once bounded it: the LOS path from an
    emitter aimed up to a detector near above it facing down, its cosines
    the dot products of the 3-D offset with the two axes over its length."""
    dx, dy, dz = 0.0, 0.0, near
    d2 = dx * dx + dy * dy + dz * dz
    d = np.sqrt(d2)
    cos_phi = (dx * 0.0 + dy * 0.0 + dz * 1.0) / d
    cos_psi = (-dx * 0.0 - dy * 0.0 - dz * -1.0) / d
    return vlc_rx_electrical_power(path_gain(d2, cos_phi, cos_psi, vlc), 1.0, vlc)


def _peak_flagged(peak, noise, bandwidth):
    """Whether validate flags a link of this peak power: not a normal float,
    not finite times _POWER_HEADROOM alone or over the noise, or a peak
    rate whose square times _POWER_HEADROOM overflows."""
    top = peak * _POWER_HEADROOM
    mbps = bandwidth * np.log2(1.0 + top / noise) / 1e6
    return not (peak >= np.finfo(float).tiny and np.isfinite(top)
                and np.isfinite(top / noise) and np.isfinite(mbps * mbps * _POWER_HEADROOM))


class TestPeakBound:
    def test_verdicts_match_the_offset_bound(self, monkeypatch):
        # The VLC peak straight below the RSU takes both cosines as 1.  Through
        # the offsets they are near / sqrt(near**2): 1 unless near**2 is
        # subnormal (near ~1e-160 to 1e-154) or 0.  There a peak that read nan
        # reads inf, and validate flags the link either way.
        gains = []   # the VLC peak gains validate computes
        monkeypatch.setattr(scenario, "path_gain",
                            lambda *args: gains.append(path_gain(*args)) or gains[-1])
        rf = ScenarioConfig().rf
        nears = np.concatenate([np.geomspace(1e-320, 1e300, 150),
                                np.geomspace(1e-160, 1e-154, 60)])
        vlcs = [VlcParams(semi_angle_half_power=angle, fov=fov)
                for angle in (1e-5, 30.0, 60.0, 89.0) for fov in (1e-3, 60.0, 90.0)]
        vlc_verdicts, differ = set(), 0
        for near in nears.tolist():
            for rsu_height, tx_height in ((2.0 * near, near), (near + 0.75, 0.75)):
                if not rsu_height > tx_height:
                    continue
                at = np.float64(rsu_height - tx_height)
                with np.errstate(all="ignore"):
                    flag_rf = _peak_flagged(rf_mean_rx_power(at, rf), rf_noise_power(rf),
                                            rf.bandwidth)
                    for vlc in vlcs:
                        problems = _derived_problems.__wrapped__(vlc, rf, rsu_height,
                                                                 tx_height)
                        old = _offset_peak_vlc(at, vlc)
                        new = vlc_rx_electrical_power(gains.pop(), 1.0, vlc)
                        if old.tobytes() != new.tobytes():
                            # near**2 is 0 or subnormal: inf * 0 was nan
                            assert np.isnan(old) and new == math.inf, (near, vlc)
                            differ += 1
                        flag_vlc = _peak_flagged(old, vlc_noise_power(vlc), vlc.bandwidth)
                        flagged = {p.split(":")[0] for p in problems}
                        want = {link for link, flag in (("vlc", flag_vlc), ("rf", flag_rf))
                                if flag}
                        assert flagged == want, (rsu_height, tx_height, vlc, problems)
                        vlc_verdicts.add(flag_vlc)
        # the VLC link both flagged and passed, and the subnormal corner reached
        assert vlc_verdicts == {False, True} and differ > 0


def _interferer_counts(config, deployment):
    """Interferers per lane and trial: the lane points outside the
    exclusion radius, counted over Deployment.trial."""
    counts = []
    for lane, part in zip(LANES, deployment.lanes):
        active = outside_exclusion(config, lane, deployment.coord[part])
        counts.append(np.bincount(deployment.trial[part][active], minlength=deployment.n))
    return np.array(counts)


def _lane_counts(config, seed, n_draws, chunk=4096):
    # interferers per (lane, draw), from kernel deployments of at most
    # chunk trials each (as the engine draws them) from one generator
    rng = np.random.default_rng(seed)
    return np.concatenate([_interferer_counts(config, draw_deployment(
        config, rng, min(chunk, n_draws - start))) for start in range(0, n_draws, chunk)],
        axis=1)


def _count_draws(config, seed, n_draws):
    return _lane_counts(config, seed, n_draws).sum(axis=0)


def _interferers(config, seed, n_draws):
    """(lane, x, y, paths) of the interferers of n_draws trials, lane by
    lane: their centerline positions and rsu_paths at them."""
    geo = config.geometry
    deployment = draw_deployment(config, np.random.default_rng(seed), n_draws)
    for lane, part in zip(LANES, deployment.lanes):
        coord = deployment.coord[part]
        active = outside_exclusion(config, lane, coord)
        coord = coord[active]
        across = np.full_like(coord, geo.lane_y_offset if lane == LANE_SAME
                              else geo.lane_x_offset)
        x, y = (coord, across) if lane == LANE_SAME else (across, coord)
        yield lane, x, y, rsu_paths(config, lane, coord)


class TestSampleInterferers:
    def test_zero_density_always_empty(self):
        cfg = dataclasses.replace(ScenarioConfig(), lambda_density=0.0)
        assert all(len(x) == 0 for _, x, _, _ in _interferers(cfg, 1, 50))
        assert not _lane_counts(cfg, 1, 50).any()

    def test_zero_access_always_empty(self):
        cfg = dataclasses.replace(ScenarioConfig(), rho_access=0.0)
        assert all(len(x) == 0 for _, x, _, _ in _interferers(cfg, 2, 50))
        assert not _lane_counts(cfg, 2, 50).any()

    def test_mean_count_matches_thinned_poisson(self):
        # mean per lane = lambda * rho * 2L = 0.01 * 0.01 * 1000 = 0.1
        cfg = ScenarioConfig()
        counts = _count_draws(cfg, 1234, 100_000)
        target = 2 * 0.1  # two lanes
        stderr = counts.std(ddof=1) / math.sqrt(len(counts))
        assert abs(counts.mean() - target) < 3 * stderr

    def test_poisson_dispersion(self):
        # lambda=0.01, rho=1: mean per lane = 10, variance = mean
        cfg = dataclasses.replace(ScenarioConfig(), rho_access=1.0)
        same = _lane_counts(cfg, 99, 20_000)[LANE_SAME]
        assert same.mean() == pytest.approx(10.0, abs=0.15)
        assert same.var(ddof=1) == pytest.approx(same.mean(), rel=0.05)

    def test_count_distribution_chi_square(self):
        # Counts on one lane vs Poisson(0.1), 1% level, pinned seed.  The
        # desired vehicle's exclusion disc removes an expected 2 m / 1000 m
        # of the lane mass; negligible against these bin widths.
        cfg = ScenarioConfig()
        same = _lane_counts(cfg, 2024, 100_000)[LANE_SAME]
        mean = 0.1
        observed = np.array([(same == 0).sum(), (same == 1).sum(), (same >= 2).sum()])
        p0 = stats.poisson.pmf(0, mean)
        p1 = stats.poisson.pmf(1, mean)
        expected = len(same) * np.array([p0, p1, 1.0 - p0 - p1])
        _, pvalue = stats.chisquare(observed, expected)
        assert pvalue > 0.01

    def test_thinning_composition(self):
        # (lambda, rho) and (lambda*rho, 1) are distributionally identical.
        a = dataclasses.replace(ScenarioConfig(), lambda_density=0.01, rho_access=0.5)
        b = dataclasses.replace(ScenarioConfig(), lambda_density=0.005, rho_access=1.0)
        ca = _count_draws(a, 5, 40_000).astype(float)
        cb = _count_draws(b, 6, 40_000).astype(float)
        pooled = math.sqrt(ca.var(ddof=1) / len(ca) + cb.var(ddof=1) / len(cb))
        assert abs(ca.mean() - cb.mean()) < 3 * pooled

    def test_positions_on_centerlines_at_tx_height(self):
        # rsu_paths puts each headlamp on its lane's centerline at
        # tx_height, aimed horizontally along the lane toward the
        # intersection: its distance and emission cosine are those of that
        # pose, worked out here from plain vectors
        cfg = dataclasses.replace(ScenarioConfig(), lambda_density=0.05, rho_access=1.0)
        geo = cfg.geometry
        rsu = geo.rsu_pose
        for lane, x, y, (d2, d, cos_phi, _) in _interferers(cfg, 3, 20):
            assert len(x) > 0
            along = x if lane == LANE_SAME else y
            assert (np.abs(along) <= geo.lane_half_length).all()
            to_rsu = np.stack([rsu.x - x, rsu.y - y,
                               np.full_like(x, rsu.z - geo.tx_height)], axis=1)
            axis = np.zeros_like(to_rsu)
            axis[:, lane] = -np.sign(along)   # lane 0 runs along x, lane 1 along y
            norm = np.linalg.norm(to_rsu, axis=1)
            np.testing.assert_allclose(d2, norm * norm, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(d, norm, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(cos_phi, (axis * to_rsu).sum(axis=1) / norm,
                                       rtol=1e-14, atol=0.0)

    def test_exclusion_radius(self):
        cfg = dataclasses.replace(ScenarioConfig(), lambda_density=1.0,
                                  rho_access=1.0, distance_r=100.0)
        for _, x, y, _ in _interferers(cfg, 4, 20):
            d = np.hypot(x - cfg.distance_r, y - cfg.geometry.lane_y_offset)
            assert (d > EXCLUSION_RADIUS_M).all()
        # the radius really removes drawn points
        deployment = draw_deployment(cfg, np.random.default_rng(4), 20)
        assert _interferer_counts(cfg, deployment).sum() < len(deployment.coord)


class TestPoissonization:
    """One draw_deployment call draws each lane's n trial copies as one
    Poisson process: per-trial counts iid Poisson, the lanes independent."""

    N = 200_000

    @staticmethod
    def _counts(deployment):
        # points per (lane, trial), exclusion disc not applied
        return np.array([np.bincount(deployment.trial[part], minlength=deployment.n)
                         for part in deployment.lanes])

    @pytest.mark.parametrize("rho_access, seed", [(0.01, 21), (0.3, 22)],
                             ids=["sparse_0.1", "mean_3"])
    def test_per_trial_counts_are_poisson(self, rho_access, seed):
        config = dataclasses.replace(ScenarioConfig(), rho_access=rho_access)
        mean = config.lambda_density * rho_access * 2.0 * config.geometry.lane_half_length
        deployment = draw_deployment(config, np.random.default_rng(seed), self.N)
        counts = self._counts(deployment)
        assert counts.shape == (len(LANES), self.N) and counts.sum() == len(deployment.coord)
        for lane in counts:
            # mean, to 4 SE of a Poisson sample mean
            assert abs(lane.mean() - mean) < 4 * math.sqrt(mean / self.N)
            # dispersion var / mean = 1, to 4 SE: sqrt((2 + 1 / mean) / N) for a Poisson
            assert abs(lane.var(ddof=1) / lane.mean() - 1.0) < \
                4 * math.sqrt((2.0 + 1.0 / mean) / self.N)
            # P(0) and P(1), to 4 binomial SE
            for k in (0, 1):
                p = stats.poisson.pmf(k, mean)
                assert abs((lane == k).mean() - p) < 4 * math.sqrt(p * (1 - p) / self.N)
        # the lanes' counts are uncorrelated, to 4 SE of a sample correlation
        assert abs(np.corrcoef(counts)[0, 1]) < 4 / math.sqrt(self.N)

    def test_trials_cover_the_chunk_uniformly(self):
        # each point's trial, over a 4096-trial chunk in 64 bands of 64
        # trials, against the uniform law (pinned seed, 1% level); both
        # lanes alike
        config = dataclasses.replace(ScenarioConfig(), rho_access=1.0)
        deployment = draw_deployment(config, np.random.default_rng(23), 4096)
        assert deployment.trial.dtype == np.int32
        for part in deployment.lanes:
            trial = deployment.trial[part]
            assert trial.min() == 0 and trial.max() == deployment.n - 1
            observed = np.bincount(trial // 64, minlength=64)
            assert observed.sum() > 30_000
            assert stats.chisquare(observed).pvalue > 0.01


class TestDeploymentDraw:
    @pytest.mark.parametrize("rho_access", [1e-2, 1.0])
    def test_draw_deployment_reads_the_totals_then_the_trials_then_the_positions(
            self, rho_access):
        config = dataclasses.replace(ScenarioConfig(), rho_access=rho_access, distance_r=30.0)
        rng, by_hand = np.random.default_rng(5), np.random.default_rng(5)
        deployment = draw_deployment(config, rng, 500)
        L = config.geometry.lane_half_length
        totals = by_hand.poisson(config.lambda_density * config.rho_access * 2.0 * L * 500, 2)
        trial = by_hand.integers(0, 500, totals.sum(), dtype=np.int32)
        coord = by_hand.uniform(-L, L, totals.sum())
        assert deployment.n == 500
        assert deployment.lanes == (slice(0, totals[0]), slice(totals[0], totals.sum()))
        assert deployment.trial.tobytes() == trial.tobytes()
        assert deployment.coord.tobytes() == coord.tobytes()
        assert rng.random() == by_hand.random()
        # the interferers per lane and trial, counted over the drawn trials
        want = np.zeros((len(LANES), 500), dtype=np.int64)
        for lane, part in zip(LANES, deployment.lanes):
            keep = outside_exclusion(config, lane, coord[part])
            np.add.at(want[lane], trial[part][keep], 1)
        got = _interferer_counts(config, deployment)
        assert np.array_equal(got, want)
        assert 0 < got.sum() <= len(coord)
