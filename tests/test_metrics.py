"""Coupled-trial SINR and PRP / rate / DOR metric tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from rfvlc import (InvalidArgumentError, MODE_LA, MODE_NON_LA, MODE_PURE_RF,
                   MODE_PURE_VLC, MODES, ScenarioConfig, SweepSpec,
                   UnsupportedModelError, WEATHER_ATTENUATION_DB_PER_KM, WEATHER_KINDS,
                   attenuation_factor,
                   db_to_linear, draw_deployment, minimum_transmission_time,
                   outage_rate, prp_rf_closed_form, rf_mean_rx_power,
                   rf_noise_power, run_sweep, mode_rates, mode_success, simulate_trials, sinr,
                   vlc_cutoff_distance, vlc_noise_power, vlc_rx_electrical_power,
                   vlc_snr)
from rfvlc.estimate import proportion_estimates
from rfvlc.scenario import LANE_SAME, LANES, outside_exclusion, rsu_links

NO_INTERFERENCE = dataclasses.replace(ScenarioConfig(), lambda_density=0.0)
# Both decode thresholds at 0 dB: a link decodes iff its SINR >= 1.
UNIT = dataclasses.replace(ScenarioConfig(), sinr_threshold_vlc_db=0.0,
                           sinr_threshold_rf_db=0.0)
VLC, RF, LA, NON_LA = (MODES.index(m) for m in
                       (MODE_PURE_VLC, MODE_PURE_RF, MODE_LA, MODE_NON_LA))
CLEAR = "clear"
ALL_WEATHERS = WEATHER_KINDS


def _desired_distance(config):
    # the desired vehicle is lane point distance_r of the same lane
    return float(rsu_links(config, LANE_SAME, config.distance_r)[0])


def _rf_prp_without_interference(config):
    # exp(-theta N / P0): the desired link's Rayleigh fade alone
    theta = db_to_linear(config.sinr_threshold_rf_db)
    p0 = rf_mean_rx_power(_desired_distance(config), config.rf)
    return math.exp(-theta * rf_noise_power(config.rf) / p0)


def _trials(config, seed, n, weather=CLEAR):
    # (sinr_vlc[n], sinr_rf[n]) of one kernel call at config's distance in
    # one weather
    sinr_vlc, sinr_rf = simulate_trials(config, (config.distance_r,), (weather,),
                                        np.random.default_rng(seed), n)
    return sinr_vlc[0, 0], sinr_rf[0]


class TestSinr:
    def test_worked_example(self):
        assert sinr(1e-12, 3e-13, 2e-13) == pytest.approx(2.0, rel=1e-12)

    def test_interference_free(self):
        assert sinr(4e-14, 0.0, 2e-14) == pytest.approx(2.0, rel=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(InvalidArgumentError):
            sinr(1.0, 0.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            sinr(-1.0, 0.0, 1.0)

    def test_in_place_gives_the_same_bits(self):
        # out may be the interference sums themselves, a strided view of a
        # group's [W, trials] sums, as a pooled chunk's SINRs are written
        rng = np.random.default_rng(3)
        signal, noise = rng.random((4, 1)) * 1e-11, 1e-13
        sums = rng.random((4, 50)) * 1e-12
        view = sums[:, 10:30]
        want = sinr(signal, view, noise)
        got = sinr(signal, view, noise, out=view)
        assert got is view and want.tobytes() == view.tobytes()
        assert not np.shares_memory(want, sums)
        # a negative term is caught before anything is written, a NaN
        # beside it hiding nothing
        sums[1, 5], sums[2, 7] = -1e-15, np.nan
        before = sums.copy()
        for out in (None, sums):
            with pytest.raises(InvalidArgumentError):
                sinr(signal, sums, noise, out=out)
            with pytest.raises(InvalidArgumentError):
                sinr(-signal, np.abs(sums), noise, out=out)
        assert sums.tobytes() == before.tobytes()

    def test_db_to_linear(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
        assert db_to_linear(-25.7) == pytest.approx(10.0 ** -2.57, rel=1e-12)
        # beyond the float range: inf and 0 rather than OverflowError
        assert db_to_linear(5000.0) == math.inf
        assert db_to_linear(-5000.0) == 0.0


class TestRunTrial:
    def test_vlc_sinr_deterministic_without_interferers(self):
        sinr_vlc, _ = _trials(NO_INTERFERENCE, 31, 500)
        values = set(sinr_vlc.tolist())
        assert len(values) == 1
        assert values.pop() == vlc_snr(NO_INTERFERENCE, CLEAR)
        deployment = draw_deployment(NO_INTERFERENCE, np.random.default_rng(31), 500)
        assert not deployment.coord.size   # no lane point, hence no interferer

    def test_rf_sinr_is_scaled_exponential_without_interferers(self):
        # sinr_rf = (P_mean / N) * g with g ~ exp(1)
        cfg = NO_INTERFERENCE
        scale = rf_mean_rx_power(_desired_distance(cfg), cfg.rf) / rf_noise_power(cfg.rf)
        draws = _trials(cfg, 32, 20_000)[1] / scale
        _, pvalue = stats.kstest(draws, "expon")
        assert pvalue > 0.01

    def test_weather_scales_vlc_by_square_of_field_loss(self):
        cfg = NO_INTERFERENCE
        snow = "dry_snow"
        field = 10.0 ** (-131.0 * (_desired_distance(cfg) / 1000.0) / 10.0)
        assert vlc_snr(cfg, snow) / vlc_snr(cfg, CLEAR) == pytest.approx(
            field * field, rel=1e-9)

    def test_weather_does_not_touch_rf(self):
        clear = _trials(NO_INTERFERENCE, 33, 200)[1]
        fog = _trials(NO_INTERFERENCE, 33, 200, "fog")[1]
        assert np.array_equal(clear, fog)

    def test_interference_only_reduces_sinr(self):
        # same seeds, same desired draws; adding interferers can only hurt
        base = _trials(NO_INTERFERENCE, 34, 300)
        dense = _trials(dataclasses.replace(ScenarioConfig(), lambda_density=0.2,
                                            rho_access=1.0), 34, 300)
        # deployment draws shift the stream, so compare distributions instead
        assert dense[1].mean() < base[1].mean()
        assert dense[0].mean() <= base[0].mean()


class TestSuccessAndPrp:
    def test_mode_truth_table(self):
        # both, VLC only, RF only, neither
        ok = mode_success(np.array([2.0, 2.0, 0.5, 0.5]),
                          np.array([2.0, 0.5, 2.0, 0.5]), UNIT)
        assert [tuple(col) for col in ok.T.tolist()] == [
            (True, True, True, True), (True, False, True, True),
            (False, True, True, True), (False, False, False, False)]

    def test_threshold_is_inclusive(self):
        ok = mode_success(1.0, 1.0, UNIT)
        assert ok.shape == (len(MODES),)
        assert ok.tolist() == [True, True, True, True]
        assert not mode_success(np.nextafter(1.0, 0.0), np.nextafter(1.0, 0.0), UNIT).any()

    def test_la_dominates_pure_modes_per_trial(self):
        cfg = dataclasses.replace(ScenarioConfig(), lambda_density=0.05,
                                  rho_access=0.5)
        ok = mode_success(*_trials(cfg, 35, 2000), cfg)
        assert (ok[LA] >= ok[VLC]).all()
        assert (ok[LA] >= ok[RF]).all()
        assert np.array_equal(ok[LA], ok[NON_LA])

    def test_prp_counts(self):
        ok = mode_success(np.array([2.0, 0.5, 2.0, 0.5]),
                          np.array([0.5, 0.5, 2.0, 2.0]), UNIT)
        assert proportion_estimates(int(ok[VLC].sum()), 4)[0] == 0.5
        assert proportion_estimates(int(ok[LA].sum()), 4)[0] == 0.75


class TestScoreModes:
    """mode_success and mode_rates: one row per mode, in MODES order."""

    def test_rows_follow_modes_and_wrappers(self):
        # each column of the array call is the scalar call on that trial
        cfg = UNIT
        sinr_vlc = np.array([0.0, 0.5, 2.0, 15.0])
        sinr_rf = np.array([15.0, 0.5, 0.5, 15.0])
        ok = mode_success(sinr_vlc, sinr_rf, cfg)
        rate = mode_rates(sinr_vlc, sinr_rf, cfg)
        assert ok.shape == rate.shape == (len(MODES), 4)
        for j, (v, r) in enumerate(zip(sinr_vlc, sinr_rf)):
            ok_j = mode_success(float(v), float(r), cfg)
            rate_j = mode_rates(float(v), float(r), cfg)
            assert ok_j.shape == rate_j.shape == (len(MODES),)
            assert ok[:, j].tolist() == ok_j.tolist()
            assert ok_j.tolist() == [v >= 1.0, r >= 1.0, max(v, r) >= 1.0,
                                     max(v, r) >= 1.0]
            np.testing.assert_allclose(rate[:, j], rate_j, rtol=1e-12)

    def test_weather_axis_broadcasts(self):
        # sinr_vlc[W, n] with the shared sinr_rf[n]: block w is the call
        # with weather w's row alone, bit for bit
        cfg = dataclasses.replace(ScenarioConfig(), lambda_density=0.05,
                                  rho_access=0.5)
        sinr_vlc, sinr_rf = (row[0] for row in simulate_trials(
            cfg, (cfg.distance_r,), ALL_WEATHERS, np.random.default_rng(40), 500))
        for score in (mode_success, mode_rates):
            both = score(sinr_vlc, sinr_rf, cfg)
            assert both.shape == (len(ALL_WEATHERS), len(MODES), 500)
            for w in range(len(ALL_WEATHERS)):
                assert np.array_equal(both[w], score(sinr_vlc[w], sinr_rf, cfg))

    def test_unknown_or_repeated_modes_rejected(self):
        for modes in (("teleport",), (MODE_LA, MODE_LA)):
            for score in (mode_success, mode_rates):
                with pytest.raises(InvalidArgumentError, match="modes"):
                    score(1.0, 1.0, UNIT, modes)


# SINRs >= 0 with the edge cases: zero, subnormals, huge values and inf
_SINR = st.floats(min_value=0.0, allow_nan=False) | st.sampled_from(
    [0.0, 5e-324, 2.2250738585072014e-308, 1e308, math.inf])
# every nonempty subset of MODES, in a random order
_MODE_SUBSETS = st.permutations(MODES).flatmap(
    lambda order: st.integers(1, len(MODES)).map(lambda k: tuple(order[:k])))
_SINR_PAIRS = st.tuples(_SINR, _SINR) | st.integers(1, 3).flatmap(
    lambda w: st.integers(1, 6).flatmap(lambda n: st.tuples(
        arrays(np.float64, (w, n), elements=_SINR), arrays(np.float64, (n,), elements=_SINR))))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_SINR_PAIRS, _MODE_SUBSETS)
def test_mode_subsets_are_rows_of_the_full_score(sinrs, modes):
    # a subset's rows are the all-mode result's rows, bit for bit
    cfg = ScenarioConfig()
    rows = [MODES.index(mode) for mode in modes]
    for score in (mode_success, mode_rates):
        full = score(*sinrs, cfg)
        part = score(*sinrs, cfg, modes)
        expected = np.take(full, rows, axis=max(full.ndim - 2, 0))
        assert part.shape == expected.shape and part.dtype == expected.dtype
        if score is mode_rates:
            part, expected = part.view(np.uint64), expected.view(np.uint64)
        assert np.array_equal(part, expected)


def _rates(sinr_vlc, sinr_rf, cfg):
    return mode_rates(sinr_vlc, sinr_rf, cfg)


class TestRates:
    def test_worked_example(self):
        # both links at SINR 15 over 20 MHz: r = 80 Mbps each;
        # rho_a=0.9 and beta_ov=0.8 give 72 / 72 / 115.2 / 72 Mbps
        rate = _rates(15.0, 15.0, ScenarioConfig())
        assert rate[VLC] == pytest.approx(72e6, rel=1e-12)
        assert rate[RF] == pytest.approx(72e6, rel=1e-12)
        assert rate[NON_LA] == pytest.approx(72e6, rel=1e-12)
        assert rate[LA] == pytest.approx(115.2e6, rel=1e-12)

    def test_la_vs_non_la_bound(self):
        # la >= beta_ov * non_la always; la >= non_la whenever the weaker
        # link carries at least (1 - beta_ov) / beta_ov of the stronger one
        cfg = ScenarioConfig()
        sinr_vlc = db_to_linear(10.0) * np.linspace(0.0, 1.0, 41) + 1e-12
        sinr_rf = np.full(41, db_to_linear(10.0))
        rate = _rates(sinr_vlc, sinr_rf, cfg)
        assert (rate[LA] >= cfg.beta_ov * rate[NON_LA] - 1e-6).all()
        r_v = cfg.vlc.bandwidth * np.log2(1.0 + sinr_vlc)
        r_r = cfg.rf.bandwidth * np.log2(1.0 + sinr_rf)
        balanced = np.minimum(r_v, r_r) >= 0.25 * np.maximum(r_v, r_r)
        assert balanced.any()
        assert (rate[LA][balanced] >= rate[NON_LA][balanced] - 1e-6).all()

    def test_dead_link_contributes_nothing(self):
        cfg = ScenarioConfig()
        rate = _rates(0.0, 15.0, cfg)
        assert rate[VLC] == 0.0
        assert rate[LA] == pytest.approx(cfg.beta_ov * rate[RF], rel=1e-12)


class TestDelay:
    def test_mtt_worked_example(self):
        # 50 KB = 409600 bits at 115.2 Mbps
        t = minimum_transmission_time(115.2e6, 50 * 1024)
        assert t == pytest.approx(409600 / 115.2e6, rel=1e-12)
        assert t == pytest.approx(3.5556e-3, rel=1e-4)

    def test_mtt_zero_rate_is_infinite(self):
        assert minimum_transmission_time(0.0, 1024) == math.inf

    def test_dor_brackets_the_mtt(self):
        # the 115.2 Mbps outcome has MTT 3.56 ms: late at 3 ms, fine at 4 ms
        cfg = ScenarioConfig()
        rate = _rates(15.0, 15.0, cfg)[LA]
        assert rate < outage_rate(cfg.payload_h, 3e-3)
        assert not rate < outage_rate(cfg.payload_h, 4e-3)

    def test_dor_nonincreasing_in_threshold(self):
        cfg = ScenarioConfig()
        rate = _rates(*_trials(cfg.with_distance(200.0), 36, 2000), cfg)[LA]
        grid = [0.5e-3, 1e-3, 2e-3, 3e-3, 5e-3, 10e-3]
        values = [(rate < outage_rate(cfg.payload_h, t)).mean() for t in grid]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_dor_is_rate_tail_probability(self):
        # DOR(t) must equal the empirical mass of {rate < 8H / t} exactly
        cfg = ScenarioConfig()
        sinr_vlc, sinr_rf = _trials(cfg, 37, 1000)
        rate = _rates(sinr_vlc, sinr_rf, cfg)[LA]
        for t_th in (1e-3, 3e-3, 7.5e-3):
            cutoff = 8.0 * cfg.payload_h / t_th
            direct = sum(1 for v, r in zip(sinr_vlc, sinr_rf)
                         if _rates(float(v), float(r), cfg)[LA] < cutoff) / len(rate)
            dor, _, _, _ = proportion_estimates(
                int((rate < outage_rate(cfg.payload_h, t_th)).sum()), len(rate))
            assert dor == direct

    def test_bad_threshold(self):
        with pytest.raises(InvalidArgumentError):
            outage_rate(ScenarioConfig().payload_h, 0.0)


_BRACKET_GRID = 500_000   # lane points per lane, midpoint rule
_BRACKET_MAX_N = 60       # lane points summed explicitly; the tail fails


def prp_vlc_bracket(config, weather):
    """Rigorous bounds (lo, hi) on the pure-VLC PRP with Poisson interferers.

    An interferer's VLC power is a deterministic function of its lane
    position, and the packet is lost iff the interference sum exceeds the
    margin M = N_vlc (snr / theta - 1).  Let q(t) be the fraction of the
    4L lane length where one point's power exceeds t (points inside the
    exclusion radius have zero power) and mu = lambda rho 4L the mean
    lane-point count.  One point above M loses the packet, so
    PRP <= exp(-mu q(M)) = hi; a sum of n terms above M has a term above
    M / n, so PRP >= 1 - sum_n Pois(n; mu) [1 - (1 - q(M / n))^n] = lo.
    q is read from the sorted powers of a uniform grid over both lanes.
    """
    L = config.geometry.lane_half_length
    coord = -L + (np.arange(_BRACKET_GRID) + 0.5) * (2.0 * L / _BRACKET_GRID)
    powers = []
    for lane in LANES:
        d, gain = rsu_links(config, lane, coord)
        gain = np.where(outside_exclusion(config, lane, coord), gain, 0.0)
        wfac = attenuation_factor(WEATHER_ATTENUATION_DB_PER_KM[weather], d)
        powers.append(vlc_rx_electrical_power(gain, wfac, config.vlc))
    powers = np.sort(np.concatenate(powers))

    def q(level):
        return 1.0 - np.searchsorted(powers, level, side="right") / len(powers)

    theta = db_to_linear(config.sinr_threshold_vlc_db)
    margin = vlc_noise_power(config.vlc) * (vlc_snr(config, weather) / theta - 1.0)
    assert margin > 0, "the bracket needs a live VLC link"
    mu = config.lambda_density * config.rho_access * 4.0 * L
    n = np.arange(1, _BRACKET_MAX_N + 1)
    lost = (stats.poisson.pmf(n, mu) * (1.0 - (1.0 - q(margin / n)) ** n)).sum()
    return 1.0 - lost - stats.poisson.sf(_BRACKET_MAX_N, mu), math.exp(-mu * q(margin))


class TestClosedFormOracles:
    def test_rf_oracle_median_point(self):
        # exp(-x) = 0.5 when theta * N / P_mean = ln 2: with alpha = 2 and
        # theta = 2, at the 3-D distance d below, the lane point r
        cfg = dataclasses.replace(NO_INTERFERENCE,
                                  sinr_threshold_rf_db=10.0 * math.log10(2.0))
        theta = db_to_linear(cfg.sinr_threshold_rf_db)
        p_ref = rf_mean_rx_power(1.0, cfg.rf)
        d = math.sqrt(p_ref * math.log(2.0) / (theta * rf_noise_power(cfg.rf)))
        dz = cfg.geometry.rsu_height - cfg.geometry.tx_height
        cfg = cfg.with_distance(math.sqrt(d * d - dz * dz))
        assert prp_rf_closed_form(cfg) == pytest.approx(0.5, rel=1e-9)

    def test_rf_oracle_matches_monte_carlo(self):
        cfg = NO_INTERFERENCE.with_distance(100.0)
        ok = mode_success(*_trials(cfg, 38, 50_000), cfg)
        value, stderr, _, _ = proportion_estimates(int(ok[RF].sum()), 50_000)
        exact = prp_rf_closed_form(cfg)
        assert abs(value - exact) < 3 * max(stderr, 1e-4)

    def test_interference_oracle_without_interferers(self):
        cfg = NO_INTERFERENCE.with_distance(100.0)
        assert prp_rf_closed_form(cfg) == _rf_prp_without_interference(cfg)

    def test_interference_oracle_requires_rayleigh(self):
        naka = dataclasses.replace(ScenarioConfig().rf, fading="nakagami")
        with pytest.raises(UnsupportedModelError):
            prp_rf_closed_form(dataclasses.replace(ScenarioConfig(), rf=naka))

    @pytest.mark.parametrize("distance", [0.5, 50.0, 200.0])
    def test_interference_oracle_quadrature(self, distance):
        # With alpha = 2 the per-lane integral of sP / (1 + sP) is an
        # arctangent: a / sqrt(b2 + a) * atan((t - t0) / sqrt(b2 + a)).
        # At 0.5 m the exclusion interval also cuts the perpendicular lane.
        cfg = dataclasses.replace(ScenarioConfig(), rho_access=0.5,
                                  distance_r=distance)
        geo = cfg.geometry
        rsu = geo.rsu_pose
        theta = db_to_linear(cfg.sinr_threshold_rf_db)
        a = theta / rf_mean_rx_power(_desired_distance(cfg), cfg.rf) * \
            rf_mean_rx_power(1.0, cfg.rf)
        dz2 = (rsu.z - geo.tx_height) ** 2
        L = geo.lane_half_length

        def integral(t0, b2, lo, hi):
            w = math.sqrt(b2 + a)
            return a / w * (math.atan((hi - t0) / w) - math.atan((lo - t0) / w))

        r = cfg.distance_r
        same = integral(rsu.x, rsu.y ** 2 + dz2, -L, L) - integral(
            rsu.x, rsu.y ** 2 + dz2, r - 1.0, r + 1.0)
        perp = integral(rsu.y, rsu.x ** 2 + dz2, -L, L)
        if r < 1.0:
            half = math.sqrt(1.0 - r * r)
            perp -= integral(rsu.y, rsu.x ** 2 + dz2, -half, half)
        exact = _rf_prp_without_interference(cfg) * math.exp(
            -cfg.lambda_density * cfg.rho_access * (same + perp))
        assert prp_rf_closed_form(cfg) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("rho_access, distances, visible", [
        (0.01, (50.0, 100.0, 200.0), 0.96),
        (0.1, (50.0, 100.0, 200.0), 0.9),
        # at 1e-2 the PRP beyond 50 m is too small to test with 20k trials
        (1.0, (10.0, 25.0, 50.0), 0.5),
    ], ids=["1e-4", "1e-3", "1e-2"])
    def test_interference_oracle_matches_monte_carlo(self, rho_access, distances,
                                                     visible):
        # lambda * rho in {1e-4, 1e-3, 1e-2}: interference moves the RF PRP
        # away from the interference-free value at every distance
        cfg = dataclasses.replace(ScenarioConfig(), rho_access=rho_access)
        spec = SweepSpec(distances=distances, weathers=(CLEAR,),
                         modes=(MODE_PURE_RF,), n_trials=20_000, master_seed=2208)
        for row in run_sweep(cfg, spec, "prp"):
            point = cfg.with_distance(row.distance)
            exact = prp_rf_closed_form(point)
            assert exact < visible * prp_rf_closed_form(
                dataclasses.replace(point, lambda_density=0.0))
            z = (row.estimate.value - exact) / row.estimate.stderr
            assert abs(z) < 4.0, (row.distance, row.estimate.value, exact)

    @pytest.mark.parametrize("rho_access", [0.01, 0.1], ids=["1e-4", "1e-3"])
    def test_vlc_interference_oracle_brackets_monte_carlo(self, rho_access):
        # 50 m in every weather (one kernel call with the weather axis; the
        # VLC link is live in all four) and 100 m in clear weather
        cfg = dataclasses.replace(ScenarioConfig(), rho_access=rho_access)
        theta = db_to_linear(cfg.sinr_threshold_vlc_db)
        n = 200_000
        for distance, weathers in ((50.0, ALL_WEATHERS), (100.0, (CLEAR,))):
            sinr_vlc, _ = simulate_trials(cfg, (distance,), weathers,
                                          np.random.default_rng(40), n)
            for weather, row in zip(weathers, sinr_vlc[0]):
                value, stderr, _, _ = proportion_estimates(int((row >= theta).sum()), n)
                lo, hi = prp_vlc_bracket(cfg.with_distance(distance), weather)
                assert 0.0 < lo <= hi < 1.0
                assert lo - 4.0 * stderr <= value <= hi + 4.0 * stderr, (
                    distance, weather, value, stderr, lo, hi)

    def test_vlc_oracle_step(self):
        # at the default bisection tolerance the SNR steps across theta
        # within 1 mm of the cutoff
        cfg = NO_INTERFERENCE
        theta_v = db_to_linear(cfg.sinr_threshold_vlc_db)
        cutoff = vlc_cutoff_distance(cfg, CLEAR, theta_v)
        assert vlc_snr(cfg.with_distance(cutoff - 1e-3), CLEAR) >= theta_v
        assert vlc_snr(cfg.with_distance(cutoff + 1e-3), CLEAR) < theta_v

    def test_vlc_cutoff_bisection_consistency(self):
        cfg = NO_INTERFERENCE
        theta_v = db_to_linear(cfg.sinr_threshold_vlc_db)
        cutoff = vlc_cutoff_distance(cfg, CLEAR, theta_v, tol=1e-4)
        assert vlc_snr(cfg.with_distance(cutoff - 1e-3), CLEAR) >= theta_v
        assert vlc_snr(cfg.with_distance(cutoff + 1e-3), CLEAR) < theta_v

    def test_vlc_cutoff_bracket_check(self):
        cfg = NO_INTERFERENCE
        with pytest.raises(InvalidArgumentError):
            vlc_cutoff_distance(cfg, CLEAR, db_to_linear(50.0))  # no SNR that high

    def test_vlc_monte_carlo_matches_oracle(self):
        cfg = NO_INTERFERENCE
        theta_v = db_to_linear(cfg.sinr_threshold_vlc_db)
        for d in (60.0, 110.0, 130.0, 200.0):
            point = cfg.with_distance(d)
            ok = mode_success(*_trials(point, 39, 200), point)
            assert proportion_estimates(int(ok[VLC].sum()), 200)[0] == (
                vlc_snr(point, CLEAR) >= theta_v)
