"""RF path loss, fading and noise tests."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from rfvlc import (FADING_NAKAGAMI, FADING_RAYLEIGH, InvalidArgumentError,
                   RfParams, rf_mean_rx_power, rf_noise_power, sample_fading)


class TestMeanRxPower:
    def test_reference_distance_identity(self):
        # at d0 the mean power is exactly P_t * 10^(-L0/10)
        p = RfParams()
        expected = p.tx_power * 10.0 ** (-p.reference_loss_db / 10.0)
        assert rf_mean_rx_power(p.reference_distance, p) == pytest.approx(
            expected, rel=1e-12)

    def test_worked_example_alpha_2p7(self):
        # 0.1 W, 47 dB reference loss, alpha 2.7, 100 m:
        # 0.1 * 10^-4.7 * 100^-2.7 = 10^-11.1
        p = RfParams(tx_power=0.1, path_loss_exponent=2.7)
        assert rf_mean_rx_power(100.0, p) == pytest.approx(10.0 ** -11.1, rel=1e-12)
        assert rf_mean_rx_power(100.0, p) == pytest.approx(7.943e-12, rel=1e-3)

    def test_log_log_slope(self):
        # regression slope of log P vs log d recovers -alpha
        p = RfParams(path_loss_exponent=2.7)
        d = np.logspace(0.5, 3.0, 40)
        logp = np.log10([rf_mean_rx_power(x, p) for x in d])
        slope = np.polyfit(np.log10(d), logp, 1)[0]
        assert slope == pytest.approx(-2.7, abs=1e-9)

    def test_doubling_distance_alpha_2(self):
        p = RfParams(path_loss_exponent=2.0)
        assert rf_mean_rx_power(50.0, p) / rf_mean_rx_power(100.0, p) == \
            pytest.approx(4.0, rel=1e-12)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rf_mean_rx_power(0.0, RfParams())


class TestFading:
    def test_rayleigh_unit_mean(self):
        rng = np.random.default_rng(21)
        p = RfParams(fading=FADING_RAYLEIGH)
        draws = np.array([sample_fading(p, rng) for _ in range(200_000)])
        stderr = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 1.0) < 3 * stderr
        assert draws.min() >= 0.0

    def test_rayleigh_power_is_exponential(self):
        rng = np.random.default_rng(22)
        p = RfParams(fading=FADING_RAYLEIGH)
        draws = np.array([sample_fading(p, rng) for _ in range(20_000)])
        _, pvalue = stats.kstest(draws, "expon")
        assert pvalue > 0.01

    @pytest.mark.parametrize("size", [None, 0, 1, 4096])
    def test_rayleigh_draws_are_unit_exponentials_of_the_stream(self, size):
        # the fades, and the stream after them, are those of numpy's
        # Generator.exponential at scale 1, byte for byte
        p = RfParams(fading=FADING_RAYLEIGH)
        rng, twin = np.random.default_rng(31), np.random.default_rng(31)
        got = sample_fading(p, rng, size)
        want = twin.exponential(size=size)
        assert type(got) is (float if size is None else np.ndarray)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("params", [
        RfParams(fading=FADING_RAYLEIGH),
        *(RfParams(fading=FADING_NAKAGAMI, nakagami_m=m) for m in (0.5, 1.0, 2.5))],
        ids=["rayleigh", "nakagami_0.5", "nakagami_1", "nakagami_2.5"])
    @pytest.mark.parametrize("a, b", [(0, 0), (0, 5), (5, 0), (1, 1), (300, 4096)])
    def test_a_then_b_gains_are_a_plus_b_at_once(self, params, a, b):
        # each gain is drawn in turn from the stream: a chunk's desired
        # and lane fades may come from one call, byte for byte, the stream
        # left at the same draw
        rng, twin = np.random.default_rng(32), np.random.default_rng(32)
        got = np.concatenate([sample_fading(params, rng, a), sample_fading(params, rng, b)])
        want = sample_fading(params, twin, a + b)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.random() == twin.random()

    def test_nakagami_m1_matches_rayleigh(self):
        # gamma(1, 1) is exponential, so m=1 reduces to the Rayleigh model
        rng = np.random.default_rng(23)
        p = RfParams(fading=FADING_NAKAGAMI, nakagami_m=1.0)
        draws = np.array([sample_fading(p, rng) for _ in range(20_000)])
        _, pvalue = stats.kstest(draws, "expon")
        assert pvalue > 0.01

    def test_nakagami_variance_is_one_over_m(self):
        rng = np.random.default_rng(24)
        p = RfParams(fading=FADING_NAKAGAMI, nakagami_m=10.0)
        draws = np.array([sample_fading(p, rng) for _ in range(200_000)])
        stderr = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - 1.0) < 3 * stderr
        assert draws.var(ddof=1) == pytest.approx(0.1, rel=0.05)

    def test_nakagami_m10_distribution(self):
        rng = np.random.default_rng(25)
        p = RfParams(fading=FADING_NAKAGAMI, nakagami_m=10.0)
        draws = np.array([sample_fading(p, rng) for _ in range(20_000)])
        _, pvalue = stats.kstest(draws, "gamma", args=(10.0, 0.0, 0.1))
        assert pvalue > 0.01


class TestNoise:
    def test_default_noise_power(self):
        # 4e-21 W/Hz * 20 MHz * 10^0.9
        expected = 4e-21 * 20e6 * 10.0 ** 0.9
        assert rf_noise_power(RfParams()) == pytest.approx(expected, rel=1e-12)
        assert rf_noise_power(RfParams()) == pytest.approx(6.355e-13, rel=1e-3)

    def test_zero_noise_figure(self):
        p = dataclasses.replace(RfParams(), noise_figure_db=0.0)
        assert rf_noise_power(p) == pytest.approx(p.noise_psd * p.bandwidth, rel=1e-12)


class TestParamsCheck:
    def test_defaults_are_clean(self):
        assert RfParams().check() == []

    def test_sub_free_space_exponent_rejected(self):
        bad = dataclasses.replace(RfParams(), path_loss_exponent=1.5)
        assert any("path_loss_exponent" in v for v in bad.check())

    def test_unknown_fading_rejected(self):
        bad = dataclasses.replace(RfParams(), fading="rician")
        assert any("fading" in v for v in bad.check())
