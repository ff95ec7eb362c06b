"""Lambertian optical channel tests."""

import dataclasses
import math

import numpy as np
import pytest

from rfvlc import (InvalidArgumentError, VlcParams, lambertian_order, vlc_noise_power,
                   vlc_rx_electrical_power)
from rfvlc.vlc_channel import concentrator_gain, path_gain

# m=1 emitter, unity concentrator (fov 90 deg, n=1), unity filter
_SIMPLE = VlcParams(semi_angle_half_power=60.0, pd_area=1e-4, fov=90.0,
                    optical_filter_gain=1.0, concentrator_refractive_index=1.0,
                    optical_tx_power=1.0, responsivity=0.5)
COS_45 = math.cos(math.pi / 4)


def _aligned(distance, params=_SIMPLE):
    # emitter aimed straight up at a detector facing straight down
    return path_gain(distance * distance, 1.0, 1.0, params)


class TestLambertianOrder:
    def test_sixty_degrees_is_one(self):
        assert lambertian_order(60.0) == pytest.approx(1.0, rel=1e-12)

    def test_forty_five_degrees_is_two(self):
        # cos 45 = 2^-1/2, so -ln2 / ln(2^-1/2) = 2
        assert lambertian_order(45.0) == pytest.approx(2.0, rel=1e-12)

    def test_thirty_degrees(self):
        expected = -math.log(2.0) / math.log(math.cos(math.radians(30.0)))
        assert lambertian_order(30.0) == pytest.approx(expected, rel=1e-12)
        assert lambertian_order(30.0) == pytest.approx(4.8188, abs=1e-4)

    def test_narrower_beam_higher_order(self):
        orders = [lambertian_order(a) for a in (60.0, 45.0, 30.0, 15.0)]
        assert orders == sorted(orders)

    def test_pencil_beam_limit_is_infinite(self):
        # cos(1e-8 deg) rounds to 1: the order's limit, not a ZeroDivisionError
        assert lambertian_order(1e-8) == math.inf

    @pytest.mark.parametrize("angle", [0.0, 90.0, -5.0, 120.0])
    def test_out_of_range(self, angle):
        with pytest.raises(InvalidArgumentError):
            lambertian_order(angle)


class TestConcentratorGain:
    def test_n_squared_over_sin_squared_fov(self):
        # n = 1.5, FOV 60 deg: 2.25 / 0.75
        assert concentrator_gain(VlcParams()) == pytest.approx(3.0, rel=1e-12)

    def test_vanishing_fov_limit_is_infinite(self):
        # sin^2 of 1e-320 degrees underflows to 0
        assert concentrator_gain(VlcParams(fov=1e-320)) == math.inf


class TestLosGain:
    def test_aligned_gain_at_10m(self):
        # (m+1) A / (2 pi d^2) = 2e-4 / (200 pi) with everything else unity
        expected = 1e-4 / (100.0 * math.pi)
        assert _aligned(10.0) == pytest.approx(expected, rel=1e-12)
        assert _aligned(10.0) == pytest.approx(3.1831e-7, rel=1e-4)

    def test_inverse_square_law(self):
        assert _aligned(10.0) / _aligned(20.0) == pytest.approx(4.0, rel=1e-12)
        rng = np.random.default_rng(11)
        d, k = rng.uniform(1.0, 200.0, 50), rng.uniform(1.1, 5.0, 50)
        np.testing.assert_allclose(_aligned(d) / _aligned(k * d), k * k, rtol=1e-9)

    def test_concentrator_gain(self):
        # n=1.5, fov=60: g = n^2 / sin^2(60 deg) = 3
        params = dataclasses.replace(_SIMPLE, fov=60.0,
                                     concentrator_refractive_index=1.5)
        expected = 3.0 * 1e-4 / (100.0 * math.pi)
        assert _aligned(10.0, params) == pytest.approx(expected, rel=1e-12)

    def test_emission_angle_rolloff(self):
        # m=2 emitter aimed straight up, receiver offset 45 deg off boresight:
        # cos^2(phi) = 1/2 and cos(psi) = cos 45 relative to the aligned case
        params = dataclasses.replace(_SIMPLE, semi_angle_half_power=45.0)
        d = 10.0
        expected = _aligned(d, params) * 0.5 * COS_45
        assert path_gain(d * d, COS_45, COS_45, params) == pytest.approx(expected, rel=1e-12)

    def test_zero_outside_fov(self):
        params = dataclasses.replace(_SIMPLE, fov=30.0)
        assert path_gain(100.0, COS_45, COS_45, params) == 0.0  # incidence 45 > 30 deg

    def test_zero_behind_emitter(self):
        # detector 5 m below an emitter aimed up, facing it: emission at 180 deg
        assert path_gain(25.0, -1.0, 1.0, _SIMPLE) == 0.0


class TestElectricalPower:
    def test_worked_example(self):
        # (0.5 A/W * 1 W * 3.1831e-7)^2
        gain = 1e-4 / (100.0 * math.pi)
        p = vlc_rx_electrical_power(gain, 1.0, _SIMPLE)
        assert p == pytest.approx((0.5 * gain) ** 2, rel=1e-12)
        assert p == pytest.approx(2.533e-14, rel=1e-3)

    def test_square_law_in_optical_power(self):
        gain = 1e-6
        p1 = vlc_rx_electrical_power(gain, 1.0, _SIMPLE)
        p2 = vlc_rx_electrical_power(
            gain, 1.0, dataclasses.replace(_SIMPLE, optical_tx_power=2.0))
        assert p2 / p1 == pytest.approx(4.0, rel=1e-12)

    def test_square_law_in_weather(self):
        # halving the optical field quarters the electrical power
        gain = 1e-6
        p_full = vlc_rx_electrical_power(gain, 1.0, _SIMPLE)
        p_half = vlc_rx_electrical_power(gain, 0.5, _SIMPLE)
        assert p_half / p_full == pytest.approx(0.25, rel=1e-12)

    def test_zero_gain_zero_power(self):
        assert vlc_rx_electrical_power(0.0, 1.0, _SIMPLE) == 0.0

    def test_bad_inputs(self):
        with pytest.raises(InvalidArgumentError):
            vlc_rx_electrical_power(-1e-9, 1.0, _SIMPLE)
        with pytest.raises(InvalidArgumentError):
            vlc_rx_electrical_power(1e-6, 1.5, _SIMPLE)


class TestNoise:
    def test_default_noise_power(self):
        # 1e-21 A^2/Hz * 20 MHz
        assert vlc_noise_power(VlcParams()) == pytest.approx(2e-14, rel=1e-12)

    def test_scales_with_bandwidth(self):
        p = VlcParams()
        wide = dataclasses.replace(p, bandwidth=2 * p.bandwidth)
        assert vlc_noise_power(wide) == pytest.approx(2 * vlc_noise_power(p), rel=1e-12)


class TestParamsCheck:
    def test_defaults_are_clean(self):
        assert VlcParams().check() == []

    def test_bad_fov_reported(self):
        bad = dataclasses.replace(VlcParams(), fov=120.0)
        assert any("fov" in v for v in bad.check())

    def test_bad_area_reported(self):
        bad = dataclasses.replace(VlcParams(), pd_area=0.0)
        assert any("pd_area" in v for v in bad.check())
