"""Lambertian line-of-sight VLC channel for the IM/DD uplink.

The optical link is deterministic: a generalized Lambertian emitter
(vehicle headlamp), an optical concentrator plus filter at the RSU
photodiode, and square-law direct detection.  Weather attenuates the
optical path before detection, so a loss of c dB/km optically costs
2c dB/km electrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class VlcParams:
    """VLC transmitter, photodetector and noise parameters."""

    optical_tx_power: float = 1.0           # W
    semi_angle_half_power: float = 30.0     # degrees, LED half-power semi-angle
    pd_area: float = 1e-4                   # m^2 (1 cm^2 photodiode)
    fov: float = 60.0                       # degrees, receiver field of view
    optical_filter_gain: float = 1.0
    concentrator_refractive_index: float = 1.5
    responsivity: float = 0.54              # A/W
    noise_psd: float = 1e-21                # A^2/Hz, lumped shot+thermal+ambient
    bandwidth: float = 20e6                 # Hz

    def check(self) -> list[str]:
        out = []
        for name in ("optical_tx_power", "pd_area", "optical_filter_gain",
                     "concentrator_refractive_index", "responsivity",
                     "noise_psd", "bandwidth"):
            if getattr(self, name) <= 0:
                out.append(f"vlc.{name}: must be > 0")
        if not 0.0 < self.semi_angle_half_power < 90.0:
            out.append("vlc.semi_angle_half_power: must be in (0, 90) degrees")
        if not 0.0 < self.fov <= 90.0:
            out.append("vlc.fov: must be in (0, 90] degrees")
        return out


def lambertian_order(semi_angle_half_power: float) -> float:
    """Lambertian mode number m = -ln 2 / ln(cos(half-power semi-angle))."""
    if not 0.0 < semi_angle_half_power < 90.0:
        raise InvalidArgumentError(
            f"semi_angle_half_power must be in (0, 90), got {semi_angle_half_power!r}")
    log_cos = math.log(math.cos(math.radians(semi_angle_half_power)))
    # cos rounds to 1 below ~1e-6 degrees: the limit of a narrowing lobe
    return -math.log(2.0) / log_cos if log_cos < 0.0 else math.inf


def concentrator_gain(params: VlcParams) -> float:
    """Ideal non-imaging concentrator gain n^2 / sin^2(FOV); inf if sin^2 underflows."""
    sin2 = math.sin(math.radians(params.fov)) ** 2
    n = params.concentrator_refractive_index
    return n * n / sin2 if sin2 > 0.0 else math.inf


def sees(cos_phi, cos_psi, params: VlcParams):
    """True where the detector sees the emitter of a LOS path with these
    cosines: in front of the emitter and inside the receiver FOV."""
    return (cos_phi > 0.0) & (cos_psi >= math.cos(math.radians(params.fov)))


def seen_gain(d2, cos_phi, cos_psi, params: VlcParams):
    """DC channel gain of LOS paths the detector sees (see sees).

    gain = (m+1) A / (2 pi d^2) * cos^m(phi) * T_s * g(psi) * cos(psi),
    with d2 the squared path length; a path with both cosines 0 has gain 0.
    """
    m = lambertian_order(params.semi_angle_half_power)
    gain = (m + 1.0) * params.pd_area / (2.0 * math.pi * d2)
    gain *= np.power(cos_phi, m)
    gain *= params.optical_filter_gain
    gain *= concentrator_gain(params)
    gain *= cos_psi
    return gain


def path_gain(d2, cos_phi, cos_psi, params: VlcParams):
    """DC channel gain of LOS paths of squared length d2 and these cosines:
    seen_gain where the detector sees the emitter, zero outside the
    receiver FOV or behind the emitter."""
    seen = sees(cos_phi, cos_psi, params)
    # unseen paths get zero cosines, hence a zero lobe and gain
    return seen_gain(d2, np.where(seen, cos_phi, 0.0), np.where(seen, cos_psi, 0.0), params)


def vlc_rx_electrical_power(gain, weather_factor, params: VlcParams):
    """Electrical signal power after square-law detection.

    (responsivity * optical power * gain * weather factor)^2; the weather
    factor multiplies the optical power, hence the squared penalty.  gain
    and weather_factor may be floats or arrays.
    """
    if np.asarray(gain < 0).any():
        raise InvalidArgumentError("gain must be >= 0")
    if not np.asarray((weather_factor >= 0.0) & (weather_factor <= 1.0)).all():
        raise InvalidArgumentError("weather_factor must be in [0, 1]")
    photocurrent = params.responsivity * params.optical_tx_power * gain * weather_factor
    photocurrent *= photocurrent
    return photocurrent


def vlc_noise_power(params: VlcParams) -> float:
    """Flat electrical noise power: PSD times receiver bandwidth."""
    return params.noise_psd * params.bandwidth
