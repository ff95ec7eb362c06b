"""RF link: log-distance path loss, small-scale fading, receiver noise.

Weather does not touch the RF path; sub-6 GHz links are insensitive to
rain/fog/snow at these ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

FADING_RAYLEIGH = "rayleigh"
FADING_NAKAGAMI = "nakagami"


@dataclass(frozen=True)
class RfParams:
    """RF transmitter, propagation and noise parameters.

    Defaults are the calibrated intersection case-study values; the
    free-space-like exponent of 2.0 is what makes the RF link carry the
    long-range rate (see docs/CALIBRATION.md).
    """

    tx_power: float = 0.0145            # W
    path_loss_exponent: float = 2.0     # alpha
    reference_distance: float = 1.0     # m
    reference_loss_db: float = 47.0     # dB at the reference distance (~5.9 GHz)
    fading: str = FADING_RAYLEIGH       # "rayleigh" or "nakagami"
    nakagami_m: float = 1.0             # shape, used when fading == "nakagami"
    noise_psd: float = 4e-21            # W/Hz (~kT at 290 K)
    noise_figure_db: float = 9.0
    bandwidth: float = 20e6             # Hz

    def check(self) -> list[str]:
        out = []
        if self.tx_power <= 0:
            out.append("rf.tx_power: must be > 0")
        if self.path_loss_exponent < 2.0:
            out.append("rf.path_loss_exponent: must be >= 2")
        if self.reference_distance <= 0:
            out.append("rf.reference_distance: must be > 0")
        if self.bandwidth <= 0:
            out.append("rf.bandwidth: must be > 0")
        if self.noise_psd <= 0:
            out.append("rf.noise_psd: must be > 0")
        if self.fading not in (FADING_RAYLEIGH, FADING_NAKAGAMI):
            out.append(f"rf.fading: unknown model {self.fading!r}")
        if self.fading == FADING_NAKAGAMI and self.nakagami_m < 0.5:
            out.append("rf.nakagami_m: must be >= 0.5")
        return out


def db_to_linear(db: float) -> float:
    """10^(db / 10); inf where that overflows a float.  A numpy scalar is
    taken as a float, so it overflows as one."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        return math.inf


def rf_mean_rx_power(distance, params: RfParams):
    """Mean received power under log-distance path loss, in watts.

    distance may be a float or an array of distances.
    """
    if np.asarray(distance <= 0).any():
        raise InvalidArgumentError(f"distance must be > 0, got {distance!r}")
    ref = params.tx_power * db_to_linear(-params.reference_loss_db)
    return ref * (distance / params.reference_distance) ** (-params.path_loss_exponent)


def sample_fading(params: RfParams, rng: np.random.Generator, size=None):
    """Draw unit-mean small-scale power fading gains: one float, or an array.

    Rayleigh amplitude fading gives an exponential power gain; Nakagami-m
    gives gamma(shape m, scale 1/m).  Both have mean 1.  Each gain is drawn
    in turn from the stream, so drawing a and then b gains yields the same
    values as drawing a + b at once.
    """
    if params.fading == FADING_RAYLEIGH:
        g = rng.standard_exponential(size)
    else:
        m = params.nakagami_m
        g = rng.gamma(m, 1.0 / m, size)
    return float(g) if size is None else g


def rf_noise_power(params: RfParams) -> float:
    """Receiver noise power: PSD * bandwidth * noise figure."""
    return params.noise_psd * params.bandwidth * db_to_linear(params.noise_figure_db)
