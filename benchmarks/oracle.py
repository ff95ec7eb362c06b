"""Interference-path oracle: closed-form RF PRP under a PPP of interferers.

With a Rayleigh desired link (unit-mean exponential power gain g0) the RF
packet is received iff P0*g0 >= theta*(I + N), so

    PRP_rf = E[exp(-s (I + N))] = exp(-theta N / P0) * L_I(s),  s = theta / P0.

Interferers form a Poisson process of density lambda*rho on each lane, each
with its own Rayleigh fade, so the Laplace functional of the PPP gives

    L_I(s) = exp(-lambda rho * sum_lanes integral s P(x) / (1 + s P(x)) dx)

where P(x) is the mean received power from lane position x. The same-lane
integral leaves out the exclusion interval around the desired vehicle
(Haenggi, Stochastic Geometry for Wireless Networks, 2012, ch. 5).
"""

from __future__ import annotations

import math

import numpy as np

from rfvlc.metrics import db_to_linear
from rfvlc.rf_channel import FADING_RAYLEIGH, rf_mean_rx_power, rf_noise_power
from rfvlc.scenario import EXCLUSION_RADIUS_M, ScenarioConfig

_SIMPSON_PANELS = 20_000


def _simpson(f, a: float, b: float) -> float:
    x = np.linspace(a, b, 2 * _SIMPSON_PANELS + 1)
    y = f(x)
    h = (b - a) / (2 * _SIMPSON_PANELS)
    return h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def prp_rf_closed_form(config: ScenarioConfig) -> float:
    """Exact RF PRP with Rayleigh fading and PPP interferers on both lanes."""
    rf = config.rf
    if rf.fading != FADING_RAYLEIGH:
        raise ValueError("closed form requires Rayleigh fading")
    geo = config.geometry
    rsu = geo.rsu_pose
    h = geo.tx_height
    r = config.distance_r
    if r <= EXCLUSION_RADIUS_M:
        raise ValueError("the perpendicular lane must lie outside the exclusion radius")
    p0 = rf_mean_rx_power(
        math.sqrt((rsu.x - r) ** 2 + (rsu.y - geo.lane_y_offset) ** 2 + (rsu.z - h) ** 2), rf)
    theta = db_to_linear(config.sinr_threshold_rf_db)
    s = theta / p0
    # rf_mean_rx_power is scalar; this is its formula over an array.
    ref = rf.tx_power * 10.0 ** (-rf.reference_loss_db / 10.0)
    dz2 = (rsu.z - h) ** 2

    def load(d2):
        p = ref * (np.sqrt(d2) / rf.reference_distance) ** (-rf.path_loss_exponent)
        return s * p / (1.0 + s * p)

    def same(x):
        return load((rsu.x - x) ** 2 + (rsu.y - geo.lane_y_offset) ** 2 + dz2)

    def perp(y):
        return load((rsu.x - geo.lane_x_offset) ** 2 + (rsu.y - y) ** 2 + dz2)

    L = geo.lane_half_length
    lo, hi = max(-L, r - EXCLUSION_RADIUS_M), min(L, r + EXCLUSION_RADIUS_M)
    integral = _simpson(same, -L, L) - _simpson(same, lo, hi) + _simpson(perp, -L, L)
    density = config.lambda_density * config.rho_access
    return math.exp(-theta * rf_noise_power(rf) / p0) * math.exp(-density * integral)


def binomial_two_sided_p(k: int, n: int, p: float) -> float:
    """Exact two-sided binomial test p-value (sum of outcomes no likelier than k)."""
    if not 0 <= k <= n:
        raise ValueError("k must be in [0, n]")
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(n * p) else 0.0
    lp, lq = math.log(p), math.log1p(-p)
    lgn = math.lgamma(n + 1)
    logpmf = [lgn - math.lgamma(i + 1) - math.lgamma(n - i + 1) + i * lp + (n - i) * lq
              for i in range(n + 1)]
    cut = logpmf[k] + 1e-7  # relative tolerance, as in scipy.stats.binomtest
    return min(1.0, sum(math.exp(v) for v in logpmf if v <= cut))
