"""Coupled per-trial SINR draws and the PRP / DOR / rate metrics.

One trial shares a single interferer deployment between the optical and
radio links: the VLC SINR is fully deterministic given the deployment,
while every RF power (desired and interfering) gets an independent fading
draw.  Trials are simulated as arrays, a chunk at a time and for every
weather at once (simulate_trials): weather only attenuates optical paths.
Consecutive sparse chunks are merged into one, whose interferers take one
pass (simulate_chunks); every chunk still gets the bits it gets alone.
The four operating modes are scored on the same trials, their reception
by mode_success and their rates by mode_rates, so mode comparisons are
exact event inclusions rather than statistical ones.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, UnsupportedModelError
from .rf_channel import (FADING_RAYLEIGH, db_to_linear,
                         rf_mean_rx_power, rf_noise_power, sample_fading)
from .scenario import (EXCLUSION_RADIUS_M, LANE_SAME, LANES,
                       WEATHER_ATTENUATION_DB_PER_KM, ScenarioConfig,
                       attenuation_factor, draw_deployment, exclusion_disc,
                       outside_exclusion, rsu_links, rsu_paths)
from .vlc_channel import sees, seen_gain, vlc_noise_power, vlc_rx_electrical_power

MODE_PURE_VLC = "pure_vlc"
MODE_PURE_RF = "pure_rf"
MODE_LA = "la"
MODE_NON_LA = "non_la"
MODES = (MODE_PURE_VLC, MODE_PURE_RF, MODE_LA, MODE_NON_LA)

# Lane points per summation slice.  The interferer pass adds each slice of
# a lane's points to the sums with one bincount per weather, so the slice
# fixes the bits of every output; it also bounds a pooled group (one slice
# per lane at most, so no slice boundary falls inside a merged chunk).
# Counting points rather than trials keeps a sparse chunk in one slice.
_BLOCK = 4096

# Slices per term window.  The pass computes interferer terms a window at
# a time, so a dense chunk pays the fixed cost of each numpy call
# once per 16384 points rather than per 4096; the window's temporaries
# (about a dozen arrays of its length) bound the kernel's memory whatever
# the density.  The window changes no bit: terms are elementwise, and the
# sums still add slice by slice.
_WINDOW = 4

# Chunks per pooled group at most, whatever their lane points: a group holds
# every chunk's draws until they are merged, then the merged draws and the
# [W, trials] sums of the whole group until it is scored (a default-density
# group holds ~10 chunks; 16 at lambda = 0, ~2.6 MB of sums in 4 weathers).
_GROUP = 16

_SIMPSON_PANELS = 20_000   # per integral in prp_rf_closed_form


def sinr(signal, interference_sum, noise: float):
    """signal / (interference + noise); signal and interference may be arrays."""
    if noise <= 0:
        raise InvalidArgumentError("noise must be > 0")
    if np.asarray(signal < 0).any() or np.asarray(interference_sum < 0).any():
        raise InvalidArgumentError("signal and interference must be >= 0")
    return signal / (interference_sum + noise)


class _Statics(NamedTuple):
    """Deterministic per-config quantities shared by the trials of a distance."""

    d3d: float         # desired vehicle's headlamp -> RSU, meters
    gain: float        # desired link's Lambertian gain
    n_vlc: float
    s_rf_mean: float
    n_rf: float


def _statics(config: ScenarioConfig) -> _Statics:
    d3d, gain = map(float, rsu_links(config, LANE_SAME, config.distance_r))
    return _Statics(d3d=d3d,
                    gain=gain,
                    n_vlc=vlc_noise_power(config.vlc),
                    s_rf_mean=rf_mean_rx_power(d3d, config.rf),
                    n_rf=rf_noise_power(config.rf))


def _s_vlc(config: ScenarioConfig, st: _Statics, weathers) -> np.ndarray:
    """The desired link's received VLC power per weather name, [W]."""
    # one scalar attenuation factor per weather: an array pow may round
    # differently from the scalar one
    wfac = [attenuation_factor(WEATHER_ATTENUATION_DB_PER_KM[weather], st.d3d)
            for weather in weathers]
    return vlc_rx_electrical_power(st.gain, np.array(wfac), config.vlc)


def vlc_snr(config: ScenarioConfig, weather: str) -> float:
    """Deterministic no-interference VLC SNR of the desired link."""
    st = _statics(config)
    return float(_s_vlc(config, st, (weather,))[0] / st.n_vlc)


class _Drawn(NamedTuple):
    """The lane points of one chunk, or of a merged group of chunks, as the
    interferer pass reads them."""

    n: int
    trial: np.ndarray
    coord: np.ndarray
    active: np.ndarray          # outside the exclusion disc: an interferer
    fade: np.ndarray            # one RF fade per lane point
    lanes: tuple[slice, slice]  # Deployment.lane_slices()

    @classmethod
    def of(cls, config, deployment, rng):
        """A chunk's deployment, its interferer mask, and its lane points'
        fades, drawn next from rng in storage order."""
        lanes = deployment.lane_slices()
        coord = deployment.coord
        active = np.concatenate([outside_exclusion(config, lane, coord[part])
                                 for lane, part in zip(LANES, lanes)])
        return cls(deployment.counts.shape[1], deployment.trial, coord, active,
                   sample_fading(config.rf, rng, len(coord)), lanes)


def _merged(chunks: list) -> _Drawn:
    """A group's chunks as one _Drawn: each lane's points chunk after chunk,
    the trials numbered after the earlier chunks'.  A group of one is
    returned as is."""
    if len(chunks) == 1:
        return chunks[0]
    first = np.cumsum([0] + [c.n for c in chunks]).tolist()
    parts = [(c, c.lanes[lane], a) for lane in LANES for c, a in zip(chunks, first)]
    trial = np.concatenate([c.trial[part] + a for c, part, a in parts])
    coord, active, fade = (np.concatenate([getattr(c, field)[part] for c, part, _ in parts])
                           for field in ("coord", "active", "fade"))
    n_same = sum(c.lanes[0].stop for c in chunks)   # lane 0 starts at 0
    return _Drawn(first[-1], trial, coord, active, fade,
                  (slice(0, n_same), slice(n_same, len(coord))))


def _interference_pass(drawn: _Drawn, base: ScenarioConfig, weathers):
    """The interference powers, VLC[W, n] and RF[n], of the n trials drawn.

    base gives the geometry and the channel parameters.  Each lane's
    points are evaluated in windows of _WINDOW slices of _BLOCK points: the
    geometry and the RF terms for every point, the optical terms for the
    lit ones only (interferers the RSU sees, since any other point has zero
    gain, hence zero power in every weather).  Only the optical attenuation
    differs between the W weather names.

    The sums start at zero and add, lane by lane, one bincount per slice
    of the lane's points, in storage order, one weather row at a time;
    excluded and unlit points add exactly +0.0.  A bin adds only its own
    trial's points, so the slices fix the bits and the windows do not: a
    merged group whose lanes fit in one slice gives every chunk the sums
    it gets alone.
    """
    coeffs = np.array([[WEATHER_ATTENUATION_DB_PER_KM[weather]] for weather in weathers])
    # read at call time, so that a window holds whole slices whatever _BLOCK is
    window = _WINDOW * _BLOCK
    i_vlc = np.zeros((len(weathers), drawn.n))
    i_rf = np.zeros(drawn.n)
    for lane, part in zip(LANES, drawn.lanes):
        for lo in range(part.start, part.stop, window):
            hi = min(lo + window, part.stop)
            p_rf, lit, p_vlc = _block_terms(base, lane, drawn.coord[lo:hi],
                                            drawn.active[lo:hi], drawn.fade[lo:hi], coeffs)
            trial = drawn.trial[lo:hi]
            for x in range(0, hi - lo, _BLOCK):
                i_rf += np.bincount(trial[x:x + _BLOCK], p_rf[x:x + _BLOCK], minlength=drawn.n)
                i, j = np.searchsorted(lit, (x, x + _BLOCK))
                bins = trial[lit[i:j]]
                for row, p in zip(i_vlc, p_vlc[:, i:j]):
                    row += np.bincount(bins, p, minlength=drawn.n)
    return i_vlc, i_rf


def _block_terms(base: ScenarioConfig, lane: int, coord, active, fade, coeffs):
    """(p_rf, lit, p_vlc) of one window of lane points at positions coord,
    with their interferer mask and RF fades; coeffs[W, 1] holds the
    weathers' attenuation coefficients.

    p_rf is every point's faded RF power, zero where the point is
    excluded; lit indexes the lit points and p_vlc[W, len(lit)] holds
    their optical powers per weather.  The paths come from rsu_paths, and
    the lit points' gains from its d2 and cosines gathered at them.
    Clear air (a zero coefficient) gets the factor 1.0 without a pow,
    since 10 ** -0.0 is exactly 1.0, and a clear-only window calls no
    attenuation_factor at all.  Every term is elementwise, so a window's
    terms are those of its slices computed one by one.
    """
    d2, d, cos_phi, cos_psi = rsu_paths(base, lane, coord)
    p_rf = rf_mean_rx_power(d, base.rf)
    p_rf *= fade
    p_rf *= active   # finite terms >= 0: an excluded point's is exactly +0.0
    # an unlit point adds exactly +0.0, and bincount adds in input order:
    # leaving it out changes no sum
    lit = sees(cos_phi, cos_psi, base.vlc)
    lit &= active
    lit = np.flatnonzero(lit)
    gain = seen_gain(d2[lit], cos_phi[lit], cos_psi[lit], base.vlc)
    hazy = coeffs[:, 0] != 0.0
    wfac = np.ones((len(coeffs), len(lit)))
    if hazy.any():   # else no call: its distance check holds, as d = sqrt(d2) >= 0
        wfac[hazy] = attenuation_factor(coeffs[hazy], d[lit])
    return p_rf, lit, vlc_rx_electrical_power(gain, wfac, base.vlc)


def simulate_trials(config: ScenarioConfig, weathers, rng: np.random.Generator,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """n coupled draws: VLC SINRs per weather name, [W, n], and RF SINRs, [n].

    The stream is consumed in a weather-independent order: Poisson counts,
    lane positions, desired RF fades, one RF fade per lane point.  Every
    weather therefore sees the same trials, and row w equals a run with
    weathers[w] alone; weather does not touch the RF link.  The group of
    one of simulate_chunks.
    """
    return next(simulate_chunks([(config, rng, n)], weathers))


def simulate_chunks(chunks, weathers):
    """Simulate chunks of trials and yield each one's SINRs, as
    simulate_trials gives them, in order.

    chunks yields (config, rng, n), each chunk with a private stream that
    it consumes as simulate_trials does.  The chunks are one sweep's, their
    configs differing in distance_r alone: a group shares the geometry and
    channels that the interferer pass reads.  Consecutive chunks, _GROUP
    at most, form a group while their lane points fit in one _BLOCK per
    lane; a group's interferers are evaluated in one pass
    (_interference_pass), so a sparse chunk pays mainly for its draws.  A
    chunk with more points forms a group of its own.  Every chunk gets the
    bits it gets alone.  The desired-link constants are computed once per
    run of chunks with the same config object (one distance of a sweep).
    """
    group, load, held = [], np.zeros(2, dtype=np.int64), None
    for config, rng, n in chunks:
        if config is not held:
            held = config
            st = _statics(config)
            link = st, _s_vlc(config, st, weathers)[:, None]
        deployment = draw_deployment(config, rng, n)
        fade = sample_fading(config.rf, rng, n)   # the desired link's, then the lane points'
        chunk = config, _Drawn.of(config, deployment, rng), link, fade
        points = deployment.counts.sum(axis=1)
        del deployment, fade   # the chunk holds the draws; the counts are not needed
        if group and (load + points > _BLOCK).any():
            yield from _group_sinrs(group, weathers)   # empties the group
            load[:] = 0
        group.append(chunk)
        del chunk   # only the group holds the draws, until they are scored
        load += points
        if len(group) == _GROUP or (load > _BLOCK).any():
            # no chunk can join this group: score it before the next draw
            yield from _group_sinrs(group, weathers)
            load[:] = 0
    if group:
        yield from _group_sinrs(group, weathers)


def _group_sinrs(group: list, weathers):
    """Each chunk's SINRs, from a group of (config, _Drawn, link, desired
    fades): one pass over the merged chunks, each chunk scored on its own
    trials of the sums.  The group is emptied before the pass."""
    drawn = _merged([chunk for _, chunk, _, _ in group])
    scored = [(chunk.n, link, fade) for _, chunk, link, fade in group]
    base = group[0][0]
    group.clear()   # only the merged draws are held through the pass
    i_vlc, i_rf = _interference_pass(drawn, base, weathers)
    del drawn
    a = 0
    for n, (st, s_vlc), fade in scored:
        yield (sinr(s_vlc, i_vlc[:, a:a + n], st.n_vlc),
               sinr(st.s_rf_mean * fade, i_rf[a:a + n], st.n_rf))
        a += n


def _by_mode(sinr_vlc, sinr_rf, dtype):
    """An empty [..., 4, n] array ([4] for scalar SINRs) and its mode-major view."""
    shape = np.broadcast_shapes(np.shape(sinr_vlc), np.shape(sinr_rf))
    out = np.empty(shape[:-1] + (len(MODES),) + shape[-1:], dtype)
    return out, np.moveaxis(out, len(shape) - 1, 0)


def mode_success(sinr_vlc, sinr_rf, config: ScenarioConfig):
    """Reception of every mode, in MODES order: ok[..., 4, n].

    sinr_vlc[W, n] with sinr_rf[n] gives [W, 4, n], one block per weather;
    scalar SINRs give [4].  A link decodes iff its SINR reaches the
    config's decode threshold.  Link aggregation duplicates the packet on
    both links, so it succeeds if either link decodes; best-link selection
    cannot beat that, so the non-aggregated hybrid shares that event.
    """
    ok, by_mode = _by_mode(sinr_vlc, sinr_rf, bool)
    ok_v = sinr_vlc >= db_to_linear(config.sinr_threshold_vlc_db)
    ok_r = sinr_rf >= db_to_linear(config.sinr_threshold_rf_db)
    by_mode[0], by_mode[1] = ok_v, ok_r
    by_mode[2] = by_mode[3] = ok_v | ok_r
    return ok


def mode_rates(sinr_vlc, sinr_rf, config: ScenarioConfig):
    """Achievable rate (bits/s) of every mode, in MODES order, shaped as in
    mode_success.  Rates are Shannon-form: the desired vehicle's access
    probability rho_a scales every mode, the aggregation overhead beta_ov
    only the aggregated sum."""
    rate, by_mode = _by_mode(sinr_vlc, sinr_rf, float)
    r_v = config.vlc.bandwidth * np.log2(1.0 + sinr_vlc)
    r_r = config.rf.bandwidth * np.log2(1.0 + sinr_rf)
    rho = config.rho_a
    by_mode[0], by_mode[1] = rho * r_v, rho * r_r
    by_mode[2] = config.beta_ov * rho * (r_v + r_r)
    by_mode[3] = rho * np.maximum(r_v, r_r)
    return rate


def minimum_transmission_time(rate_bps: float, payload_bytes: float) -> float:
    """Seconds to push the payload at the given rate; inf at zero rate."""
    if rate_bps <= 0.0:
        return math.inf
    return 8.0 * payload_bytes / rate_bps


def outage_rate(payload_bytes: float, t_th: float) -> float:
    """Rate (bits/s) below which the payload misses the delay threshold.

    A trial is in delay outage iff its rate < 8H / t_th, i.e. its minimum
    transmission time exceeds t_th.
    """
    if t_th <= 0:
        raise InvalidArgumentError("t_th must be > 0")
    return 8.0 * payload_bytes / t_th


def _simpson(f, a: float, b: float) -> float:
    x = np.linspace(a, b, 2 * _SIMPSON_PANELS + 1)
    y = f(x)
    return (b - a) / (6 * _SIMPSON_PANELS) * (
        y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def prp_rf_closed_form(config: ScenarioConfig) -> float:
    """Exact RF PRP under Rayleigh fading with the PPP interferers.

    The desired link decodes iff P0 g0 >= theta (I + N), with unit-mean
    exponential g0, so PRP = exp(-theta N / P0) * E[exp(-s I)] with
    s = theta / P0.  Interferers form a Poisson process of density
    lambda * rho on each lane, each with its own Rayleigh fade, so the
    Laplace functional of the process gives

        E[exp(-s I)] = exp(-lambda rho sum_lanes int s P(t) / (1 + s P(t)) dt)

    with P(t) the mean received power from lane position t, integrated
    over each lane minus the points within EXCLUSION_RADIUS_M of the
    desired vehicle (Haenggi, Stochastic Geometry for Wireless Networks,
    2012, ch. 5).  Integrals by composite Simpson quadrature over the 3-D
    distances alone.  At lambda rho = 0 this is the interference-free
    oracle exp(-theta N / P0), returned without quadrature.
    """
    if config.rf.fading != FADING_RAYLEIGH:
        raise UnsupportedModelError("closed form requires Rayleigh fading")
    st = _statics(config)
    theta = db_to_linear(config.sinr_threshold_rf_db)
    quiet = math.exp(-theta * st.n_rf / st.s_rf_mean)
    density = config.lambda_density * config.rho_access
    if density == 0.0:
        return quiet
    s = theta / st.s_rf_mean
    L = config.geometry.lane_half_length
    integral = 0.0
    for lane in LANES:
        def load(t, lane=lane):
            sp = s * rf_mean_rx_power(rsu_paths(config, lane, t)[1], config.rf)
            return sp / (1.0 + sp)

        integral += _simpson(load, -L, L)
        # the lane's excluded interval, where it cuts the exclusion disc
        centre, offset = exclusion_disc(config, lane)
        if abs(offset) < EXCLUSION_RADIUS_M:
            half = math.sqrt(EXCLUSION_RADIUS_M ** 2 - offset ** 2)
            lo, hi = max(-L, centre - half), min(L, centre + half)
            if lo < hi:
                integral -= _simpson(load, lo, hi)
    return quiet * math.exp(-density * integral)


def vlc_cutoff_distance(config: ScenarioConfig, weather: str,
                        theta: float, lo: float = 10.0, hi: float = 1000.0,
                        tol: float = 1e-3) -> float:
    """Distance where the deterministic VLC SNR crosses theta, by bisection.

    Requires SNR(lo) >= theta > SNR(hi); the SNR is strictly decreasing in
    distance over the bracketing range for the default geometry (closer
    than ~10 m the headlamp no longer points at the lamp-post receiver,
    so the bracket starts beyond the near field).
    """
    def snr(distance):
        return vlc_snr(config.with_distance(distance), weather)

    if snr(lo) < theta or snr(hi) >= theta:
        raise InvalidArgumentError("cutoff is not bracketed by [lo, hi]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if snr(mid) >= theta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
