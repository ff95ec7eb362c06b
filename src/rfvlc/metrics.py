"""Coupled per-trial SINR draws and the PRP / DOR / rate metrics.

One trial shares a single interferer deployment between the optical and
radio links: the VLC SINR is fully deterministic given the deployment,
while every RF power (desired and interfering) gets an independent fading
draw.  Trials are simulated as arrays, a chunk at a time, for every
distance and every weather at once (simulate_trials): weather only
attenuates optical paths, and distance only moves the desired link and
the exclusion disc around it.  A chunk only reads its stream (_draw);
consecutive sparse chunks are merged into one group (_merged,
simulate_chunks), whose interferer terms are computed once (_lane_terms)
and then summed per distance (_interference_sums, one bincount per sum
in storage order), the whole group's SINRs written in place; every
(chunk, distance) still gets the bits it gets alone.  The desired link's
constants (desired_links) are computed once for all of a sweep's
distances.
The four operating modes are scored on the same trials, their reception
by mode_success and their rates by mode_rates, so mode comparisons are
exact event inclusions rather than statistical ones.  Both score only
the modes asked for, in the order asked (a sweep's spec.modes), each
row written in place: a subset's rows are the bits of the full score's.
"""

from __future__ import annotations

import math
from itertools import accumulate
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

# Lane points per term window, and the lane points (both lanes) at which a
# pooled group closes (simulate_chunks).  Interferer terms are computed a
# window at a time, so a dense chunk pays the fixed cost of each numpy call
# once per 16384 points; only the terms are kept, so the window's
# temporaries (about a dozen arrays of its length) bound the kernel's
# memory whatever the density.  No bit depends on it: terms are
# elementwise, and the sums add a group's points in storage order
# (_interference_sums).
_WINDOW = 16384

# Chunks at which a pooled group closes, whatever their lane points: a group
# holds every chunk's draws until they are merged, then the merged draws,
# their terms and [W + 2, trials] floats of sums and desired signal, reused
# distance after distance, until it is scored at every distance (~2.0 MB in
# 4 weathers).
_GROUP = 10

_SIMPSON_PANELS = 20_000   # per integral in prp_rf_closed_form


def sinr(signal, interference_sum, noise: float, out=None):
    """signal / (interference + noise); signal and interference may be arrays.

    out, an array of the result's shape, receives the result in place; it
    may be interference_sum itself.  Without it a new array is returned.
    """
    if noise <= 0:
        raise InvalidArgumentError("noise must be > 0")
    # the least value, NaNs skipped, or 0: below 0 iff some value is, and
    # one pass with no [W, n] flags
    if any(np.fmin.reduce(x, axis=None, initial=0.0) < 0 for x in (signal, interference_sum)):
        raise InvalidArgumentError("signal and interference must be >= 0")
    return np.divide(signal, np.add(interference_sum, noise, out=out), out=out)


class DesiredLink(NamedTuple):
    """The desired link's deterministic constants at one distance."""

    s_vlc: np.ndarray   # received VLC power per weather, [W, 1]
    n_vlc: float
    s_rf_mean: float
    n_rf: float


def desired_links(config: ScenarioConfig, distances, weathers) -> list[DesiredLink]:
    """The desired link's constants at each of distances, in order, with
    config's geometry and channels (its distance_r is not read).

    The paths and gains of every distance come from one rsu_links call,
    and the noise powers are computed once.  The weather attenuation
    factors, one per (distance, weather), and the mean RF powers, one per
    distance, are computed on object arrays, which apply Python's float
    pow to each element: the bits of the scalar calls, where a float
    array pow may round differently.
    """
    d3d, gain = rsu_links(config, LANE_SAME, np.asarray(distances, dtype=float))
    d3d = d3d.astype(object)
    coeffs = np.array([WEATHER_ATTENUATION_DB_PER_KM[weather] for weather in weathers],
                      dtype=object)
    wfac = attenuation_factor(coeffs, d3d[:, None]).astype(float)
    s_vlc = vlc_rx_electrical_power(gain[:, None], wfac, config.vlc)
    n_vlc, n_rf = vlc_noise_power(config.vlc), rf_noise_power(config.rf)
    return [DesiredLink(s[:, None], n_vlc, s_rf, n_rf)
            for s, s_rf in zip(s_vlc, rf_mean_rx_power(d3d, config.rf).tolist())]


def vlc_snr(config: ScenarioConfig, weather: str) -> float:
    """Deterministic no-interference VLC SNR of the desired link."""
    link, = desired_links(config, (config.distance_r,), (weather,))
    return float(link.s_vlc[0, 0] / link.n_vlc)


class _Lanes(NamedTuple):
    """The trials and lane points of a chunk as drawn (_draw), or of a group
    of chunks merged (_merged), as the interferer terms and the SINRs read
    them."""

    desired: np.ndarray         # one desired RF fade per trial
    trial: np.ndarray           # each point's trial, int32 in [0, len(desired))
    coord: np.ndarray
    fade: np.ndarray            # one RF fade per lane point, until _lane_terms
                                # scales it into the point's RF power
    lanes: tuple[slice, slice]  # Deployment.lanes


def _draw(config: ScenarioConfig, rng: np.random.Generator, n: int) -> _Lanes:
    """A chunk of n trials, as _Lanes.

    The whole chunk's stream is read here, in one fixed order: the
    deployment (the lanes' Poisson totals, then each point's trial and
    position), then the fades, in one sample_fading call: the n desired
    fades, then one per lane point in storage order.  No draw reads
    config.distance_r, so every distance of a sweep shares the chunk.
    """
    deployment = draw_deployment(config, rng, n)
    fade = sample_fading(config.rf, rng, n + len(deployment.coord))
    return _Lanes(fade[:n], deployment.trial, deployment.coord, fade[n:], deployment.lanes)


def _merged(chunks: list) -> _Lanes:
    """A group's chunks as one _Lanes: the desired fades chunk after chunk,
    each lane's points chunk after chunk, each chunk's trials numbered
    after the earlier chunks'.  A group of one is its chunk."""
    if len(chunks) == 1:
        return chunks[0]
    first = list(accumulate((len(c.desired) for c in chunks), initial=0))
    trial = np.concatenate([c.trial[c.lanes[lane]] + a
                            for lane in LANES for c, a in zip(chunks, first)])
    coord, fade = (np.concatenate([getattr(c, field)[c.lanes[lane]]
                                   for lane in LANES for c in chunks])
                   for field in ("coord", "fade"))
    n_same = sum(c.lanes[0].stop for c in chunks)   # lane 0 starts at 0
    return _Lanes(np.concatenate([c.desired for c in chunks]), trial, coord, fade,
                  (slice(0, n_same), slice(n_same, len(coord))))


class _Terms(NamedTuple):
    """The interferer terms of a group's lane points, which every distance
    shares: only the exclusion disc, applied to the sums, reads distance_r."""

    p_rf: np.ndarray        # each lane point's faded RF power
    lit: np.ndarray         # the lit points' indices, ascending
    lit_trial: np.ndarray   # the lit points' trials
    p_vlc: np.ndarray       # [W, len(lit)]: the lit points' optical powers per weather


def _lane_terms(drawn: _Lanes, base: ScenarioConfig, weathers) -> _Terms:
    """The terms of drawn's lane points, with base's geometry and channels.

    Each lane's points are evaluated in windows of _WINDOW points
    (_block_terms), and only the terms are kept, so a window's temporaries
    bound the memory whatever the density.  Terms are elementwise: the
    windows change no bit.  The RF powers are the lane fades, scaled in
    place: drawn.fade holds them from here.
    """
    coeffs = np.array([WEATHER_ATTENUATION_DB_PER_KM[weather] for weather in weathers],
                      dtype=float)[:, None]
    lit, p_vlc = [np.empty(0, np.intp)], [np.empty((len(weathers), 0))]
    for lane, part in zip(LANES, drawn.lanes):
        for lo in range(part.start, part.stop, _WINDOW):
            hi = min(lo + _WINDOW, part.stop)
            seen, vlc = _block_terms(base, lane, drawn.coord[lo:hi], drawn.fade[lo:hi], coeffs)
            lit.append(seen + lo)
            p_vlc.append(vlc)
    lit = np.concatenate(lit)
    return _Terms(drawn.fade, lit, drawn.trial[lit], np.concatenate(p_vlc, axis=1))


def _block_terms(base: ScenarioConfig, lane: int, coord, fade, coeffs):
    """(lit, p_vlc) of one window of lane points at positions coord, whose
    RF fades are scaled in place into their faded RF powers; coeffs[W, 1]
    holds the weathers' attenuation coefficients.

    lit indexes the points the RSU sees (sees), since any other point has
    zero gain, hence zero optical power in every weather, and
    p_vlc[W, len(lit)] holds their optical powers per weather.  The paths
    come from rsu_paths, and the lit points' gains from its d2 and cosines
    gathered at them.  Only the optical attenuation differs between the
    weathers: clear air (a zero coefficient) gets the factor 1.0 without a
    pow, since 10 ** -0.0 is exactly 1.0, and a clear-only window calls no
    attenuation_factor at all.
    """
    d2, d, cos_phi, cos_psi = rsu_paths(base, lane, coord)
    np.multiply(fade, rf_mean_rx_power(d, base.rf), out=fade)
    lit = np.flatnonzero(sees(cos_phi, cos_psi, base.vlc))
    gain = seen_gain(d2[lit], cos_phi[lit], cos_psi[lit], base.vlc)
    hazy = coeffs[:, 0] != 0.0
    wfac = np.ones((len(coeffs), len(lit)))
    if hazy.any():   # else no call: its distance check holds, as d = sqrt(d2) >= 0
        wfac[hazy] = attenuation_factor(coeffs[hazy], d[lit])
    return lit, vlc_rx_electrical_power(gain, wfac, base.vlc)


def _interference_sums(drawn: _Lanes, terms: _Terms, config: ScenarioConfig, i_vlc, i_rf):
    """Write the interference powers of drawn's n trials (n = len(drawn.desired))
    at config's distance over i_vlc[W, n] and i_rf[n].

    The interferers are the lane points outside config's exclusion disc
    (outside_exclusion).  One bincount of every lane point's RF term gives
    i_rf, and one of the lit points' optical terms each weather row of
    i_vlc, in storage order (lane 0's points, then lane 1's); a point
    inside the disc goes to a spare bin n, which is dropped, so the bits
    are those of leaving it out.  A bin adds only its own trial's points,
    in that order, so a merged group gives every chunk the sums it gets
    alone.
    """
    n = len(drawn.desired)
    keep = np.concatenate([outside_exclusion(config, lane, drawn.coord[part])
                           for lane, part in zip(LANES, drawn.lanes)])
    # intp bins, so that bincount casts no copy of them; each point's bin
    # is dropped before the lit points' are built
    i_rf[:] = np.bincount(np.where(keep, drawn.trial, np.intp(n)), terms.p_rf,
                          minlength=n + 1)[:n]
    trial = np.where(keep[terms.lit], terms.lit_trial, np.intp(n))
    for row, p in zip(i_vlc, terms.p_vlc):
        row[:] = np.bincount(trial, p, minlength=n + 1)[:n]


def simulate_trials(config: ScenarioConfig, distances, weathers, rng: np.random.Generator,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """n coupled draws, shared by every one of distances: VLC SINRs per
    distance and weather name, [D, W, n], and RF SINRs per distance, [D, n].

    The stream is consumed in an order that no distance or weather changes
    (_draw): the lanes' Poisson totals, each lane point's trial and
    position, desired RF fades, one RF fade per lane point.  Every distance
    and weather therefore sees the same trials, and row [d, w] equals a
    run with distances[d] and weathers[w] alone; weather does not touch
    the RF link.  config gives the geometry and channels (its distance_r
    is not read).  The group of one of simulate_chunks.
    """
    sinr_vlc = np.empty((len(distances), len(weathers), n))
    sinr_rf = np.empty((len(distances), n))
    for _, d, (vlc, rf) in simulate_chunks(config, distances, weathers, [(rng, n)]):
        sinr_vlc[d], sinr_rf[d] = vlc, rf
    return sinr_vlc, sinr_rf


def simulate_chunks(config: ScenarioConfig, distances, weathers, chunks):
    """Simulate chunks of trials at every one of distances, and yield
    (i, d, (sinr_vlc, sinr_rf)): chunk i's SINRs at distances[d], as
    simulate_trials gives that row.

    chunks yields (rng, n), each chunk with a stream that it consumes as
    simulate_trials does.  A chunk's numbers are all drawn before the next
    chunk is pulled, so the chunks may share one generator whose state is
    set as each is pulled.  config gives the geometry and channels (its
    distance_r is not read), and the desired links are computed once for
    every distance (desired_links).  Consecutive chunks form a group,
    which closes at the chunk that brings it to _GROUP chunks or to
    _WINDOW lane points, and is scored before the next chunk is pulled; a
    chunk of _WINDOW points or more closes its group.  A group is drawn
    once for every distance, its interferer terms computed once, and its
    SINRs once per distance over all its chunks (_group_sinrs).  It yields
    distance after distance, each distance's chunks in order, as views of
    one block of SINRs that the next distance overwrites: score them
    before pulling the next.  Every (chunk,
    distance) gets the bits it gets alone, since a trial's sum adds its
    own points in storage order whatever the group (_interference_sums).
    """
    sites = [config.with_distance(distance) for distance in distances]
    links = desired_links(config, distances, weathers)
    group, points = [], 0   # only the group holds the draws, until they are scored
    for i, (rng, n) in enumerate(chunks):
        group.append(_draw(config, rng, n))
        points += len(group[-1].coord)
        if len(group) == _GROUP or points >= _WINDOW:
            # empties the group
            yield from _group_sinrs(i + 1 - len(group), group, config, sites, links, weathers)
            points = 0
    if group:
        yield from _group_sinrs(i + 1 - len(group), group, config, sites, links, weathers)


def _group_sinrs(first: int, group: list, base: ScenarioConfig, sites, links, weathers):
    """The SINRs of a group of chunks (_Lanes), numbered from first, at each
    of sites (configs) with its DesiredLink, as simulate_chunks yields them.

    The chunks are merged (_merged) and their terms computed once
    (_lane_terms).  Per site, the group takes three steps: its sums over
    one [W, trials] block (_interference_sums), then its VLC and its RF
    SINRs written in place over them, the desired signal being its desired
    fades times the site's mean power.  Each chunk's [:, a:b] of them is
    yielded as views.  The group is emptied before the terms are computed.
    """
    bounds = list(accumulate((len(c.desired) for c in group), initial=0))
    drawn = _merged(group)
    group.clear()   # only the merged draws are held from here
    terms = _lane_terms(drawn, base, weathers)
    n = bounds[-1]
    i_vlc, i_rf, signal = np.empty((len(weathers), n)), np.empty(n), np.empty(n)
    for d, (site, link) in enumerate(zip(sites, links)):
        _interference_sums(drawn, terms, site, i_vlc, i_rf)
        sinr(link.s_vlc, i_vlc, link.n_vlc, out=i_vlc)
        sinr(np.multiply(link.s_rf_mean, drawn.desired, out=signal), i_rf, link.n_rf, out=i_rf)
        for i, (a, b) in enumerate(zip(bounds, bounds[1:]), first):
            yield i, d, (i_vlc[:, a:b], i_rf[a:b])


def _by_mode(sinr_vlc, sinr_rf, modes, dtype):
    """An empty [..., len(modes), n] array ([len(modes)] for scalar SINRs)
    and each mode's row of it, by name."""
    if len(set(modes)) < len(modes) or not set(modes) <= set(MODES):
        raise InvalidArgumentError(f"modes must be distinct names of {MODES}, got {modes!r}")
    shape = np.broadcast(sinr_vlc, sinr_rf).shape
    out = np.empty(shape[:-1] + (len(modes),) + shape[-1:], dtype)
    trials = (slice(None),) * min(len(shape), 1)   # the trial axis, after the mode axis
    return out, {mode: out[(..., m, *trials)] for m, mode in enumerate(modes)}


def mode_success(sinr_vlc, sinr_rf, config: ScenarioConfig, modes=MODES):
    """Reception of each of modes, in that order: ok[..., len(modes), n].

    sinr_vlc[W, n] with sinr_rf[n] gives [W, len(modes), n], one block per
    weather; scalar SINRs give [len(modes)].  A link decodes iff its SINR
    reaches the config's decode threshold.  Link aggregation duplicates
    the packet on both links, so it succeeds if either link decodes;
    best-link selection cannot beat that, so the non-aggregated hybrid
    shares that event.  Each row is written in place, and a mode that is
    not asked for is not scored.
    """
    ok, rows = _by_mode(sinr_vlc, sinr_rf, modes, bool)
    # the hybrids read the pure rows, or arrays of their own where those
    # are not asked for
    ok_v = np.greater_equal(sinr_vlc, db_to_linear(config.sinr_threshold_vlc_db),
                            out=rows.get(MODE_PURE_VLC))
    ok_r = np.greater_equal(sinr_rf, db_to_linear(config.sinr_threshold_rf_db),
                            out=rows.get(MODE_PURE_RF))
    for mode in (MODE_LA, MODE_NON_LA):
        if mode in rows:
            np.logical_or(ok_v, ok_r, out=rows[mode])
    return ok


def mode_rates(sinr_vlc, sinr_rf, config: ScenarioConfig, modes=MODES):
    """Achievable rate (bits/s) of each of modes, shaped and written as in
    mode_success.  Rates are Shannon-form: the desired vehicle's access
    probability rho_a scales every mode, the aggregation overhead beta_ov
    only the aggregated sum."""
    rate, rows = _by_mode(sinr_vlc, sinr_rf, modes, float)
    r_v = config.vlc.bandwidth * np.log2(1.0 + sinr_vlc)
    r_r = config.rf.bandwidth * np.log2(1.0 + sinr_rf)
    rho = config.rho_a
    if MODE_PURE_VLC in rows:
        np.multiply(rho, r_v, out=rows[MODE_PURE_VLC])
    if MODE_PURE_RF in rows:
        np.multiply(rho, r_r, out=rows[MODE_PURE_RF])
    if MODE_LA in rows:
        np.multiply(config.beta_ov * rho, np.add(r_v, r_r, out=rows[MODE_LA]),
                    out=rows[MODE_LA])
    if MODE_NON_LA in rows:
        np.multiply(rho, np.maximum(r_v, r_r, out=rows[MODE_NON_LA]), out=rows[MODE_NON_LA])
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
    link, = desired_links(config, (config.distance_r,), ())
    theta = db_to_linear(config.sinr_threshold_rf_db)
    quiet = math.exp(-theta * link.n_rf / link.s_rf_mean)
    density = config.lambda_density * config.rho_access
    if density == 0.0:
        return quiet
    s = theta / link.s_rf_mean
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
