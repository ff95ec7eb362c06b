"""Chunk kernel tests: the array code against the scalar channel functions."""

import dataclasses
import math
from itertools import accumulate

import numpy as np
import pytest

from rfvlc import (FADING_NAKAGAMI, FADING_RAYLEIGH, Pose3, ScenarioConfig,
                   WEATHER_ATTENUATION_DB_PER_KM, WEATHER_KINDS, attenuation_factor,
                   rf_mean_rx_power, rf_noise_power, sample_fading, sinr,
                   vlc_noise_power, vlc_rx_electrical_power)
from rfvlc import metrics
from rfvlc.engine import trial_rng
from rfvlc.metrics import _draw, _lane_terms, _merged, simulate_chunks, simulate_trials
from rfvlc.scenario import (EXCLUSION_RADIUS_M, LANE_SAME, LANES,
                            draw_deployment, exclusion_disc, outside_exclusion, rsu_links,
                            rsu_paths)
from rfvlc.vlc_channel import path_gain, sees, seen_gain

# lambda * rho = 1e-2: ~20 interferers per trial; rain makes the optical
# attenuation factor differ from 1.
DENSE = dataclasses.replace(ScenarioConfig(), rho_access=1.0, distance_r=30.0)
RAIN = "rain"
ALL_WEATHERS = WEATHER_KINDS
N = 256
SEED = 0x5EED


def _dense(fading):
    rf = dataclasses.replace(DENSE.rf, fading=fading, nakagami_m=2.5)
    return dataclasses.replace(DENSE, rf=rf)


# Both lanes off the axes through the RSU: the desired vehicle, and the
# exclusion disc around it, sit off the x-axis.
OFF_AXIS = dataclasses.replace(DENSE, geometry=dataclasses.replace(
    DENSE.geometry, lane_x_offset=3.5, lane_y_offset=-2.0))


def _with_rsu(config, tilt_deg, fov):
    return dataclasses.replace(
        config, geometry=dataclasses.replace(config.geometry, rsu_tilt_deg=tilt_deg),
        vlc=dataclasses.replace(config.vlc, fov=fov))


# The RSU looks straight down with a 90 degree FOV: it sees every
# headlamp aimed at the intersection, on both lanes.
MOSTLY_LIT = _with_rsu(DENSE, 90.0, 90.0)


def _desired_vehicle(config):
    """The desired vehicle on its lane, headlamp aimed at the intersection."""
    geo = config.geometry
    return Pose3(config.distance_r, geo.lane_y_offset, geo.tx_height,
                 axis=(-1.0, 0.0, 0.0))


def _los_cosines(dx, dy, dz, d, tx_axis, rx_axis):
    """(cos_phi, cos_psi) of LOS paths with emitter -> detector offsets
    (dx, dy, dz) of length d: the emission cosine off the unit tx boresight
    and the incidence cosine off the unit rx normal, as dot products.  The
    offsets and the axes' components are scalars or per-link arrays."""
    cos_phi = (dx * tx_axis[0] + dy * tx_axis[1] + dz * tx_axis[2]) / d
    # rx -> tx direction against the receiver normal
    cos_psi = (-dx * rx_axis[0] - dy * rx_axis[1] - dz * rx_axis[2]) / d
    return cos_phi, cos_psi


def _los_gain(dx, dy, dz, tx_axis, rx_axis, params):
    """path_gain of LOS paths from their offsets and axes (_los_cosines)."""
    d2 = dx * dx + dy * dy + dz * dz
    return path_gain(d2, *_los_cosines(dx, dy, dz, np.sqrt(d2), tx_axis, rx_axis), params)


def _link(tx, rx, config):
    """(distance, Lambertian gain) of the LOS link from pose tx to pose rx."""
    dx, dy, dz = rx.x - tx.x, rx.y - tx.y, rx.z - tx.z
    return (math.dist((rx.x, rx.y, rx.z), (tx.x, tx.y, tx.z)),
            float(_los_gain(dx, dy, dz, tx.axis, rx.axis, config.vlc)))


def _lane_poses(config, deployment):
    """Poses of the drawn lane points in storage order, and whether each is
    an interferer (outside the exclusion radius), from the lane layout."""
    geo = config.geometry
    desired = _desired_vehicle(config)
    n_same = deployment.lanes[LANE_SAME].stop
    poses, active = [], []
    for k, c in enumerate(deployment.coord):
        toward = -1.0 if c >= 0 else 1.0
        if k < n_same:
            pose = Pose3(float(c), geo.lane_y_offset, geo.tx_height,
                         axis=(toward, 0.0, 0.0))
        else:
            pose = Pose3(geo.lane_x_offset, float(c), geo.tx_height,
                         axis=(0.0, toward, 0.0))
        poses.append(pose)
        active.append(math.dist((pose.x, pose.y), (desired.x, desired.y))
                      > EXCLUSION_RADIUS_M)
    return poses, active


def _scalar_reference(config, weather, seed, n):
    """Per-trial interference sums and SINRs from the scalar public functions.

    Consumes the stream in the kernel's documented order: deployment,
    desired fades, then one fade per lane point in storage order.
    """
    rng = trial_rng(seed)
    deployment = draw_deployment(config, rng, n)
    desired_fade = sample_fading(config.rf, rng, n)
    fades = sample_fading(config.rf, rng, len(deployment.coord))

    rsu = config.geometry.rsu_pose
    coeff = WEATHER_ATTENUATION_DB_PER_KM[weather]
    i_vlc = [0.0] * n
    i_rf = [0.0] * n
    poses, active = _lane_poses(config, deployment)
    for pose, keep, t, fade in zip(poses, active, deployment.trial, fades):
        if not keep:
            continue
        d_k, g_k = _link(pose, rsu, config)
        i_rf[t] += rf_mean_rx_power(d_k, config.rf) * fade
        i_vlc[t] += vlc_rx_electrical_power(g_k, attenuation_factor(coeff, d_k),
                                            config.vlc)

    d0, g0 = _link(_desired_vehicle(config), rsu, config)
    s_vlc = vlc_rx_electrical_power(g0, attenuation_factor(coeff, d0), config.vlc)
    s_rf = rf_mean_rx_power(d0, config.rf)
    sinr_vlc = [sinr(s_vlc, i, vlc_noise_power(config.vlc)) for i in i_vlc]
    sinr_rf = [sinr(s_rf * g, i, rf_noise_power(config.rf))
               for g, i in zip(desired_fade, i_rf)]
    excluded = active.count(False)
    return deployment, excluded, np.array(i_vlc), np.array(i_rf), sinr_vlc, sinr_rf


def _lit_points(config, deployment):
    """Lane points the RSU sees, per lane, from the public gain, whatever
    the distance's exclusion disc."""
    return np.array([(rsu_links(config, lane, deployment.coord[part])[1] > 0).sum()
                     for lane, part in zip(LANES, deployment.lanes)])


def _lane_points(deployment):
    """The number of drawn points on each lane."""
    return np.array([part.stop - part.start for part in deployment.lanes])


def _interference_sums(config, weathers, rng, n):
    """VLC[W, n] and RF[n] interference sums at config's distance of n
    trials drawn from rng, a group of one."""
    drawn = _merged([_draw(config, rng, n)])
    i_vlc, i_rf = np.zeros((len(weathers), n)), np.zeros(n)
    metrics._interference_sums(drawn, _lane_terms(drawn, config, weathers), config,
                               i_vlc, i_rf)
    return i_vlc, i_rf


def _simulate(config, weathers, rng, n):
    """simulate_trials at config's own distance alone: [W, n] and [n]."""
    sinr_vlc, sinr_rf = simulate_trials(config, (config.distance_r,), weathers, rng, n)
    return sinr_vlc[0], sinr_rf[0]


def _kernel_sums(config, weather, seed, n):
    i_vlc, i_rf = _interference_sums(config, (weather,), trial_rng(seed), n)
    return i_vlc[0], i_rf


def _assert_matches_scalar(config):
    deployment, excluded, i_vlc, i_rf, sinr_vlc, sinr_rf = _scalar_reference(
        config, RAIN, SEED, N)
    k_vlc, k_rf = _kernel_sums(config, RAIN, SEED, N)
    np.testing.assert_allclose(k_vlc, i_vlc, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(k_rf, i_rf, rtol=1e-12, atol=0.0)
    got_vlc, got_rf = _simulate(config, (RAIN,), trial_rng(SEED), N)
    np.testing.assert_allclose(got_vlc[0], sinr_vlc, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got_rf, sinr_rf, rtol=1e-12, atol=0.0)
    return deployment, excluded, i_vlc


@pytest.mark.parametrize("config", [_dense(FADING_RAYLEIGH), _dense(FADING_NAKAGAMI),
                                    OFF_AXIS, MOSTLY_LIT],
                         ids=[FADING_RAYLEIGH, FADING_NAKAGAMI, "off_axis", "mostly_lit"])
def test_kernel_matches_scalar_channel_loop(config):
    deployment, excluded, i_vlc = _assert_matches_scalar(config)
    # the fixture really is dense, on both lanes, with visible interferers
    # and with points inside the exclusion radius
    assert (_lane_points(deployment) > 5 * N).all()
    assert (i_vlc > 0).sum() > N // 2
    assert excluded > 0


@pytest.mark.parametrize("fading", [FADING_RAYLEIGH, FADING_NAKAGAMI])
def test_kernel_matches_scalar_loop_across_block_boundaries(fading, monkeypatch):
    # 7-point term windows split trials, and each lane's last window ends
    # at the lane boundary, inside a window.  The sums read no window, so
    # the run matches the scalar loop and the default run
    config = _dense(fading)
    default = _simulate(config, ALL_WEATHERS, trial_rng(SEED), N)
    monkeypatch.setattr(metrics, "_WINDOW", 7)
    deployment, _, _ = _assert_matches_scalar(config)
    assert (_lane_points(deployment) % 7).all()
    assert len(deployment.coord) > 100 * 7
    windowed = _simulate(config, ALL_WEATHERS, trial_rng(SEED), N)
    for a, b in zip(default, windowed):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


WINDOWS = (7, 1000, 4096, 16384, 65536)


@pytest.mark.parametrize("fading", [FADING_RAYLEIGH, FADING_NAKAGAMI])
@pytest.mark.parametrize("rho_access, n, split", [(0.1, N, 1), (1.0, N // 4, 1),
                                                  (1.0, 4096, 4)],
                         ids=["1e-3", "1e-2", "1e-2_full_chunk"])
def test_term_window_changes_no_bit(fading, rho_access, n, split, monkeypatch):
    # the window changes no bit: windows of 7 to 65536 points give the
    # same bytes, and leave the stream at the same draw
    config = dataclasses.replace(_dense(fading), rho_access=rho_access)
    runs = set()
    for window in WINDOWS:
        monkeypatch.setattr(metrics, "_WINDOW", window)
        rng = trial_rng(SEED)
        sinr_vlc, sinr_rf = _simulate(config, ALL_WEATHERS, rng, n)
        runs.add((sinr_vlc.tobytes(), sinr_rf.tobytes(), rng.random()))
    assert len(runs) == 1
    # each window smaller than a lane splits its points (for a full dense
    # chunk, the default 16384 among them), and lane 0's points end inside
    # a window of each
    counts = _lane_points(draw_deployment(config, trial_rng(SEED), n))
    assert [w for w in WINDOWS if w < counts.min()] == list(WINDOWS[:split])
    assert all(counts[0] % w for w in WINDOWS[:split])


@pytest.mark.parametrize("config", [ScenarioConfig(), _dense(FADING_RAYLEIGH),
                                    _dense(FADING_NAKAGAMI),
                                    dataclasses.replace(DENSE, lambda_density=0.0), OFF_AXIS],
                         ids=["default", FADING_RAYLEIGH, FADING_NAKAGAMI, "no_interferers",
                              "off_axis"])
def test_draw_reads_the_chunk_stream_in_order(config, monkeypatch):
    # _draw reads a chunk's whole stream: the deployment (the lanes'
    # Poisson totals, each point's trial, each point's position), the n
    # desired fades, then one fade per lane point, and nothing after them,
    # the fades in one sample_fading call; a group of one (_merged) is the
    # chunk.  No draw reads the distance.
    rng, by_hand = trial_rng(SEED), trial_rng(SEED)
    calls = []
    monkeypatch.setattr(metrics, "sample_fading",
                        lambda *args: calls.append(args) or sample_fading(*args))
    chunk = _draw(config, rng, N)
    assert len(calls) == 1
    deployment = draw_deployment(config, by_hand, N)
    desired = sample_fading(config.rf, by_hand, N)
    lane_fades = sample_fading(config.rf, by_hand, len(deployment.coord))
    lanes = deployment.lanes
    assert chunk.lanes == lanes and len(chunk.desired) == deployment.n == N
    far = _draw(config.with_distance(250.0), trial_rng(SEED), N)
    assert far.desired.tobytes() == chunk.desired.tobytes()
    for got, want in ((chunk.trial, deployment.trial), (chunk.coord, deployment.coord),
                      (chunk.desired, desired), (chunk.fade, lane_fades)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert chunk.trial.dtype == np.int32
    assert _merged([chunk]) is chunk
    assert rng.random() == by_hand.random()


def _group_shape(config):
    """(seed, trials) of four chunks at config's density, one with no lane
    point and the last one partial."""
    empty = next(s for s in range(SEED, SEED + 10_000)
                 if not draw_deployment(config, trial_rng(s), 1).coord.size)
    return [(SEED, 600), (empty, 1), (SEED + 3, 700), (SEED + 2, 300)]


# lambda rho = 1e-3: 2 points per lane and trial
SPARSE = dataclasses.replace(ScenarioConfig(), rho_access=0.1)


def test_a_group_is_built_bit_for_bit_from_its_chunks():
    # the group's arrays are each chunk's own, the desired fades chunk
    # after chunk, the lane points lane by lane, the trials renumbered after
    # the earlier chunks'
    chunks, desired, want, first = [], [], {lane: [] for lane in LANES}, 0
    for seed, n in _group_shape(SPARSE):
        chunks.append(_draw(SPARSE, trial_rng(seed), n))
        by_hand = trial_rng(seed)
        deployment = draw_deployment(SPARSE, by_hand, n)
        desired.append(sample_fading(SPARSE.rf, by_hand, n))
        fades = sample_fading(SPARSE.rf, by_hand, len(deployment.coord))
        for lane, part in zip(LANES, deployment.lanes):
            want[lane].append((deployment.trial[part] + first, deployment.coord[part],
                               fades[part]))
        first += n
    assert not chunks[1].coord.size
    drawn = _merged(chunks)
    parts = [part for lane in LANES for part in want[lane]]
    n_same = sum(len(coord) for _, coord, _ in want[LANE_SAME])
    assert len(drawn.desired) == first
    assert drawn.lanes == (slice(0, n_same), slice(n_same, len(drawn.coord)))
    for got, field in zip((drawn.desired, drawn.trial, drawn.coord, drawn.fade),
                          (desired, *zip(*parts))):
        expected = np.concatenate(field)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    assert drawn.trial.dtype == np.int32
    # every trial of the group is reached, and only those
    assert drawn.trial.min() == 0 and drawn.trial.max() == first - 1


def test_a_group_gives_each_chunk_its_bits_alone_at_every_distance(monkeypatch):
    # the four chunks pool into one group, scored at 30, 100 and 150 m,
    # each with its own exclusion disc: every (chunk, distance) gets the
    # SINRs of the chunk simulated alone at that distance alone, bit for bit
    sizes = []
    merged = metrics._merged
    monkeypatch.setattr(metrics, "_merged",
                        lambda chunks: sizes.append(len(chunks)) or merged(chunks))
    shape, distances = _group_shape(SPARSE), (30.0, 100.0, 150.0)
    got = [(i, d, tuple(a.copy() for a in sinrs)) for i, d, sinrs in simulate_chunks(
        SPARSE, distances, ALL_WEATHERS, [(trial_rng(seed), n) for seed, n in shape])]
    assert sizes == [len(shape)]
    # distance after distance, each distance's chunks in order
    assert [key[:2] for key in got] == [(i, d) for d in range(3) for i in range(4)]
    for i, d, (vlc, rf) in got:
        seed, n = shape[i]
        alone = simulate_trials(SPARSE, distances[d:d + 1], ALL_WEATHERS, trial_rng(seed), n)
        assert vlc.tobytes() == alone[0][0].tobytes() and rf.tobytes() == alone[1][0].tobytes()
    # the discs at 30 m and at 150 m cut the lane points of some chunk
    for distance in (30.0, 150.0):
        cut = [not outside_exclusion(SPARSE.with_distance(distance), LANE_SAME, chunk.coord[
            chunk.lanes[LANE_SAME]]).all() for chunk in (
                _draw(SPARSE, trial_rng(seed), n) for seed, n in shape)]
        assert any(cut)


def test_a_group_computes_each_distance_sinrs_once(monkeypatch):
    # the four chunks pool into one group: per distance, one VLC and one
    # RF sinr call over the whole group, not one pair per chunk
    calls = []
    monkeypatch.setattr(metrics, "sinr",
                        lambda *args, **kw: calls.append(args) or sinr(*args, **kw))
    chunks = [(trial_rng(seed), n) for seed, n in _group_shape(SPARSE)]
    got = list(simulate_chunks(SPARSE, (30.0, 100.0, 150.0), ALL_WEATHERS, chunks))
    assert len(got) == 12 and len(calls) == 6


@pytest.mark.parametrize("config, n, sizes", [
    # ~21k lane points per chunk: each chunk closes its own group
    (DENSE, 1024, [1, 1, 1]),
    # no lane points: groups close at the cap
    (dataclasses.replace(ScenarioConfig(), lambda_density=0.0), 50, [metrics._GROUP] * 2 + [3]),
    # ~6.3k lane points per chunk: the third chunk brings a group past the window
    (SPARSE, 3000, [3, 3, 1]),
], ids=["dense_chunk", "closed_at_cap", "closed_at_window"])
def test_a_closed_group_is_scored_before_the_next_chunk_is_pulled(config, n, sizes):
    # every (i, d) of a group is yielded, distance after distance, before
    # the next (rng, n) is pulled: a sweep holds one group's draws at a time
    log, distances = [], (30.0, 100.0)

    def chunks():
        for i in range(sum(sizes)):
            log.append(("pull", i))
            yield trial_rng(SEED + i), n

    for i, d, _ in simulate_chunks(config, distances, (RAIN,), chunks()):
        log.append(("score", i, d))
    want = []
    for first, size in zip(accumulate(sizes, initial=0), sizes):
        group = range(first, first + size)
        want += [("pull", i) for i in group]
        want += [("score", i, d) for d in range(len(distances)) for i in group]
    assert log == want


@pytest.mark.parametrize("config, distance, shape", [
    (DENSE, 50.0, [(SEED, 4096)]), (SPARSE, 30.0, _group_shape(SPARSE))],
    ids=["dense_chunk", "pooled_group"])
def test_sums_add_the_kept_terms_in_storage_order(config, distance, shape):
    # each sum is one pass over the group's lane points in storage order,
    # lane 0's then lane 1's, skipping the points inside the disc: bit for
    # bit what np.add.at of the kept points' terms gives, written over
    # buffers that held NaN.  The dense chunk spans three term windows per
    # lane
    drawn = _merged([_draw(config, trial_rng(seed), n) for seed, n in shape])
    terms = _lane_terms(drawn, config, ALL_WEATHERS)
    site = config.with_distance(distance)
    keep = np.concatenate([outside_exclusion(site, lane, drawn.coord[part])
                           for lane, part in zip(LANES, drawn.lanes)])
    n = len(drawn.desired)
    want_rf, want_vlc = np.zeros(n), np.zeros((len(ALL_WEATHERS), n))
    np.add.at(want_rf, drawn.trial[keep], terms.p_rf[keep])
    lit = keep[terms.lit]
    for row, p in zip(want_vlc, terms.p_vlc):
        np.add.at(row, terms.lit_trial[lit], p[lit])
    i_vlc, i_rf = np.full_like(want_vlc, np.nan), np.full_like(want_rf, np.nan)
    metrics._interference_sums(drawn, terms, site, i_vlc, i_rf)
    assert i_rf.tobytes() == want_rf.tobytes() and i_vlc.tobytes() == want_vlc.tobytes()
    # the disc holds a few of the points, and every weather row has lit
    # interferers
    assert 0 < (~keep).sum() < len(keep) // 100
    assert (want_vlc > 0).any(axis=1).all()
    if config is DENSE:
        assert min(_lane_points(drawn)) > 2 * metrics._WINDOW


def test_every_distance_shares_the_chunk_draws():
    # each distance's row matches the scalar loop at that distance alone on
    # the same stream: the same lane points and fades, its own disc and
    # desired link; and the row of one distance is the bits of that
    # distance simulated alone
    distances = (10.0, 30.0, 250.0)
    sinr_vlc, sinr_rf = simulate_trials(DENSE, distances, (RAIN,), trial_rng(SEED), N)
    assert sinr_vlc.shape == (3, 1, N) and sinr_rf.shape == (3, N)
    for d, distance in enumerate(distances):
        config = DENSE.with_distance(distance)
        *_, want_vlc, want_rf = _scalar_reference(config, RAIN, SEED, N)
        np.testing.assert_allclose(sinr_vlc[d, 0], want_vlc, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(sinr_rf[d], want_rf, rtol=1e-12, atol=0.0)
        alone = _simulate(config, (RAIN,), trial_rng(SEED), N)
        assert sinr_vlc[d, 0].tobytes() == alone[0][0].tobytes()
        assert sinr_rf[d].tobytes() == alone[1].tobytes()
    # the desired RF signal is the same fades times each distance's mean
    # power, so the rows differ
    assert len({row.tobytes() for row in sinr_rf}) == 3


def test_interferer_counts_match_the_reference_mask():
    deployment = draw_deployment(DENSE, trial_rng(SEED), N)
    _, active = _lane_poses(DENSE, deployment)
    n_same = deployment.lanes[LANE_SAME].stop
    expected = np.zeros((2, N), dtype=int)
    for k, (t, keep) in enumerate(zip(deployment.trial, active)):
        expected[int(k >= n_same), t] += keep
    got = []   # the interferers per lane and trial: the mask counted over Deployment.trial
    for lane, part in zip(LANES, deployment.lanes):
        keep = outside_exclusion(DENSE, lane, deployment.coord[part])
        got.append(np.bincount(deployment.trial[part][keep], minlength=N))
    assert np.array_equal(got, expected)
    assert 0 < expected.sum() < len(active)


def test_rsu_paths_match_the_reference_deployment():
    # the scalar reference's poses give, through the scalar _los_cosines,
    # every path rsu_paths gives the kernel, bit for bit
    deployment = draw_deployment(DENSE, trial_rng(SEED), N)
    poses, active = _lane_poses(DENSE, deployment)
    rsu = DENSE.geometry.rsu_pose
    assert 0 < active.count(True) < len(active)
    for lane, part in zip(LANES, deployment.lanes):
        coord = deployment.coord[part]
        expected = []
        for p in poses[part]:
            dx, dy, dz = rsu.x - p.x, rsu.y - p.y, rsu.z - p.z
            d2 = dx * dx + dy * dy + dz * dz
            d = math.sqrt(d2)
            expected.append([d2, d, *_los_cosines(dx, dy, dz, d, p.axis, rsu.axis)])
        assert np.transpose(rsu_paths(DENSE, lane, coord)).tobytes() == \
            np.array(expected).tobytes()
        assert outside_exclusion(DENSE, lane, coord).tolist() == active[part]


def _headlamp_axes(config, lane, coord):
    """The offsets (dx, dy, dz) from headlamps at positions coord along a
    lane to the RSU, and their per-point axes, aimed along the lane toward
    the intersection (the pose arrays the kernel once built)."""
    geo = config.geometry
    rsu = geo.rsu_pose
    toward = np.where(coord >= 0, -1.0, 1.0)
    if lane == LANE_SAME:
        x, y, axis = coord, geo.lane_y_offset, (toward, 0.0, 0.0)
    else:
        x, y, axis = geo.lane_x_offset, coord, (0.0, toward, 0.0)
    return (rsu.x - x, rsu.y - y, rsu.z - geo.tx_height), axis


@pytest.mark.parametrize("fov", [60.0, 90.0])
@pytest.mark.parametrize("tilt_deg", [0.0, 45.0, 90.0])
@pytest.mark.parametrize("lane", LANES)
def test_rsu_paths_match_los_cosines_on_headlamp_axes(lane, tilt_deg, fov):
    # rsu_paths and rsu_links give, byte for byte, what _los_cosines and
    # _los_gain give on per-point headlamp axes.  Both lanes run off the
    # axes, and the desired vehicle sits 0.5 m from the perpendicular
    # lane, so the exclusion disc cuts both.  The lane points are 0.0,
    # -0.0, +-L, points across the disc and uniform ones.
    config = dataclasses.replace(_with_rsu(OFF_AXIS, tilt_deg, fov), distance_r=4.0)
    L = config.geometry.lane_half_length
    centre, _ = exclusion_disc(config, lane)
    coord = np.concatenate([
        [0.0, -0.0, L, -L], centre + np.linspace(-1.0, 1.0, 9) * EXCLUSION_RADIUS_M,
        np.random.default_rng(SEED).uniform(-L, L, 2000)])
    assert not outside_exclusion(config, lane, coord[4:13]).all()
    offsets, axis = _headlamp_axes(config, lane, coord)
    rx_axis = config.geometry.rsu_pose.axis
    d2 = offsets[0] * offsets[0] + offsets[1] * offsets[1] + offsets[2] * offsets[2]
    d = np.sqrt(d2)
    cos_phi, cos_psi = _los_cosines(*offsets, d, axis, rx_axis)
    seen = sees(cos_phi, cos_psi, config.vlc)
    got = rsu_paths(config, lane, coord)
    for a, b in zip(got, (d2, d, cos_phi, cos_psi)):
        assert a.tobytes() == b.tobytes()
    assert sees(*got[2:], config.vlc).tobytes() == seen.tobytes()
    gain = _los_gain(*offsets, axis, rx_axis, config.vlc)
    d_link, gain_link = rsu_links(config, lane, coord)
    assert d_link.tobytes() == d.tobytes() and gain_link.tobytes() == gain.tobytes()
    # one point at a time, as the desired link calls it
    for k in range(13):
        one = rsu_links(config, lane, float(coord[k]))
        assert np.array(one).tobytes() == np.array([d[k], gain[k]]).tobytes()
    # the RSU sees some points and misses others (0.0 at least)
    assert seen.any() and not seen.all()


def _reference_link(config, weathers):
    """The desired link's (s_vlc[W], n_vlc, s_rf_mean, n_rf) at config's
    distance, one distance and one weather at a time in scalar calls."""
    d3d, gain = map(float, rsu_links(config, LANE_SAME, config.distance_r))
    wfac = [attenuation_factor(WEATHER_ATTENUATION_DB_PER_KM[weather], d3d)
            for weather in weathers]
    return (vlc_rx_electrical_power(gain, np.array(wfac), config.vlc),
            vlc_noise_power(config.vlc), rf_mean_rx_power(d3d, config.rf),
            rf_noise_power(config.rf))


@pytest.mark.parametrize("config", [ScenarioConfig(), OFF_AXIS, _dense(FADING_NAKAGAMI),
                                    MOSTLY_LIT],
                         ids=["default", "off_axis", "nakagami", "mostly_lit"])
def test_desired_links_match_the_scalar_calls(config):
    # the share's distances in one call, against each distance alone;
    # 1000 m lies beyond the lane's half length
    distances = (0.0, 2.5, 5.0, 10.0, 30.0, 77.7, 150.0, 250.0, 300.0, 1000.0)
    distances += tuple(np.random.default_rng(7).uniform(0.0, 1000.0, 200).tolist())
    links = metrics.desired_links(config, distances, ALL_WEATHERS)
    assert len(links) == len(distances)
    for distance, link in zip(distances, links):
        s_vlc, n_vlc, s_rf_mean, n_rf = _reference_link(config.with_distance(distance),
                                                        ALL_WEATHERS)
        assert link.s_vlc.shape == (len(ALL_WEATHERS), 1)
        assert np.array_equal(link.s_vlc[:, 0], s_vlc)
        assert (link.n_vlc, link.s_rf_mean, link.n_rf) == (n_vlc, s_rf_mean, n_rf)
        assert all(type(x) is float for x in (link.n_vlc, link.s_rf_mean, link.n_rf))


def test_weathers_share_every_draw():
    # one call with the weather axis: row w equals the run with weather w
    # alone, and the RF SINRs are the same whatever the weathers
    sinr_vlc, sinr_rf = _simulate(DENSE, ALL_WEATHERS, trial_rng(SEED), N)
    assert sinr_vlc.shape == (len(ALL_WEATHERS), N) and sinr_rf.shape == (N,)
    for row, weather in zip(sinr_vlc, ALL_WEATHERS):
        alone_vlc, alone_rf = _simulate(DENSE, (weather,), trial_rng(SEED), N)
        assert np.array_equal(row, alone_vlc[0])
        assert np.array_equal(sinr_rf, alone_rf)
    # weather only rescales optical terms: the VLC rows differ
    assert len({row.tobytes() for row in sinr_vlc}) == len(ALL_WEATHERS)
    # a clear-only dense chunk, whose optical terms skip the attenuation
    # pow, gives the clear row of a run with every weather (which takes it)
    n = 4096
    runs = [_simulate(DENSE, weathers, trial_rng(SEED), n)
            for weathers in (("clear",), ALL_WEATHERS)]
    (clear_vlc, clear_rf), (every_vlc, every_rf) = runs
    assert clear_vlc[0].tobytes() == every_vlc[ALL_WEATHERS.index("clear")].tobytes()
    assert clear_rf.tobytes() == every_rf.tobytes()


@pytest.mark.parametrize("config", [ScenarioConfig(), DENSE], ids=["default", "dense"])
def test_no_weather_gives_the_rf_sinrs_alone(config):
    # an empty weather list scores no optical row: the VLC SINRs are
    # [D, 0, n], and the RF SINRs those of a one-weather run
    distances = (30.0, 150.0)
    sinr_vlc, sinr_rf = simulate_trials(config, distances, (), trial_rng(SEED), N)
    _, rain_rf = simulate_trials(config, distances, (RAIN,), trial_rng(SEED), N)
    assert sinr_vlc.shape == (len(distances), 0, N)
    assert sinr_rf.tobytes() == rain_rf.tobytes()


def test_nothing_lit_leaves_rf_and_stream_unchanged():
    # the RSU faces the sky: no lane point is lit, whatever the FOV
    dark = _with_rsu(DENSE, -90.0, DENSE.vlc.fov)
    deployment = draw_deployment(DENSE, trial_rng(SEED), N)
    assert _lit_points(dark, deployment).sum() == 0
    runs = []
    for config in (DENSE, dark):
        rng = trial_rng(SEED)
        runs.append((_interference_sums(config, ALL_WEATHERS, rng, N), rng.random()))
    ((lit_vlc, lit_rf), lit_next), ((dark_vlc, dark_rf), dark_next) = runs
    assert lit_vlc.any() and not dark_vlc.any()
    assert dark_vlc.shape == (len(ALL_WEATHERS), N)
    assert dark_rf.tobytes() == lit_rf.tobytes() and dark_next == lit_next


@pytest.mark.parametrize("config, same, perp", [(DENSE, (0.4, 0.6), (0.0, 0.05)),
                                                (MOSTLY_LIT, (0.95, 1.0), (0.95, 1.0))],
                         ids=["default_rsu", "mostly_lit"])
def test_kernel_evaluates_gains_on_lit_points_only(config, same, perp, monkeypatch):
    deployment = draw_deployment(config, trial_rng(SEED), N)
    sizes = []

    def counting_gain(d2, cos_phi, cos_psi, params):
        sizes.append(len(d2))
        return seen_gain(d2, cos_phi, cos_psi, params)

    monkeypatch.setattr(metrics, "seen_gain", counting_gain)
    _interference_sums(config, (RAIN,), trial_rng(SEED), N)
    lit = _lit_points(config, deployment)
    assert sum(sizes) == lit.sum()
    # the share of each lane's points that is lit
    share = lit / _lane_points(deployment)
    assert same[0] <= share[0] <= same[1] and perp[0] <= share[1] <= perp[1]
