"""Intersection scenario: geometry, weather, and random interferer deployment.

Two straight lanes cross at the origin: the desired vehicle's lane runs
along the x-axis, the perpendicular lane along the y-axis.  The RSU sits on
a lamp post above the intersection.  Interfering vehicles form a 1-D
Poisson point process on each lane centerline, thinned by the channel
access probability.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidArgumentError
from .rf_channel import RfParams, rf_mean_rx_power, rf_noise_power
from .vlc_channel import (VlcParams, concentrator_gain, lambertian_order, path_gain,
                          vlc_noise_power, vlc_rx_electrical_power)

# No interferer may fall within this distance of the desired vehicle
# (vehicles cannot physically overlap; also avoids singular draws).
EXCLUSION_RADIUS_M = 1.0

# Lanes in deployment order.
LANE_SAME = 0   # the desired vehicle's lane, along x
LANE_PERP = 1   # the perpendicular lane, along y
LANES = (LANE_SAME, LANE_PERP)

# Bound on the expected interferers per trial over both lanes (one active
# vehicle per meter on the default 1 km lanes).  A chunk's lane points are
# held in memory at once, each with its trial (int32), position and RF
# fade: 20 bytes per point.
MAX_MEAN_INTERFERERS = 2000.0

# A peak received power times this must stay finite (below 1.8e298), also
# over the noise: room for an interference sum over 1e4 interferers
# (MAX_MEAN_INTERFERERS expects at most 2000 per trial) faded to 1e6 times
# their mean, and for the fade of the desired link.  The default config
# peaks near 7e-11 (VLC) and 2e-8 (RF), at SNRs near 3e3 and 3e4.
_POWER_HEADROOM = 1e10

# Optical attenuation of each swept weather, dB/km: heavy rain (90 mm/hr),
# thick fog (50 m visibility) and dry snow (10 mm/hr), against clear air.
WEATHER_ATTENUATION_DB_PER_KM = {"clear": 0.0, "rain": 21.9, "fog": 78.8,
                                 "dry_snow": 131.0}
WEATHER_KINDS = tuple(WEATHER_ATTENUATION_DB_PER_KM)


@dataclass(frozen=True)
class Pose3:
    """Position in meters plus a unit axis (boresight or receiver normal)."""

    x: float
    y: float
    z: float
    axis: tuple[float, float, float]


@dataclass(frozen=True)
class LaneGeometry:
    """Lane layout and transmitter/receiver mounting heights.

    The RSU sits on a lamp post above the intersection, its receiver
    normal tilted rsu_tilt_deg downward toward the desired vehicle's lane
    (+x).
    """

    lane_half_length: float = 500.0
    lane_x_offset: float = 0.0   # x-offset of the perpendicular (y-axis) lane
    lane_y_offset: float = 0.0   # y-offset of the desired (x-axis) lane
    rsu_height: float = 5.0
    rsu_tilt_deg: float = 45.0
    tx_height: float = 0.75      # vehicle headlamp height

    @cached_property
    def rsu_pose(self) -> Pose3:
        # cached in the instance dict: not a field, so the repr, equality
        # and hash of the geometry do not see it
        t = math.radians(self.rsu_tilt_deg)
        return Pose3(0.0, 0.0, self.rsu_height, axis=(math.cos(t), 0.0, -math.sin(t)))


def attenuation_factor(attenuation_db_per_km, distance_m):
    """Beer-Lambert transmission factor for an optical path.

    Returns 10**(-coeff * (distance/1000) / 10), in (0, 1]; the coefficient
    and distance_m may be floats or arrays that broadcast together.
    """
    if np.asarray(attenuation_db_per_km < 0).any():
        raise InvalidArgumentError("attenuation_db_per_km must be >= 0")
    if np.asarray(distance_m < 0).any():
        raise InvalidArgumentError("distance_m must be >= 0")
    return 10.0 ** (-attenuation_db_per_km * (distance_m / 1000.0) / 10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment.

    Defaults reproduce the calibrated intersection case study; see
    docs/CALIBRATION.md for how the channel defaults and thresholds were
    chosen.
    """

    geometry: LaneGeometry = field(default_factory=LaneGeometry)
    lambda_density: float = 0.01       # vehicles per meter on each lane
    rho_access: float = 0.01           # interferer channel access probability
    rho_a: float = 0.9                 # desired-vehicle transmission probability
    beta_ov: float = 0.8               # link-aggregation overhead factor
    distance_r: float = 100.0          # RSU <-> desired vehicle, meters
    payload_h: float = 50.0 * 1024.0   # bytes (50 KB, 1 KB = 1024 bytes)
    vlc: VlcParams = field(default_factory=VlcParams)
    rf: RfParams = field(default_factory=RfParams)
    # Decode thresholds.  The VLC threshold is a calibration outcome: it
    # places the deterministic VLC cutoff near 122 m so the pure-VLC and
    # pure-RF reliability curves cross where the case study expects.
    sinr_threshold_vlc_db: float = -25.7
    sinr_threshold_rf_db: float = 5.0

    def with_distance(self, distance_r: float) -> "ScenarioConfig":
        return replace(self, distance_r=distance_r)


# The config schema: key prefix -> the section of a ScenarioConfig it sets
# ("" is the config itself).  Every float field of a section is a config
# key, prefix + "." + field name, and no other field is.
CONFIG_SECTIONS = {"": ScenarioConfig, "geometry": LaneGeometry,
                   "vlc": VlcParams, "rf": RfParams}

# config key -> (section, field name), for every float field
FLOAT_KEYS = {f"{prefix}.{f.name}" if prefix else f.name: (prefix, f.name)
              for prefix, cls in CONFIG_SECTIONS.items()
              for f in fields(cls) if f.type == "float"}


def config_floats(config: ScenarioConfig) -> dict[str, float]:
    """Every float config key with its value in config."""
    return {key: getattr(getattr(config, section) if section else config, name)
            for key, (section, name) in FLOAT_KEYS.items()}


def is_real(value) -> bool:
    """Whether value is a real number: numbers.Real and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """Whether value is an integer: numbers.Integral and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# numpy scalar fields overflow to inf or nan in the checks' arithmetic, as
# Python floats do, and are reported without a warning
@np.errstate(all="ignore")
def validate(config: ScenarioConfig) -> list[str]:
    """Check every configuration invariant; empty list means ok.

    A float field that is not a real number (is_real) is reported alone,
    before any check compares a value.  Otherwise every problem of the
    config's fields is reported; the constants the kernel derives from
    them are checked once the fields pass.
    """
    floats = config_floats(config)
    violations = [f"{key}: must be a real number" for key, value in floats.items()
                  if not is_real(value)]
    if violations:
        return violations
    geo = config.geometry
    violations = [f"{key}: must be finite"
                  for key, value in floats.items() if not math.isfinite(value)]
    if config.lambda_density < 0:
        violations.append("lambda_density: must be >= 0")
    if not 0.0 <= config.rho_access <= 1.0:
        violations.append("rho_access: must be in [0, 1]")
    if geo.lane_half_length <= 0:
        violations.append("geometry.lane_half_length: must be > 0")
    _, unreachable, nonpositive = _distance_faults(config, config.distance_r)
    if unreachable:
        violations.append("distance_r, geometry.lane_half_length, geometry.lane_x_offset, "
                          "geometry.lane_y_offset: the squared distances between the RSU, "
                          "the desired vehicle and the lane points must be finite")
    mean = config.lambda_density * config.rho_access * 4.0 * geo.lane_half_length
    if mean > MAX_MEAN_INTERFERERS:
        violations.append(f"lambda_density: lambda * rho_access * 4 * lane_half_length "
                          f"= {mean:g} expected interferers per trial, at most "
                          f"{MAX_MEAN_INTERFERERS:g}")
    if geo.tx_height <= 0:
        violations.append("geometry.tx_height: must be > 0")
    if geo.rsu_height < 0:
        violations.append("geometry.rsu_height: must be >= 0")
    if geo.rsu_height <= geo.tx_height:
        violations.append("geometry.rsu_height: must exceed geometry.tx_height")
    if not 0.0 < config.rho_a <= 1.0:
        violations.append("rho_a: must be in (0, 1]")
    if not 0.0 < config.beta_ov <= 1.0:
        violations.append("beta_ov: must be in (0, 1]")
    if nonpositive:
        violations.append("distance_r: must be > 0")
    if config.payload_h <= 0:
        violations.append("payload_h: must be > 0")
    violations.extend(config.vlc.check())
    violations.extend(config.rf.check())
    return violations or list(_derived_problems(config.vlc, config.rf, geo.rsu_height,
                                                geo.tx_height))


def _distance_faults(config: ScenarioConfig, distance: float) -> tuple[bool, bool, bool]:
    """Which of validate's checks that read distance_r fail for config at
    distance_r = distance: (not finite, the squared reach overflows,
    not > 0).  validate reads distance_r in these three checks alone (the
    first as one of its config_floats)."""
    geo = config.geometry
    # bounds the offsets the kernel squares: RSU, desired vehicle, lane points
    reach = (abs(distance) + abs(geo.lane_x_offset) + geo.lane_half_length,
             abs(geo.lane_y_offset) + geo.lane_half_length,
             geo.rsu_height - geo.tx_height)
    return not math.isfinite(distance), math.isinf(sum(r * r for r in reach)), distance <= 0


@np.errstate(all="ignore")   # as validate, for _distance_faults too
def validate_distances(config: ScenarioConfig, distances) -> list[str]:
    """The problems of config at each of distances, as validate reports
    them distance by distance, each problem once, in the order first
    reported.

    validate's report depends on distance_r only through the checks of
    _distance_faults, so distances with the same faults get the same
    report: validate runs once per distinct fault pattern, at the first
    distance with it.
    """
    first = {}
    for distance in distances:
        first.setdefault(_distance_faults(config, distance), distance)
    return list(dict.fromkeys(problem for distance in first.values()
                              for problem in validate(config.with_distance(distance))))


@lru_cache(maxsize=16)
def _derived_problems(vlc: VlcParams, rf: RfParams, rsu_height: float,
                      tx_height: float) -> tuple[str, ...]:
    """Check the constants the kernel derives from a config whose fields pass.

    Each must be finite and > 0, else the kernel divides by zero or writes
    nan/inf rates.  The peak powers are taken at the closest possible link,
    straight below the RSU at rsu_height - tx_height with every cos term 1,
    and must be normal floats (one that underflows to 0 is never received)
    and stay finite times _POWER_HEADROOM, alone and over the noise.
    The sweep sums squared rates in Mbps, so the peak rate, at the peak
    SNR times _POWER_HEADROOM, must stay finite squared and times
    _POWER_HEADROOM.  The arguments alone set these constants, so the
    check runs once for all the distances of a sweep.
    """
    out = [f"{keys}: {name} = {value:g}, must be finite and > 0"
           for keys, name, value in (
               ("vlc.semi_angle_half_power", "Lambertian order",
                lambertian_order(vlc.semi_angle_half_power)),
               ("vlc.fov, vlc.concentrator_refractive_index", "concentrator gain",
                concentrator_gain(vlc)),
               ("vlc.noise_psd, vlc.bandwidth", "noise power", vlc_noise_power(vlc)),
               ("rf.noise_psd, rf.bandwidth, rf.noise_figure_db", "noise power",
                rf_noise_power(rf)))
           if not 0.0 < value < math.inf]
    if out:
        return tuple(out)
    near = np.float64(rsu_height - tx_height)
    with np.errstate(all="ignore"):
        peak_vlc = vlc_rx_electrical_power(path_gain(near * near, 1.0, 1.0, vlc), 1.0, vlc)
        for link, peak, noise, bandwidth in (
                ("vlc", peak_vlc, vlc_noise_power(vlc), vlc.bandwidth),
                ("rf", rf_mean_rx_power(near, rf), rf_noise_power(rf), rf.bandwidth)):
            top = peak * _POWER_HEADROOM
            mbps = bandwidth * np.log2(1.0 + top / noise) / 1e6
            if not (peak >= np.finfo(float).tiny and np.isfinite(top)
                    and np.isfinite(top / noise)):
                out.append(f"{link}: peak received power {peak:g} at {near:g} m "
                           f"(SNR {peak / noise:g}) must be a normal float > 0 and "
                           f"stay finite times {_POWER_HEADROOM:g}")
            elif not np.isfinite(mbps * mbps * _POWER_HEADROOM):
                out.append(f"{link}: peak rate {mbps:g} Mbps at {near:g} m must stay "
                           f"finite squared times {_POWER_HEADROOM:g}")
    return tuple(out)


@dataclass(frozen=True)
class Deployment:
    """Lane points drawn for n trials, as flat arrays.

    Points are stored lane by lane, in the slices lanes: every same-lane
    point, then every perpendicular-lane one, each lane's in draw order
    (not sorted by trial).  coord is the position along the lane (x on the
    desired vehicle's lane, y on the other one) and trial the index, int32
    in [0, n), of the trial it belongs to.  Points within
    EXCLUSION_RADIUS_M of the desired vehicle are drawn but are not
    interferers (see outside_exclusion).
    """

    n: int
    trial: np.ndarray
    coord: np.ndarray
    lanes: tuple[slice, slice]


def rsu_paths(config: ScenarioConfig, lane: int, coord):
    """(d2, d, cos_phi, cos_psi) of the LOS paths from headlamps at
    positions coord along a lane to the RSU: squared distance, distance,
    and the cosines of emission (off the headlamp axis) and incidence (off
    the RSU normal).

    A headlamp points along its lane toward the intersection, above which
    the RSU sits, so cos_phi is |dx| / d on LANE_SAME and |dy| / d on the
    other lane: the bits of the offset's dot product with that axis,
    whose zero components add only signed zeros.  coord is a scalar or an array; no
    exclusion is applied.  The desired vehicle is the point distance_r of
    LANE_SAME.
    """
    geo = config.geometry
    rsu = geo.rsu_pose
    if lane == LANE_SAME:
        dx, dy = rsu.x - coord, rsu.y - geo.lane_y_offset
    else:
        dx, dy = rsu.x - geo.lane_x_offset, rsu.y - coord
    dz = rsu.z - geo.tx_height
    # in place where an operand is an array: the same operations, in order
    d2 = dx * dx
    d2 += dy * dy
    d2 += dz * dz
    d = np.sqrt(d2)
    cos_phi = np.abs(dx if lane == LANE_SAME else dy)
    cos_phi /= d
    # rx -> tx direction against the receiver normal
    rx = rsu.axis
    cos_psi = dx * -rx[0]
    cos_psi -= dy * rx[1]
    cos_psi -= dz * rx[2]
    cos_psi /= d
    return d2, d, cos_phi, cos_psi


def exclusion_disc(config: ScenarioConfig, lane: int) -> tuple[float, float]:
    """(centre, offset) of the exclusion disc as seen from a lane.

    centre is the lane position nearest the desired vehicle, offset the
    vehicle's distance off the lane (0 on its own lane).
    """
    geo = config.geometry
    if lane == LANE_SAME:
        return config.distance_r, 0.0
    return geo.lane_y_offset, geo.lane_x_offset - config.distance_r


def outside_exclusion(config: ScenarioConfig, lane: int, coord):
    """True for lane points farther than EXCLUSION_RADIUS_M from the desired vehicle."""
    centre, offset = exclusion_disc(config, lane)
    return (coord - centre) ** 2 + offset ** 2 > EXCLUSION_RADIUS_M ** 2


def draw_deployment(config: ScenarioConfig, rng: np.random.Generator,
                    n: int) -> Deployment:
    """Draw the lane points of n trials.

    Each lane of each trial carries a homogeneous Poisson point process of
    density lambda * rho over [-L, L]; the points outside the exclusion
    radius are the trial's interferers, shared by the VLC and RF links.
    The n trials' copies of a lane are drawn as one Poisson process over
    their union: a Poisson total of n times the lane's mean, whose points
    fall on iid uniform trials and positions (Kingman, Poisson Processes,
    1993, sec. 2.4), so each trial's count is Poisson and independent of
    the others'.  Stream consumption: the two lanes' Poisson totals, then
    one int32 trial per point, then one uniform position per point, both
    in storage order.
    """
    L = config.geometry.lane_half_length
    mean = config.lambda_density * config.rho_access * 2.0 * L
    n_same, n_perp = rng.poisson(mean * n, len(LANES)).tolist()
    points = n_same + n_perp
    trial = rng.integers(0, n, points, dtype=np.int32)
    return Deployment(n, trial, rng.uniform(-L, L, points),
                      (slice(0, n_same), slice(n_same, points)))
