"""Intersection scenario: geometry, weather, and random interferer deployment.

Two straight lanes cross at the origin: the desired vehicle's lane runs
along the x-axis, the perpendicular lane along the y-axis.  The RSU sits on
a lamp post above the intersection.  Interfering vehicles form a 1-D
Poisson point process on each lane centerline, thinned by the channel
access probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidArgumentError
from .rf_channel import RfParams
from .vlc_channel import VlcParams

# No interferer may fall within this distance of the desired vehicle
# (vehicles cannot physically overlap; also avoids singular draws).
EXCLUSION_RADIUS_M = 1.0

# Lanes in deployment order.
LANE_SAME = 0   # the desired vehicle's lane, along x
LANE_PERP = 1   # the perpendicular lane, along y
LANES = (LANE_SAME, LANE_PERP)

# Bound on the expected interferers per trial over both lanes (one active
# vehicle per meter on the default 1 km lanes).  A chunk's deployments are
# held in memory at once, 12 bytes per point.
MAX_MEAN_INTERFERERS = 2000.0

_SCALAR_FIELDS = ("lambda_density", "rho_access", "rho_a", "beta_ov",
                  "distance_r", "payload_h", "sinr_threshold_vlc_db",
                  "sinr_threshold_rf_db")
_GEOMETRY_FIELDS = ("lane_half_length", "lane_x_offset", "lane_y_offset",
                    "tx_height")

WEATHER_KINDS = ("clear", "rain", "fog", "dry_snow")

# kind -> (descriptor name, descriptor value, attenuation dB/km)
_WEATHER_PRESETS = {
    "clear": (None, None, 0.0),
    "rain": ("rain_rate_mm_per_hr", 90.0, 21.9),
    "fog": ("visibility_km", 0.05, 78.8),
    "dry_snow": ("snow_rate_mm_per_hr", 10.0, 131.0),
}


@dataclass(frozen=True)
class Pose3:
    """Position in meters plus a unit axis (boresight or receiver normal)."""

    x: float
    y: float
    z: float
    axis: tuple[float, float, float]

    def __post_init__(self):
        norm = math.sqrt(sum(a * a for a in self.axis))
        if abs(norm - 1.0) > 1e-9:
            raise InvalidArgumentError(f"axis must be a unit vector, norm={norm!r}")
        if self.z < 0:
            raise InvalidArgumentError(f"z must be >= 0, got {self.z!r}")


@dataclass(frozen=True)
class WeatherCondition:
    """Weather kind with its optical attenuation coefficient.

    descriptor_value is the rain rate (mm/hr), visibility (km) or snow rate
    (mm/hr) for the built-in presets, None for clear weather.
    """

    kind: str
    descriptor_name: str | None
    descriptor_value: float | None
    attenuation_db_per_km: float

    def __post_init__(self):
        if self.kind not in WEATHER_KINDS:
            raise InvalidArgumentError(f"unknown weather kind {self.kind!r}")
        if self.attenuation_db_per_km < 0:
            raise InvalidArgumentError("attenuation_db_per_km must be >= 0")
        if self.kind == "clear" and self.attenuation_db_per_km != 0.0:
            raise InvalidArgumentError("clear weather must have zero attenuation")

    @classmethod
    def preset(cls, kind: str) -> "WeatherCondition":
        if kind not in _WEATHER_PRESETS:
            raise InvalidArgumentError(f"unknown weather kind {kind!r}")
        name, value, att = _WEATHER_PRESETS[kind]
        return cls(kind=kind, descriptor_name=name, descriptor_value=value,
                   attenuation_db_per_km=att)


def _default_rsu_pose() -> Pose3:
    # Lamp-post RSU 5 m above the intersection, receiver normal tilted 45
    # degrees downward toward the desired vehicle's lane (+x).
    s = 1.0 / math.sqrt(2.0)
    return Pose3(0.0, 0.0, 5.0, axis=(s, 0.0, -s))


@dataclass(frozen=True)
class LaneGeometry:
    """Lane layout and transmitter/receiver mounting heights."""

    lane_half_length: float = 500.0
    lane_x_offset: float = 0.0   # x-offset of the perpendicular (y-axis) lane
    lane_y_offset: float = 0.0   # y-offset of the desired (x-axis) lane
    rsu_pose: Pose3 = field(default_factory=_default_rsu_pose)
    tx_height: float = 0.75      # vehicle headlamp height

    def __post_init__(self):
        if self.lane_half_length <= 0:
            raise InvalidArgumentError("lane_half_length must be > 0")
        if self.tx_height <= 0:
            raise InvalidArgumentError("tx_height must be > 0")
        if self.rsu_pose.z <= self.tx_height:
            raise InvalidArgumentError("rsu_pose.z must exceed tx_height")


def attenuation_factor(attenuation_db_per_km: float, distance_m):
    """Beer-Lambert transmission factor for an optical path.

    Returns 10**(-coeff * (distance/1000) / 10), in (0, 1]; distance_m may
    be a float or an array.
    """
    if attenuation_db_per_km < 0:
        raise InvalidArgumentError("attenuation_db_per_km must be >= 0")
    if np.asarray(distance_m < 0).any():
        raise InvalidArgumentError("distance_m must be >= 0")
    return 10.0 ** (-attenuation_db_per_km * (distance_m / 1000.0) / 10.0)


def _default_vlc() -> VlcParams:
    return VlcParams()


def _default_rf() -> RfParams:
    return RfParams()


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
    vlc: VlcParams = field(default_factory=_default_vlc)
    rf: RfParams = field(default_factory=_default_rf)
    # Decode thresholds.  The VLC threshold is a calibration outcome: it
    # places the deterministic VLC cutoff near 122 m so the pure-VLC and
    # pure-RF reliability curves cross where the case study expects.
    sinr_threshold_vlc_db: float = -25.7
    sinr_threshold_rf_db: float = 5.0

    def desired_pose(self) -> Pose3:
        """Desired vehicle on its lane, headlamp aimed at the intersection."""
        return Pose3(self.distance_r, self.geometry.lane_y_offset,
                     self.geometry.tx_height, axis=(-1.0, 0.0, 0.0))

    def with_distance(self, distance_r: float) -> "ScenarioConfig":
        return replace(self, distance_r=distance_r)


def validate(config: ScenarioConfig) -> list[str]:
    """Check every configuration invariant; empty list means ok."""
    geo = config.geometry
    rsu = geo.rsu_pose
    numbers = [(name, getattr(config, name)) for name in _SCALAR_FIELDS]
    numbers += [(f"geometry.{name}", getattr(geo, name)) for name in _GEOMETRY_FIELDS]
    numbers += [("geometry.rsu_pose", v) for v in (rsu.x, rsu.y, rsu.z, *rsu.axis)]
    violations = [f"{name}: must be finite" for name in dict.fromkeys(
        name for name, v in numbers if v is not None and not math.isfinite(v))]
    if config.lambda_density < 0:
        violations.append("lambda_density: must be >= 0")
    if not 0.0 <= config.rho_access <= 1.0:
        violations.append("rho_access: must be in [0, 1]")
    if math.isfinite(geo.lane_half_length) and math.isinf(2.0 * geo.lane_half_length):
        violations.append("geometry.lane_half_length: lane length 2 * lane_half_length "
                          "must be finite")
    mean = config.lambda_density * config.rho_access * 4.0 * geo.lane_half_length
    if mean > MAX_MEAN_INTERFERERS:
        violations.append(f"lambda_density: lambda * rho_access * 4 * lane_half_length "
                          f"= {mean:g} expected interferers per trial, at most "
                          f"{MAX_MEAN_INTERFERERS:g}")
    if not 0.0 < config.rho_a <= 1.0:
        violations.append("rho_a: must be in (0, 1]")
    if not 0.0 < config.beta_ov <= 1.0:
        violations.append("beta_ov: must be in (0, 1]")
    if config.distance_r <= 0:
        violations.append("distance_r: must be > 0")
    if config.payload_h <= 0:
        violations.append("payload_h: must be > 0")
    if config.sinr_threshold_vlc_db is None:
        violations.append("sinr_threshold_vlc_db: missing")
    if config.sinr_threshold_rf_db is None:
        violations.append("sinr_threshold_rf_db: missing")
    violations.extend(config.vlc.check())
    violations.extend(config.rf.check())
    return violations


@dataclass(frozen=True)
class Deployment:
    """Lane points drawn for n trials, as flat arrays.

    Points are stored lane by lane: every same-lane point in trial order,
    then every perpendicular-lane one.  coord is the position along the
    lane (x on the desired vehicle's lane, y on the other one) and trial
    the index of the trial it belongs to; counts[lane, t] is the number of
    points of trial t on that lane.  Points within EXCLUSION_RADIUS_M of
    the desired vehicle are drawn but are not interferers (see
    outside_exclusion).
    """

    counts: np.ndarray
    trial: np.ndarray
    coord: np.ndarray

    def lane_slices(self) -> tuple[slice, slice]:
        n_same = int(self.counts[LANE_SAME].sum())
        return slice(0, n_same), slice(n_same, len(self.coord))


def lane_poses(geo: LaneGeometry, lane: int, coord):
    """(x, y, axis) of vehicles at positions coord along a lane.

    Headlamps sit at tx_height and point along the lane toward the
    intersection; x, y and the axis components are scalars or arrays.
    """
    toward = np.where(coord >= 0, -1.0, 1.0)
    if lane == LANE_SAME:
        return coord, geo.lane_y_offset, (toward, 0.0, 0.0)
    return geo.lane_x_offset, coord, (0.0, toward, 0.0)


def outside_exclusion(config: ScenarioConfig, x, y):
    """True for points farther than EXCLUSION_RADIUS_M from the desired vehicle."""
    return ((x - config.distance_r) ** 2 + (y - config.geometry.lane_y_offset) ** 2
            > EXCLUSION_RADIUS_M ** 2)


def draw_deployment(config: ScenarioConfig, rng: np.random.Generator,
                    n: int) -> Deployment:
    """Draw the lane points of n trials.

    Each lane carries a homogeneous Poisson point process of density
    lambda * rho over [-L, L]; the points outside the exclusion radius are
    the trial's interferers, shared by the VLC and RF links.  Stream
    consumption: the (2, n) Poisson counts, then one uniform per point in
    storage order.
    """
    L = config.geometry.lane_half_length
    mean = config.lambda_density * config.rho_access * 2.0 * L
    counts = rng.poisson(mean, (2, n))
    coord = rng.uniform(-L, L, int(counts.sum()))
    trial = np.repeat(np.arange(2 * n, dtype=np.int32) % n, counts.ravel())
    return Deployment(counts, trial, coord)


def interferer_counts(config: ScenarioConfig, deployment: Deployment) -> np.ndarray:
    """Interferers per lane and trial: the counts outside the exclusion radius."""
    n = deployment.counts.shape[1]
    out = np.empty_like(deployment.counts)
    for lane, part in zip(LANES, deployment.lane_slices()):
        x, y, _ = lane_poses(config.geometry, lane, deployment.coord[part])
        active = outside_exclusion(config, x, y)
        out[lane] = np.bincount(deployment.trial[part][active], minlength=n)
    return out
