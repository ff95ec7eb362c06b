"""Flat `key = value` configuration documents.

The format is deliberately trivial: one assignment per line, `#` starts a
comment, nested radio parameters use dotted keys (`vlc.pd_area`).  Unknown
keys are hard errors; a silent typo in a physics parameter is the worst
failure mode a simulator can have.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

from .engine import SweepSpec
from .errors import ConfigError, InvalidArgumentError
from .metrics import MODE_LA, MODE_PURE_RF, MODE_PURE_VLC
from .scenario import (WEATHER_KINDS, Pose3, ScenarioConfig, WeatherCondition,
                       validate)

DEFAULT_SEED = 20260823
DEFAULT_TRIALS = 100_000
DEFAULT_PRP_DISTANCES = tuple(float(d) for d in range(10, 251, 10))

# key -> (target, attribute); "scenario", "vlc", "rf", "geometry" or special
_FLOAT_KEYS = {
    "lambda_density": ("scenario", "lambda_density"),
    "rho_access": ("scenario", "rho_access"),
    "rho_a": ("scenario", "rho_a"),
    "beta_ov": ("scenario", "beta_ov"),
    "distance_r": ("scenario", "distance_r"),
    "payload_h": ("scenario", "payload_h"),
    "sinr_threshold_vlc_db": ("scenario", "sinr_threshold_vlc_db"),
    "sinr_threshold_rf_db": ("scenario", "sinr_threshold_rf_db"),
    "vlc.optical_tx_power": ("vlc", "optical_tx_power"),
    "vlc.semi_angle_half_power": ("vlc", "semi_angle_half_power"),
    "vlc.pd_area": ("vlc", "pd_area"),
    "vlc.fov": ("vlc", "fov"),
    "vlc.optical_filter_gain": ("vlc", "optical_filter_gain"),
    "vlc.concentrator_refractive_index": ("vlc", "concentrator_refractive_index"),
    "vlc.responsivity": ("vlc", "responsivity"),
    "vlc.noise_psd": ("vlc", "noise_psd"),
    "vlc.bandwidth": ("vlc", "bandwidth"),
    "rf.tx_power": ("rf", "tx_power"),
    "rf.path_loss_exponent": ("rf", "path_loss_exponent"),
    "rf.reference_distance": ("rf", "reference_distance"),
    "rf.reference_loss_db": ("rf", "reference_loss_db"),
    "rf.nakagami_m": ("rf", "nakagami_m"),
    "rf.noise_psd": ("rf", "noise_psd"),
    "rf.noise_figure_db": ("rf", "noise_figure_db"),
    "rf.bandwidth": ("rf", "bandwidth"),
    "geometry.lane_half_length": ("geometry", "lane_half_length"),
    "geometry.lane_x_offset": ("geometry", "lane_x_offset"),
    "geometry.lane_y_offset": ("geometry", "lane_y_offset"),
    "geometry.tx_height": ("geometry", "tx_height"),
}

_SPECIAL_KEYS = ("weather", "rf.fading", "geometry.rsu_height",
                 "geometry.rsu_tilt_deg", "trials", "seed")


def parse_weathers(text: str) -> tuple[WeatherCondition, ...]:
    """The swept weathers: the `weather` key and the --weather flag.

    A comma list of presets; SweepSpec.check rejects empty and repeated
    lists.
    """
    try:
        return tuple(WeatherCondition.preset(kind.strip())
                     for kind in text.split(",") if kind.strip())
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(text: str) -> tuple[ScenarioConfig, SweepSpec]:
    """Parse a configuration document into a validated scenario + sweep.

    Missing keys take the calibrated defaults (the case-study values where
    the source material states them: lambda = rho = 0.01, rho_a = 0.9,
    beta_ov = 0.8, B = 20 MHz, H = 50 KB).  Raises ConfigError with a line
    number on syntax problems and with field names on domain violations.
    """
    assignments: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key not in _FLOAT_KEYS and key not in _SPECIAL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in assignments:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        assignments[key] = value

    def take_float(key: str, default: float) -> float:
        if key not in assignments:
            return default
        text_value = assignments.pop(key)
        try:
            return float(text_value)
        except ValueError:
            raise ConfigError(f"{key}: not a number: {text_value!r}") from None

    def take_int(key: str, default: int) -> int:
        if key not in assignments:
            return default
        text_value = assignments.pop(key)
        try:
            return int(text_value, 0)
        except ValueError:
            raise ConfigError(f"{key}: not an integer: {text_value!r}") from None

    base = ScenarioConfig()
    weathers = parse_weathers(assignments.pop("weather", ",".join(WEATHER_KINDS)))

    geo_kwargs = {}
    for key, (target, attr) in _FLOAT_KEYS.items():
        if target == "geometry" and key in assignments:
            geo_kwargs[attr] = take_float(key, 0.0)
    rsu_height = take_float("geometry.rsu_height", base.geometry.rsu_pose.z)
    rsu_tilt = take_float("geometry.rsu_tilt_deg", 45.0)
    if not math.isfinite(rsu_tilt):
        raise ConfigError("geometry.rsu_tilt_deg: must be finite")
    t = math.radians(rsu_tilt)
    try:
        rsu_pose = Pose3(0.0, 0.0, rsu_height,
                         axis=(math.cos(t), 0.0, -math.sin(t)))
        geometry = replace(base.geometry, rsu_pose=rsu_pose, **geo_kwargs)
    except InvalidArgumentError as exc:
        raise ConfigError(f"geometry: {exc}") from None

    vlc = base.vlc
    rf = base.rf
    scenario_kwargs = {}
    for key, (target, attr) in _FLOAT_KEYS.items():
        if key not in assignments or target == "geometry":
            continue
        value = take_float(key, 0.0)
        if target == "vlc":
            vlc = replace(vlc, **{attr: value})
        elif target == "rf":
            rf = replace(rf, **{attr: value})
        else:
            scenario_kwargs[attr] = value
    if "rf.fading" in assignments:
        rf = replace(rf, fading=assignments.pop("rf.fading"))

    n_trials = take_int("trials", DEFAULT_TRIALS)
    master_seed = take_int("seed", DEFAULT_SEED)

    config = replace(base, geometry=geometry, vlc=vlc, rf=rf, **scenario_kwargs)
    spec = SweepSpec(
        distances=DEFAULT_PRP_DISTANCES,
        weathers=weathers,
        modes=(MODE_PURE_VLC, MODE_PURE_RF, MODE_LA),
        n_trials=n_trials,
        master_seed=master_seed,
    )
    problems = validate(config) + spec.check()
    if problems:
        raise ConfigError("; ".join(problems))
    return config, spec


def config_digest(config: ScenarioConfig, spec: SweepSpec) -> str:
    """Content hash of the parsed configuration, for run manifests."""
    return hashlib.sha256(repr((config, spec)).encode()).hexdigest()
