"""Flat `key = value` configuration documents.

The format is deliberately trivial: one assignment per line, `#` starts a
comment, nested radio parameters use dotted keys (`vlc.pd_area`).  Unknown
keys are hard errors; a silent typo in a physics parameter is the worst
failure mode a simulator can have.  The keys are the float fields of the
config dataclasses (scenario.FLOAT_KEYS) and the _SPECIAL_KEYS below, less
distance_r: a sweep sets it at each of its distances.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from .engine import SweepSpec
from .errors import ConfigError
from .metrics import MODE_LA, MODE_PURE_RF, MODE_PURE_VLC
from .scenario import (CONFIG_SECTIONS, FLOAT_KEYS, WEATHER_KINDS, ScenarioConfig,
                       validate)

DEFAULT_SEED = 20260823
DEFAULT_TRIALS = 100_000
DEFAULT_PRP_DISTANCES = tuple(float(d) for d in range(10, 251, 10))
DEFAULT_MODES = (MODE_PURE_VLC, MODE_PURE_RF, MODE_LA)

_SPECIAL_KEYS = ("weather", "rf.fading", "trials", "seed")


def parse_list(text: str, cast=float) -> tuple:
    """A comma list, each item cast: the `weather` key and the list flags.

    Empty items are dropped; SweepSpec.check judges the list that is left.
    """
    try:
        return tuple(cast(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad list {text!r}: {exc}") from None


def parse_config(text: str) -> tuple[ScenarioConfig, SweepSpec]:
    """Parse a configuration document into a validated scenario + sweep.

    Missing keys take the calibrated defaults (the case-study values where
    the source material states them: lambda = rho = 0.01, rho_a = 0.9,
    beta_ov = 0.8, B = 20 MHz, H = 50 KB).  Raises ConfigError with a line
    number on syntax problems, and at once on a value that is not a number
    or a special key it cannot convert; every other problem is reported
    together, by config key.
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
        if key not in FLOAT_KEYS and key not in _SPECIAL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key == "distance_r":
            raise ConfigError(f"line {lineno}: distance_r is set per sweep point "
                              "by --distances")
        if key in assignments:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        assignments[key] = value

    def take_float(key: str) -> float:
        try:
            return float(assignments[key])
        except ValueError:
            raise ConfigError(f"{key}: not a number: {assignments[key]!r}") from None

    def take_int(key: str, default: int) -> int:
        if key not in assignments:
            return default
        try:
            return int(assignments[key], 0)
        except ValueError:
            raise ConfigError(f"{key}: not an integer: {assignments[key]!r}") from None

    base = ScenarioConfig()
    # section -> field -> value, one replace() per section
    kwargs = {section: {} for section in CONFIG_SECTIONS}
    for key in assignments:
        if key in FLOAT_KEYS:
            section, name = FLOAT_KEYS[key]
            kwargs[section][name] = take_float(key)
    if "rf.fading" in assignments:
        kwargs["rf"]["fading"] = assignments["rf.fading"]
    config = replace(base, **kwargs.pop(""), **{
        section: replace(getattr(base, section), **values)
        for section, values in kwargs.items()})

    weathers = parse_list(assignments.get("weather", ",".join(WEATHER_KINDS)), str)
    n_trials = take_int("trials", DEFAULT_TRIALS)
    master_seed = take_int("seed", DEFAULT_SEED)
    spec = SweepSpec(
        distances=DEFAULT_PRP_DISTANCES,
        weathers=weathers,
        modes=DEFAULT_MODES,
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
