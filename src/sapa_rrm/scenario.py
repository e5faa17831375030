"""Seeded random generation of tracking scenes.

A scene is a static snapshot of targets: range, bearing, radar cross
section, Singer maneuver parameters drawn per target type, and a
normalized task weight.  Generation is reproducible across platforms
and parallelism: every target gets its own child stream spawned from
the scene seed, so target i's draws never depend on how many targets
came before it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .radar_model import Environment


class TargetType(enum.Enum):
    """Singer maneuver class of a target."""

    TYPE_I = "I"    # agile: strong acceleration, long correlation
    TYPE_II = "II"  # sedate: weak acceleration, short correlation


@dataclass(frozen=True)
class TargetTypeRanges:
    """Uniform draw intervals for one Singer target type."""

    maneuver_std_range: tuple[float, float]  # acceleration std [m/s^2]
    corr_time_range: tuple[float, float]     # correlation time [s]

    def __post_init__(self) -> None:
        for lo, hi in (self.maneuver_std_range, self.corr_time_range):
            if not 0.0 <= lo <= hi:
                raise ValueError("interval bounds must satisfy 0 <= lo <= hi")


TYPE_RANGES: dict[TargetType, TargetTypeRanges] = {
    TargetType.TYPE_I: TargetTypeRanges(maneuver_std_range=(20.0, 35.0),
                                        corr_time_range=(10.0, 20.0)),
    TargetType.TYPE_II: TargetTypeRanges(maneuver_std_range=(0.0, 5.0),
                                         corr_time_range=(1.0, 4.0)),
}


@dataclass(frozen=True)
class SceneConfig:
    """Distribution parameters for one random scene."""

    n_targets: int = 200
    range_interval: tuple[float, float] = (10e3, 70e3)     # [m]
    bearing_interval: tuple[float, float] = (-60.0, 60.0)  # [deg]
    rcs_interval_dbsm: tuple[float, float] = (-10.0, 10.0)
    weight_interval: tuple[float, float] = (0.2, 0.8)
    type_probabilities: tuple[float, float] = (0.5, 0.5)   # (I, II)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_targets < 1:
            raise ValueError("n_targets must be at least 1")
        if not 0.0 < self.range_interval[0] <= self.range_interval[1]:
            raise ValueError("range_interval must be positive and ordered")
        for name in ("bearing_interval", "rcs_interval_dbsm",
                     "weight_interval"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} bounds must be ordered")
        if not (-90.0 < self.bearing_interval[0]
                and self.bearing_interval[1] < 90.0):
            raise ValueError("bearing_interval must lie inside (-90, 90) deg")
        if not self.weight_interval[0] > 0.0:
            raise ValueError("weights must be positive")
        p = self.type_probabilities
        if not (min(p) >= 0.0 and abs(sum(p) - 1.0) <= 1e-12):
            raise ValueError("type_probabilities must be >= 0 and sum to 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class TrackingTask:
    """One target to track: environment, normalized weight, type tag."""

    environment: Environment
    weight: float
    target_type: TargetType


@dataclass(frozen=True)
class Scene:
    """A static set of tracking tasks; weights sum to 1."""

    tasks: tuple[TrackingTask, ...]


def normalize_weights(raw: list[float] | tuple[float, ...]) -> list[float]:
    """Scale positive weights so they sum to 1, preserving ratios."""
    if not raw:
        raise ValueError("weight list must be non-empty")
    if min(raw) <= 0.0:
        raise ValueError("weights must be positive")
    total = sum(raw)
    return [w / total for w in raw]


def generate_scene(cfg: SceneConfig) -> Scene:
    """Draw one scene from the configured distributions.

    Per target, its child stream draws in a fixed order: bearing, RCS
    in dB (then converted to m^2), type, maneuver std, correlation
    time, range, raw weight.  Weights are normalized across the scene
    afterwards.
    """
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_targets)
    envs: list[Environment] = []
    types: list[TargetType] = []
    raw_weights: list[float] = []
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        bearing_deg = rng.uniform(*cfg.bearing_interval)
        rcs_db = rng.uniform(*cfg.rcs_interval_dbsm)
        if rng.uniform() < cfg.type_probabilities[0]:
            ttype = TargetType.TYPE_I
        else:
            ttype = TargetType.TYPE_II
        ranges = TYPE_RANGES[ttype]
        maneuver_std = rng.uniform(*ranges.maneuver_std_range)
        corr_time = rng.uniform(*ranges.corr_time_range)
        target_range = rng.uniform(*cfg.range_interval)
        raw_weights.append(rng.uniform(*cfg.weight_interval))
        envs.append(Environment(range=target_range,
                                bearing=math.radians(bearing_deg),
                                rcs=10.0 ** (rcs_db / 10.0),
                                maneuver_std=maneuver_std,
                                corr_time=corr_time))
        types.append(ttype)
    weights = normalize_weights(raw_weights)
    tasks = tuple(TrackingTask(environment=env, weight=w, target_type=tt)
                  for env, w, tt in zip(envs, weights, types))
    return Scene(tasks=tasks)
