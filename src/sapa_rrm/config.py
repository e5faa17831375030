"""Configuration files for the command line front end.

A single JSON document drives a whole reproduction: radar constants,
utility shape, named control grids, scene distribution and sweep plan.
Values in the file use bench units (ms, Hz, km, degrees, dBsm, mrad);
conversion to SI happens at parse time.  Parsing fills in published
defaults, so an empty document {} is a complete configuration.

The radar, utility and scene defaults are the model types' own defaults
in bench units; configs/defaults.json writes all of them out.  The
parsed RunConfig holds only the built model objects, so it is frozen,
hashable and shares no state with the defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from .experiment import SweepConfig
from .qram import ControlGrid
from .radar_model import FLOAT_MAX, RadarConstants, UtilityShape
from .scenario import SceneConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


RADAR_DEFAULTS: dict[str, Any] = asdict(RadarConstants())

UTILITY_DEFAULTS: dict[str, Any] = {
    f"{name}_mrad": value * 1e3
    for name, value in asdict(UtilityShape()).items()}

_SCENE = SceneConfig()
SCENE_DEFAULTS: dict[str, Any] = {
    "n_targets": _SCENE.n_targets,
    "range_km": [r / 1e3 for r in _SCENE.range_interval],
    "bearing_deg": list(_SCENE.bearing_interval),
    "rcs_dbsm": list(_SCENE.rcs_interval_dbsm),
    "weight": list(_SCENE.weight_interval),
    "type_probabilities": list(_SCENE.type_probabilities),
    "seed": _SCENE.seed,
}

_SPLIT_GRID: dict[str, Any] = {
    "t_d_ms": {"start": 4.0, "step": 0.6, "stop": 64.0},
    "f_t_hz": {"start": 0.1, "step": 0.1, "stop": 6.0},
    "n_h": {"start": 6, "step": 6, "stop": 48},
}

GRID_DEFAULTS: dict[str, Any] = {
    "split": _SPLIT_GRID,
    "full": {**_SPLIT_GRID, "n_h": [RADAR_DEFAULTS["n_h_total"]]},
}

SWEEP_DEFAULTS: dict[str, Any] = {
    "budgets": {"start": 0.01, "step": 0.01, "stop": 1.0},
    "grids": ["split", "full"],
    "n_mc": 100,
    "histogram_budgets": [0.1, 0.2, 0.3, 0.4],
}

MAX_AXIS_VALUES = 100_000  # per {start, step, stop} triple


def _fail(key: str, constraint: str):
    raise ConfigError(f"{key}: {constraint}")


def _build(key: str, cls, **fields):
    """cls(**fields), with its ValueError reported under key."""
    try:
        return cls(**fields)
    except ValueError as exc:
        _fail(key, str(exc))


def _as_number(key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(key, "must be a number")
    if not abs(value) <= FLOAT_MAX:  # exact for ints of any size
        _fail(key, "must be finite")
    return float(value)


def _as_int(key: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(key, "must be an integer")
    return int(value)


def _as_pair(key: str, value: Any) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        _fail(key, "must be a [low, high] pair")
    return (_as_number(f"{key}[0]", value[0]),
            _as_number(f"{key}[1]", value[1]))


def _section(doc: dict[str, Any], name: str,
             defaults: dict[str, Any]) -> dict[str, Any]:
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        _fail(name, "must be an object")
    for key in raw:
        if key not in defaults:
            _fail(f"{name}.{key}",
                  f"unknown key (expected one of {sorted(defaults)})")
    merged = dict(defaults)
    merged.update(raw)
    return merged


def _expand(key: str, value: Any, integer: bool = False) -> list:
    """Explicit value list, or a {start, step, stop} triple."""
    cast = _as_int if integer else _as_number
    if isinstance(value, list):
        if not value:
            _fail(key, "must be non-empty")
        return [cast(f"{key}[{i}]", v) for i, v in enumerate(value)]
    if isinstance(value, dict):
        extra = set(value) - {"start", "step", "stop"}
        if extra:
            _fail(key, f"unknown triple keys {sorted(extra)}")
        try:
            start = cast(f"{key}.start", value["start"])
            step = cast(f"{key}.step", value["step"])
            stop = cast(f"{key}.stop", value["stop"])
        except KeyError as missing:
            _fail(key, f"triple needs start/step/stop, missing {missing}")
        if step <= 0:
            _fail(f"{key}.step", "must be positive")
        if stop < start:
            _fail(f"{key}.stop", "must be >= start")
        try:
            count_exact = (stop - start) / step
        except OverflowError:  # an int quotient beyond the float range
            count_exact = math.inf
        if not count_exact < MAX_AXIS_VALUES - 0.5:
            _fail(key, f"triple gives more than {MAX_AXIS_VALUES} values")
        count = round(count_exact)
        if abs(count_exact - count) > 1e-9 * max(1.0, abs(count_exact)):
            _fail(key, "stop - start must be an integer multiple of step")
        values = [start + k * step for k in range(int(count) + 1)]
        if integer:
            return [int(v) for v in values]
        return [round(v, 10) for v in values]  # shed accumulation noise
    _fail(key, "must be a value list or a {start, step, stop} triple")


def _build_radar(section: dict[str, Any]) -> RadarConstants:
    values = {key: (_as_int if isinstance(RADAR_DEFAULTS[key], int)
                    else _as_number)(f"radar.{key}", value)
              for key, value in section.items()}
    return _build("radar", RadarConstants, **values)


def _build_utility(section: dict[str, Any]) -> UtilityShape:
    q_min = _as_number("utility.q_min_mrad", section["q_min_mrad"])
    q_max = _as_number("utility.q_max_mrad", section["q_max_mrad"])
    return _build("utility", UtilityShape, q_min=q_min * 1e-3,
                  q_max=q_max * 1e-3)


def _build_grid(name: str, raw: Any, n_h_total: int) -> ControlGrid:
    key = f"grids.{name}"
    if not isinstance(raw, dict):
        _fail(key, "must be an object")
    extra = set(raw) - {"t_d_ms", "f_t_hz", "n_h"}
    if extra:
        _fail(key, f"unknown keys {sorted(extra)}")
    missing = {"t_d_ms", "f_t_hz", "n_h"} - set(raw)
    if missing:
        _fail(key, f"missing keys {sorted(missing)}")
    t_d_ms = _expand(f"{key}.t_d_ms", raw["t_d_ms"])
    f_t_hz = _expand(f"{key}.f_t_hz", raw["f_t_hz"])
    n_h = _expand(f"{key}.n_h", raw["n_h"], integer=True)
    if max(n_h) > n_h_total:
        _fail(f"{key}.n_h", f"must not exceed radar.n_h_total ({n_h_total})")
    return _build(key, ControlGrid,
                  t_d_values=tuple(round(v * 1e-3, 13) for v in t_d_ms),
                  f_t_values=tuple(f_t_hz), n_h_values=tuple(n_h))


def _build_scene(section: dict[str, Any]) -> SceneConfig:
    range_km = _as_pair("scene.range_km", section["range_km"])
    bearing = _as_pair("scene.bearing_deg", section["bearing_deg"])
    rcs = _as_pair("scene.rcs_dbsm", section["rcs_dbsm"])
    weight = _as_pair("scene.weight", section["weight"])
    probs = _as_pair("scene.type_probabilities",
                     section["type_probabilities"])
    n_targets = _as_int("scene.n_targets", section["n_targets"])
    seed = _as_int("scene.seed", section["seed"])
    return _build("scene", SceneConfig, n_targets=n_targets,
                  range_interval=(range_km[0] * 1e3, range_km[1] * 1e3),
                  bearing_interval=bearing, rcs_interval_dbsm=rcs,
                  weight_interval=weight, type_probabilities=probs,
                  seed=seed)


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: the built model objects."""

    radar: RadarConstants
    utility: UtilityShape
    grids: tuple[tuple[str, ControlGrid], ...]
    scene: SceneConfig
    sweep: SweepConfig

    def grid(self, name: str) -> ControlGrid:
        for n, g in self.grids:
            if n == name:
                return g
        raise KeyError(f"unknown grid {name!r}")

    @property
    def grid_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.grids)


def parse_config(document: Any) -> RunConfig:
    """Build a RunConfig from a decoded JSON document.

    Raises:
        ConfigError: naming the offending key and its constraint.
    """
    if not isinstance(document, dict):
        _fail("<root>", "must be a JSON object")
    known = {"radar", "utility", "grids", "scene", "sweep"}
    for key in document:
        if key not in known:
            _fail(key, f"unknown section (expected one of {sorted(known)})")

    radar_doc = _section(document, "radar", RADAR_DEFAULTS)
    utility_doc = _section(document, "utility", UTILITY_DEFAULTS)
    scene_doc = _section(document, "scene", SCENE_DEFAULTS)
    sweep_doc = _section(document, "sweep", SWEEP_DEFAULTS)
    grids_doc = document.get("grids", GRID_DEFAULTS)
    if not isinstance(grids_doc, dict) or not grids_doc:
        _fail("grids", "must be a non-empty object of named grids")

    radar = _build_radar(radar_doc)
    utility = _build_utility(utility_doc)
    grids = tuple((name, _build_grid(name, raw, radar.n_h_total))
                  for name, raw in grids_doc.items())
    grid_names = [n for n, _ in grids]
    scene = _build_scene(scene_doc)

    budgets = [round(b, 10)
               for b in _expand("sweep.budgets", sweep_doc["budgets"])]
    sweep_grids = sweep_doc["grids"]
    if (not isinstance(sweep_grids, list) or not sweep_grids
            or not all(isinstance(n, str) for n in sweep_grids)):
        _fail("sweep.grids", "must be a non-empty list of grid names")
    for n in sweep_grids:
        if n not in grid_names:
            _fail("sweep.grids", f"unknown grid {n!r} "
                  f"(defined grids: {grid_names})")
        if sweep_grids.count(n) > 1:
            _fail("sweep.grids", f"grid {n!r} is listed more than once")
    hist = _expand("sweep.histogram_budgets", sweep_doc["histogram_budgets"])
    n_mc = _as_int("sweep.n_mc", sweep_doc["n_mc"])
    sweep = _build("sweep", SweepConfig, budgets=tuple(budgets),
                   grids=tuple((n, dict(grids)[n]) for n in sweep_grids),
                   n_mc=n_mc, scene=scene,
                   histogram_budgets=tuple(round(b, 10) for b in hist))
    return RunConfig(radar=radar, utility=utility, grids=grids, scene=scene,
                     sweep=sweep)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """json object_pairs_hook: reject a key repeated within one object."""
    document = {}
    for key, value in pairs:
        if key in document:
            _fail(key, "repeated key; JSON would keep only the last value")
        document[key] = value
    return document


def loads_config(text: str) -> RunConfig:
    try:
        document = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError:
        raise
    except ValueError as exc:  # also an int past Python's digit limit
        raise ConfigError(f"<root>: not valid JSON ({exc})") from exc
    return parse_config(document)


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a configuration file."""
    return loads_config(Path(path).read_text(encoding="utf-8"))
