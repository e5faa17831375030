"""Unit tests for JSON configuration parsing and normalization."""

import math

import pytest

from sapa_rrm.config import (
    ConfigError,
    load_config,
    loads_config,
    parse_config,
)
from sapa_rrm.radar_model import RadarConstants
from sapa_rrm.scenario import SceneConfig


def grid_doc(**overrides):
    doc = {
        "t_d_ms": {"start": 4.0, "step": 6.0, "stop": 64.0},
        "f_t_hz": [0.5, 1.0, 2.0],
        "n_h": [6, 24, 48],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# defaults


def test_empty_document_is_complete():
    cfg = parse_config({})
    assert cfg.radar == RadarConstants()
    assert cfg.utility.q_min == 3.0 * 1e-3
    assert cfg.utility.q_max == 1.0 * 1e-3
    assert cfg.grid_names == ("split", "full")
    assert cfg.scene == SceneConfig()


def test_default_grids():
    cfg = parse_config({})
    split = cfg.grid("split")
    full = cfg.grid("full")
    assert len(split.t_d_values) == 101
    assert len(split.f_t_values) == 60
    assert split.n_h_values == tuple(range(6, 49, 6))
    assert split.size == 101 * 60 * 8
    assert split.t_d_values[0] == 0.004
    assert split.t_d_values[-1] == 0.064
    assert split.t_d_values[7] == pytest.approx(8.2e-3, rel=1e-12)
    assert split.f_t_values[0] == pytest.approx(0.1, rel=1e-12)
    assert full.n_h_values == (48,)
    assert full.size == 101 * 60
    assert full.t_d_values == split.t_d_values
    assert split.n_h_values != (cfg.radar.n_h_total,)
    assert full.n_h_values == (cfg.radar.n_h_total,)


def test_default_sweep_plan():
    cfg = parse_config({})
    budgets = cfg.sweep.budgets
    assert len(budgets) == 100
    assert budgets[0] == 0.01
    assert budgets[-1] == 1.0
    assert budgets[49] == 0.5
    assert cfg.sweep.n_mc == 100
    assert cfg.sweep.grid_names == ("split", "full")
    assert dict(cfg.sweep.grids)["split"] == cfg.grid("split")
    assert cfg.sweep.scene == cfg.scene
    assert cfg.histogram_budgets == (0.1, 0.2, 0.3, 0.4)


# ---------------------------------------------------------------------------
# unit conversions and overrides


def test_bench_units_convert_to_si():
    cfg = parse_config({
        "utility": {"q_min_mrad": 2.0, "q_max_mrad": 0.5},
        "scene": {"range_km": [25.0, 250.0], "bearing_deg": [-30.0, 30.0]},
        "grids": {"only": grid_doc(t_d_ms=[20.0])},
        "sweep": {"grids": ["only"], "budgets": [1.0],
                  "histogram_budgets": [1.0]},
    })
    assert cfg.utility.q_min == 2.0 * 1e-3
    assert cfg.utility.q_max == 0.5 * 1e-3
    assert cfg.scene.range_interval == (25e3, 250e3)
    assert cfg.scene.bearing_interval == (-30.0, 30.0)
    assert cfg.grid("only").t_d_values == (0.02,)


def test_triple_and_list_forms_agree():
    by_triple = parse_config(
        {"grids": {"g": grid_doc(n_h={"start": 6, "step": 21, "stop": 48})},
         "sweep": {"grids": ["g"]}})
    by_list = parse_config(
        {"grids": {"g": grid_doc(n_h=[6, 27, 48])},
         "sweep": {"grids": ["g"]}})
    assert by_triple.grid("g") == by_list.grid("g")


def test_radar_overrides_reach_constants():
    cfg = parse_config({"radar": {"k_rad": 1e20, "snr_cap_db": 50.0}})
    assert cfg.radar.k_rad == 1e20
    assert cfg.radar.snr_cap_db == 50.0
    # untouched fields keep their defaults
    assert cfg.radar.p_fa == 1e-4
    assert cfg.radar.n_h_total == 48


def test_grid_lookup():
    cfg = parse_config({})
    with pytest.raises(KeyError):
        cfg.grid("nope")


# ---------------------------------------------------------------------------
# serialization round trip


@pytest.mark.parametrize("document", [
    {},
    {
        "radar": {"snr_cap_db": 42.0},
        "utility": {"q_max_mrad": 0.8},
        "grids": {"coarse": {
            "t_d_ms": {"start": 4.0, "step": 12.0, "stop": 64.0},
            "f_t_hz": [0.5, 2.0],
            "n_h": {"start": 12, "step": 12, "stop": 48},
        }},
        "scene": {"n_targets": 17, "seed": 99, "range_km": [20.0, 90.0]},
        "sweep": {"budgets": {"start": 0.1, "step": 0.1, "stop": 1.0},
                  "grids": ["coarse"], "n_mc": 4,
                  "histogram_budgets": [0.3]},
    },
])
def test_to_json_round_trip_is_identity(document, tmp_path):
    cfg = parse_config(document)
    again = loads_config(cfg.to_json())
    assert again == cfg
    path = tmp_path / "run.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    assert load_config(path) == cfg


def test_normalized_document_contains_every_section():
    cfg = parse_config({"scene": {"seed": 3}})
    assert set(cfg.document) == {"radar", "utility", "grids", "scene",
                                 "sweep"}
    assert cfg.document["scene"]["seed"] == 3
    assert cfg.document["scene"]["n_targets"] == 200


# ---------------------------------------------------------------------------
# rejection paths; every message must name the offending key


@pytest.mark.parametrize("document,needle", [
    ([], "<root>"),
    ({"nope": {}}, "nope: unknown section"),
    ({"radar": 3}, "radar: must be an object"),
    ({"radar": {"nope": 1}}, "radar.nope: unknown key"),
    ({"radar": {"k_rad": True}}, "radar.k_rad: must be a number"),
    ({"radar": {"k_rad": math.inf}}, "radar.k_rad: must be finite"),
    ({"radar": {"k_rad": -1.0}}, "radar:"),
    ({"utility": {"q_min_mrad": 0.5, "q_max_mrad": 1.0}}, "utility:"),
    ({"scene": {"n_targets": 2.5}}, "scene.n_targets: must be an integer"),
    ({"scene": {"range_km": [1.0, 2.0, 3.0]}},
     r"scene.range_km: must be a \[low, high\] pair"),
    ({"scene": {"range_km": [70.0, 10.0]}}, "scene:"),
    ({"grids": {}}, "grids: must be a non-empty object"),
    ({"grids": {"g": 5}}, "grids.g: must be an object"),
    ({"grids": {"g": grid_doc(junk=1)}}, r"grids.g: unknown keys \['junk'\]"),
    ({"grids": {"g": {"t_d_ms": [4.0]}}}, "grids.g: missing keys"),
    ({"grids": {"g": grid_doc(n_h=[])}}, "grids.g.n_h: must be non-empty"),
    ({"grids": {"g": grid_doc(n_h=[6.5])}},
     r"grids.g.n_h\[0\]: must be an integer"),
    ({"grids": {"g": grid_doc(t_d_ms="fast")}},
     "grids.g.t_d_ms: must be a value list or a"),
    ({"grids": {"split": grid_doc(
        t_d_ms={"start": 4.0, "step": 0.0, "stop": 64.0})}},
     "grids.split.t_d_ms.step: must be positive"),
    ({"grids": {"g": grid_doc(
        t_d_ms={"start": 64.0, "step": 1.0, "stop": 4.0})}},
     "grids.g.t_d_ms.stop: must be >= start"),
    ({"grids": {"g": grid_doc(
        t_d_ms={"start": 4.0, "step": 0.7, "stop": 64.0})}},
     "integer multiple of step"),
    ({"grids": {"g": grid_doc(
        t_d_ms={"start": 4.0, "stop": 64.0})}}, "missing"),
    ({"grids": {"g": grid_doc(
        t_d_ms={"start": 4.0, "step": 1.0, "stop": 64.0, "pace": 2})}},
     r"unknown triple keys \['pace'\]"),
    ({"sweep": {"nope": 1}}, "sweep.nope: unknown key"),
    ({"sweep": {"grids": "split"}},
     "sweep.grids: must be a non-empty list"),
    ({"sweep": {"grids": ["ghost"]}}, "unknown grid 'ghost'"),
    ({"sweep": {"budgets": [0.5, 0.5], "histogram_budgets": [0.5]}},
     "sweep: budgets must be strictly increasing"),
    ({"sweep": {"budgets": [0.5, 1.5], "histogram_budgets": [0.5]}},
     "sweep:"),
    ({"sweep": {"n_mc": 0}}, "sweep:"),
    ({"sweep": {"histogram_budgets": [0.015]}},
     "sweep.histogram_budgets: 0.015 is not one of the sweep budgets"),
    ({"sweep": {"grids": ["split", "split", "full"]}},
     "sweep.grids: grid 'split' is listed more than once"),
    # JSON text, since a dict cannot hold a repeated key
    pytest.param('{"radar": {"p_fa": 1e-3, "p_fa": 1e-5}}',
                 "p_fa: repeated key", id="repeated-radar.p_fa"),
    pytest.param('{"grids": {"split": {"t_d_ms": [4.0], "f_t_hz": [1.0], '
                 '"n_h": [6]}, "split": {"t_d_ms": [8.0], "f_t_hz": [1.0], '
                 '"n_h": [6]}}}', "split: repeated key",
                 id="repeated-grids.split"),
    ({"grids": {"split": grid_doc(
        t_d_ms={"start": 4.0, "step": 1e-9, "stop": 64.0})}},
     "grids.split.t_d_ms: triple gives more than 100000 values"),
    ({"scene": {"seed": -5}}, "scene: seed must be >= 0"),
])
def test_invalid_documents_are_rejected(document, needle):
    parse = loads_config if isinstance(document, str) else parse_config
    with pytest.raises(ConfigError, match=needle):
        parse(document)


def test_loads_config_rejects_malformed_json():
    with pytest.raises(ConfigError, match="not valid JSON"):
        loads_config("{not json")
    assert loads_config("{}").radar == RadarConstants()
