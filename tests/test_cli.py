"""End-to-end tests of the command line front end."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sapa_rrm import cli, radar_model
from sapa_rrm.config import MAX_AXIS_VALUES, parse_config
from sapa_rrm.radar_model import (
    ControlPoint,
    Environment,
    RadarConstants,
    UtilityShape,
    evaluate,
    evaluate_grid,
    linear_to_db,
)

ROOT = Path(__file__).resolve().parents[1]

EVAL_BASE = ["eval", "--maneuver-std", "10", "--corr-time", "4",
             "--td", "20", "--ft", "1", "--nh", "48"]

CONFIG_DOC = {
    "grids": {
        "split": {"t_d_ms": [4.0, 10.0, 20.0],
                  "f_t_hz": [0.5, 1.0, 2.0, 4.0],
                  "n_h": [6, 12, 24, 48]},
        "full": {"t_d_ms": [4.0, 10.0, 20.0],
                 "f_t_hz": [0.5, 1.0, 2.0, 4.0],
                 "n_h": [48]},
    },
    "scene": {"n_targets": 12, "seed": 5},
    "sweep": {"budgets": [0.25, 0.5], "grids": ["split", "full"],
              "n_mc": 2, "histogram_budgets": [0.5]},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG_DOC), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# eval


def test_eval_reports_reference_point(capsys):
    rc = cli.main(["eval", "--maneuver-std", "0.1", "--corr-time", "4",
                   "--td", "20", "--ft", "1", "--nh", "48",
                   "--range", "10", "--rcs", "10"])
    assert rc == 0
    parsed = json.loads(capsys.readouterr().out)
    ev = evaluate(ControlPoint(t_d=20.0 * 1e-3, f_t=1.0, n_h=48),
                  Environment(range=10e3, bearing=0.0, rcs=10.0,
                              maneuver_std=0.1, corr_time=4.0),
                  RadarConstants(), UtilityShape())
    assert parsed == {
        "feasible": True,
        "quality_mrad": round(ev.quality * 1e3, 4),
        "resource": round(ev.resource, 8),
        "utility": round(ev.utility, 6),
        "snr_db": round(linear_to_db(ev.snr_linear), 4),
        "v0": round(ev.track_sharpness, 6),
        "p_d": round(ev.p_d, 6),
        "n_looks": round(ev.n_looks, 4),
    }
    # spot values pin the model, not just the plumbing
    assert parsed["quality_mrad"] == 0.1722
    assert parsed["resource"] == 0.02001843
    assert parsed["utility"] == 1.0
    assert parsed["snr_db"] == 40.0
    assert list(parsed) == ["feasible", "quality_mrad", "resource",
                            "utility", "snr_db", "v0", "p_d", "n_looks"]


def test_eval_infeasible_point_reports_cleanly(capsys):
    rc = cli.main(["eval", "--maneuver-std", "10", "--corr-time", "4",
                   "--td", "4", "--ft", "1", "--nh", "48",
                   "--range", "900", "--rcs", "-20"])
    assert rc == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["feasible"] is False
    assert all(parsed[k] is None for k in ("quality_mrad", "resource",
                                           "utility", "snr_db", "v0",
                                           "p_d", "n_looks"))


def test_eval_range_sweep_emits_one_line_per_range(capsys):
    rc = cli.main(["eval", "--maneuver-std", "1", "--corr-time", "2",
                   "--td", "20", "--ft", "1", "--nh", "48",
                   "--range-sweep", "100:200:3"])
    assert rc == 0
    rows = [json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()]
    assert [r["range_km"] for r in rows] == [100.0, 150.0, 200.0]
    assert all(list(r)[0] == "range_km" for r in rows)
    assert all(r["feasible"] for r in rows)
    # COUNT may reach the cap on config axis triples, and no further
    assert len(cli._range_sweep(f"10:20:{MAX_AXIS_VALUES}")) == \
        MAX_AXIS_VALUES


@pytest.mark.parametrize("argv", [
    EVAL_BASE,                                      # no range given
    EVAL_BASE[:-2],                                 # missing --nh
    EVAL_BASE + ["--range", "50", "--bearing", "95"],
    EVAL_BASE + ["--range", "-5"],
    EVAL_BASE[:-2] + ["--nh", "0", "--range", "50"],
    EVAL_BASE[:-2] + ["--nh", "49", "--range", "50"],
    ["eval", "--maneuver-std", "0", "--corr-time", "4", "--td", "20",
     "--ft", "1", "--nh", "48", "--range", "50"],
    EVAL_BASE + ["--range-sweep", "100:200"],
    EVAL_BASE + ["--range-sweep", "200:100:5"],
    EVAL_BASE + ["--range-sweep", "100:200:1"],
    EVAL_BASE + ["--range-sweep", "a:b:c"],
    EVAL_BASE + ["--range", "50", "--config", "/no/such/file.json"],
    # the track-sharpness root leaves the bisection bracket
    EVAL_BASE + ["--range", "1e-70"],
    ["eval", "--maneuver-std", "1e-300", "--corr-time", "4", "--td", "20",
     "--ft", "1", "--nh", "48", "--range", "50"],
])
def test_eval_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("first, second", [
    (["--range", "50"], ["--range-sweep", "10:20:2"]),
    (["--range-sweep", "10:20:2"], ["--range", "50"]),
])
def test_eval_range_and_range_sweep_exclude_each_other(first, second,
                                                       capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(EVAL_BASE + first + second)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {second[0]}: not allowed with argument {first[0]}" \
        in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, flag", [
    (EVAL_BASE + ["--range", "nan"], "--range"),
    (EVAL_BASE + ["--range", "inf"], "--range"),
    (EVAL_BASE + ["--range", "50", "--bearing", "nan"], "--bearing"),
    (EVAL_BASE + ["--range", "50", "--rcs", "nan"], "--rcs"),
    (EVAL_BASE + ["--range", "50", "--maneuver-std", "inf"],
     "--maneuver-std"),
    (EVAL_BASE + ["--range", "50", "--corr-time", "nan"], "--corr-time"),
    (EVAL_BASE + ["--range", "50", "--td", "inf"], "--td"),
    (EVAL_BASE + ["--range", "50", "--ft=-inf"], "--ft"),
    (EVAL_BASE + ["--range-sweep", "nan:10:2"], "--range-sweep"),
    (EVAL_BASE + ["--range-sweep", "10:inf:2"], "--range-sweep"),
    (["allocate", "--budget", "nan"], "--budget"),
    # finite, but the model's m^4 or m^2 overflows or reaches zero
    (EVAL_BASE + ["--range", "1e100"], "--range"),
    (EVAL_BASE + ["--range", "50", "--rcs", "4000"], "--rcs"),
    (EVAL_BASE + ["--range", "1e-200"], "--range"),
    (EVAL_BASE + ["--range-sweep", "1e-200:1e-199:2"], "--range-sweep"),
    (EVAL_BASE + ["--range", "50", "--rcs", "-4000"], "--rcs"),
    # one past the axis cap of config triples; rejected while parsing
    (EVAL_BASE + ["--range-sweep", "10:20:100001"], "--range-sweep"),
])
def test_non_finite_numbers_exit_2_naming_the_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}:" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# allocate


def run_allocate(config_path, out_dir, *extra):
    argv = ["allocate", "--config", str(config_path), "--budget", "0.3",
            "--out", str(out_dir), *extra]
    return cli.main(argv)


def test_allocate_outputs_are_deterministic(config_path, tmp_path,
                                            capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_allocate(config_path, a) == 0
    assert run_allocate(config_path, b) == 0
    assert (a / "allocation.csv").read_bytes() == \
        (b / "allocation.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == \
        (b / "summary.json").read_bytes()
    assert "allocation.csv" in capsys.readouterr().out


def test_allocate_summary_agrees_with_csv(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_allocate(config_path, out) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"budget", "grid", "n_targets", "scene_seed",
                            "total_resource", "total_utility",
                            "active_tracks"}
    assert summary["budget"] == 0.3
    assert summary["grid"] == "split"       # first grid in the config
    assert summary["n_targets"] == 12
    assert summary["scene_seed"] == 5
    assert summary["total_resource"] <= 0.3 + 1e-12

    lines = (out / "allocation.csv").read_text().splitlines()
    assert lines[0] == "# sapa-rrm v1"
    assert lines[1].startswith("task,weight,range_km")
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == [str(i) for i in range(12)]
    active = [r for r in rows if r[8] != ""]
    assert len(active) == summary["active_tracks"]
    assert 0 < len(active) <= 12
    assert sum(float(r[13]) for r in rows) == pytest.approx(
        summary["total_utility"], abs=1e-5)
    assert sum(float(r[12]) for r in active) == pytest.approx(
        summary["total_resource"], abs=1e-7)
    # inactive rows carry empty control fields and zero utility
    for r in rows:
        if r[8] == "":
            assert r[9:13] == ["", "", "", ""]
            assert float(r[13]) == 0.0
    assert {r[10] for r in active} <= {"6", "12", "24", "48"}


def test_allocate_scene_seed_override(config_path, tmp_path, capsys):
    base, other = tmp_path / "base", tmp_path / "other"
    assert run_allocate(config_path, base) == 0
    assert run_allocate(config_path, other, "--scene-seed", "9") == 0
    capsys.readouterr()
    summary = json.loads((other / "summary.json").read_text())
    assert summary["scene_seed"] == 9
    assert (base / "allocation.csv").read_bytes() != \
        (other / "allocation.csv").read_bytes()


def test_negative_scene_seed_exits_2_naming_it(config_path, tmp_path,
                                              capsys):
    with pytest.raises(SystemExit) as exc:
        run_allocate(config_path, tmp_path / "x", "--scene-seed", "-1")
    assert exc.value.code == 2
    assert "--scene-seed must be >= 0" in capsys.readouterr().err
    path = tmp_path / "negative_seed.json"
    path.write_text(json.dumps({**CONFIG_DOC, "scene": {"seed": -5}}),
                    encoding="utf-8")
    for argv in (["allocate", "--budget", "0.3"], ["sweep"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(path),
                             "--out", str(tmp_path / "y")])
        assert exc.value.code == 2
        assert "scene: seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists() and not (tmp_path / "y").exists()


@pytest.mark.parametrize("radar, needle", [
    ({"n_h_total": 24}, "grids.split.n_h: must not exceed radar.n_h_total"),
    ({"snr_cap_db": 4000}, "radar: snr_cap_db must give a positive finite"),
])
def test_config_the_model_cannot_evaluate_exits_2(tmp_path, capsys, radar,
                                                   needle):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIG_DOC, "radar": radar}),
                    encoding="utf-8")
    for argv in (["allocate", "--budget", "0.1"], ["sweep"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(path),
                             "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(EVAL_BASE + ["--range", "50", "--config", str(path)])
    assert exc.value.code == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


HUGE = "1" + "0" * 400  # an int beyond the float range, as JSON text


@pytest.mark.parametrize("section, value, needle", [
    ({"utility": {"q_min_mrad": HUGE}},
     HUGE, "utility.q_min_mrad: must be finite"),
    ({"scene": {"range_km": [10.0, HUGE]}},
     HUGE, "scene.range_km[1]: must be finite"),
    ({"grids": {**CONFIG_DOC["grids"], "split": {
        **CONFIG_DOC["grids"]["split"],
        "n_h": {"start": 6, "step": 6, "stop": HUGE}}}},
     HUGE, "grids.split.n_h: triple gives more than 100000 values"),
    ({"scene": {"seed": HUGE}}, "1" * 5000, "<root>: not valid JSON"),
    ({"radar": {"n_h_total": HUGE}}, HUGE, "radar: n_h_total must lie in"),
    ({"scene": {"n_targets": HUGE}}, HUGE, "scene: n_targets must lie in"),
], ids=["utility.q_min_mrad", "scene.range_km[1]", "grids.split.n_h.stop",
        "scene.seed", "radar.n_h_total", "scene.n_targets"])
def test_huge_integers_in_a_config_exit_2_naming_the_key(
        tmp_path, capsys, section, value, needle):
    # HUGE stands in as a string, then the JSON text gets the bare digits
    text = json.dumps({**CONFIG_DOC, **section}).replace(f'"{HUGE}"', value)
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["allocate", "--budget", "0.5", "--config", str(path),
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scene", [
    {"range_km": [10.0, 1e100]},
    {"range_km": [10.0, 1e306]},
    {"rcs_dbsm": [-10.0, 1e306]},
    {"rcs_dbsm": [-4000.0, 10.0]},
])
def test_scene_bounds_the_model_cannot_take_exit_2(tmp_path, capsys, scene):
    # range^4 or the rcs in m^2 would overflow or underflow
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIG_DOC, "scene": scene}),
                    encoding="utf-8")
    for argv in (["allocate", "--budget", "0.5"], ["sweep"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(path),
                             "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "scene: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_update_rate_newton_cannot_start_from_exits_cleanly(tmp_path,
                                                           capsys):
    # at 1e-300 Hz the sharpness balance overflows float64, which the
    # unpruned evaluate_grid reports as such, with no RuntimeWarning; but
    # such points surely have u = 0, so allocate and sweep solve no root
    # for them
    doc = {**CONFIG_DOC, "grids": {
        name: {**grid, "f_t_hz": [1e-300, 1.0]}
        for name, grid in CONFIG_DOC["grids"].items()}}
    grid = parse_config(doc).grid("full")
    env = Environment(range=40e3, bearing=0.0, rcs=1.0, maneuver_std=10.0,
                      corr_time=4.0)
    with pytest.raises(ValueError, match="overflows float64"):
        evaluate_grid(np.asarray(grid.t_d_values),
                      np.asarray(grid.f_t_values),
                      np.asarray(grid.n_h_values, dtype=float), env,
                      RadarConstants(), UtilityShape())
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["allocate", "--budget", "0.3"], ["sweep"]):
        assert cli.main(argv + ["--config", str(path),
                                "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()


def test_solver_failure_exits_2_naming_the_grid(config_path, tmp_path,
                                                capsys, monkeypatch):
    def failing(alpha, beta):
        raise ValueError("Newton did not converge; is alpha or beta NaN?")

    monkeypatch.setattr(radar_model, "track_sharpness_batch", failing)
    for argv, grid in ((["allocate", "--budget", "0.3", "--grid", "full"],
                        "full"),
                       (["sweep"], "split")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(config_path),
                             "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--config: the model cannot be solved on grid {grid!r}: " \
               "Newton did not converge" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_beamwidth_the_root_solver_cannot_handle_exits_2(tmp_path, capsys):
    # at alpha_bw = 1e-200, q/theta leaves the range where the utility
    # classes are settled without a root, so Newton sees every point and
    # fails; settling them would have funded no task instead
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIG_DOC, "radar": {"alpha_bw": 1e-200}}),
                    encoding="utf-8")
    for argv in (["allocate", "--budget", "0.3"], ["sweep"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(path),
                             "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "the model cannot be solved on grid 'split': Newton did " \
               "not converge" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [
    ["--budget", "0"],
    ["--budget", "1.5"],
    ["--grid", "ghost"],
])
def test_allocate_usage_errors_exit_2(config_path, tmp_path, extra,
                                      capsys):
    argv = ["allocate", "--config", str(config_path),
            "--out", str(tmp_path / "x")]
    if "--budget" not in extra:
        argv += ["--budget", "0.3"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + extra)
    assert exc.value.code == 2
    capsys.readouterr()


# Recorded with numpy 2.4.6 while each task was still enumerated in its
# own call; the values come from numpy's pow and sqrt, as for
# SHIPPED_SWEEP_DIGESTS below.
SHIPPED_ALLOCATE_DIGESTS = {
    ("campaign_70km", "split"):
        "0107ed68aa30b4f4601e6759b4aca663bfb11e6a1f532e3164afeb5ad60be404",
    ("campaign_70km", "full"):
        "fb9eaaa67ed6ce3f5e9b74a7964b6919bd4917d859fc44abdddeffadb8eea609",
    ("campaign_250km", "split"):
        "5a978f46d9e2d8591394b6210f7a08688c494fc1868ede1697d24159fea3e2d3",
    ("campaign_250km", "full"):
        "e2138054d1122431b83f454b60e43ccf61e3274096070e61b093ace7556f96fb",
}


@pytest.mark.parametrize("name, grid", sorted(SHIPPED_ALLOCATE_DIGESTS))
def test_shipped_allocate_outputs_match_recorded_digest(name, grid,
                                                        tmp_path, capsys):
    """Byte-identical allocate outputs for a shipped config's scene at
    budget 0.3: one SHA-256 over each file's name and bytes."""
    out = tmp_path / "out"
    assert cli.main(["allocate", "--config",
                     str(ROOT / "configs" / f"{name}.json"), "--budget",
                     "0.3", "--grid", grid, "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    for written in ("allocation.csv", "summary.json"):
        digest.update(written.encode() + b"\0")
        digest.update((out / written).read_bytes())
    assert digest.hexdigest() == SHIPPED_ALLOCATE_DIGESTS[(name, grid)], \
        f"recorded with numpy 2.4.6, running numpy {np.__version__}"


def test_allocate_out_path_collision_exits_1(config_path, tmp_path,
                                             capsys):
    occupied = tmp_path / "occupied"
    occupied.write_text("not a directory", encoding="utf-8")
    rc = run_allocate(config_path, occupied)
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_outputs_independent_of_threads(config_path, tmp_path,
                                              capsys):
    serial, threaded = tmp_path / "serial", tmp_path / "threaded"
    rc = cli.main(["sweep", "--config", str(config_path),
                   "--out", str(serial), "--threads", "1"])
    assert rc == 0
    assert "wrote 6 files" in capsys.readouterr().out
    rc = cli.main(["sweep", "--config", str(config_path),
                   "--out", str(threaded), "--threads", "4"])
    assert rc == 0
    capsys.readouterr()
    for name in ("active_tracks.csv", "total_utility.csv",
                 "mean_angular_error_mrad.csv", "element_histogram.csv",
                 "runs/run_0.csv", "runs/run_1.csv"):
        assert (serial / name).read_bytes() == \
            (threaded / name).read_bytes(), name
    hist = (serial / "element_histogram.csv").read_text().splitlines()
    assert len(hist) > 2  # config names a split grid, so bins are emitted


# Recorded with numpy 2.4.6, before set-point enumeration skipped the
# points that the SNR cap dominates.  The values come from numpy's pow and
# sqrt, so another numpy may need a new recording; say why when making one.
SHIPPED_SWEEP_DIGESTS = {
    "campaign_70km":
        "d739abc240222205fe22ad05f63bf3920e06a3724a2b83cfa05393a0b8eeea55",
    "campaign_250km":
        "32c62c44a6a18f7ef82cf3cf44354c9ab78684176bff89cd0ef311e93aa3b592",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_SWEEP_DIGESTS))
def test_shipped_sweep_csvs_match_recorded_digest(name, tmp_path, capsys):
    """Byte-identical sweep outputs for a shipped config cut to 2 runs:
    one SHA-256 over every written file's relative path and bytes."""
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text(
        encoding="utf-8"))
    doc["sweep"]["n_mc"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    for written in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(written.relative_to(out).as_posix().encode() + b"\0")
        digest.update(written.read_bytes())
    assert digest.hexdigest() == SHIPPED_SWEEP_DIGESTS[name], \
        f"recorded with numpy 2.4.6, running numpy {np.__version__}"


def test_sweep_without_histogram_grid_exits_2(tmp_path, capsys):
    # the element histogram is written for the grid named "split"
    doc = dict(CONFIG_DOC, sweep=dict(CONFIG_DOC["sweep"], grids=["full"]))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(path),
                  "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "sweep.grids" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_budgets_finer_than_the_csvs_exit_2(tmp_path, capsys):
    # 0.12341 and 0.12342 would both be written as 0.1234, and the CSVs
    # would no longer read back into the sweep's aggregate
    doc = dict(CONFIG_DOC, sweep=dict(CONFIG_DOC["sweep"],
                                      budgets=[0.12341, 0.12342, 0.5]))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(path),
                  "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "sweep: budgets must have at most 4 decimals" in \
        capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_rejects_negative_thread_flag(config_path, tmp_path,
                                            capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", str(config_path),
                  "--out", str(tmp_path / "x"), "--threads", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
