"""Unit tests for the Monte Carlo sweep harness and its CSV round trip."""

import hashlib
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapa_rrm import experiment, qram
from sapa_rrm.experiment import (
    RunMetrics,
    SweepConfig,
    SweepResult,
    aggregate_runs,
    derive_run_seed,
    evaluate_scene,
    fmt_budget,
    read_run_csv,
    read_runs,
    round_error_mrad,
    round_utility,
    sweep,
    write_sweep_outputs,
)
from sapa_rrm.qram import ControlGrid
from sapa_rrm.radar_model import (Environment, RadarConstants, UtilityShape,
                                  evaluate_grid)
from sapa_rrm.scenario import (Scene, SceneConfig, TargetType, TrackingTask,
                               generate_scene)

from oracles import env_on_cap, reference_majorant, reference_runs

CONSTS = RadarConstants()
SHAPE = UtilityShape()

SPLIT = ControlGrid(
    t_d_values=tuple(round(4e-3 + 6e-3 * k, 10) for k in range(11)),
    f_t_values=tuple(round(0.5 + 0.5 * k, 10) for k in range(12)),
    n_h_values=tuple(range(6, 49, 6)),
)
FULL = ControlGrid(t_d_values=SPLIT.t_d_values,
                   f_t_values=SPLIT.f_t_values, n_h_values=(48,))

SMALL_SWEEP = SweepConfig(
    budgets=tuple(round(0.1 * k, 10) for k in range(1, 11)),
    grids=(("split", SPLIT), ("full", FULL)),
    n_mc=3,
    scene=SceneConfig(n_targets=40, seed=7),
)


@pytest.fixture(scope="module")
def small_result():
    return sweep(SMALL_SWEEP, CONSTS, SHAPE)


# ---------------------------------------------------------------------------
# seeds, rounding, config validation


def test_derive_run_seed_is_stable():
    assert derive_run_seed(1234, 0) == 8822641840677058200
    assert derive_run_seed(1234, 1) == 15532281199273673193
    assert derive_run_seed(0, 0) == 12426054289685354689
    digest = hashlib.sha256(b"7:2").digest()
    assert derive_run_seed(7, 2) == int.from_bytes(digest[:8], "big")
    # distinct across runs and bases
    seeds = {derive_run_seed(b, r) for b in (0, 1, 1234)
             for r in range(20)}
    assert len(seeds) == 60


def test_rounding_matches_csv_precision():
    assert round_utility(0.12345678) == 0.123457
    assert round_utility(1.0) == 1.0
    assert round_error_mrad(0.95859444) == 0.9586
    assert math.isnan(round_error_mrad(math.nan))
    assert fmt_budget(0.05) == "0.0500"


@pytest.mark.parametrize("kwargs", [
    dict(budgets=()),
    dict(budgets=(0.0, 0.5)),
    dict(budgets=(0.5, 1.2)),
    dict(budgets=(0.5, 0.5)),
    dict(budgets=(0.8, 0.5)),
    dict(budgets=(0.12341, 0.12342, 0.5)),  # both write as 0.1234
    dict(budgets=(0.12345,)),
    dict(n_mc=0),
    dict(grids=()),
    dict(grids=(("", SPLIT),)),
    dict(grids=(("split", SPLIT), ("split", FULL))),
    dict(histogram_budgets=(0.3,)),  # not a sweep budget
    dict(histogram_budgets=(0.5, math.nan)),
    dict(n_mc=1.5),
    # ints past the float range
    dict(budgets=(0.2, 10**400)),
    dict(histogram_budgets=(10**400,)),
])
def test_sweep_config_validation(kwargs):
    base = dict(budgets=(0.2, 0.5), grids=(("split", SPLIT),), n_mc=2,
                scene=SceneConfig(n_targets=5, seed=0))
    base.update(kwargs)
    with pytest.raises(ValueError):
        SweepConfig(**base)


# ---------------------------------------------------------------------------
# single runs


def test_run_once_saturates_close_scene():
    # close-in targets all reach full utility with budget to spare, so
    # the weighted total collapses to the weight sum
    scene = generate_scene(SceneConfig(n_targets=8,
                                       range_interval=(10e3, 20e3),
                                       seed=21))
    m = evaluate_scene(scene, SPLIT, [1.0], CONSTS, SHAPE)[0]
    assert m.active_tracks == 8
    assert m.total_utility == pytest.approx(1.0, abs=1e-9)
    assert m.mean_angular_error < 1e-3


def test_run_once_starves_on_negligible_budget():
    scene = generate_scene(SceneConfig(n_targets=8,
                                       range_interval=(10e3, 20e3),
                                       seed=21))
    m = evaluate_scene(scene, SPLIT, [1e-5], CONSTS, SHAPE)[0]
    assert m.active_tracks == 0
    assert m.total_utility == 0.0
    assert math.isnan(m.mean_angular_error)
    assert all(count == 0 for _, count in m.element_histogram)


def test_run_once_histogram_accounts_for_every_active_track():
    scene = generate_scene(SceneConfig(n_targets=30, seed=4))
    m = evaluate_scene(scene, SPLIT, [0.4], CONSTS, SHAPE)[0]
    assert [n for n, _ in m.element_histogram] == list(SPLIT.n_h_values)
    assert sum(c for _, c in m.element_histogram) == m.active_tracks
    assert 0 < m.active_tracks <= 30


def test_full_aperture_histogram_collapses_to_one_bin():
    scene = generate_scene(SceneConfig(n_targets=30, seed=4))
    m = evaluate_scene(scene, FULL, [0.4], CONSTS, SHAPE)[0]
    assert [n for n, _ in m.element_histogram] == [48]
    assert m.element_histogram[0][1] == m.active_tracks


# ---------------------------------------------------------------------------
# aggregation semantics


def mk_metrics(active, util, err_mrad, hist=((6, 0), (48, 0))):
    err = err_mrad * 1e-3 if not math.isnan(err_mrad) else math.nan
    return RunMetrics(active_tracks=active, total_utility=util,
                      mean_angular_error=err, element_histogram=hist)


def test_aggregate_statistics_by_hand():
    runs = [
        {("g", 0.5): mk_metrics(2, 0.1234567, 1.0, ((6, 1), (48, 1)))},
        {("g", 0.5): mk_metrics(4, 0.2, 2.0, ((6, 3), (48, 1)))},
    ]
    agg = aggregate_runs(runs, [0.5], ["g"])
    stats = agg.active_tracks[("g", 0.5)]
    assert stats.mean == 3.0 and stats.std == 1.0
    assert stats.lo2sigma == 1.0 and stats.hi2sigma == 5.0
    # utilities aggregate after rounding to the CSV precision
    util = agg.total_utility[("g", 0.5)]
    assert util.mean == pytest.approx((0.123457 + 0.2) / 2, rel=1e-15)
    err = agg.mean_angular_error_mrad[("g", 0.5)]
    assert err.mean == pytest.approx(1.5, rel=1e-15)
    assert agg.element_histogram[("g", 0.5)] == ((6, 2.0), (48, 1.0))


def test_aggregate_skips_runs_without_error_estimate():
    runs = [
        {("g", 0.5): mk_metrics(0, 0.0, math.nan)},
        {("g", 0.5): mk_metrics(1, 0.3, 2.0)},
    ]
    agg = aggregate_runs(runs, [0.5], ["g"])
    err = agg.mean_angular_error_mrad[("g", 0.5)]
    assert err.mean == 2.0 and err.std == 0.0
    both_empty = aggregate_runs(runs[:1], [0.5], ["g"])
    assert math.isnan(
        both_empty.mean_angular_error_mrad[("g", 0.5)].mean)


def test_single_run_aggregate_has_zero_spread(small_result):
    one = aggregate_runs([small_result.runs[0]],
                         SMALL_SWEEP.budgets, SMALL_SWEEP.grid_names)
    for stats in one.total_utility.values():
        assert stats.std == 0.0
        assert stats.lo2sigma == stats.mean == stats.hi2sigma


# ---------------------------------------------------------------------------
# full sweeps


def test_sweep_structure(small_result):
    assert small_result.config is SMALL_SWEEP
    assert small_result.run_seeds == tuple(derive_run_seed(7, r)
                                           for r in range(3))
    assert len(small_result.runs) == 3
    for run in small_result.runs:
        assert set(run) == {(g, b) for g in ("split", "full")
                            for b in SMALL_SWEEP.budgets}
    agg = small_result.aggregate
    assert agg.n_mc == 3
    assert agg.grid_names == ("split", "full")


def test_sweep_enumerates_each_task_once_per_grid_in_task_order(
        monkeypatch):
    # each (scene, grid) is one enumerate_setpoints_many call, which hands
    # consecutive tasks to evaluate_candidates in chunks of at most
    # MAX_CHUNK_ROWS (t_d, n_h) rows; only a lone task may exceed that
    scene_calls, chunks = [], []
    enumerate_setpoints_many = experiment.enumerate_setpoints_many
    evaluate_candidates = qram.evaluate_candidates

    def recording_scene(tasks, grid, consts, shape):
        scene_calls.append(([env for env, _ in tasks], grid))
        return enumerate_setpoints_many(tasks, grid, consts, shape)

    def recording_chunk(t_d, f_t, n_h, envs, consts, shape):
        chunks.append((list(envs), len(t_d) * len(n_h)))
        return evaluate_candidates(t_d, f_t, n_h, envs, consts, shape)

    monkeypatch.setattr(experiment, "enumerate_setpoints_many",
                        recording_scene)
    monkeypatch.setattr(qram, "evaluate_candidates", recording_chunk)
    cfg = SweepConfig(budgets=(0.5,), grids=(("split", SPLIT),
                                             ("full", FULL)),
                      n_mc=2, scene=SceneConfig(n_targets=5, seed=2))
    runs = None
    # 88 split and 11 full rows per task: one chunk per (scene, grid),
    # chunks of two split tasks, and split tasks that go alone
    for cap in (qram.MAX_CHUNK_ROWS, 200, 50):
        monkeypatch.setattr(qram, "MAX_CHUNK_ROWS", cap)
        scene_calls.clear()
        chunks.clear()
        result = sweep(cfg, CONSTS, SHAPE)
        scenes = [generate_scene(replace(cfg.scene, seed=s))
                  for s in result.run_seeds]
        expected = [([task.environment for task in scene.tasks], grid)
                    for scene in scenes for _, grid in cfg.grids]
        assert scene_calls == expected
        assert [env for envs, _ in chunks for env in envs] == \
            [env for envs, _ in expected for env in envs]
        assert all(len(envs) * rows <= cap or len(envs) == 1
                   for envs, rows in chunks)
        per_chunk = [max(1, cap // (len(grid.t_d_values)
                                    * len(grid.n_h_values)))
                     for _, grid in expected]
        assert len(chunks) == sum(-(-len(envs) // n) for (envs, _), n
                                  in zip(expected, per_chunk))
        assert runs is None or result.runs == runs
        runs = result.runs


def test_sweep_generates_each_run_scene_once(monkeypatch):
    cfg = SweepConfig(budgets=(0.2, 0.6), grids=(("split", SPLIT),
                                                 ("full", FULL)),
                      n_mc=3, scene=SceneConfig(n_targets=6, seed=5))
    plain = sweep(cfg, CONSTS, SHAPE)
    seeds = []

    def counting(scene_cfg):
        seeds.append(scene_cfg.seed)
        return generate_scene(scene_cfg)

    monkeypatch.setattr(experiment, "generate_scene", counting)
    counted = sweep(cfg, CONSTS, SHAPE)
    assert seeds == list(counted.run_seeds)
    assert counted == plain


def test_split_grid_never_trails_full_grid(small_result):
    for run in small_result.runs:
        for b in SMALL_SWEEP.budgets:
            split = run[("split", b)]
            full = run[("full", b)]
            assert split.total_utility >= full.total_utility - 1e-12
            assert split.active_tracks >= full.active_tracks


def test_utility_grows_with_budget(small_result):
    agg = small_result.aggregate
    for name in ("split", "full"):
        means = [agg.total_utility[(name, b)].mean
                 for b in SMALL_SWEEP.budgets]
        assert all(v >= u - 1e-12 for u, v in zip(means, means[1:]))


# ---------------------------------------------------------------------------
# persistence


def with_histogram(result, budgets):
    """result, as if its sweep had asked for the histogram at budgets."""
    return replace(result, config=replace(result.config,
                                          histogram_budgets=budgets))


def test_written_layout_and_ordering(small_result, tmp_path):
    written = write_sweep_outputs(with_histogram(small_result, (0.2, 0.4)),
                                  tmp_path)
    names = sorted(p.relative_to(tmp_path).as_posix() for p in written)
    assert names == ["active_tracks.csv", "element_histogram.csv",
                     "mean_angular_error_mrad.csv", "runs/run_0.csv",
                     "runs/run_1.csv", "runs/run_2.csv",
                     "total_utility.csv"]
    lines = (tmp_path / "total_utility.csv").read_text().splitlines()
    assert lines[0] == "# sapa-rrm v1"
    assert lines[1] == "budget,grid,mean,std,lo2sigma,hi2sigma"
    rows = [line.split(",") for line in lines[2:]]
    keys = [(r[1], float(r[0])) for r in rows]
    assert keys == sorted(keys)  # grid ascending, then budget ascending
    assert len(rows) == 2 * len(SMALL_SWEEP.budgets)
    hist_lines = (tmp_path / "element_histogram.csv").read_text()
    hist_rows = [line.split(",") for line in hist_lines.splitlines()[2:]]
    assert {float(r[0]) for r in hist_rows} == {0.2, 0.4}
    assert [int(r[1]) for r in hist_rows[:8]] == list(SPLIT.n_h_values)


def test_histogram_rows_follow_the_budgets_once_each(small_result,
                                                    tmp_path):
    texts = []
    for budgets in ((0.4, 0.3, 0.3), (0.3, 0.4)):
        write_sweep_outputs(with_histogram(small_result, budgets), tmp_path)
        texts.append((tmp_path / "element_histogram.csv").read_bytes())
    assert texts[0] == texts[1]
    rows = texts[1].decode().splitlines()[2:]
    bins = len(SPLIT.n_h_values)
    assert [r.split(",")[0] for r in rows] == ["0.3000"] * bins + \
        ["0.4000"] * bins


def test_histogram_file_is_header_only_without_matching_grid(tmp_path):
    full_only = replace(SMALL_SWEEP, grids=(("full", FULL),), n_mc=1,
                        histogram_budgets=(0.2,))
    write_sweep_outputs(sweep(full_only, CONSTS, SHAPE), tmp_path)
    lines = (tmp_path / "element_histogram.csv").read_text().splitlines()
    assert lines == ["# sapa-rrm v1", "budget,n_h,mean_count"]


def test_csv_round_trip_reproduces_aggregate_exactly(small_result,
                                                     tmp_path):
    write_sweep_outputs(with_histogram(small_result, (0.2,)), tmp_path)
    back = read_runs(tmp_path)
    assert len(back) == 3
    agg = aggregate_runs(back, SMALL_SWEEP.budgets,
                         SMALL_SWEEP.grid_names)
    ref = small_result.aggregate
    assert agg.active_tracks == ref.active_tracks
    assert agg.total_utility == ref.total_utility
    assert agg.mean_angular_error_mrad == ref.mean_angular_error_mrad
    assert agg.element_histogram == ref.element_histogram


def test_rewrite_with_fewer_runs_removes_stale_run_files(small_result,
                                                        tmp_path):
    write_sweep_outputs(small_result, tmp_path)
    runs_dir = tmp_path / "runs"
    # files named otherwise are not per-run files: not read, not removed
    copy = (runs_dir / "run_0.csv").read_text(encoding="utf-8")
    foreign = ["run_0_backup.csv", "run_01.csv", "run_1.csv.bak",
               "run_notes.csv", "xrun_2.csv"]
    for name in foreign:
        (runs_dir / name).write_text(copy, encoding="utf-8")
    assert len(read_runs(tmp_path)) == 3
    one_run = replace(SMALL_SWEEP, n_mc=1)
    written = write_sweep_outputs(sweep(one_run, CONSTS, SHAPE),
                                  tmp_path)
    assert sorted(p.name for p in runs_dir.iterdir()) == sorted(
        ["run_0.csv", *foreign])
    assert (runs_dir / "run_0.csv") in written
    assert len(read_runs(tmp_path)) == 1


def test_read_run_csv_units_and_header_check(small_result, tmp_path):
    write_sweep_outputs(small_result, tmp_path)
    cells = read_run_csv(tmp_path / "runs" / "run_0.csv")
    ref = small_result.runs[0]
    key = ("split", 0.4)
    assert cells[key].active_tracks == ref[key].active_tracks
    assert cells[key].mean_angular_error == pytest.approx(
        round_error_mrad(ref[key].mean_angular_error * 1e3) / 1e3,
        rel=1e-12)
    assert cells[key].element_histogram == ref[key].element_histogram
    bad = tmp_path / "bad.csv"
    bad.write_text("budget,grid\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_run_csv(bad)


# ---------------------------------------------------------------------------
# the whole sweep against a reference built from the textbook steps


def assert_sweep_matches_reference(cfg, scenes):
    """sweep(cfg) against tests/oracles.reference_runs on the runs'
    scenes: equal runs, bit for bit, and byte-identical CSV trees."""
    result = sweep(cfg, CONSTS, SHAPE)
    runs = reference_runs(cfg, scenes, CONSTS, SHAPE)
    assert result.runs == runs
    reference = SweepResult(config=cfg, run_seeds=result.run_seeds,
                            runs=runs, aggregate=aggregate_runs(
                                runs, cfg.budgets, cfg.grid_names))
    with tempfile.TemporaryDirectory() as tmp:
        trees = []
        for side, res in (("sweep", result), ("reference", reference)):
            out = Path(tmp) / side
            trees.append({p.relative_to(out).as_posix(): p.read_bytes()
                          for p in write_sweep_outputs(res, out)})
        assert trees[0] == trees[1]


def axis(values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=3,
                    unique=True).map(lambda v: tuple(sorted(v)))


@st.composite
def small_sweeps(draw):
    """Split and full grids of 1-3 values per axis, 1-8 targets out to
    ranges and cross sections that no grid point detects, 1-4 budgets of
    at most 4 decimals and 1-2 runs."""
    t_d = draw(axis([2e-3, 4e-3, 8e-3, 16e-3, 32e-3, 64e-3]))
    f_t = draw(axis([0.25, 0.5, 1.0, 2.0, 4.0]))
    split = ControlGrid(t_d, f_t, draw(axis([6, 12, 24, 36, 48])))
    budgets = tuple(k / 10_000 for k in sorted(draw(st.lists(
        st.integers(1, 10_000), min_size=1, max_size=4, unique=True))))
    ranges_km = sorted(draw(st.lists(st.sampled_from([5, 30, 100, 300, 600]),
                                     min_size=2, max_size=2)))
    scene = SceneConfig(n_targets=draw(st.integers(1, 8)),
                        range_interval=tuple(r * 1e3 for r in ranges_km),
                        rcs_interval_dbsm=(-20.0, 10.0),
                        seed=draw(st.integers(0, 2**32)))
    return SweepConfig(
        budgets=budgets, grids=(("split", split),
                                ("full", ControlGrid(t_d, f_t, (48,)))),
        n_mc=draw(st.integers(1, 2)), scene=scene,
        histogram_budgets=tuple(sorted(draw(st.sets(st.sampled_from(
            budgets))))))


@given(small_sweeps())
@settings(deadline=None, max_examples=100)
def test_sweep_matches_the_reference_built_from_textbook_steps(cfg):
    scenes = [generate_scene(replace(cfg.scene, seed=s))
              for s in (derive_run_seed(cfg.scene.seed, r)
                        for r in range(cfg.n_mc))]
    assert_sweep_matches_reference(cfg, scenes)


PINNED_SPLIT = ControlGrid(t_d_values=(4e-3, 20e-3, 64e-3),
                           f_t_values=(0.5, 1.0, 2.0), n_h_values=(6, 24, 48))
PINNED_FULL = replace(PINNED_SPLIT, n_h_values=(48,))
NEAR = Environment(range=20e3, bearing=0.1, rcs=1.0, maneuver_std=5.0,
                   corr_time=4.0)
# detected at 3 split points, none of them better than q_min
U_ZERO = Environment(range=400e3, bearing=1.0, rcs=0.1, maneuver_std=100.0,
                     corr_time=20.0)
BLIND = Environment(range=900e3, bearing=0.0, rcs=0.01, maneuver_std=20.0,
                    corr_time=10.0)


ON_CAP = env_on_cap(PINNED_SPLIT, 1, 24)  # raw SNR at 20 ms, 24 elements


def split_hull(env):
    return reference_majorant(env, 1.0, PINNED_SPLIT, CONSTS, SHAPE).points


def all_u_zero(env):
    ev = evaluate_grid(PINNED_SPLIT.t_d_values, PINNED_SPLIT.f_t_values,
                       PINNED_SPLIT.n_h_values, env, CONSTS, SHAPE)
    return ev.feasible.any() and not ev.utility[ev.feasible].any()


# Cases that broke a layer before, each with a check that it is one:
# identical tasks, so that each hull segment ties with the other task's;
# a raw SNR exactly on the cap; a detected task whose every point has
# u = 0, next to a blind one; and a budget below every first segment.
@pytest.mark.parametrize("envs, budgets, claim", [
    ([NEAR, NEAR], (0.002, 0.01, 0.05),
     lambda envs, budgets: len(split_hull(NEAR)) >= 2),
    ([ON_CAP, NEAR], (0.005, 0.02, 0.3),
     lambda envs, budgets: len(split_hull(ON_CAP)) >= 1),
    ([U_ZERO, BLIND, NEAR], (0.01, 1.0),
     lambda envs, budgets: all_u_zero(U_ZERO) and not all_u_zero(BLIND)),
    ([NEAR, U_ZERO, ON_CAP], (0.0001,),
     lambda envs, budgets: all(budgets[0] < split_hull(env)[0].resource
                               for env in (NEAR, ON_CAP))),
], ids=["tied-marginals", "snr-on-cap", "all-u-zero", "budget-below-all"])
def test_pinned_sweeps_match_the_reference(monkeypatch, envs, budgets,
                                           claim):
    assert claim(envs, budgets)
    scene = Scene(tasks=tuple(TrackingTask(env, 1.0 / len(envs),
                                           TargetType.TYPE_I)
                              for env in envs))
    monkeypatch.setattr(experiment, "generate_scene", lambda cfg: scene)
    cfg = SweepConfig(budgets=budgets, grids=(("split", PINNED_SPLIT),
                                              ("full", PINNED_FULL)),
                      n_mc=2, scene=SceneConfig(n_targets=len(envs)),
                      histogram_budgets=budgets)
    assert_sweep_matches_reference(cfg, [scene, scene])
