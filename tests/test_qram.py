"""Unit tests for set-point enumeration, majorants and the greedy solver.

Hull examples small enough to check by hand are frozen directly;
hypothesis covers the structural invariants on random point clouds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapa_rrm.qram import (
    AllocationResult,
    ConcaveMajorant,
    ControlGrid,
    SetPoint,
    TaskSetPoints,
    allocate,
    allocate_many,
    brute_force_allocate,
    build_majorant,
    enumerate_setpoints,
    _sorted_segments,
)
from sapa_rrm.radar_model import (
    ControlPoint,
    Environment,
    RadarConstants,
    UtilityShape,
    evaluate,
    evaluate_grid,
)

CONSTS = RadarConstants()
SHAPE = UtilityShape()

SMALL_GRID = ControlGrid(t_d_values=(4e-3, 20e-3, 64e-3),
                         f_t_values=(0.5, 1.0, 2.0),
                         n_h_values=(6, 24, 48))

NEAR_ENV = Environment(range=20e3, bearing=0.1, rcs=1.0,
                       maneuver_std=5.0, corr_time=4.0)
# at 260 km with 0.05 m^2 only the largest sub-apertures still detect
EDGE_ENV = Environment(range=260e3, bearing=0.0, rcs=0.05,
                       maneuver_std=20.0, corr_time=10.0)
BLIND_ENV = Environment(range=900e3, bearing=0.0, rcs=0.01,
                        maneuver_std=20.0, corr_time=10.0)


def sp(g, wu):
    """Bare set-point for solver tests; control fields are irrelevant."""
    return SetPoint(control=ControlPoint(t_d=1.0, f_t=1.0, n_h=1),
                    resource=g, weighted_utility=wu, quality=0.0, utility=wu)


def cloud(pairs):
    """Bare (g, wu) set-points of one task on a 1x1xn grid; as in sp, the
    control fields are irrelevant."""
    g, wu = np.array(list(pairs), dtype=np.float64).reshape(-1, 2).T
    grid = ControlGrid(t_d_values=(1.0,), f_t_values=(1.0,),
                       n_h_values=tuple(range(1, max(g.size, 1) + 1)))
    return TaskSetPoints(grid=grid, flat_index=np.arange(g.size),
                         resource=g, weighted_utility=wu,
                         quality=np.zeros(g.size), utility=wu)


def hull_value(majorant, x):
    """Piecewise-linear hull value at resource x (flat past the end)."""
    prev_g, prev_wu = 0.0, 0.0
    for p in majorant.points:
        if x <= p.resource:
            t = (x - prev_g) / (p.resource - prev_g)
            return prev_wu + t * (p.weighted_utility - prev_wu)
        prev_g, prev_wu = p.resource, p.weighted_utility
    return prev_wu


def segments(majorant):
    """(d_resource, d_weighted_utility, marginal) per hull segment, in
    hull order, as the allocator's segment list sees them."""
    return [(dg, dwu, m) for m, _, _, dg, dwu in
            sorted(_sorted_segments([majorant]), key=lambda s: s[2])]


point_clouds = st.lists(
    st.tuples(st.floats(min_value=0.01, max_value=1.0),
              st.floats(min_value=0.0, max_value=1.0)),
    min_size=0, max_size=40)


# ---------------------------------------------------------------------------
# control grids and enumeration


def test_control_grid_size_and_aperture_flag():
    assert SMALL_GRID.size == 27
    assert SMALL_GRID.n_h_values != (CONSTS.n_h_total,)
    full = ControlGrid(t_d_values=(4e-3, 64e-3), f_t_values=(1.0,),
                       n_h_values=(48,))
    assert full.size == 2
    assert full.n_h_values == (CONSTS.n_h_total,)


@pytest.mark.parametrize("kwargs", [
    dict(t_d_values=(), f_t_values=(1.0,), n_h_values=(48,)),
    dict(t_d_values=(4e-3, 4e-3), f_t_values=(1.0,), n_h_values=(48,)),
    dict(t_d_values=(64e-3, 4e-3), f_t_values=(1.0,), n_h_values=(48,)),
    dict(t_d_values=(0.0, 4e-3), f_t_values=(1.0,), n_h_values=(48,)),
    dict(t_d_values=(4e-3,), f_t_values=(-1.0, 1.0), n_h_values=(48,)),
    dict(t_d_values=(4e-3,), f_t_values=(1.0,), n_h_values=(0, 48)),
])
def test_control_grid_rejects_malformed_axes(kwargs):
    with pytest.raises(ValueError):
        ControlGrid(**kwargs)


def test_enumerate_matches_grid_evaluation():
    pts = enumerate_setpoints(NEAR_ENV, 0.7, SMALL_GRID, CONSTS, SHAPE)
    ge = evaluate_grid(np.asarray(SMALL_GRID.t_d_values),
                       np.asarray(SMALL_GRID.f_t_values),
                       np.asarray(SMALL_GRID.n_h_values, dtype=float),
                       NEAR_ENV, CONSTS, SHAPE)
    assert len(pts) == int(ge.feasible.sum())
    # flat order is t_d-major, then f_t, then n_h
    assert list(pts.flat_index) == sorted(pts.flat_index)
    # the grid path and the scalar path use different root solvers, so
    # they agree to their combined convergence tolerance, not to ulps
    for i in (0, len(pts) // 2, len(pts) - 1):
        p = pts[i]
        ev = evaluate(p.control, NEAR_ENV, CONSTS, SHAPE)
        assert p.quality == pytest.approx(ev.quality, rel=5e-8)
        assert p.resource == pytest.approx(ev.resource, rel=5e-8)
        assert p.utility == pytest.approx(ev.utility, abs=1e-7)
        assert p.weighted_utility == pytest.approx(0.7 * p.utility,
                                                   rel=1e-12)


def test_enumerate_keeps_only_feasible_points():
    pts = enumerate_setpoints(EDGE_ENV, 1.0, SMALL_GRID, CONSTS, SHAPE)
    assert 0 < len(pts) < SMALL_GRID.size
    for p in pts:
        assert evaluate(p.control, EDGE_ENV, CONSTS, SHAPE).feasible
    assert len(enumerate_setpoints(BLIND_ENV, 1.0, SMALL_GRID, CONSTS,
                                   SHAPE)) == 0


def test_enumerate_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        enumerate_setpoints(NEAR_ENV, 0.0, SMALL_GRID, CONSTS, SHAPE)


def test_task_setpoints_indexing():
    pts = enumerate_setpoints(NEAR_ENV, 1.0, SMALL_GRID, CONSTS, SHAPE)
    assert pts[-1].resource == pts[len(pts) - 1].resource
    with pytest.raises(IndexError):
        pts[len(pts)]
    with pytest.raises(TypeError):
        pts[0:2]
    # reconstructed control points come from the grid axes
    for i in range(len(pts)):
        c = pts[i].control
        assert c.t_d in SMALL_GRID.t_d_values
        assert c.f_t in SMALL_GRID.f_t_values
        assert c.n_h in SMALL_GRID.n_h_values


# ---------------------------------------------------------------------------
# concave majorants


def test_majorant_hand_example():
    pts = cloud([(0.05, 0.2), (0.1, 0.5), (0.2, 0.6), (0.3, 0.9)])
    mj = build_majorant(pts)
    assert [(p.resource, p.weighted_utility) for p in mj.points] == \
        [(0.1, 0.5), (0.3, 0.9)]
    assert segments(mj) == [(0.1, 0.5, 5.0),
                             (pytest.approx(0.2), pytest.approx(0.4),
                              pytest.approx(2.0))]


def test_majorant_drops_dominated_and_zero_points():
    pts = cloud([(0.1, 0.5), (0.1, 0.4), (0.15, 0.5), (0.2, 0.0)])
    mj = build_majorant(pts)
    assert [(p.resource, p.weighted_utility) for p in mj.points] == \
        [(0.1, 0.5)]
    assert build_majorant(cloud([])).points == ()
    assert build_majorant(cloud([(0.3, 0.0)])).points == ()


def test_majorant_drops_collinear_interior_vertex():
    # powers of two keep the chord test exact: (0.25, 0.25) sits on the
    # chord from the origin to (0.5, 0.5)
    pts = cloud([(0.25, 0.25), (0.5, 0.5), (0.75, 0.625)])
    mj = build_majorant(pts)
    assert [(p.resource, p.weighted_utility) for p in mj.points] == \
        [(0.5, 0.5), (0.75, 0.625)]


@given(point_clouds)
@settings(deadline=None, max_examples=150)
def test_majorant_structure_and_dominance(pairs):
    mj = build_majorant(cloud(pairs))
    gs = [p.resource for p in mj.points]
    wus = [p.weighted_utility for p in mj.points]
    assert gs == sorted(gs)
    assert all(b > a for a, b in zip(gs, gs[1:]))
    assert all(b > a for a, b in zip(wus, wus[1:]))
    assert all(wu > 0.0 for wu in wus)
    marginals = [m for _, _, m in segments(mj)]
    assert all(b < a + 1e-12 for a, b in zip(marginals, marginals[1:]))
    # the hull majorizes every input point
    for g, wu in pairs:
        assert hull_value(mj, g) >= wu - 1e-12


def test_majorant_of_enumerated_task_stays_below_point_count():
    pts = enumerate_setpoints(NEAR_ENV, 1.0, SMALL_GRID, CONSTS, SHAPE)
    mj = build_majorant(pts)
    assert 0 < len(mj.points) <= len(pts)
    for p in mj.points:
        assert p.resource > 0.0 and p.weighted_utility > 0.0


# ---------------------------------------------------------------------------
# greedy allocation


def test_allocate_single_task_threshold():
    mj = ConcaveMajorant(points=(sp(0.5, 1.0),))
    below = allocate([mj], 0.3)
    assert below.assignments == (None,)
    assert below.total_resource == 0.0
    assert below.total_utility == 0.0
    assert below.active_track_count == 0
    exact = allocate([mj], 0.5)
    assert exact.assignments[0].vertex_index == 0
    assert exact.total_resource == 0.5
    assert exact.total_utility == 1.0
    assert exact.active_track_count == 1


def test_allocate_skips_and_continues():
    # steepest segment does not fit; the budget goes to the next task
    a = ConcaveMajorant(points=(sp(0.5, 1.0),))   # marginal 2.0
    b = ConcaveMajorant(points=(sp(0.2, 0.3),))   # marginal 1.5
    res = allocate([a, b], 0.3)
    assert res.assignments[0] is None
    assert res.assignments[1].vertex_index == 0
    assert res.total_resource == pytest.approx(0.2)
    assert res.total_utility == pytest.approx(0.3)


def test_allocate_gates_later_segments_of_skipped_tasks():
    # a's second segment alone would fit the budget, but its first was
    # skipped, so it must stay untaken
    a = ConcaveMajorant(points=(sp(0.3, 0.9), sp(0.35, 0.95)))
    b = ConcaveMajorant(points=(sp(0.06, 0.05),))
    res = allocate([a, b], 0.06)
    assert res.assignments[0] is None
    assert res.assignments[1].vertex_index == 0
    assert res.total_resource == pytest.approx(0.06)
    assert res.total_utility == pytest.approx(0.05)


def test_allocate_walks_hull_vertices_in_order():
    a = ConcaveMajorant(points=(sp(0.1, 0.5), sp(0.3, 0.9)))
    b = ConcaveMajorant(points=(sp(0.15, 0.25),))
    tight = allocate([a, b], 0.2)
    assert tight.assignments[0].vertex_index == 0
    assert tight.assignments[1] is None
    assert tight.total_utility == pytest.approx(0.5)
    wide = allocate([a, b], 0.25)
    assert wide.assignments[0].vertex_index == 0
    assert wide.assignments[1].vertex_index == 0
    assert wide.total_utility == pytest.approx(0.75)
    full = allocate([a, b], 0.45)
    assert full.assignments[0].vertex_index == 1
    assert full.assignments[1].vertex_index == 0
    assert full.total_utility == pytest.approx(1.15)


def test_allocate_breaks_marginal_ties_by_task_order():
    a = ConcaveMajorant(points=(sp(0.2, 0.4),))
    b = ConcaveMajorant(points=(sp(0.2, 0.4),))
    res = allocate([a, b], 0.2)
    assert res.assignments[0] is not None
    assert res.assignments[1] is None


def test_allocate_validates_budget_and_handles_no_tasks():
    with pytest.raises(ValueError):
        allocate([ConcaveMajorant()], 0.0)
    res = allocate([], 0.5)
    assert res.assignments == ()
    assert res.total_resource == 0.0
    assert res.active_track_count == 0


def test_allocate_totals_match_assignments():
    rng = np.random.default_rng(11)
    majorants = []
    for _ in range(6):
        pts = cloud(zip(rng.uniform(0.01, 0.4, 12), rng.uniform(0, 1, 12)))
        majorants.append(build_majorant(pts))
    res = allocate(majorants, 0.8)
    chosen = [a.set_point for a in res.assignments if a is not None]
    assert res.total_resource <= 0.8
    assert res.total_resource == pytest.approx(
        sum(p.resource for p in chosen), rel=1e-12)
    assert res.total_utility == pytest.approx(
        sum(p.weighted_utility for p in chosen), rel=1e-12)
    assert res.active_track_count == len(chosen)


def test_allocate_utility_monotone_in_budget():
    rng = np.random.default_rng(23)
    for _ in range(20):
        majorants = [build_majorant(cloud(zip(rng.uniform(0.01, 0.5, 10),
                                              rng.uniform(0, 1, 10))))
                     for _ in range(4)]
        budgets = np.sort(rng.uniform(0.05, 1.5, 8))
        utilities = [allocate(majorants, float(b)).total_utility
                     for b in budgets]
        assert all(v >= u - 1e-12 for u, v in zip(utilities, utilities[1:]))


def test_allocate_many_equals_repeated_allocate():
    rng = np.random.default_rng(5)
    majorants = [build_majorant(cloud(zip(rng.uniform(0.01, 0.5, 15),
                                          rng.uniform(0, 1, 15))))
                 for _ in range(5)]
    budgets = [0.1, 0.35, 0.8, 1.0]
    batch = allocate_many(majorants, budgets)
    for b, res in zip(budgets, batch):
        single = allocate(majorants, b)
        assert res.total_resource == single.total_resource
        assert res.total_utility == single.total_utility
        assert [None if a is None else a.vertex_index
                for a in res.assignments] == \
            [None if a is None else a.vertex_index
             for a in single.assignments]
    with pytest.raises(ValueError):
        allocate_many(majorants, [0.5, -0.1])


# ---------------------------------------------------------------------------
# brute force oracle


def test_brute_force_exact_on_hand_instance():
    a = cloud([(0.3, 0.4), (0.5, 0.9)])
    b = cloud([(0.2, 0.5)])
    opt = brute_force_allocate([a, b], 0.7)
    assert opt.total_utility == pytest.approx(1.4)
    assert opt.total_resource == pytest.approx(0.7)
    greedy = allocate([build_majorant(a), build_majorant(b)], 0.7)
    assert greedy.total_utility == pytest.approx(opt.total_utility)


def test_brute_force_respects_budget_and_cap():
    a = cloud([(0.3, 0.4), (0.5, 0.9)])
    opt = brute_force_allocate([a], 0.4)
    assert opt.total_utility == pytest.approx(0.4)
    assert opt.total_resource <= 0.4
    with pytest.raises(ValueError):
        brute_force_allocate([cloud([(0.1, 0.1)] * 60)] * 4, 0.5)
    with pytest.raises(ValueError):
        brute_force_allocate([a], -1.0)


def test_greedy_within_one_segment_of_optimum():
    rng = np.random.default_rng(31)
    for _ in range(25):
        lists = [cloud(zip(rng.uniform(0.02, 0.4, 6), rng.uniform(0, 1, 6)))
                 for _ in range(3)]
        majorants = [build_majorant(pts) for pts in lists]
        budget = float(rng.uniform(0.05, 1.0))
        greedy = allocate(majorants, budget)
        opt = brute_force_allocate(lists, budget)
        assert greedy.total_utility <= opt.total_utility + 1e-12
        max_seg = max((s[4] for s in _sorted_segments(majorants)),
                      default=0.0)
        assert greedy.total_utility >= opt.total_utility - max_seg - 1e-12


# ---------------------------------------------------------------------------
# NaN inputs: every model and solver check is written so that NaN fails it

NAN = math.nan
ONE_HULL = [ConcaveMajorant(points=(sp(0.5, 1.0),))]


def env_with(**kwargs):
    fields = dict(range=50e3, bearing=0.0, rcs=1.0, maneuver_std=10.0,
                  corr_time=4.0)
    return Environment(**{**fields, **kwargs})


@pytest.mark.parametrize("build", [
    lambda: ControlPoint(t_d=NAN, f_t=1.0, n_h=48),
    lambda: ControlPoint(t_d=0.02, f_t=NAN, n_h=48),
    lambda: ControlPoint(t_d=0.02, f_t=1.0, n_h=NAN),
    lambda: env_with(range=NAN),
    lambda: env_with(rcs=NAN),
    lambda: env_with(maneuver_std=NAN),
    lambda: env_with(corr_time=NAN),
    lambda: RadarConstants(k_rad=NAN),
    lambda: RadarConstants(n_h_total=NAN),
    lambda: RadarConstants(alpha_bw=NAN),
    lambda: RadarConstants(snr_floor_db=NAN),
    lambda: RadarConstants(snr_cap_db=NAN),
    lambda: ControlGrid(t_d_values=(NAN,), f_t_values=(1.0,),
                        n_h_values=(48,)),
    lambda: ControlGrid(t_d_values=(0.02,), f_t_values=(NAN,),
                        n_h_values=(48,)),
    lambda: enumerate_setpoints(NEAR_ENV, NAN, SMALL_GRID, CONSTS, SHAPE),
    lambda: allocate(ONE_HULL, NAN),
    lambda: allocate_many(ONE_HULL, [0.5, NAN]),
    lambda: brute_force_allocate([cloud([(0.5, 1.0)])], NAN),
], ids=["cp.t_d", "cp.f_t", "cp.n_h", "env.range", "env.rcs",
        "env.maneuver_std", "env.corr_time", "consts.k_rad",
        "consts.n_h_total", "consts.alpha_bw", "consts.snr_floor_db",
        "consts.snr_cap_db", "grid.t_d_values", "grid.f_t_values",
        "enumerate.weight", "allocate.r_tot", "allocate_many.budgets",
        "brute_force.r_tot"])
def test_nan_input_is_rejected(build):
    with pytest.raises(ValueError):
        build()
