"""Unit tests for set-point enumeration, majorants and the greedy solver.

Hull examples small enough to check by hand are frozen directly;
hypothesis covers the structural invariants on random point clouds.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sapa_rrm import qram, radar_model
from sapa_rrm.config import load_config
from sapa_rrm.qram import (
    AllocationResult,
    Assignment,
    ConcaveMajorant,
    ControlGrid,
    SetPoint,
    TaskSetPoints,
    allocate,
    allocate_many,
    brute_force_allocate,
    build_majorant,
    enumerate_setpoints,
    enumerate_setpoints_many,
    _hull_indices,
    _sorted_segments,
)
from sapa_rrm.radar_model import (
    ControlPoint,
    Environment,
    RadarConstants,
    UtilityShape,
    _env_terms,
    _raw_snr_table,
    evaluate,
    evaluate_grid,
)
from sapa_rrm.scenario import generate_scene

ROOT = Path(__file__).resolve().parents[1]

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
    return [(dg, dwu, -neg_m) for neg_m, _, _, dg, dwu in
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
    # NEAR_ENV reaches the SNR cap at every grid point, so only the 9
    # points of the first t_d can be kept; of those, u = 0 points and
    # points dearer than the cheapest u = 1 one go as well
    assert int(ge.feasible.sum()) == SMALL_GRID.size == 27
    assert (ge.snr_linear == CONSTS.snr_cap).all()
    assert set(pts.flat_index.tolist()) <= set(range(9))
    assert 0 < len(pts) < 9
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
    # 0 * inf would give NaN weighted utilities and an empty hull
    with pytest.raises(ValueError):
        enumerate_setpoints(NEAR_ENV, math.inf, SMALL_GRID, CONSTS, SHAPE)


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


def two_key_hull_indices(g, wu):
    """Oracle: the hull scan behind a two-key sort (resource asc, utility
    desc) that keeps only the best point of each resource."""
    if g.size == 0:
        return []
    order = np.lexsort((-wu, g))
    wu_sorted = wu[order]
    best_before = np.empty_like(wu_sorted)
    best_before[0] = 0.0
    np.maximum.accumulate(wu_sorted[:-1], out=best_before[1:])
    np.maximum(best_before, 0.0, out=best_before)
    frontier = order[wu_sorted > best_before]

    hull = []
    xs = [0.0]
    ys = [0.0]
    g_list = g[frontier].tolist()
    wu_list = wu[frontier].tolist()
    for idx, x, y in zip(frontier.tolist(), g_list, wu_list):
        while hull:
            x1, y1 = xs[-2], ys[-2]
            x2, y2 = xs[-1], ys[-1]
            if (y - y1) * (x2 - x1) >= (y2 - y1) * (x - x1):
                hull.pop()
                xs.pop()
                ys.pop()
            else:
                break
        hull.append(idx)
        xs.append(x)
        ys.append(y)
    return hull


# few distinct values, so that resources tie, (g, wu) pairs repeat and
# points fall on one chord; no task has a negative utility, but the
# oracle defines the hull for one too
tie_clouds = st.lists(
    st.tuples(st.sampled_from([0.125, 0.25, 0.375, 0.5, 0.75, 1.0]),
              st.one_of(st.sampled_from([-0.25, -0.125, 0.0, 0.125, 0.25,
                                         0.5, 1.0]),
                        st.floats(min_value=0.0, max_value=1.0))),
    min_size=0, max_size=40)


@given(tie_clouds)
@example([])
@example([(0.25, 0.5), (0.25, 0.5), (0.25, 0.0), (0.5, 1.0), (0.5, 1.0)])
@example([(0.5, 0.25), (0.5, 0.5), (0.25, 0.125), (0.5, 0.5)])
@example([(0.25, -0.25), (0.5, -0.125), (0.75, 0.0)])
@settings(deadline=None, max_examples=300)
def test_hull_indices_match_two_key_oracle(pairs):
    g, wu = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    assert _hull_indices(g, wu) == two_key_hull_indices(g, wu)


task_envs = st.builds(
    Environment,
    range=st.floats(min_value=10e3, max_value=300e3),
    bearing=st.floats(min_value=-1.0, max_value=1.0),
    rcs=st.floats(min_value=0.1, max_value=10.0),
    maneuver_std=st.floats(min_value=0.1, max_value=35.0),
    corr_time=st.floats(min_value=1.0, max_value=20.0))


@given(task_envs, st.floats(min_value=0.01, max_value=1.0))
@settings(deadline=None, max_examples=60)
def test_hull_indices_match_two_key_oracle_on_enumerated_tasks(env, weight):
    pts = enumerate_setpoints(env, weight, SMALL_GRID, CONSTS, SHAPE)
    assert _hull_indices(pts.resource, pts.weighted_utility) == \
        two_key_hull_indices(pts.resource, pts.weighted_utility)


# ---------------------------------------------------------------------------
# cap-dominated points: enumerate_setpoints against the unpruned grid

SPLIT_GRID = load_config(ROOT / "configs" / "defaults.json").grid("split")
GRIDS = {"small": SMALL_GRID, "split": SPLIT_GRID}


def assert_pruned_matches_oracle(env, weight, grid, pts=None):
    """Check enumerate_setpoints, or the task's given set-points ``pts``,
    against every feasible point of evaluate_grid; return the oracle's
    feasible and capped masks and the utilities of the other dropped
    points.

    The kept points are feasible and not cap-dominated, their values are
    evaluate_grid's bit for bit, and their hull is the unpruned one.  Each
    dropped point is one the hull cannot use: a capped t_d after the
    first, a u = 0 point, or any point dearer than the cheapest kept
    u = 1 point."""
    ge = evaluate_grid(np.asarray(grid.t_d_values),
                       np.asarray(grid.f_t_values),
                       np.asarray(grid.n_h_values, dtype=float),
                       env, CONSTS, SHAPE)
    feasible = ge.feasible
    capped = ge.snr_linear == CONSTS.snr_cap  # raw SNR at or over the cap
    first = np.argmax(capped, axis=0)         # first capped t_d index
    t_index = np.arange(capped.shape[0])[:, None, None]
    dominated = capped & (t_index > first)
    candidates = (feasible & ~dominated).ravel()

    if pts is None:
        pts = enumerate_setpoints(env, weight, grid, CONSTS, SHAPE)
    kept = pts.flat_index
    assert np.all(np.diff(kept) > 0)  # t_d-major order, each point once
    assert candidates[kept].all()
    u = ge.utility.ravel()[kept]
    for got, want in ((pts.quality, ge.quality.ravel()[kept]),
                      (pts.resource, ge.resource.ravel()[kept]),
                      (pts.utility, u),
                      (pts.weighted_utility, weight * u)):
        assert got.tobytes() == want.tobytes()

    # a cap-dominated point buys exactly its first capped t_d's utility
    # and quality, at a resource no smaller
    it, jf, kn = np.nonzero(dominated)
    first_t = first[jf, kn]
    for values in (ge.utility, ge.quality):
        assert np.array_equal(values[it, jf, kn], values[first_t, jf, kn])
    assert np.all(ge.resource[it, jf, kn] >= ge.resource[first_t, jf, kn])

    # the other dropped points have u = 0, or cost more than the cheapest
    # kept u = 1 point, whatever their u (strictly, so that the hull's
    # tie rule cannot prefer a dropped one)
    dropped = candidates.copy()
    dropped[kept] = False
    u_dropped = ge.utility.ravel()[dropped]
    cheapest = pts.resource.min(initial=math.inf, where=pts.utility == 1.0)
    assert np.all((ge.resource.ravel()[dropped] > cheapest)
                  | (u_dropped == 0.0))

    flat = np.flatnonzero(feasible)
    u = ge.utility.ravel()[flat]
    unpruned = TaskSetPoints(grid=grid, flat_index=flat,
                             resource=ge.resource.ravel()[flat],
                             weighted_utility=weight * u,
                             quality=ge.quality.ravel()[flat], utility=u)
    assert build_majorant(pts) == build_majorant(unpruned)
    return feasible, capped, u_dropped


@given(task_envs, st.floats(min_value=0.01, max_value=1.0),
       st.sampled_from(sorted(GRIDS)))
@settings(deadline=None, max_examples=80)
def test_enumerate_drops_only_points_that_cannot_reach_the_hull(
        env, weight, grid_name):
    assert_pruned_matches_oracle(env, weight, GRIDS[grid_name])


def env_on_cap(grid, t_index, n_h):
    """An environment whose raw SNR at (t_d_values[t_index], n_h) is
    exactly the cap: the rcs is stepped one ulp at a time onto it."""
    t_d = np.array([grid.t_d_values[t_index]])
    nh = np.array([float(n_h)])
    for range_m in (61e3, 62e3, 47e3):
        fields = dict(range=range_m, bearing=0.3, maneuver_std=10.0,
                      corr_time=4.0)
        rcs = CONSTS.snr_cap / _raw_snr_table(
            t_d, nh, _env_terms(Environment(rcs=1.0, **fields)), CONSTS)[0, 0]
        for _ in range(16):
            env = Environment(rcs=float(rcs), **fields)
            raw = _raw_snr_table(t_d, nh, _env_terms(env), CONSTS)[0, 0]
            if raw == CONSTS.snr_cap:
                return env
            rcs = np.nextafter(rcs, math.inf if raw < CONSTS.snr_cap
                               else -math.inf)
    raise AssertionError("no rcs puts the raw SNR exactly on the cap")


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_enumerate_keeps_a_t_d_whose_snr_lands_exactly_on_the_cap(
        grid_name):
    grid = GRIDS[grid_name]
    t_index = 1 if grid is SMALL_GRID else 27  # 20 ms and 20.2 ms
    env = env_on_cap(grid, t_index, 24)
    k = grid.n_h_values.index(24)
    raw = _raw_snr_table(np.asarray(grid.t_d_values),
                         np.asarray(grid.n_h_values, dtype=float),
                         _env_terms(env), CONSTS)
    assert raw[t_index, k] == CONSTS.snr_cap
    feasible, capped, _ = assert_pruned_matches_oracle(env, 0.6, grid)
    assert capped[t_index, :, k].all()
    assert not capped[t_index - 1, :, k].any()
    assert capped[t_index + 1:, :, k].all()


def env_on_quality(grid, t_index, f_index, n_h, q):
    """An environment whose q at one grid point is exactly q: the
    maneuver std, which moves only alpha, is bisected onto q and then
    stepped one ulp at a time."""
    t_d, f_t, nh = (np.array([x]) for x in (grid.t_d_values[t_index],
                                            grid.f_t_values[f_index],
                                            float(n_h)))
    # q = theta * v0 rounds onto a lattice set by theta, so the bearing
    # is varied until the lattice holds q; 120 km keeps the SNR between
    # the floor and the cap
    for bearing in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        def at(std):
            env = Environment(range=120e3, bearing=bearing, rcs=1.0,
                              maneuver_std=std, corr_time=4.0)
            # a root depends only on its own lane, so this is the q of
            # that point in any grid
            return env, evaluate_grid(t_d, f_t, nh, env, CONSTS,
                                      SHAPE).quality[0, 0, 0]

        lo, hi = 1e-6, 1e6  # q rises with the maneuver std
        assert at(lo)[1] < q <= at(hi)[1]
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if at(mid)[1] < q else (lo, mid)
        for k in range(-16, 17):
            env, got = at(float(hi + k * np.spacing(hi)))
            if got == q:
                return env
    raise AssertionError(f"no maneuver std puts q exactly on {q}")


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("bound", ["q_max", "q_min"])
def test_enumerate_keeps_a_point_whose_quality_lands_exactly_on_a_bound(
        grid_name, bound):
    # such a point sits in the margin band of the utility classes, where
    # only the root solve can tell u = 1 from u < 1 and u = 0 from u > 0;
    # the grid is one row of two f_t, so that no cheaper u = 1 point can
    # drop it by cost
    t_index = 1 if grid_name == "small" else 27  # 20 ms and 20.2 ms
    full = GRIDS[grid_name]
    grid = ControlGrid(t_d_values=(full.t_d_values[t_index],),
                       f_t_values=full.f_t_values[:2], n_h_values=(24,))
    env = env_on_quality(grid, 0, 1, 24, getattr(SHAPE, bound))
    feasible, capped, _ = assert_pruned_matches_oracle(env, 0.6, grid)
    assert feasible[0, 1, 0] and not capped[0, 1, 0]
    pts = enumerate_setpoints(env, 0.6, grid, CONSTS, SHAPE)
    assert pts.flat_index[-1] == 1
    assert pts.quality[-1] == getattr(SHAPE, bound)
    assert pts.utility[-1] == (1.0 if bound == "q_max" else 0.0)


FAR_ENV = Environment(range=250e3, bearing=0.2, rcs=1.0, maneuver_std=10.0,
                      corr_time=4.0)


def test_enumerate_solves_roots_through_the_module_attribute(monkeypatch):
    # the benchmark counts roots by wrapping this attribute, so every
    # solve must go through it; at 250 km most candidates need none
    env = FAR_ENV
    solve = radar_model.track_sharpness_batch
    roots = []

    def counting(alpha, beta):
        out = solve(alpha, beta)
        roots.append(out.size)
        return out

    monkeypatch.setattr(radar_model, "track_sharpness_batch", counting)
    pts = enumerate_setpoints(env, 0.5, SPLIT_GRID, CONSTS, SHAPE)
    monkeypatch.undo()
    feasible, capped, _ = assert_pruned_matches_oracle(env, 0.5, SPLIT_GRID)
    assert not capped.any()
    assert roots and sum(roots) == len(pts)
    assert 0 < len(pts) < feasible.sum() // 2


def test_enumerate_drops_interior_points_dearer_than_a_full_utility_point():
    # at 250 km the split grid holds u = 1 points, and many points with
    # 0 < u < 1 that cost more than the cheapest of them
    u_dropped = assert_pruned_matches_oracle(FAR_ENV, 0.5, SPLIT_GRID)[2]
    assert np.any((u_dropped > 0.0) & (u_dropped < 1.0))


CAPPED_EVERYWHERE_ENV = Environment(range=10e3, bearing=0.0, rcs=10.0,
                                    maneuver_std=5.0, corr_time=4.0)
NEVER_CAPPED_ENV = Environment(range=250e3, bearing=0.0, rcs=1.0,
                               maneuver_std=5.0, corr_time=4.0)


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("env, claim", [
    (CAPPED_EVERYWHERE_ENV, lambda feasible, capped: capped.all()),
    (NEVER_CAPPED_ENV,
     lambda feasible, capped: feasible.any() and not capped.any()),
    (BLIND_ENV, lambda feasible, capped: not feasible.any()),
], ids=["every-t_d-capped", "nothing-capped", "nothing-feasible"])
def test_enumerate_pruning_edge_cases(env, claim, grid_name):
    assert claim(*assert_pruned_matches_oracle(env, 0.4,
                                               GRIDS[grid_name])[:2])


# ---------------------------------------------------------------------------
# many tasks per evaluate_candidates call

REAL_TASKS = tuple(
    (task.environment, task.weight) for name in ("campaign_70km",
                                                 "campaign_250km")
    for task in generate_scene(load_config(
        ROOT / "configs" / f"{name}.json").scene).tasks[:10])


def assert_same_bits(got, want):
    assert got.grid == want.grid
    for name in ("flat_index", "resource", "weighted_utility", "quality",
                 "utility"):
        assert getattr(got, name).tobytes() == \
            getattr(want, name).tobytes(), name


@given(st.lists(st.sampled_from(REAL_TASKS)
                | st.tuples(task_envs, st.floats(min_value=0.01,
                                                 max_value=1.0)),
                min_size=1, max_size=8),
       st.sampled_from(sorted(GRIDS)), st.integers(min_value=1,
                                                   max_value=3000))
@settings(deadline=None, max_examples=60)
def test_chunked_enumeration_matches_one_task_calls(tasks, grid_name,
                                                    max_rows):
    # caps from below one split task's 808 rows up to whole lists of the
    # 9-row small grid, so chunks hold one to all of the tasks
    grid = GRIDS[grid_name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qram, "MAX_CHUNK_ROWS", max_rows)
        got = list(enumerate_setpoints_many(tasks, grid, CONSTS, SHAPE))
    assert len(got) == len(tasks)
    for (env, weight), pts in zip(tasks, got):
        assert_same_bits(pts, enumerate_setpoints(env, weight, grid, CONSTS,
                                                  SHAPE))


@given(st.lists(task_envs, min_size=2, max_size=5),
       st.floats(min_value=0.01, max_value=1.0),
       st.sampled_from(sorted(GRIDS)))
@settings(deadline=None, max_examples=30)
def test_a_multi_task_chunk_drops_only_points_that_cannot_reach_the_hull(
        envs, weight, grid_name):
    grid = GRIDS[grid_name]  # 5 split tasks fit the default row cap
    chunk = list(enumerate_setpoints_many([(env, weight) for env in envs],
                                          grid, CONSTS, SHAPE))
    for env, pts in zip(envs, chunk):
        assert_pruned_matches_oracle(env, weight, grid, pts)


# at these update rates the near task reaches u = 1 and the far one does
# not, and the far one keeps points dearer than the near one's cheapest
# u = 1 point: a cost bound G taken over both tasks would drop them
LOW_RATE_GRID = ControlGrid(t_d_values=(4e-3, 20e-3, 64e-3),
                            f_t_values=(0.1, 0.2, 0.3, 0.5),
                            n_h_values=(6, 24, 48))
NEAR_SLOW_ENV = Environment(range=10e3, bearing=0.2, rcs=1.0,
                            maneuver_std=1.0, corr_time=10.0)
FAR_AGILE_ENV = Environment(range=100e3, bearing=0.2, rcs=1.0,
                            maneuver_std=35.0, corr_time=10.0)


def test_a_chunk_takes_the_cost_bound_of_each_task_apart():
    near, far = (enumerate_setpoints(env, 0.5, LOW_RATE_GRID, CONSTS, SHAPE)
                 for env in (NEAR_SLOW_ENV, FAR_AGILE_ENV))
    cheapest = near.resource.min(initial=math.inf, where=near.utility == 1.0)
    assert far.utility.max() < 1.0 and far.resource.max() > cheapest
    for envs in ((NEAR_SLOW_ENV, FAR_AGILE_ENV),
                 (FAR_AGILE_ENV, NEAR_SLOW_ENV)):
        chunk = list(enumerate_setpoints_many([(env, 0.5) for env in envs],
                                              LOW_RATE_GRID, CONSTS, SHAPE))
        alone = {NEAR_SLOW_ENV: near, FAR_AGILE_ENV: far}
        for env, pts in zip(envs, chunk):
            assert_same_bits(pts, alone[env])
            assert_pruned_matches_oracle(env, 0.5, LOW_RATE_GRID, pts)


# Recorded with numpy 2.4.6.  The values come from numpy's pow and sqrt,
# so another numpy may need a new recording; say why when making one.
# Re-recorded once when Newton began to stop each lane on its own test,
# which moves some roots by a few ulps (before: 3e99181a...9570a8).
REAL_HULL_DIGEST = \
    "c53952e826a0b53f422d53e87e5786474b3afe3d4a58eb6e9e3aa19db5287684"


def test_real_grid_hulls_match_recorded_digest():
    """Bit-for-bit hulls of the first 20 tasks of each shipped campaign's
    scene on both grids: one SHA-256 over every vertex's flat index,
    resource, weighted utility and quality."""
    digest = hashlib.sha256()
    for name in ("campaign_70km", "campaign_250km"):
        cfg = load_config(ROOT / "configs" / f"{name}.json")
        tasks = generate_scene(cfg.scene).tasks[:20]
        for grid_name in ("split", "full"):
            for task in tasks:
                pts = enumerate_setpoints(task.environment, task.weight,
                                          cfg.grid(grid_name), cfg.radar,
                                          cfg.utility)
                hull = np.array(_hull_indices(pts.resource,
                                              pts.weighted_utility),
                                dtype=np.intp)
                digest.update(np.int64(hull.size).tobytes())
                for values in (pts.flat_index.astype(np.int64),
                               pts.resource, pts.weighted_utility,
                               pts.quality):
                    digest.update(values[hull].tobytes())
    assert digest.hexdigest() == REAL_HULL_DIGEST, \
        f"recorded with numpy 2.4.6, running numpy {np.__version__}"


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


def keyed_greedy_allocate(majorants, r_tot):
    """Oracle: the greedy behind a keyed sort on (marginal, task, segment)
    that tracks the next segment and the last vertex of each task."""
    segments = []
    for ti, mj in enumerate(majorants):
        prev_g, prev_wu = 0.0, 0.0
        for si, p in enumerate(mj.points):
            dg = p.resource - prev_g
            dwu = p.weighted_utility - prev_wu
            segments.append((dwu / dg, ti, si, dg, dwu))
            prev_g, prev_wu = p.resource, p.weighted_utility
    segments.sort(key=lambda s: (-s[0], s[1], s[2]))

    used = 0.0
    total_wu = 0.0
    next_seg = [0] * len(majorants)
    last_vertex = [-1] * len(majorants)
    for _marginal, ti, si, dg, dwu in segments:
        if si != next_seg[ti]:
            continue
        if used + dg <= r_tot:
            used += dg
            total_wu += dwu
            next_seg[ti] = si + 1
            last_vertex[ti] = si
    assignments = tuple(
        None if vi < 0 else Assignment(set_point=mj.points[vi],
                                       vertex_index=vi)
        for mj, vi in zip(majorants, last_vertex))
    return AllocationResult(assignments=assignments, total_resource=used,
                            total_utility=total_wu)


# dyadic values, so that marginals tie exactly across tasks and budgets
# land exactly on sums of segment costs
LATTICE = [k / 8 for k in range(1, 9)]
lattice_tasks = st.lists(
    st.lists(st.tuples(st.sampled_from(LATTICE), st.sampled_from(LATTICE)),
             min_size=0, max_size=6),
    min_size=0, max_size=8)
lattice_budgets = st.lists(
    st.one_of(st.sampled_from([k / 8 for k in range(1, 33)]),
              st.floats(min_value=0.01, max_value=4.0)),
    min_size=1, max_size=6)


@given(lattice_tasks, lattice_budgets)
@example([[(0.25, 0.5)], [(0.5, 1.0)], [(0.25, 0.5), (0.5, 0.75)]],
         [0.25, 0.5, 0.75])
@settings(deadline=None, max_examples=300)
def test_allocate_many_matches_keyed_oracle_on_tied_marginals(tasks, budgets):
    majorants = [build_majorant(cloud(pairs)) for pairs in tasks]
    assert allocate_many(majorants, budgets) == \
        [keyed_greedy_allocate(majorants, b) for b in budgets]


@given(st.lists(st.tuples(task_envs, st.floats(min_value=0.01,
                                               max_value=1.0)),
                min_size=1, max_size=5))
@settings(deadline=None, max_examples=40)
def test_allocate_many_matches_keyed_oracle_on_enumerated_tasks(tasks):
    majorants = [build_majorant(enumerate_setpoints(env, w, SMALL_GRID,
                                                    CONSTS, SHAPE))
                 for env, w in tasks]
    majorants.append(majorants[0])  # an identical hull ties every marginal
    budgets = [0.001, 0.005, 0.02, 0.05, 0.1, 0.3, 1.0]
    assert allocate_many(majorants, budgets) == \
        [keyed_greedy_allocate(majorants, b) for b in budgets]


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
