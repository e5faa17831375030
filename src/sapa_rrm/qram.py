"""Greedy quality-of-service allocation over discrete control grids.

The solver follows the classic Q-RAM recipe: enumerate the feasible
(resource, weighted utility) set-points of every task, less those that
cannot be hull vertices, compress each task to its concave majorant,
then walk all hull segments in order of decreasing marginal utility
until the radar time budget runs out.  A brute-force
multiple-choice-knapsack oracle is included for validating the greedy
result on small instances.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .radar_model import (
    ControlPoint,
    Environment,
    RadarConstants,
    UtilityShape,
    _evaluate_lanes,
    _lane_chain,
    _raw_snr_table,
    _row_terms,
    _utility_columns,
    evaluate_grid,  # noqa: F401  still looked up as qram.evaluate_grid
)


def _strictly_increasing(values: Sequence[float]) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class ControlGrid:
    """Discrete control space; the cartesian product defines the candidates.

    Element counts are validated against RadarConstants at enumeration
    time.  A full-aperture baseline is simply a grid whose n_h_values
    collapse to the single total element count.
    """

    t_d_values: tuple[float, ...]  # integration times [s]
    f_t_values: tuple[float, ...]  # update frequencies [Hz]
    n_h_values: tuple[int, ...]    # horizontal element counts

    def __post_init__(self) -> None:
        for name in ("t_d_values", "f_t_values", "n_h_values"):
            values = tuple(getattr(self, name))
            object.__setattr__(self, name, values)
            if not values:
                raise ValueError(f"{name} must be non-empty")
            if not _strictly_increasing(values):
                raise ValueError(f"{name} must be strictly increasing")
        if not (self.t_d_values[0] > 0.0 and self.f_t_values[0] > 0.0):
            raise ValueError("control values must be positive")
        if self.n_h_values[0] < 1:
            raise ValueError("n_h values must be at least 1")

    @property
    def size(self) -> int:
        return (len(self.t_d_values) * len(self.f_t_values)
                * len(self.n_h_values))


@dataclass(frozen=True)
class SetPoint:
    """One feasible candidate: a control point and what it buys."""

    control: ControlPoint
    resource: float          # g, fraction of the radar timeline
    weighted_utility: float  # task weight times utility
    quality: float           # achieved angular error [rad]
    utility: float           # unweighted u in [0, 1]


@dataclass(frozen=True, eq=False)
class TaskSetPoints:
    """The feasible set-points of one task that can be hull vertices,
    stored as arrays.

    A 200-task scene of either shipped campaign (seed 1234) holds 16,340
    to 98,870 of them on the split grid, too many for per-point objects;
    indexing decodes one entry into a SetPoint.  Order is deterministic:
    t_d-major, then f_t, then n_h.
    """

    grid: ControlGrid
    flat_index: np.ndarray        # position in the flattened grid
    resource: np.ndarray
    weighted_utility: np.ndarray
    quality: np.ndarray
    utility: np.ndarray

    def __len__(self) -> int:
        return int(self.flat_index.shape[0])

    def __getitem__(self, i: int) -> SetPoint:
        nf = len(self.grid.f_t_values)
        nn = len(self.grid.n_h_values)
        it, rem = divmod(int(self.flat_index[i]), nf * nn)
        jf, kn = divmod(rem, nn)
        control = ControlPoint(t_d=self.grid.t_d_values[it],
                               f_t=self.grid.f_t_values[jf],
                               n_h=self.grid.n_h_values[kn])
        return SetPoint(control=control,
                        resource=float(self.resource[i]),
                        weighted_utility=float(self.weighted_utility[i]),
                        quality=float(self.quality[i]),
                        utility=float(self.utility[i]))


def _columns_to_solve(row: tuple, t_d: np.ndarray, f_t: np.ndarray,
                      n_h: np.ndarray, consts: RadarConstants,
                      shape: UtilityShape):
    """Per (t_d, n_h) row, the f_t columns whose point can be a hull
    vertex: f_t[lo:end].

    A u = 0 point adds no utility, so it is never a vertex.  The cost
    rises with v0 >= 0 and with f_t, and u = 1 means v0 <= q_max/theta,
    so G, the least such upper bound over each row's first u = 1 column,
    is at or above a real u = 1 point's cost.  A point whose v0 = 0 lower
    bound exceeds G is dearer than that point and buys at most its
    utility, the task weight: neither the hull nor an exact knapsack
    needs it.  The lower bound is f_t times its value at 1 Hz, up to
    rounding, which a 1e-12 widening covers.
    """
    lo, hi = _utility_columns(row, f_t, shape)

    def cost(f, v0):  # g with the root fixed at v0
        return _lane_chain(row, t_d, f, n_h, consts, lambda alpha, beta: v0,
                           np.sqrt)[1]

    # the upper bound is smallest at a row's first u = 1 column
    g_hi = cost(f_t[np.minimum(hi, f_t.size - 1)], shape.q_max / row[0])
    end = np.searchsorted(f_t, g_hi.min(initial=np.inf, where=hi < f_t.size)
                          / cost(1.0, 0.0) * (1.0 + 1e-12), side="right")
    return lo, np.maximum(lo, end)


def enumerate_setpoints(env: Environment, weight: float, grid: ControlGrid,
                        consts: RadarConstants,
                        shape: UtilityShape) -> TaskSetPoints:
    """Evaluate one task over a control grid, keeping the points that can
    be hull vertices.

    Two rules drop a feasible grid point before its root is solved, and
    neither changes the hull:
    - The SNR cap.  A point is dropped when a smaller t_d with the same
      n_h already reaches the cap.  The raw SNR grows with t_d and does
      not depend on f_t, and every capped t_d of one (f_t, n_h) buys
      bit-identical utility, only at a higher cost than the first one.
    - Closed-form bounds (_columns_to_solve).  A point whose utility is
      surely 0 is dropped, and so is any point surely dearer than a kept
      u = 1 point, since it buys at most the same utility.
    The kept points go through one batched model evaluation.  A root
    depends only on its own point, so their values equal evaluate_grid's
    bit for bit.

    Args:
        env: target environment.
        weight: task weight applied to the utility, positive and finite.
        grid: discrete control space.
        consts, shape: model parameters.

    Returns:
        The kept candidates in t_d-major order; empty when the target
        is undetectable at every grid point.
    """
    if not 0.0 < weight < math.inf:
        raise ValueError("weight must be positive and finite")
    t_d = np.asarray(grid.t_d_values, dtype=np.float64)
    f_t = np.asarray(grid.f_t_values, dtype=np.float64)
    n_h = np.asarray(grid.n_h_values, dtype=np.float64)
    raw = _raw_snr_table(t_d, n_h, env, consts)          # (nt, nn)
    capped = raw >= consts.snr_cap
    capped_before = np.cumsum(capped, axis=0) - capped > 0
    it, kn = np.nonzero((raw >= consts.snr_floor) & ~capped_before)
    n_rows = n_h[kn]
    row = _row_terms(np.minimum(raw[it, kn], consts.snr_cap), n_rows, env,
                     consts, np.sqrt)
    lo, end = _columns_to_solve(row, t_d[it], f_t, n_rows, consts, shape)
    count = end - lo
    r = np.repeat(np.arange(it.size), count)  # f_t[lo:end] of each row
    jf = np.arange(r.size) - np.repeat(np.cumsum(count) - count - lo, count)
    flat = (it[r] * f_t.size + jf) * n_h.size + kn[r]
    order = np.argsort(flat, kind="stable")  # each row is a sorted run
    r, jf = r[order], jf[order]
    q, g, u = _evaluate_lanes(tuple(x[r] for x in row), t_d[it[r]],
                              f_t[jf], n_rows[r], consts, shape)
    return TaskSetPoints(
        grid=grid,
        flat_index=flat[order],
        resource=g,
        weighted_utility=weight * u,
        quality=q,
        utility=u,
    )


@dataclass(frozen=True)
class ConcaveMajorant:
    """Upper-left hull of a task's set-points in the (g, wu) plane.

    The origin (no resource, no utility) is an implicit first vertex and
    is not stored.  Stored vertices are strictly increasing in both
    resource and weighted utility, with strictly decreasing marginal
    utility between consecutive vertices.
    """

    points: tuple[SetPoint, ...] = field(default_factory=tuple)


def _hull_indices(g: np.ndarray, wu: np.ndarray) -> list[int]:
    """Indices of the upper-left hull vertices, ascending in resource.

    Only points that raise the running best utility after one stable sort
    on resource can be vertices.  Ties: the larger utility wins, then the
    first point; collinear points are not vertices.
    """
    order = np.argsort(g, kind="stable")
    best = np.maximum.accumulate(np.maximum(wu[order], 0.0))
    frontier = order[np.diff(best, prepend=0.0) > 0.0]

    hull: list[int] = []
    xs = [0.0]  # chain coordinates, origin included
    ys = [0.0]
    g_list = g[frontier].tolist()
    wu_list = wu[frontier].tolist()
    for idx, x, y in zip(frontier.tolist(), g_list, wu_list):
        # pop the last vertex while it does not stay strictly above the
        # chord to the new point (this also drops collinear vertices)
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


def build_majorant(points: TaskSetPoints) -> ConcaveMajorant:
    """Concave majorant of a task's set-points.

    Returns:
        The hull; only the implicit origin when points is empty or no
        point has positive weighted utility.
    """
    hull = _hull_indices(points.resource, points.weighted_utility)
    return ConcaveMajorant(points=tuple(points[i] for i in hull))


@dataclass(frozen=True)
class Assignment:
    """Chosen set-point for one task; index is the vertex position."""

    set_point: SetPoint
    vertex_index: int


@dataclass(frozen=True)
class AllocationResult:
    """Solver output: one assignment (or None) per task, plus totals."""

    assignments: tuple[Assignment | None, ...]
    total_resource: float
    total_utility: float

    @property
    def active_track_count(self) -> int:
        return sum(a is not None for a in self.assignments)


def _sorted_segments(majorants: Sequence[ConcaveMajorant]):
    """All hull segments as (-marginal, task, segment, dg, dwu), sorted."""
    segments = []
    for ti, mj in enumerate(majorants):
        prev_g, prev_wu = 0.0, 0.0
        for si, p in enumerate(mj.points):
            dg = p.resource - prev_g
            dwu = p.weighted_utility - prev_wu
            assert dg > 0.0, "feasible set-points always cost resource"
            segments.append((-dwu / dg, ti, si, dg, dwu))
            prev_g, prev_wu = p.resource, p.weighted_utility
    segments.sort()
    return segments


def _greedy_scan(majorants: Sequence[ConcaveMajorant], segments,
                 r_tot: float) -> AllocationResult:
    used = 0.0
    total_wu = 0.0
    taken = [0] * len(majorants)  # accepted segments per task
    for _neg_marginal, ti, si, dg, dwu in segments:
        # a segment whose predecessor was skipped stays unreachable
        if si == taken[ti] and used + dg <= r_tot:
            used += dg
            total_wu += dwu
            taken[ti] += 1
    assignments = tuple(
        Assignment(set_point=mj.points[n - 1], vertex_index=n - 1) if n
        else None for mj, n in zip(majorants, taken))
    return AllocationResult(assignments=assignments, total_resource=used,
                            total_utility=total_wu)


def allocate(majorants: Sequence[ConcaveMajorant],
             r_tot: float) -> AllocationResult:
    """Greedy budgeted allocation over per-task concave majorants.

    Every task starts at the implicit origin.  Hull segments from all
    tasks are traversed in order of decreasing marginal utility; a
    segment is accepted when it fits in the remaining budget and its
    predecessor on the same hull was accepted, otherwise it is skipped
    and the traversal continues (segments are atomic, no partial fits).

    Args:
        majorants: one ConcaveMajorant per task.
        r_tot: radar time budget, > 0.

    Returns:
        AllocationResult with total_resource <= r_tot exactly.
    """
    return allocate_many(majorants, (r_tot,))[0]


def allocate_many(majorants: Sequence[ConcaveMajorant],
                  budgets: Sequence[float]) -> list[AllocationResult]:
    """allocate() for several budgets, sorting the segment list once."""
    if any(not b > 0.0 for b in budgets):
        raise ValueError("budgets must be positive")
    segments = _sorted_segments(majorants)
    return [_greedy_scan(majorants, segments, b) for b in budgets]


def brute_force_allocate(tasks: Sequence[TaskSetPoints],
                         r_tot: float) -> AllocationResult:
    """Exhaustive multiple-choice knapsack over raw set-points.

    Every task independently picks one of its set-points or nothing;
    the exact maximizer of total weighted utility under the budget is
    returned.  Intended as an optimality oracle for small instances.

    Args:
        tasks: one TaskSetPoints per task.
        r_tot: radar time budget, > 0.

    Raises:
        ValueError: when the product of (set-point counts + 1) exceeds
            1e7.
    """
    if not r_tot > 0.0:
        raise ValueError("r_tot must be positive")
    sizes = [len(pts) + 1 for pts in tasks]
    combos = math.prod(sizes)
    if combos > 10**7:
        raise ValueError(f"instance too large for brute force: "
                         f"{combos} > 1e7 combinations")

    total_g = np.zeros(1, dtype=np.float64)
    total_wu = np.zeros(1, dtype=np.float64)
    for pts in tasks:
        g_opts = np.concatenate(([0.0], pts.resource))
        wu_opts = np.concatenate(([0.0], pts.weighted_utility))
        total_g = (total_g[:, None] + g_opts[None, :]).ravel()
        total_wu = (total_wu[:, None] + wu_opts[None, :]).ravel()

    feasible_wu = np.where(total_g <= r_tot, total_wu, -1.0)
    best = int(np.argmax(feasible_wu))
    choice = np.unravel_index(best, sizes)
    assignments = tuple(
        None if opt == 0 else Assignment(set_point=pts[opt - 1],
                                         vertex_index=int(opt - 1))
        for pts, opt in zip(tasks, choice))
    return AllocationResult(assignments=assignments,
                            total_resource=float(total_g[best]),
                            total_utility=float(total_wu[best]))
