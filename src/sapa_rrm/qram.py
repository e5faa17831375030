"""Greedy quality-of-service allocation over discrete control grids.

The solver follows the classic Q-RAM recipe: enumerate the feasible
(resource, weighted utility) set-points of every task, less those that
radar_model.evaluate_candidates, called per row-capped chunk of tasks, shows
cannot be hull vertices, compress each task to its concave majorant, then
walk all hull segments in order of decreasing marginal utility until the
radar time budget runs out.  A brute-force multiple-choice-knapsack oracle
is included for validating the greedy result on small instances.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .radar_model import (
    ControlPoint,
    Environment,
    RadarConstants,
    UtilityShape,
    evaluate_candidates,
    evaluate_grid,  # noqa: F401  still looked up as qram.evaluate_grid
)

MAX_CHUNK_ROWS = 8_000  # (t_d, n_h) rows per evaluate_candidates call


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


def enumerate_setpoints(env: Environment, weight: float, grid: ControlGrid,
                        consts: RadarConstants,
                        shape: UtilityShape) -> TaskSetPoints:
    """enumerate_setpoints_many() of one task."""
    return next(enumerate_setpoints_many([(env, weight)], grid, consts, shape))


def enumerate_setpoints_many(tasks: Sequence[tuple[Environment, float]],
                             grid: ControlGrid, consts: RadarConstants,
                             shape: UtilityShape) -> Iterator[TaskSetPoints]:
    """Yield, in task order, each (env, weight) task's grid points that
    can be hull vertices (evaluate_candidates), t_d-major; weights must be
    positive and finite.  Consecutive tasks share calls of at most
    MAX_CHUNK_ROWS (t_d, n_h) rows, or a task whose grid has more goes
    alone: that bounds memory and changes no bit."""
    if not all(0.0 < w < math.inf for _, w in tasks):
        raise ValueError("weight must be positive and finite")
    step = max(1, MAX_CHUNK_ROWS // (len(grid.t_d_values)
                                     * len(grid.n_h_values)))
    for i in range(0, len(tasks), step):
        chunk = tasks[i:i + step]
        for (_, w), (flat, q, g, u) in zip(chunk, evaluate_candidates(
                grid.t_d_values, grid.f_t_values, grid.n_h_values,
                [env for env, _ in chunk], consts, shape)):
            yield TaskSetPoints(grid=grid, flat_index=flat, resource=g,
                                weighted_utility=w * u, quality=q, utility=u)


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
