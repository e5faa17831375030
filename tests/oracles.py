"""Reference implementations that the tests compare the package with.

Each is written from the textbook steps only: no pruning, chunking,
prefix sums or break segments.  The sweep reference composes them, so
that a fast layer which hands the next one an order, a tie, an empty
hull or a task with no feasible point that its own oracle never saw
shows up as a difference in the sweep's metrics or files.
"""

import math

import numpy as np

from sapa_rrm.experiment import RunMetrics
from sapa_rrm.qram import (AllocationResult, Assignment, ConcaveMajorant,
                           SetPoint)
from sapa_rrm.radar_model import (ControlPoint, Environment, RadarConstants,
                                  _env_terms, _raw_snr_table, evaluate_grid)


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


def env_on_cap(grid, t_index, n_h, consts=RadarConstants()):
    """An environment whose raw SNR at (t_d_values[t_index], n_h) is
    exactly the cap: the rcs is stepped one ulp at a time onto it."""
    t_d = np.array([grid.t_d_values[t_index]])
    nh = np.array([float(n_h)])
    for range_m in (61e3, 62e3, 47e3):
        fields = dict(range=range_m, bearing=0.3, maneuver_std=10.0,
                      corr_time=4.0)
        rcs = consts.snr_cap / _raw_snr_table(
            t_d, nh, _env_terms(Environment(rcs=1.0, **fields)), consts)[0, 0]
        for _ in range(16):
            env = Environment(rcs=float(rcs), **fields)
            raw = _raw_snr_table(t_d, nh, _env_terms(env), consts)[0, 0]
            if raw == consts.snr_cap:
                return env
            rcs = np.nextafter(rcs, math.inf if raw < consts.snr_cap
                               else -math.inf)
    raise AssertionError("no rcs puts the raw SNR exactly on the cap")


def reference_majorant(env, weight, grid, consts, shape):
    """The task's hull over every feasible point of the unpruned
    evaluate_grid, taken in flat (t_d, f_t, n_h) order."""
    ev = evaluate_grid(grid.t_d_values, grid.f_t_values, grid.n_h_values,
                       env, consts, shape)
    it, jf, kn = np.nonzero(ev.feasible)
    g, q, u = (x[it, jf, kn] for x in (ev.resource, ev.quality, ev.utility))
    wu = weight * u
    return ConcaveMajorant(points=tuple(
        SetPoint(control=ControlPoint(t_d=grid.t_d_values[it[i]],
                                      f_t=grid.f_t_values[jf[i]],
                                      n_h=grid.n_h_values[kn[i]]),
                 resource=float(g[i]), weighted_utility=float(wu[i]),
                 quality=float(q[i]), utility=float(u[i]))
        for i in two_key_hull_indices(g, wu)))


def reference_metrics(result, grid):
    """RunMetrics of one allocation by a plain loop over its tasks.  The
    mean error is numpy's mean of the assigned qualities in task order,
    which is how the sweep defines it."""
    counts = dict.fromkeys(grid.n_h_values, 0)
    errors = []
    for a in result.assignments:
        if a is not None:
            counts[a.set_point.control.n_h] += 1
            errors.append(a.set_point.quality)
    return RunMetrics(
        active_tracks=len(errors), total_utility=result.total_utility,
        mean_angular_error=float(np.mean(errors)) if errors else math.nan,
        element_histogram=tuple(sorted(counts.items())))


def reference_runs(cfg, scenes, consts, shape):
    """SweepResult.runs of the SweepConfig cfg, one per scene."""
    runs = []
    for scene in scenes:
        cells = {}
        for name, grid in cfg.grids:
            majorants = [reference_majorant(t.environment, t.weight, grid,
                                            consts, shape)
                         for t in scene.tasks]
            for b in cfg.budgets:
                cells[(name, b)] = reference_metrics(
                    keyed_greedy_allocate(majorants, b), grid)
        runs.append(cells)
    return tuple(runs)
