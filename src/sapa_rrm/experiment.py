"""Monte Carlo budget sweeps comparing aperture allocation strategies.

A sweep generates one random scene per run, solves the allocation
problem over each named control grid for every budget in the sweep, and
aggregates the per-run metrics (active tracks, total utility, mean
angular error, element-count histogram) into means, standard deviations
and +-2 sigma bands.

Aggregation is defined over the per-run values rounded to the CSV
output precision, so re-reading the persisted per-run files and
re-aggregating reproduces the in-memory aggregate bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import os
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .qram import (
    AllocationResult,
    ControlGrid,
    allocate_many,
    build_majorant,
    enumerate_setpoints,  # noqa: F401  a trace point of perfbench
    enumerate_setpoints_many,
)
from .radar_model import RadarConstants, UtilityShape, is_integer
from .scenario import Scene, SceneConfig, generate_scene

SCHEMA_HEADER = "# sapa-rrm v1"
HISTOGRAM_GRID = "split"  # grid whose element histogram a sweep writes

# fixed output precisions; aggregation uses the same rounding so that
# CSV round-trips are exact
def fmt_utility(u: float) -> str:
    return f"{u:.6f}"


def fmt_error_mrad(e: float) -> str:
    return f"{e:.4f}"


def fmt_budget(b: float) -> str:
    return f"{b:.4f}"


def round_utility(u: float) -> float:
    """Utility value as it survives a CSV round-trip."""
    return float(fmt_utility(u))


def round_error_mrad(e: float) -> float:
    """Angular error in mrad as it survives a CSV round-trip."""
    return float(fmt_error_mrad(e))


def derive_run_seed(base_seed: int, run_index: int) -> int:
    """Stable per-run seed, independent of run execution order.

    The first eight bytes (big endian) of sha256("<base>:<run>") keep
    runs statistically independent while staying reproducible across
    platforms and processes.
    """
    digest = hashlib.sha256(f"{base_seed}:{run_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SweepConfig:
    """One Monte Carlo comparison campaign."""

    budgets: tuple[float, ...]                     # r_tot values in (0, 1]
    grids: tuple[tuple[str, ControlGrid], ...]     # named control grids
    n_mc: int                                      # Monte Carlo run count
    scene: SceneConfig
    histogram_budgets: tuple[float, ...] = ()      # of element_histogram.csv

    def __post_init__(self) -> None:
        budgets = tuple(self.budgets)
        if not budgets or any(not 0.0 < b <= 1.0 for b in budgets):
            raise ValueError("budgets must be non-empty and lie in (0, 1]")
        budgets = tuple(map(float, budgets))
        object.__setattr__(self, "budgets", budgets)
        if any(b >= c for b, c in zip(budgets, budgets[1:])):
            raise ValueError("budgets must be strictly increasing")
        if any(float(fmt_budget(b)) != b for b in budgets):
            raise ValueError("budgets must have at most 4 decimals, the "
                             "precision of the CSV files")
        hist = tuple(self.histogram_budgets)
        for b in hist:
            if b not in budgets:
                raise ValueError(f"histogram_budgets must be sweep budgets; "
                                 f"{b} is not")
        object.__setattr__(self, "histogram_budgets", tuple(map(float, hist)))
        grids = tuple((str(n), g) for n, g in self.grids)
        object.__setattr__(self, "grids", grids)
        if not grids:
            raise ValueError("grids must be non-empty")
        names = [n for n, _ in grids]
        if len(set(names)) != len(names) or any(not n for n in names):
            raise ValueError("grid names must be unique and non-empty")
        if not (is_integer(self.n_mc) and self.n_mc >= 1):
            raise ValueError("n_mc must be an integer of at least 1")

    @property
    def grid_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.grids)


@dataclass(frozen=True)
class RunMetrics:
    """Solver outcome of a single (scene, grid, budget) cell."""

    active_tracks: int
    total_utility: float
    mean_angular_error: float  # [rad] over allocated tasks; nan when none
    element_histogram: tuple[tuple[int, int], ...]  # (n_h, count) per bin


@dataclass(frozen=True)
class CellStats:
    """Across-run statistics of one scalar metric."""

    mean: float
    std: float       # population standard deviation (ddof = 0)
    lo2sigma: float  # mean - 2 std
    hi2sigma: float  # mean + 2 std


@dataclass(frozen=True)
class AggregateMetrics:
    """Across-run statistics for every (grid, budget) cell.

    Scalar metrics map (grid name, budget) to CellStats; the element
    histogram maps the same key to mean allocated-task counts per n_h
    bin.  Angular error statistics are in mrad, matching the CSV files;
    runs with no allocated task are excluded from the error statistics.
    """

    budgets: tuple[float, ...]
    grid_names: tuple[str, ...]
    n_mc: int
    active_tracks: dict[tuple[str, float], CellStats]
    total_utility: dict[tuple[str, float], CellStats]
    mean_angular_error_mrad: dict[tuple[str, float], CellStats]
    element_histogram: dict[tuple[str, float], tuple[tuple[int, float], ...]]


@dataclass(frozen=True)
class SweepResult:
    """Everything a sweep produced: raw runs plus their aggregate."""

    config: SweepConfig
    run_seeds: tuple[int, ...]
    runs: tuple[dict[tuple[str, float], RunMetrics], ...]  # by run index
    aggregate: AggregateMetrics


def _metrics_from_allocation(result: AllocationResult,
                             grid: ControlGrid) -> RunMetrics:
    counts = {n: 0 for n in grid.n_h_values}
    errors = []
    for a in result.assignments:
        if a is None:
            continue
        counts[a.set_point.control.n_h] += 1
        errors.append(a.set_point.quality)
    mean_err = float(np.mean(errors)) if errors else math.nan
    return RunMetrics(active_tracks=result.active_track_count,
                      total_utility=result.total_utility,
                      mean_angular_error=mean_err,
                      element_histogram=tuple(sorted(counts.items())))


def solve_scene(scene: Scene, grid: ControlGrid, budgets: Sequence[float],
                consts: RadarConstants,
                shape: UtilityShape) -> list[AllocationResult]:
    """Allocate one scene over one grid at each of several budgets.

    Each task's hull is built once, in task order, as its row-capped
    chunk arrives; only the cheap greedy scan repeats per budget.
    """
    tasks = [(task.environment, task.weight) for task in scene.tasks]
    return allocate_many([build_majorant(points) for points in
                          enumerate_setpoints_many(tasks, grid, consts,
                                                   shape)], budgets)


def evaluate_scene(scene: Scene, grid: ControlGrid, budgets: Sequence[float],
                   consts: RadarConstants,
                   shape: UtilityShape) -> list[RunMetrics]:
    """Per-budget metrics of one scene solved over one grid."""
    return [_metrics_from_allocation(res, grid)
            for res in solve_scene(scene, grid, budgets, consts, shape)]


def _cell_stats(values: np.ndarray) -> CellStats:
    valid = values[~np.isnan(values)]
    if valid.size == 0:
        nan = math.nan
        return CellStats(nan, nan, nan, nan)
    mean = float(np.mean(valid))
    std = float(np.std(valid))
    return CellStats(mean=mean, std=std,
                     lo2sigma=mean - 2.0 * std,
                     hi2sigma=mean + 2.0 * std)


def aggregate_runs(runs: Sequence[Mapping[tuple[str, float], RunMetrics]],
                   budgets: Sequence[float],
                   grid_names: Sequence[str]) -> AggregateMetrics:
    """Across-run statistics from per-run metric tables.

    Scalars are rounded to the CSV precision before aggregation and the
    runs are consumed in the given order, so the result is identical
    whether it is computed from in-memory metrics or re-read files.
    """
    active: dict[tuple[str, float], CellStats] = {}
    utility: dict[tuple[str, float], CellStats] = {}
    error: dict[tuple[str, float], CellStats] = {}
    hist: dict[tuple[str, float], tuple[tuple[int, float], ...]] = {}
    for name in grid_names:
        for b in budgets:
            cells = [run[(name, b)] for run in runs]
            active[(name, b)] = _cell_stats(
                np.array([float(m.active_tracks) for m in cells]))
            utility[(name, b)] = _cell_stats(
                np.array([round_utility(m.total_utility) for m in cells]))
            error[(name, b)] = _cell_stats(
                np.array([round_error_mrad(m.mean_angular_error * 1e3)
                          for m in cells]))
            bins = [n for n, _ in cells[0].element_histogram]
            counts = np.array([[dict(m.element_histogram)[n] for n in bins]
                               for m in cells], dtype=np.float64)
            means = counts.mean(axis=0)
            hist[(name, b)] = tuple(zip(bins, (float(c) for c in means)))
    return AggregateMetrics(budgets=tuple(budgets),
                            grid_names=tuple(grid_names),
                            n_mc=len(runs),
                            active_tracks=active,
                            total_utility=utility,
                            mean_angular_error_mrad=error,
                            element_histogram=hist)


def sweep(cfg: SweepConfig, consts: RadarConstants = RadarConstants(),
          shape: UtilityShape = UtilityShape()) -> SweepResult:
    """Full Monte Carlo campaign: all runs, grids and budgets.

    Runs, grids and tasks are solved in order, in the calling thread;
    each run's scene is generated once, from a seed derived from
    (cfg.scene.seed, run index).

    Args:
        cfg: campaign description.
        consts, shape: model parameters, published defaults.

    Returns:
        SweepResult with per-run metric tables and their aggregate.

    Raises:
        ValueError: naming the grid, when the model cannot be solved on
            one of its points.
    """
    seeds = tuple(derive_run_seed(cfg.scene.seed, r)
                  for r in range(cfg.n_mc))
    scenes = (generate_scene(replace(cfg.scene, seed=s)) for s in seeds)

    def cells(scene, name, grid):
        try:
            metrics = evaluate_scene(scene, grid, cfg.budgets, consts, shape)
        except ValueError as exc:
            raise ValueError(f"grid {name!r}: {exc}") from exc
        return zip(((name, b) for b in cfg.budgets), metrics)

    runs = tuple({key: m for name, grid in cfg.grids
                  for key, m in cells(scene, name, grid)}
                 for scene in scenes)
    aggregate = aggregate_runs(runs, cfg.budgets, cfg.grid_names)
    return SweepResult(config=cfg, run_seeds=seeds, runs=runs,
                       aggregate=aggregate)


# ---------------------------------------------------------------------------
# CSV persistence (schema documented in the cli module)

def atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def csv_frame(header: str, rows: Iterable[str]) -> str:
    """The schema line, the header, the rows and a final newline."""
    return "\n".join([SCHEMA_HEADER, header, *rows]) + "\n"


def _metric_csv(stats: Mapping[tuple[str, float], CellStats],
                budgets: Sequence[float], grid_names: Sequence[str],
                value_fmt) -> str:
    rows = []
    for name in sorted(grid_names):
        for b in budgets:
            s = stats[(name, b)]
            rows.append(",".join(
                [fmt_budget(b), name] +
                [value_fmt(v) for v in (s.mean, s.std,
                                        s.lo2sigma, s.hi2sigma)]))
    return csv_frame("budget,grid,mean,std,lo2sigma,hi2sigma", rows)


def _histogram_csv(agg: AggregateMetrics, budgets: Sequence[float],
                   grid_name: str) -> str:
    rows = []
    for b in budgets:
        for n_h, count in agg.element_histogram[(grid_name, b)]:
            rows.append(f"{fmt_budget(b)},{n_h},{fmt_utility(count)}")
    return csv_frame("budget,n_h,mean_count", rows)


def _run_csv(cells: Mapping[tuple[str, float], RunMetrics],
             budgets: Sequence[float], grid_names: Sequence[str]) -> str:
    rows = []
    for name in sorted(grid_names):
        for b in budgets:
            m = cells[(name, b)]
            hist = ";".join(f"{n}:{c}" for n, c in m.element_histogram)
            rows.append(",".join([
                fmt_budget(b), name, str(m.active_tracks),
                fmt_utility(m.total_utility),
                fmt_error_mrad(m.mean_angular_error * 1e3), hist]))
    return csv_frame("budget,grid,active_tracks,total_utility,"
                     "mean_angular_error_mrad,histogram", rows)


def write_sweep_outputs(result: SweepResult,
                        out_dir: str | Path) -> list[Path]:
    """Persist a sweep: aggregate CSV per metric plus per-run files.

    All writes go through a temp-file rename from this single caller,
    so readers never observe partial files.  The element histogram of
    the HISTOGRAM_GRID grid is emitted at the sweep config's
    histogram_budgets, in budget order and once per budget; a sweep
    without that grid produces a header-only file.  Per-run files that
    are not part of this sweep, such as those of an earlier, larger
    sweep, are removed.

    Returns:
        The written paths.
    """
    out = Path(out_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    agg = result.aggregate
    budgets = agg.budgets
    names = agg.grid_names
    written = []

    def emit(path: Path, text: str) -> None:
        atomic_write(path, text)
        written.append(path)

    emit(out / "active_tracks.csv",
         _metric_csv(agg.active_tracks, budgets, names, fmt_utility))
    emit(out / "total_utility.csv",
         _metric_csv(agg.total_utility, budgets, names, fmt_utility))
    emit(out / "mean_angular_error_mrad.csv",
         _metric_csv(agg.mean_angular_error_mrad, budgets, names,
                     fmt_error_mrad))
    hist_budgets = tuple(b for b in budgets
                         if b in result.config.histogram_budgets
                         and HISTOGRAM_GRID in names)
    emit(out / "element_histogram.csv",
         _histogram_csv(agg, hist_budgets, HISTOGRAM_GRID))
    for r, cells in enumerate(result.runs):
        emit(runs_dir / f"run_{r}.csv", _run_csv(cells, budgets, names))
    for _, path in _run_files(runs_dir):
        if path not in written:  # left by an earlier, larger sweep
            path.unlink()
    return written


def _run_files(runs_dir: Path) -> list[tuple[int, Path]]:
    """(index, path) of each run_<index>.csv in runs_dir, by index."""
    return sorted((int(m[1]), p) for p in runs_dir.glob("run_*.csv")
                  if (m := re.fullmatch(r"run_(0|[1-9][0-9]*)\.csv", p.name)))


def _parse_histogram(text: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    pairs = []
    for chunk in text.split(";"):
        n_h, count = chunk.split(":")
        pairs.append((int(n_h), int(count)))
    return tuple(pairs)


def read_run_csv(path: str | Path) -> dict[tuple[str, float], RunMetrics]:
    """Parse one per-run CSV back into a metrics table.

    Angular errors come back in radians; values carry the file's
    precision, which is exactly what aggregation consumes.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != SCHEMA_HEADER:
        raise ValueError(f"{path}: missing schema header {SCHEMA_HEADER!r}")
    cells: dict[tuple[str, float], RunMetrics] = {}
    for line in lines[2:]:
        if not line:
            continue
        budget, grid, active, util, err_mrad, hist = line.split(",")
        cells[(grid, float(budget))] = RunMetrics(
            active_tracks=int(active),
            total_utility=float(util),
            mean_angular_error=float(err_mrad) / 1e3,
            element_histogram=_parse_histogram(hist))
    return cells


def read_runs(out_dir: str | Path) -> list[dict[tuple[str, float],
                                                RunMetrics]]:
    """All per-run tables under out_dir/runs, ordered by run index."""
    return [read_run_csv(p) for _, p in _run_files(Path(out_dir) / "runs")]
