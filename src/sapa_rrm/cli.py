"""Command line front end.

Subcommands
    eval      evaluate one task at explicit control settings, JSON out
    allocate  solve one scene at one budget, CSV + JSON summary out
    sweep     Monte Carlo budget sweep, aggregate and per-run CSV out

Exit codes: 0 success, 1 runtime or I/O failure, 2 usage or validation
failure.  A sweep runs in one thread; sweep --threads N is accepted
for compatibility (N >= 0) and has no effect.

Output schemas (all files start with the version line "# sapa-rrm v1",
UTF-8, LF line endings):

    allocation.csv
        task,weight,range_km,bearing_deg,rcs_dbsm,maneuver_std,
        corr_time,target_type,t_d_ms,f_t_hz,n_h,q_mrad,g,
        weighted_utility
        one row per task; control and quality fields are empty when the
        task received no resource

    active_tracks.csv / total_utility.csv / mean_angular_error_mrad.csv
        budget,grid,mean,std,lo2sigma,hi2sigma
        rows sorted by (grid, budget) ascending

    element_histogram.csv
        budget,n_h,mean_count
        mean allocated-task count per element bin at selected budgets

    runs/run_<r>.csv
        budget,grid,active_tracks,total_utility,
        mean_angular_error_mrad,histogram
        histogram cells are semicolon-joined "n_h:count" pairs
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from .config import (MAX_AXIS_VALUES, ConfigError, RunConfig, load_config,
                     parse_config)
from .experiment import (
    HISTOGRAM_GRID,
    atomic_write,
    csv_frame,
    fmt_error_mrad,
    fmt_utility,
    solve_scene,
    sweep,
    write_sweep_outputs,
)
from .radar_model import (ControlPoint, Environment, dbsm_to_m2, evaluate,
                          finite_positive, linear_to_db, range4)
from .scenario import generate_scene


def _load(parser: argparse.ArgumentParser, path: str | None) -> RunConfig:
    try:
        if path is None:
            return parse_config({})
        return load_config(path)
    except FileNotFoundError:
        parser.error(f"--config: no such file: {path}")
    except ConfigError as exc:
        parser.error(f"--config: {exc}")


def _evaluation_json(ev) -> dict:
    if not ev.feasible:
        return {"feasible": False, "quality_mrad": None, "resource": None,
                "utility": None, "snr_db": None, "v0": None, "p_d": None,
                "n_looks": None}
    return {
        "feasible": True,
        "quality_mrad": round(ev.quality * 1e3, 4),
        "resource": round(ev.resource, 8),
        "utility": round(ev.utility, 6),
        "snr_db": round(linear_to_db(ev.snr_linear), 4),
        "v0": round(ev.track_sharpness, 6),
        "p_d": round(ev.p_d, 6),
        "n_looks": round(ev.n_looks, 4),
    }


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _si_checked(to_si, unit: str):
    """argparse type: finite x whose to_si(x), the value the model
    receives, is a finite positive float."""
    def parse(text: str) -> float:
        value = _finite_float(text)
        if not finite_positive(to_si, value):
            raise argparse.ArgumentTypeError(
                f"{text!r} gives no finite positive float in {unit}")
        return value
    return parse


_range_km = _si_checked(lambda km: range4(km * 1e3), "m^4")
_rcs_dbsm = _si_checked(dbsm_to_m2, "m^2")


def _range_sweep(text: str) -> list[float]:
    """argparse type: START_KM:STOP_KM:COUNT as evenly spaced ranges."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("must be START_KM:STOP_KM:COUNT")
    start, stop = _range_km(parts[0]), _range_km(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"COUNT is not an integer: {parts[2]!r}") from None
    if stop <= start or not 2 <= count <= MAX_AXIS_VALUES:
        raise argparse.ArgumentTypeError(
            f"needs 0 < START < STOP and 2 <= COUNT <= {MAX_AXIS_VALUES}")
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count)]


def cmd_eval(parser: argparse.ArgumentParser,
             args: argparse.Namespace) -> int:
    cfg = _load(parser, args.config)
    consts = cfg.radar
    if not -90.0 < args.bearing < 90.0:
        parser.error("--bearing must lie strictly inside (-90, 90) degrees")
    if not 1 <= args.nh <= consts.n_h_total:
        parser.error(f"--nh must lie in [1, {consts.n_h_total}]")

    cp = ControlPoint(t_d=args.td * 1e-3, f_t=args.ft, n_h=args.nh)

    def evaluate_at(range_km: float):
        env = Environment(range=range_km * 1e3,
                          bearing=math.radians(args.bearing),
                          rcs=dbsm_to_m2(args.rcs),
                          maneuver_std=args.maneuver_std,
                          corr_time=args.corr_time)
        try:
            ev = evaluate(cp, env, consts, cfg.utility)
        except ValueError as exc:
            parser.error(f"at range {range_km:g} km the track-sharpness "
                         f"root is outside the solver's range ({exc})")
        if ev.feasible and not math.isfinite(ev.resource):
            parser.error("--td and --ft: the radar time they give "
                         "overflows float64")
        return ev

    if args.range_sweep is not None:
        for km in args.range_sweep:
            row = {"range_km": round(km, 6),
                   **_evaluation_json(evaluate_at(km))}
            print(json.dumps(row))
        return 0
    ev = evaluate_at(args.range)
    print(json.dumps(_evaluation_json(ev), indent=2))
    return 0


def cmd_allocate(parser: argparse.ArgumentParser,
                 args: argparse.Namespace) -> int:
    cfg = _load(parser, args.config)
    if not 0.0 < args.budget <= 1.0:
        parser.error("--budget must lie in (0, 1]")
    grid_name = args.grid if args.grid is not None else cfg.grid_names[0]
    if grid_name not in cfg.grid_names:
        parser.error(f"--grid: unknown grid {grid_name!r} "
                     f"(defined grids: {list(cfg.grid_names)})")
    grid = cfg.grid(grid_name)
    scene_cfg = cfg.scene
    if args.scene_seed is not None:
        if args.scene_seed < 0:
            parser.error("--scene-seed must be >= 0")
        scene_cfg = replace(scene_cfg, seed=args.scene_seed)
    scene = generate_scene(scene_cfg)
    try:
        [result] = solve_scene(scene, grid, (args.budget,), cfg.radar,
                               cfg.utility)
    except ValueError as exc:
        parser.error(f"--config: the model cannot be solved on grid "
                     f"{grid_name!r}: {exc}")

    rows = []
    for i, (task, asg) in enumerate(zip(scene.tasks, result.assignments)):
        env = task.environment
        row = [str(i), fmt_utility(task.weight),
               f"{env.range / 1e3:.3f}",
               f"{math.degrees(env.bearing):.4f}",
               f"{linear_to_db(env.rcs):.4f}",
               f"{env.maneuver_std:.4f}",
               f"{env.corr_time:.4f}",
               task.target_type.value]
        if asg is None:
            row += ["", "", "", "", "", fmt_utility(0.0)]
        else:
            sp = asg.set_point
            row += [f"{sp.control.t_d * 1e3:.4f}",
                    f"{sp.control.f_t:.4f}",
                    str(sp.control.n_h),
                    fmt_error_mrad(sp.quality * 1e3),
                    f"{sp.resource:.8f}",
                    fmt_utility(sp.weighted_utility)]
        rows.append(",".join(row))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write(out / "allocation.csv", csv_frame(
        "task,weight,range_km,bearing_deg,rcs_dbsm,maneuver_std,corr_time,"
        "target_type,t_d_ms,f_t_hz,n_h,q_mrad,g,weighted_utility", rows))
    summary = {
        "budget": args.budget,
        "grid": grid_name,
        "n_targets": len(scene.tasks),
        "scene_seed": scene_cfg.seed,
        "total_resource": round(result.total_resource, 8),
        "total_utility": round(result.total_utility, 6),
        "active_tracks": result.active_track_count,
    }
    atomic_write(out / "summary.json", json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out / 'allocation.csv'} and {out / 'summary.json'}")
    return 0


def cmd_sweep(parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> int:
    cfg = _load(parser, args.config)
    if args.threads is not None and args.threads < 0:
        parser.error("--threads must be >= 0")
    if HISTOGRAM_GRID not in cfg.sweep.grid_names:
        parser.error(f"--config: sweep.grids: the element histogram needs "
                     f"a grid named {HISTOGRAM_GRID!r}, got "
                     f"{list(cfg.sweep.grid_names)}")
    try:
        result = sweep(cfg.sweep, cfg.radar, cfg.utility)
    except ValueError as exc:
        parser.error(f"--config: the model cannot be solved on {exc}")
    written = write_sweep_outputs(result, args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sapa-rrm",
        description="Split-aperture radar resource management: task "
                    "evaluation, greedy allocation and Monte Carlo "
                    "budget sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="evaluate one task at explicit control settings")
    p_eval.add_argument("--config", help="configuration file (JSON)")
    ranges = p_eval.add_mutually_exclusive_group(required=True)
    ranges.add_argument("--range", type=_range_km, help="target range [km]")
    ranges.add_argument("--range-sweep", metavar="START:STOP:COUNT",
                        type=_range_sweep,
                        help="evaluate over evenly spaced ranges [km], "
                             "one JSON object per line")
    p_eval.add_argument("--bearing", type=_finite_float, default=0.0,
                        help="bearing off boresight [deg], default 0")
    p_eval.add_argument("--rcs", type=_rcs_dbsm, default=0.0,
                        help="radar cross section [dBsm], default 0")
    p_eval.add_argument("--maneuver-std", type=_si_checked(float, "m/s^2"),
                        required=True,
                        help="acceleration standard deviation [m/s^2]")
    p_eval.add_argument("--corr-time", type=_si_checked(float, "s"),
                        required=True, help="maneuver correlation time [s]")
    p_eval.add_argument("--td", type=_si_checked(lambda ms: ms * 1e-3, "s"),
                        required=True, help="coherent integration time [ms]")
    p_eval.add_argument("--ft", type=_si_checked(float, "Hz"), required=True,
                        help="track update frequency [Hz]")
    p_eval.add_argument("--nh", type=int, required=True,
                        help="horizontal element count")

    p_alloc = sub.add_parser(
        "allocate", help="solve one scene at one budget")
    p_alloc.add_argument("--config", help="configuration file (JSON)")
    p_alloc.add_argument("--budget", type=_finite_float, required=True,
                         help="radar time budget, fraction in (0, 1]")
    p_alloc.add_argument("--grid",
                         help="control grid name (default: first in "
                              "config)")
    p_alloc.add_argument("--scene-seed", type=int,
                         help="override the scene seed")
    p_alloc.add_argument("--out", default=".",
                         help="output directory (default: current)")

    p_sweep = sub.add_parser(
        "sweep", help="Monte Carlo budget sweep over all grids")
    p_sweep.add_argument("--config", help="configuration file (JSON)")
    p_sweep.add_argument("--out", required=True,
                         help="output directory")
    p_sweep.add_argument("--threads", type=int,
                         help="accepted and ignored: sweeps run in one "
                              "thread")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"eval": cmd_eval, "allocate": cmd_allocate,
                "sweep": cmd_sweep}
    try:
        return handlers[args.command](parser, args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
