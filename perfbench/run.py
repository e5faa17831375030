#!/usr/bin/env python3
"""Benchmark for sapa-rrm: campaign sweeps and an online re-plan loop.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-70km --seed 1234 \\
        --seconds 45 --trace 0

The package is imported from ``src/`` of the checkout the script sits
in; nothing needs installing.  Each workload is one shipped campaign
config; the seed replaces its scene seed, so every input derives from
``--seed``.  A run has three parts:

1. set-up, repeated and reported as medians: import the package and
   load the config in fresh interpreters, then build the concave
   majorants of the seed's scene over the full-aperture grid.  The
   re-plan loop then gets a scene of its own: the seed's first targets
   whose hulls reach a fixed vertex count, so that allocate's input
   size does not vary with the seed;
2. sweeps: ``sapa-rrm sweep`` through ``sapa_rrm.cli.main``, one Monte
   Carlo run over both grids, alternating one worker per CPU and a
   single worker, from config to CSV files;
3. between sweeps, a re-plan loop: one closed-loop caller that waits
   for every reply and issues a seeded sequence of cycles, each one
   ``allocate`` re-plan at a budget from a fixed pool followed by
   scalar ``evaluate`` queries about the scene's targets.

Outputs are checked as they come: every sweep must write the same bytes
at either thread count and match the recorded SHA-256 digest when one
exists for the seed (``references.json``); every repeated request must
return what it returned the first time; scalar evaluations must agree
with the batched model path at the CLI's output precision; allocations
must stay within budget and within one hull segment of the LP bound.
Any exception or mismatch is a failed operation and makes the exit code
non-zero.

With ``--trace 1`` the layer calls are wrapped (see tracing.py) and the
per-layer metrics are printed instead of the end-to-end ones; the spans
go to ``.perfbench/spans-<workload>.json.gz``.  The last stdout line is
always one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"


@dataclass(frozen=True)
class Workload:
    config: str     # shipped config the scene distribution comes from
    changes: dict   # sections merged into that config
    n_mc: int       # Monte Carlo runs per sweep
    # Hull vertices of the re-plan scene, about those of one config-sized
    # scene.  allocate's time grows with them and they vary by half
    # between seeds, so the scene takes as many of the seed's targets as
    # it needs to reach this size and its latency compares across seeds.
    replan_vertices: int


TINY_GRIDS = {
    "split": {"t_d_ms": [4.0, 16.0, 64.0], "f_t_hz": [0.5, 1.0, 2.0, 4.0],
              "n_h": [6, 12, 24, 48]},
    "full": {"t_d_ms": [4.0, 16.0, 64.0], "f_t_hz": [0.5, 1.0, 2.0, 4.0],
             "n_h": [48]},
}

WORKLOADS = {
    # Nearly every split point is feasible and most have u = 1, so
    # evaluate_grid, the Newton solve and the hull lexsort dominate.
    "campaign-70km": Workload("configs/campaign_70km.json", {}, 1, 380),
    # Part of the grid falls below the SNR floor and the full-grid hulls
    # hold 3.7 times the vertices, so the greedy works under scarcity.
    "campaign-250km": Workload("configs/campaign_250km.json", {}, 1, 1400),
    # Self-test setting: a tiny scene and grid, done in seconds.
    "smoke": Workload("configs/campaign_70km.json",
                      {"scene": {"n_targets": 6}, "grids": TINY_GRIDS}, 2,
                      8),
}

PROBE_GRID = "full"        # grid whose majorants the re-plan loop uses
REPLAN_POOL = 4            # re-plan targets drawn from up to 4x the config's
SWEEP_SHARE = 0.75         # share of --seconds spent in sweeps
MIN_SWEEP_ROUNDS = 2
IMPORT_REPEATS = 15
MAJORANT_BUILDS = 5
WINDOW = 1000              # samples per percentile window: 10 beyond p99
MIN_CYCLES = 1100          # at least one window of allocate samples
EVALS_PER_CYCLE = 16
EVAL_POOL = 1024
BUDGET_POOL = 64
CLI_EVAL_CHECKS = 16

END_TO_END_UNITS = {
    "sweep_s": "s", "sweep_1t_s": "s",
    "allocate_p50_ms": "ms", "allocate_p99_ms": "ms",
    "evaluate_p50_us": "us", "evaluate_p99_us": "us",
    "setup_s": "s", "peak_rss_mb": "MB",
}

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sapa_rrm.cli
sapa_rrm.cli.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def merge(doc: dict, changes: dict) -> dict:
    out = dict(doc)
    for key, value in changes.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], value)
        else:
            out[key] = value
    return out


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def pct(values, q: float) -> float:
    """The q-th percentile of each WINDOW consecutive samples, median
    over the windows; a remainder shorter than a window joins the others.

    Host speed on a shared machine switches between regimes within
    seconds, and one burst of slow samples can move a whole-run p99 by
    40%; the median over windows does not follow such a burst.
    """
    windows = np.array_split(np.asarray(values), max(1, len(values) // WINDOW))
    return median([float(np.percentile(w, q)) for w in windows])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run: inputs, measurements and failure counts."""

    def __init__(self, name: str, seed: int, seconds: float, traced: bool,
                 references: dict, work: Path) -> None:
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.expected = references.get(name, {}).get(str(seed))
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.tracer = None

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if self.failed <= 20:
            log(f"FAIL: {what}")

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        import sapa_rrm.cli
        import sapa_rrm.config
        import sapa_rrm.experiment
        import sapa_rrm.qram
        import sapa_rrm.radar_model
        from sapa_rrm.scenario import generate_scene
        self.cli = sapa_rrm.cli
        self.experiment = sapa_rrm.experiment
        self.qram = sapa_rrm.qram
        self.rm = sapa_rrm.radar_model
        self.modules = {m.__name__: m for m in
                        (self.cli, self.experiment, self.qram, self.rm)}

        base = json.loads((ROOT / self.wl.config).read_text(encoding="utf-8"))
        doc = merge(merge(base, self.wl.changes),
                    {"scene": {"seed": self.seed},
                     "sweep": {"n_mc": self.wl.n_mc}})
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(doc, indent=2),
                                    encoding="utf-8")
        self.cfg = sapa_rrm.config.parse_config(doc)
        grid = self.cfg.grid(PROBE_GRID)

        def majorants_of(tasks):
            return [self.qram.build_majorant(self.qram.enumerate_setpoints(
                task.environment, task.weight, grid, self.cfg.radar,
                self.cfg.utility)) for task in tasks]

        load_times, build_times = [], []
        for _ in range(IMPORT_REPEATS):
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(SRC),
                 str(self.config_path)],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
            load_times.append(float(proc.stdout.strip().splitlines()[-1]))
        # Build time grows with the target count, so set-up builds the
        # seed's config-sized scene rather than the re-plan scene
        scene, first = generate_scene(self.cfg.scene), None
        for _ in range(MAJORANT_BUILDS):
            t0 = time.perf_counter()
            majorants = majorants_of(scene.tasks)
            build_times.append(time.perf_counter() - t0)
            if first is not None and majorants != first:
                self.fail("majorant rebuild differs from the first build")
            first = majorants
        self.setup_s = median(load_times) + median(build_times)

        # A target's draws do not depend on the scene size, so the
        # re-plan scene is the seed's first targets that reach the size
        pool = generate_scene(replace(
            self.cfg.scene, n_targets=REPLAN_POOL * self.cfg.scene.n_targets))
        vertices = 0
        for n_targets, task in enumerate(pool.tasks, 1):
            vertices += len(majorants_of([task])[0].points)
            if vertices >= self.wl.replan_vertices:
                break
        else:
            raise RuntimeError(f"{len(pool.tasks)} targets have only "
                               f"{vertices} hull vertices")
        self.scene = generate_scene(replace(self.cfg.scene,
                                            n_targets=n_targets))
        self.majorants = majorants_of(self.scene.tasks)
        log(f"set-up: import+load {median(load_times):.3f} s, majorants "
            f"{median(build_times):.3f} s over {len(build_times)} builds; "
            f"re-plan scene {n_targets} targets, "
            f"{sum(len(m.points) for m in self.majorants)} hull vertices")

    # -- sweeps ----------------------------------------------------------

    def run_sweep(self, threads: int, out: Path) -> float | None:
        """Wall time of one ``sapa-rrm sweep``; None when it failed."""
        argv = ["sweep", "--config", str(self.config_path), "--out",
                str(out), "--threads", str(threads)]
        try:
            t0 = time.perf_counter()
            with redirect_stdout(io.StringIO()):
                rc = self.cli.main(argv)
            wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            rc = "an exception"
        if rc != 0:
            self.fail(f"sweep at {threads} threads ended with {rc}",
                      self.sweep_cells)
            return None
        return wall

    def check_sweep_output(self, out: Path, threads: int) -> None:
        digest = dir_digest(out)
        self.digests.setdefault("sweep", digest)
        if digest != self.digests["sweep"]:
            self.fail(f"sweep at {threads} threads wrote different CSVs",
                      self.sweep_cells)
        sw = self.cfg.sweep
        runs = self.experiment.read_runs(out)
        keys = {(g, b) for g in sw.grid_names for b in sw.budgets}
        if len(runs) != sw.n_mc or any(set(r) != keys for r in runs):
            self.fail("read_runs did not return every (grid, budget) cell")

    def timed_sweep(self, threads: int, traced: bool) -> float | None:
        out = self.work / f"sweep-{self.sweeps_started}"
        self.sweeps_started += 1
        self.attempted += self.sweep_cells
        if traced:
            self.tracer.install()
        try:
            if traced:
                with self.tracer.span(f"bench.sweep.{threads}"):
                    wall = self.run_sweep(threads, out)
            else:
                wall = self.run_sweep(threads, out)
            if wall is not None:
                self.check_sweep_output(out, threads)
        finally:
            if traced:
                self.tracer.uninstall()
            shutil.rmtree(out, ignore_errors=True)
        return wall

    def measure(self) -> None:
        """Alternate sweeps with re-plan blocks for --seconds.

        Host speed on a shared machine can swing by a factor of two within
        seconds, so neither kind of sample gets a window of its own: after
        every sweep the re-plan loop runs until it has had its share of
        the time so far, and both spread over the whole run.
        """
        nproc, share = self.nproc, SWEEP_SHARE
        sw = self.cfg.sweep
        self.sweep_cells = sw.n_mc * len(sw.grids)
        self.sweeps_started = 0
        self.walls = {nproc: [], 1: []}
        self.untraced_walls: list[float] = []
        self.prepare_replan()
        kinds = [(nproc, self.traced), (1, self.traced)]
        if self.traced:
            kinds.append((nproc, False))
        swept = 0.0
        rounds = 0
        # a round starts while less than half of one is left to --seconds
        while (rounds < MIN_SWEEP_ROUNDS
               or swept * (1.0 + 0.5 / rounds) < share * self.seconds):
            for threads, traced in kinds:
                t0 = time.perf_counter()
                wall = self.timed_sweep(threads, traced)
                swept += time.perf_counter() - t0
                if wall is not None:
                    (self.walls[threads] if traced == self.traced
                     else self.untraced_walls).append(wall)
                self.replan(swept * (1.0 - share) / share - self.replanned)
            rounds += 1
        self.replan(0.0, MIN_CYCLES)
        log(f"sweeps: {rounds} rounds; {nproc} threads "
            f"{[round(w, 3) for w in self.walls[nproc]]}, 1 thread "
            f"{[round(w, 3) for w in self.walls[1]]}")
        log(f"re-plan loop: {self.cycles} cycles, "
            f"{sum(map(len, self.alloc_lat.values()))} allocate and "
            f"{sum(map(len, self.eval_lat.values()))} evaluate samples")

    # -- re-plan loop ----------------------------------------------------

    def make_pools(self) -> None:
        from sapa_rrm.radar_model import ControlPoint, Environment
        rnd = random.Random(self.seed)
        grid = self.cfg.grid("split")
        self.queries = []
        for _ in range(EVAL_POOL):
            env = rnd.choice(self.scene.tasks).environment
            # inputs in CLI units, as an operator would type them
            args = {"range": round(env.range / 1e3, 3),
                    "bearing": round(math.degrees(env.bearing), 2),
                    "rcs": round(10.0 * math.log10(env.rcs), 2),
                    "maneuver_std": round(env.maneuver_std, 3),
                    "corr_time": round(env.corr_time, 3),
                    "td": round(rnd.choice(grid.t_d_values) * 1e3, 1),
                    "ft": round(rnd.choice(grid.f_t_values), 1),
                    "nh": rnd.choice(grid.n_h_values)}
            cp = ControlPoint(t_d=args["td"] * 1e-3, f_t=args["ft"],
                              n_h=args["nh"])
            env = Environment(range=args["range"] * 1e3,
                              bearing=math.radians(args["bearing"]),
                              rcs=10.0 ** (args["rcs"] / 10.0),
                              maneuver_std=args["maneuver_std"],
                              corr_time=args["corr_time"])
            self.queries.append((args, cp, env))
        self.budgets = [round(rnd.uniform(0.02, 0.6), 4)
                        for _ in range(BUDGET_POOL)]

    def prepare_replan(self) -> None:
        self.make_pools()
        self.rnd = random.Random(self.seed + 1)
        self.first_alloc: dict[int, tuple] = {}
        self.first_eval: dict[int, object] = {}
        self.allocations: dict[int, object] = {}
        self.alloc_lat = {True: [], False: []}
        self.eval_lat = {True: [], False: []}
        self.cycles = 0
        self.replanned = 0.0

    def replan(self, seconds: float, min_cycles: int = 0) -> None:
        """Re-plan cycles for about ``seconds``, or up to ``min_cycles``."""
        rnd, consts, shape = self.rnd, self.cfg.radar, self.cfg.utility
        start = time.perf_counter()
        deadline = start + seconds
        while self.cycles < min_cycles or time.perf_counter() < deadline:
            traced = self.traced and self.cycles % 2 == 0
            if traced:
                self.tracer.install()
            b = rnd.randrange(BUDGET_POOL)
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                res = self.qram.allocate(self.majorants, self.budgets[b])
                self.alloc_lat[traced].append(time.perf_counter() - t0)
                key = (res.total_resource, res.total_utility,
                       res.active_track_count,
                       tuple(-1 if a is None else a.vertex_index
                             for a in res.assignments))
                if self.first_alloc.setdefault(b, key) != key:
                    self.fail(f"allocate at budget {self.budgets[b]} changed")
                else:
                    self.allocations[b] = res
            except Exception:
                traceback.print_exc()
                self.fail(f"allocate at budget {self.budgets[b]} raised")
            for _ in range(EVALS_PER_CYCLE):
                i = rnd.randrange(EVAL_POOL)
                _args, cp, env = self.queries[i]
                self.attempted += 1
                try:
                    t0 = time.perf_counter()
                    ev = self.rm.evaluate(cp, env, consts, shape)
                    self.eval_lat[traced].append(time.perf_counter() - t0)
                    if self.first_eval.setdefault(i, ev) != ev:
                        self.fail(f"evaluate query {i} changed")
                except Exception:
                    traceback.print_exc()
                    self.fail(f"evaluate query {i} raised")
            if traced:
                self.tracer.uninstall()
            self.cycles += 1
        self.replanned += time.perf_counter() - start

    # -- output checks ---------------------------------------------------

    def eval_json(self, ev) -> dict:
        """The rounding of ``sapa-rrm eval`` JSON output."""
        if not ev.feasible:
            return {"feasible": False, "quality_mrad": None, "resource": None,
                    "utility": None, "snr_db": None, "v0": None, "p_d": None,
                    "n_looks": None}
        return {"feasible": True,
                "quality_mrad": round(ev.quality * 1e3, 4),
                "resource": round(ev.resource, 8),
                "utility": round(ev.utility, 6),
                "snr_db": round(self.rm.linear_to_db(ev.snr_linear), 4),
                "v0": round(ev.track_sharpness, 6),
                "p_d": round(ev.p_d, 6),
                "n_looks": round(ev.n_looks, 4)}

    @staticmethod
    def allocation_rows(res) -> list[str]:
        """The number formatting of allocation.csv and summary.json."""
        rows = []
        for a in res.assignments:
            if a is None:
                rows.append(",,,,,0.000000")
                continue
            sp = a.set_point
            rows.append(f"{sp.control.t_d * 1e3:.4f},{sp.control.f_t:.4f},"
                        f"{sp.control.n_h},{sp.quality * 1e3:.4f},"
                        f"{sp.resource:.8f},{sp.weighted_utility:.6f}")
        rows.append(f"{res.total_resource:.8f},{res.total_utility:.6f},"
                    f"{res.active_track_count}")
        return rows

    def check_evaluations(self) -> list[str]:
        consts, shape = self.cfg.radar, self.cfg.utility
        lines = []
        for i, (args, cp, env) in enumerate(self.queries):
            ev = self.first_eval.get(i)
            if ev is None:
                ev = self.rm.evaluate(cp, env, consts, shape)
            got = self.eval_json(ev)
            lines.append(json.dumps(got, sort_keys=True))
            batch = self.rm.evaluate_grid(
                np.array([cp.t_d]), np.array([cp.f_t]), np.array([cp.n_h]),
                env, consts, shape)
            if bool(batch.feasible[0, 0, 0]) != got["feasible"]:
                self.fail(f"evaluate query {i}: feasibility differs from "
                          "evaluate_grid")
                continue
            if not got["feasible"]:
                continue
            oracle = {
                "quality_mrad": (batch.quality[0, 0, 0] * 1e3, 4),
                "resource": (batch.resource[0, 0, 0], 8),
                "utility": (batch.utility[0, 0, 0], 6),
                "snr_db": (self.rm.linear_to_db(batch.snr_linear[0, 0, 0]), 4),
            }
            for field, (value, digits) in oracle.items():
                unit = 10.0 ** -digits
                if abs(round(float(value), digits) - got[field]) > 1.01 * unit:
                    self.fail(f"evaluate query {i}: {field} {got[field]} "
                              f"vs evaluate_grid {value}")
        for i, (args, _cp, _env) in enumerate(self.queries[:CLI_EVAL_CHECKS]):
            argv = ["eval", "--config", str(self.config_path)] + [
                f"--{k.replace('_', '-')}={v}" for k, v in args.items()]
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = self.cli.main(argv)
            if rc != 0 or json.loads(buf.getvalue()) != json.loads(lines[i]):
                self.fail(f"sapa-rrm eval differs on query {i}")
        return lines

    def check_allocations(self) -> list[str]:
        lines = []
        segments = []  # (marginal, d_resource, d_utility)
        for mj in self.majorants:
            g0 = wu0 = 0.0
            for p in mj.points:
                dg, dwu = p.resource - g0, p.weighted_utility - wu0
                segments.append((dwu / dg, dg, dwu))
                g0, wu0 = p.resource, p.weighted_utility
        segments.sort(key=lambda s: -s[0])
        max_step = max((s[2] for s in segments), default=0.0)
        for b, budget in enumerate(self.budgets):
            res = self.allocations.get(b)
            if res is None:
                res = self.qram.allocate(self.majorants, budget)
            lines.extend(self.allocation_rows(res))
            upper, left = 0.0, budget
            for _m, dg, dwu in segments:
                take = min(1.0, left / dg)
                upper += take * dwu
                left -= take * dg
                if left <= 0.0:
                    break
            used = sum(a.set_point.resource for a in res.assignments if a)
            gained = sum(a.set_point.weighted_utility
                         for a in res.assignments if a)
            ok = (res.total_resource <= budget
                  and math.isclose(used, res.total_resource, abs_tol=1e-9)
                  and math.isclose(gained, res.total_utility, abs_tol=1e-9)
                  and res.active_track_count == sum(map(bool, res.assignments))
                  and all(a is None or mj.points[a.vertex_index] == a.set_point
                          for a, mj in zip(res.assignments, self.majorants))
                  and upper - max_step - 1e-9 <= res.total_utility
                  <= upper + 1e-9)
            if not ok:
                self.fail(f"allocation at budget {budget} breaks the budget, "
                          "its totals or the one-segment LP bound")
        return lines

    def check_outputs(self) -> None:
        replan = "\n".join(self.check_evaluations() + self.check_allocations())
        self.digests["replan"] = hashlib.sha256(replan.encode()).hexdigest()
        if self.expected is None:
            log(f"no reference digests for seed {self.seed}; checked "
                "thread-count identity, repeatability and oracles only")
            return
        for key, digest in self.digests.items():
            if self.expected.get(key) != digest:
                self.fail(f"{key} output digest {digest[:12]} does not match "
                          f"the reference {str(self.expected.get(key))[:12]}")

    # -- run and report --------------------------------------------------

    def execute(self) -> None:
        self.nproc = len(os.sched_getaffinity(0))
        self.setup()
        if self.traced:
            from tracing import Tracer
            self.tracer = Tracer(self.modules)
        self.measure()
        self.check_outputs()

    def end_to_end(self) -> dict[str, float]:
        alloc = self.alloc_lat[False]
        evals = self.eval_lat[False]
        return {
            "sweep_s": median(self.walls[self.nproc]),
            "sweep_1t_s": median(self.walls[1]),
            "allocate_p50_ms": pct(alloc, 50) * 1e3,
            "allocate_p99_ms": pct(alloc, 99) * 1e3,
            "evaluate_p50_us": pct(evals, 50) * 1e6,
            "evaluate_p99_us": pct(evals, 99) * 1e6,
            "setup_s": self.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }

    def sample_counts(self) -> dict[str, object]:
        def windows(samples):
            n = len(samples)
            return f"{n} in {max(1, n // WINDOW)} windows"
        return {"sweep_s": len(self.walls[self.nproc]),
                "sweep_1t_s": len(self.walls[1]),
                "allocate_p50_ms": windows(self.alloc_lat[False]),
                "allocate_p99_ms": windows(self.alloc_lat[False]),
                "evaluate_p50_us": windows(self.eval_lat[False]),
                "evaluate_p99_us": windows(self.eval_lat[False]),
                "setup_s": f"{IMPORT_REPEATS} imports, "
                           f"{MAJORANT_BUILDS} builds",
                "peak_rss_mb": 1}


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of a traced run.

    Sweep-layer times are totals over all traced sweeps divided by their
    number, so they read as seconds per sweep; a layer's "self" time
    leaves out the same-thread calls it makes into the layers below.
    Counts are per sweep and exact: every sweep solves the same scenes.
    """
    tracer = run.tracer
    self_t = tracer.self_times()
    name_of = {s[0]: s[1] for s in tracer.spans}
    dur: dict[str, list[float]] = {}
    self_sum: dict[str, float] = {}
    counts: dict[str, float] = {}
    for sid, name, t0, t1, parent, _thread, cnt in tracer.spans:
        dur.setdefault(name, []).append(t1 - t0)
        self_sum[name] = self_sum.get(name, 0.0) + self_t[sid]
        for key, value in (cnt or {}).items():
            counts[key] = counts.get(key, 0) + value
    roots = [s for s in tracer.spans if s[1].startswith("bench.sweep.")]
    n_sweeps = max(1, len(roots))

    def total(name):
        return sum(dur.get(name, ())) / n_sweeps

    def per_sweep(key):
        return counts.get(key, 0) / n_sweeps

    def rate(key, name):
        t = sum(dur.get(name, ()))
        return counts.get(key, 0) / t if t else 0.0

    def share(a, b):
        return a / b if b else 0.0

    def med(name, scale=1.0):
        return median(dur.get(name, [])) * scale

    children: dict[int, float] = {}
    cells = []
    sweep_spans = {}
    for sid, name, t0, t1, parent, _thread, _cnt in tracer.spans:
        if name_of.get(parent) == "experiment.evaluate_scene":
            children[parent] = children.get(parent, 0.0) + (t1 - t0)
        if name == "experiment.evaluate_scene":
            cells.append((sid, t1 - t0, parent))
        if name == "experiment.sweep":
            sweep_spans[sid] = (t1 - t0, parent)
    coverage = min((share(children.get(sid, 0.0), d) for sid, d, _ in cells),
                   default=0.0)
    busy = []
    for sid, (wall, parent) in sweep_spans.items():
        threads = int(name_of.get(parent, "bench.sweep.1").rsplit(".", 1)[1])
        if threads > 1:
            cell_time = sum(d for _sid, d, p in cells if p == sid)
            busy.append(share(cell_time, wall * threads))
    cli_self = sum(self_t[s[0]] for s in roots) / n_sweeps
    cell_durations = [d for _sid, d, _p in cells]

    grid_points = per_sweep("grid_points")
    feasible = per_sweep("feasible")
    u_one, u_zero = per_sweep("u_one"), per_sweep("u_zero")
    vertices = per_sweep("vertices")
    budgets = per_sweep("budgets")
    sweep_nproc = median(run.walls[run.nproc])
    traced_eval = median(run.eval_lat[True]) * 1e6
    untraced_eval = median(run.eval_lat[False]) * 1e6
    return {
        "config.load_s": (med("config.load_config"), "s"),
        "scenario.generate_s": (total("scenario.generate_scene"), "s"),
        "radar_model.evaluate_grid_s":
            (self_sum.get("radar_model.evaluate_grid", 0.0) / n_sweeps, "s"),
        "radar_model.grid_points_per_s":
            (rate("points", "radar_model.evaluate_grid"), "1/s"),
        "radar_model.newton_s":
            (total("radar_model.track_sharpness_batch"), "s"),
        "radar_model.roots_per_s":
            (rate("roots", "radar_model.track_sharpness_batch"), "1/s"),
        "radar_model.evaluate_us": (med("radar_model.evaluate", 1e6), "us"),
        "radar_model.bisection_us":
            (med("radar_model.track_sharpness", 1e6), "us"),
        "qram.enumerate_self_s":
            (self_sum.get("qram.enumerate_setpoints", 0.0) / n_sweeps, "s"),
        "qram.build_majorant_s": (total("qram.build_majorant"), "s"),
        "qram.hull_in_points_per_s":
            (rate("in_points", "qram.build_majorant"), "1/s"),
        "qram.grid_points": (grid_points, "count"),
        "qram.feasible_points": (feasible, "count"),
        "qram.u_one_points": (u_one, "count"),
        "qram.u_zero_points": (u_zero, "count"),
        "qram.interior_points": (feasible - u_one - u_zero, "count"),
        "qram.hull_vertices": (vertices, "count"),
        "qram.feasible_ratio": (share(feasible, grid_points), "ratio"),
        "qram.u_one_share": (share(u_one, feasible), "ratio"),
        "qram.u_zero_share": (share(u_zero, feasible), "ratio"),
        "qram.hull_yield": (share(vertices, feasible), "ratio"),
        "qram.allocate_many_s": (total("qram.allocate_many"), "s"),
        "qram.budgets_scanned": (budgets, "count"),
        "qram.greedy_s_per_budget":
            (share(total("qram.allocate_many"), budgets), "s"),
        "qram.allocate_s": (med("qram.allocate"), "s"),
        "experiment.cell_p50_s": (median(cell_durations), "s"),
        "experiment.cell_max_s": (max(cell_durations, default=0.0), "s"),
        "experiment.cell_child_coverage": (coverage, "ratio"),
        "experiment.pool_busy_ratio": (median(busy), "ratio"),
        "experiment.scaling_eff":
            (share(median(run.walls[1]), run.nproc * sweep_nproc), "ratio"),
        "experiment.aggregate_s": (med("experiment.aggregate_runs"), "s"),
        "experiment.write_s": (total("experiment.write_sweep_outputs"), "s"),
        "experiment.read_s": (med("experiment.read_runs"), "s"),
        "experiment.files_written": (per_sweep("files"), "count"),
        "experiment.bytes_written": (per_sweep("bytes"), "count"),
        "cli.sweep_self_s": (cli_self, "s"),
        "trace.sweep_overhead_s":
            (sweep_nproc - median(run.untraced_walls), "s"),
        "trace.evaluate_overhead_us": (traced_eval - untraced_eval, "us"),
        "trace.spans": (len(tracer.spans), "count"),
    }


def provenance() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "sapa_rrm").glob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "src_lines": src_lines}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", type=Path, default=REFERENCES,
                        help="reference digests to check against")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests as the "
                             "reference instead of checking them")
    args = parser.parse_args(argv)

    if not (SRC / "sapa_rrm" / "__init__.py").is_file():
        log(f"error: no sapa_rrm package under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    import sapa_rrm
    if Path(sapa_rrm.__file__).resolve().parent != SRC / "sapa_rrm":
        log(f"error: sapa_rrm imported from {sapa_rrm.__file__}, not {SRC}")
        return 2
    if not (ROOT / WORKLOADS[args.workload].config).is_file():
        log(f"error: missing {WORKLOADS[args.workload].config}")
        return 2
    references = json.loads(args.references.read_text(encoding="utf-8"))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              {} if args.record else references["digests"], work)
    try:
        run.execute()
    except Exception:
        traceback.print_exc()
        run.fail("the run raised", max(1, run.attempted - run.failed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.attempted == 0:
        run.attempted = 1

    facts = provenance()
    print(f"# sapa-rrm bench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; " +
          ", ".join(f"{k} {v}" for k, v in facts.items()))
    if run.failed == 0 and args.trace:
        metrics = per_layer(run)
        run.tracer.write(WORK / f"spans-{args.workload}.json.gz")
    elif run.failed == 0:
        counts = run.sample_counts()
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in run.end_to_end().items()}
    else:
        metrics = {}
    # BENCHMARK.json names the metrics a change is judged by; the p50
    # latencies are printed but not among them (see its end_to_end list)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    judged = {m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]}
    for name, (value, unit) in metrics.items():
        extra = f"  (n = {counts[name]})" if not args.trace else ""
        if name not in judged:
            extra += "  [printed only]"
        print(f"{name:32s} {value:16.6g} {unit}{extra}")
    error_rate = run.failed / run.attempted
    print(f"{'error_rate':32s} {error_rate:16.6g} ratio  "
          f"({run.failed} of {run.attempted} operations)")

    if args.record and run.failed == 0:
        references["digests"].setdefault(args.workload, {})[str(args.seed)] = \
            run.digests
        references.setdefault("recorded_with", {}).update(facts)
        args.references.write_text(json.dumps(references, indent=2) + "\n",
                                   encoding="utf-8")
        log(f"recorded reference digests for seed {args.seed}")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items() if k in judged},
    }))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
