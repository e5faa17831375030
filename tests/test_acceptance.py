"""Acceptance tests: one test per product requirement.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
requirement.  Tests 04..06 share two Monte Carlo campaigns (20 runs of
200 targets each, built once per session); the whole module takes a few
CPU-minutes.

Test 01 checks the track-sharpness root solver at the accuracy float64
can reach.  The balance terms grow to ~1e18 at the large end of the
parameter box, so even the float nearest the exact root leaves an
absolute residual of hundreds; the test therefore bounds the backward
error, |f(v0)| <= 16 eps times the sum of the terms' magnitudes, and
checks the roots against an independent dense-scan bracketing oracle.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from sapa_rrm import cli
from sapa_rrm.config import parse_config
from sapa_rrm.experiment import SweepConfig, sweep
from sapa_rrm.qram import (
    ControlGrid,
    TaskSetPoints,
    allocate,
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
    track_sharpness_batch,
    utility,
)

BUDGET_GRID = tuple(round(0.05 * k, 10) for k in range(1, 21))


def _balance(v, alpha, beta):
    return 1.0 + (0.5 * beta + 2.0) * v * v - alpha * beta * v**2.4


def _campaign(range_hi_m: float):
    cfg = parse_config({})
    plan = SweepConfig(
        budgets=BUDGET_GRID,
        grids=cfg.grids,
        n_mc=20,
        scene=replace(cfg.scene, seed=1234,
                      range_interval=(10e3, range_hi_m)))
    start = time.perf_counter()
    result = sweep(plan, cfg.radar, cfg.utility)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def campaign_70km():
    return _campaign(70e3)


@pytest.fixture(scope="module")
def campaign_250km():
    return _campaign(250e3)


def test_01_root_solver_accuracy_against_dense_scan_oracle():
    rng = np.random.default_rng(20260819)
    n = 10_000
    alpha = 10.0 ** rng.uniform(-3.0, 3.0, n)
    beta = 10.0 ** rng.uniform(0.0, 5.0, n)

    start = time.perf_counter()
    v0 = track_sharpness_batch(alpha, beta)
    solve_time = time.perf_counter() - start

    # independent oracle: bracket the sign change on a fixed million
    # point log grid, then bisect inside the bracketing cell
    grid = np.logspace(-9.0, 10.0, 1_000_000)
    assert (_balance(grid[0], alpha, beta) > 0.0).all()
    assert (_balance(grid[-1], alpha, beta) < 0.0).all()
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, grid.size - 1, dtype=np.int64)
    while int((hi - lo).max()) > 1:
        mid = (lo + hi) // 2
        neg = _balance(grid[mid], alpha, beta) < 0.0
        hi = np.where(neg, mid, hi)
        lo = np.where(neg, lo, mid)
    v_lo, v_hi = grid[lo], grid[hi]
    for _ in range(80):
        v_mid = 0.5 * (v_lo + v_hi)
        neg = _balance(v_mid, alpha, beta) < 0.0
        v_hi = np.where(neg, v_mid, v_hi)
        v_lo = np.where(neg, v_lo, v_mid)
    oracle = 0.5 * (v_lo + v_hi)

    assert solve_time < 10.0, f"solver took {solve_time:.2f} s for 10k pairs"
    rel = np.abs(v0 - oracle) / oracle
    assert float(rel.max()) <= 1e-6, (
        f"worst oracle mismatch {rel.max():.3e} relative")

    # backward error: evaluating the balance costs about six roundings
    # plus pow's ulp, and v0 itself is rounded, so a root as accurate as
    # float64 allows leaves |f(v0)| within a small multiple of eps times
    # the sum of the terms' magnitudes
    eps = np.finfo(float).eps
    residual = np.abs(_balance(v0, alpha, beta))
    scale = 1.0 + (0.5 * beta + 2.0) * v0 * v0 + alpha * beta * v0**2.4
    rel_residual = residual / scale
    within = residual <= 16.0 * eps * scale
    assert within.all(), (
        f"residual exceeds 16 eps x scale on {1.0 - within.mean():.1%} of "
        f"the 10k pairs: the relative residual |f(v0)|/scale peaks at "
        f"{rel_residual.max():.3g} ({rel_residual.max() / eps:.3g} eps) "
        f"and the absolute residual |f(v0)| at {residual.max():.4g}; the "
        f"roots match the dense-scan oracle to {rel.max():.3g} relative")


def test_02_model_constants_utility_bounds_and_cap_kink():
    consts = RadarConstants()
    shape = UtilityShape()
    assert consts.k_rad == 2.662e21
    assert consts.p_fa == 1e-4
    assert consts.n_h_total == 48

    # exact utility boundaries: full reward at 1 mrad, none at 3 mrad
    assert utility(1.0e-3, shape) == 1.0
    assert utility(0.2e-3, shape) == 1.0
    assert utility(3.0e-3, shape) == 0.0
    assert utility(4.5e-3, shape) == 0.0

    # the 40 dB cap bends the error-vs-range curve into a V: approaching
    # the cap-crossing range from below, the error falls; beyond it, it
    # rises much faster than the capped-side trend extrapolates
    cp = ControlPoint(t_d=0.02, f_t=2.0, n_h=48)

    def q_at(range_m):
        ev = evaluate(cp, Environment(range=range_m, bearing=0.0,
                                      rcs=10.0, maneuver_std=0.1,
                                      corr_time=4.0), consts, shape)
        assert ev.feasible
        return ev.quality, ev.snr_linear

    r_star = (consts.k_rad * 48**3 * 0.02 * 10.0 / consts.snr_cap) ** 0.25
    _, snr_inside = q_at(0.999 * r_star)
    _, snr_outside = q_at(1.001 * r_star)
    assert snr_inside == consts.snr_cap
    assert snr_outside < consts.snr_cap

    h = 1e-3 * r_star
    q_kink, _ = q_at(r_star)
    q_below, _ = q_at(r_star - h)
    slope_capped = (q_kink - q_below) / h
    assert slope_capped < 0.0
    q_far, _ = q_at(3.0 * r_star)
    jump = q_far - q_kink
    assert jump > 0.0
    ratio = jump / (abs(slope_capped) * 2.0 * r_star)
    assert ratio > 10.0, (
        f"error change past the cap is only {ratio:.2f}x the "
        f"capped-side extrapolation")


T_D_SET = tuple(round(4e-3 + 0.6e-3 * k, 10) for k in range(101))
F_T_SET = tuple(round(0.1 + 0.1 * k, 10) for k in range(60))
N_H_SET = tuple(range(6, 49, 6))


def _feasible_setpoints(env, weight, grid, consts, shape):
    """Every feasible point of the grid, none pruned, from evaluate_grid."""
    ge = evaluate_grid(np.asarray(grid.t_d_values),
                       np.asarray(grid.f_t_values),
                       np.asarray(grid.n_h_values, dtype=float),
                       env, consts, shape)
    flat = np.flatnonzero(ge.feasible)
    u = ge.utility.ravel()[flat]
    return TaskSetPoints(grid=grid, flat_index=flat,
                         resource=ge.resource.ravel()[flat],
                         weighted_utility=weight * u,
                         quality=ge.quality.ravel()[flat], utility=u)


def test_03_greedy_stays_within_one_hull_segment_of_optimal():
    consts = RadarConstants()
    shape = UtilityShape()
    n_instances = 200
    near_optimal = 0
    worst_ratio = math.inf
    start = time.perf_counter()
    for seed in range(n_instances):
        rng = np.random.default_rng(seed)
        n_tasks = int(rng.integers(1, 5))
        grid = ControlGrid(
            t_d_values=tuple(sorted(rng.choice(T_D_SET, 2, replace=False))),
            f_t_values=tuple(sorted(rng.choice(F_T_SET, 5, replace=False))),
            n_h_values=tuple(int(v) for v in
                             sorted(rng.choice(N_H_SET, 2, replace=False))))
        setpoint_lists = []
        majorants = []
        max_total = 0.0
        for _ in range(n_tasks):
            if rng.uniform() < 0.5:
                man, corr = rng.uniform(20.0, 35.0), rng.uniform(10.0, 20.0)
            else:
                man, corr = rng.uniform(0.05, 5.0), rng.uniform(1.0, 4.0)
            env = Environment(range=rng.uniform(10e3, 70e3),
                              bearing=rng.uniform(-1.0, 1.0),
                              rcs=10.0 ** rng.uniform(-1.0, 1.0),
                              maneuver_std=man, corr_time=corr)
            weight = rng.uniform(0.2, 0.8)
            points = enumerate_setpoints(env, weight, grid, consts, shape)
            assert len(points) <= 20
            majorants.append(build_majorant(points))
            # the budget and the exact optimum come from every feasible
            # point, so neither depends on what enumerate_setpoints prunes
            feasible = _feasible_setpoints(env, weight, grid, consts, shape)
            setpoint_lists.append(feasible)
            if len(feasible):
                max_total += float(feasible.resource.max())
        r_tot = rng.uniform(0.01, max(max_total, 0.02))

        greedy = allocate(majorants, r_tot).total_utility
        optimal = brute_force_allocate(setpoint_lists, r_tot).total_utility
        max_segment = max((seg[4] for seg in _sorted_segments(majorants)),
                          default=0.0)
        assert greedy <= optimal + 1e-12, f"instance {seed}"
        assert greedy >= optimal - max_segment - 1e-12, (
            f"instance {seed}: greedy {greedy} vs optimal {optimal} "
            f"with largest hull segment {max_segment}")
        if greedy >= 0.9 * optimal - 1e-12:
            near_optimal += 1
        if optimal > 0.0:
            worst_ratio = min(worst_ratio, greedy / optimal)
    elapsed = time.perf_counter() - start
    assert near_optimal >= 0.95 * n_instances, (
        f"only {near_optimal}/{n_instances} instances reach 90% of "
        f"optimal (worst ratio {worst_ratio:.4f})")
    assert elapsed < 60.0, f"200 instances took {elapsed:.1f} s"


def test_04_split_aperture_dominates_full_at_every_budget(
        campaign_70km, campaign_250km):
    for result, _ in (campaign_70km, campaign_250km):
        agg = result.aggregate
        for b in BUDGET_GRID:
            split_active = agg.active_tracks[("split", b)].mean
            full_active = agg.active_tracks[("full", b)].mean
            assert split_active >= full_active, (
                f"budget {b}: {split_active} < {full_active} active")
            split_util = agg.total_utility[("split", b)].mean
            full_util = agg.total_utility[("full", b)].mean
            assert split_util >= full_util, (
                f"budget {b}: {split_util} < {full_util} utility")
    wall = campaign_70km[1] + campaign_250km[1]
    assert wall < 600.0, f"campaigns took {wall:.0f} s"


def test_05_error_sits_in_band_once_utility_saturates(campaign_70km):
    agg = campaign_70km[0].aggregate
    for name in ("split", "full"):
        saturated = [b for b in BUDGET_GRID
                     if agg.total_utility[(name, b)].mean >= 0.99]
        assert saturated, f"{name} grid never reaches 0.99 mean utility"
        error = agg.mean_angular_error_mrad[(name, saturated[0])].mean
        assert 0.5 <= error <= 1.05, (
            f"{name} grid: {error:.4f} mrad at budget {saturated[0]}")


def test_06_element_histogram_peaks_between_the_extremes(campaign_70km):
    agg = campaign_70km[0].aggregate
    for b in BUDGET_GRID[5:8]:  # budgets 0.30, 0.35, 0.40
        hist = agg.element_histogram[("split", b)]
        bins = [n for n, _ in hist]
        counts = [c for _, c in hist]
        assert bins == list(N_H_SET)
        mode = counts.index(max(counts))
        assert bins[mode] not in (bins[0], bins[-1]), (
            f"budget {b}: histogram mode at the {bins[mode]}-element "
            f"extreme")
        # monotone decay toward the small-aperture edge
        for i in range(mode):
            assert counts[i] <= counts[i + 1] + 1e-9, (
                f"budget {b}: counts rise toward {bins[i]} elements")
        # monotone decay through the interior toward the large edge; the
        # terminal full-aperture bin may collect a little extra mass but
        # must stay well below the mode
        for i in range(mode, len(counts) - 2):
            assert counts[i + 1] <= counts[i] + 1e-9, (
                f"budget {b}: counts rise toward {bins[i + 1]} elements")
        assert counts[-1] < max(counts)


def test_07_sweep_csvs_are_identical_across_thread_counts(tmp_path):
    document = {
        "grids": {
            "split": {"t_d_ms": [4.0, 16.0, 64.0],
                      "f_t_hz": [0.5, 2.0, 5.0],
                      "n_h": [6, 12, 24, 48]},
            "full": {"t_d_ms": [4.0, 16.0, 64.0],
                     "f_t_hz": [0.5, 2.0, 5.0],
                     "n_h": [48]},
        },
        "scene": {"n_targets": 25, "seed": 11},
        "sweep": {"budgets": [0.2, 0.5, 0.9],
                  "grids": ["split", "full"],
                  "n_mc": 3,
                  "histogram_budgets": [0.5]},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(document), encoding="utf-8")
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert cli.main(["sweep", "--config", str(config_path),
                     "--out", str(serial), "--threads", "1"]) == 0
    assert cli.main(["sweep", "--config", str(config_path),
                     "--out", str(threaded), "--threads", "4"]) == 0
    names = ["active_tracks.csv", "total_utility.csv",
             "mean_angular_error_mrad.csv", "element_histogram.csv",
             "runs/run_0.csv", "runs/run_1.csv", "runs/run_2.csv"]
    for name in names:
        assert (serial / name).read_bytes() == \
            (threaded / name).read_bytes(), f"{name} differs"
