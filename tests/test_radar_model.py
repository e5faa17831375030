"""Unit tests for the radar quality and resource model.

Reference values are frozen from independent computation: plain
arithmetic where the quantity is a one-line formula, and a dense-scan
bracketing root for the sharpness balance.  Property tests cover the
invariants that hold across the whole parameter domain.
"""

import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sapa_rrm import radar_model
from sapa_rrm.config import load_config
from sapa_rrm.radar_model import (
    ControlPoint,
    Environment,
    RadarConstants,
    UtilityShape,
    _env_terms,
    _lane_chain,
    _row_terms,
    db_to_linear,
    evaluate,
    evaluate_candidates,
    evaluate_grid,
    linear_to_db,
    track_sharpness,
    track_sharpness_batch,
    utility,
)
from sapa_rrm.scenario import generate_scene

CONSTS = RadarConstants()
SHAPE = UtilityShape()
# floor and cap far out of reach, so snr_linear reports the raw SNR
OPEN = RadarConstants(snr_floor_db=-80.0, snr_cap_db=80.0)

# Root of 1 + 52 v^2 - 100 v^2.4 (alpha=1, beta=100), frozen from the
# dense-scan oracle below.
REF_V0 = 0.3087205448689003

# Full chain at t_d=20 ms, f_t=1 Hz, n_h=48 against a 10 km, 10 m^2,
# slow (0.1 m/s^2, 4 s) boresight target; SNR caps at 40 dB there.
T2_POINT = ControlPoint(t_d=20e-3, f_t=1.0, n_h=48)
T2_ENV = Environment(range=10e3, bearing=0.0, rcs=10.0,
                     maneuver_std=0.1, corr_time=4.0)
REF_T2_Q = 1.7222401180870317e-4   # [rad]
REF_T2_G = 0.02001842747681924

# Same chain at 64 ms, 1 Hz, 48 elements against a 250 km, 0.1 m^2,
# agile (35 m/s^2, 10 s) target at 60 deg; SNR sits between the clamps.
T1_POINT = ControlPoint(t_d=64e-3, f_t=1.0, n_h=48)
T1_ENV = Environment(range=250e3, bearing=math.radians(60.0), rcs=0.1,
                     maneuver_std=35.0, corr_time=10.0)
REF_T1_Q = 2.6192716352936096e-3   # [rad]

# One element, 1 s, 1 m, 1 m^2 on boresight: the raw SNR is k_rad itself.
UNIT_POINT = ControlPoint(t_d=1.0, f_t=1.0, n_h=1)
UNIT_ENV = Environment(range=1.0, bearing=0.0, rcs=1.0,
                       maneuver_std=1.0, corr_time=1.0)


def balance_residual(v, alpha, beta):
    return 1.0 + (0.5 * beta + 2.0) * v * v - alpha * beta * v**2.4


def dense_scan_root(alpha, beta, n_points=1_000_000):
    """Independent root oracle: log-grid bracket plus plain bisection.

    The residual starts at 1 for v -> 0 and has a single descent
    through zero, so the first negative sample brackets the root.
    """
    grid = np.logspace(-9.0, 10.0, n_points)
    f = balance_residual(grid, alpha, beta)
    negative = np.nonzero(f < 0.0)[0]
    assert negative.size > 0, "root above the scan grid"
    k = int(negative[0])
    assert k > 0, "root below the scan grid"
    lo, hi = float(grid[k - 1]), float(grid[k])
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if balance_residual(mid, alpha, beta) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chain(cp, env, snr, consts=CONSTS, solve=track_sharpness):
    """The shared formula chain on scalars, at a given clamped SNR.

    Returns its outputs and the (alpha, beta) it handed the root solver.
    """
    calls = []

    def recording(alpha, beta):
        calls.append((alpha, beta))
        return solve(alpha, beta)

    row = _row_terms(snr, cp.n_h, _env_terms(env), consts, math.sqrt)
    q, g, v0, p_d, n_l = _lane_chain(row, cp.t_d, cp.f_t, cp.n_h, consts,
                                     recording, math.sqrt)
    (alpha, beta), = calls
    return SimpleNamespace(alpha=alpha, beta=beta, q=q, g=g, v0=v0,
                           p_d=p_d, n_l=n_l)


# ---------------------------------------------------------------------------
# constants and the model's steps


def test_default_constants():
    c = RadarConstants()
    assert c.k_rad == 2.662e21
    assert c.n_h_total == 48
    assert c.p_fa == 1e-4
    assert c.alpha_bw == 0.886
    # floor and cap are derived from their dB settings, so they sit a
    # rounding error away from the round linear values
    assert c.snr_floor == pytest.approx(10.0, rel=1e-14)
    assert c.snr_cap == pytest.approx(1e4, rel=1e-14)


def test_db_helpers_round_trip():
    assert db_to_linear(30.0) == pytest.approx(1000.0, rel=1e-15)
    assert linear_to_db(1000.0) == pytest.approx(30.0, rel=1e-15)
    for db in (-7.0, 0.0, 13.0):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)


def test_cross_talk_loss_interpolates_element_share():
    # at SNR 1 the chain's SNR factor is beta = xi - ln(p_fa)
    for n_h, xi in ((48, 1.0), (24, 0.9), (6, 0.825)):
        cp = ControlPoint(t_d=20e-3, f_t=1.0, n_h=n_h)
        assert chain(cp, T2_ENV, 1.0).beta == pytest.approx(
            xi - math.log(1e-4), rel=1e-15)
    too_many = ControlPoint(t_d=20e-3, f_t=1.0, n_h=49)
    with pytest.raises(ValueError):
        evaluate(too_many, T2_ENV, CONSTS, SHAPE)
    # the element count is checked before the SNR floor
    with pytest.raises(ValueError):
        evaluate(too_many, T1_ENV, RadarConstants(k_rad=1.0), SHAPE)


def test_snr0_reference_value():
    cp = ControlPoint(t_d=64e-3, f_t=1.0, n_h=48)
    env = Environment(range=70e3, bearing=0.0, rcs=1.0,
                      maneuver_std=1.0, corr_time=1.0)
    snr = evaluate(cp, env, OPEN, SHAPE).snr_linear
    expected = 2.662e21 * 48**3 * 64e-3 * 1.0 / 70e3**4
    assert snr == pytest.approx(expected, rel=1e-14)
    assert snr == pytest.approx(784728.7736776344, rel=1e-12)


def test_snr0_scaling_laws():
    def snr(cp, env):
        return evaluate(cp, env, OPEN, SHAPE).snr_linear

    cp = ControlPoint(t_d=10e-3, f_t=1.0, n_h=12)
    env = Environment(range=50e3, bearing=0.0, rcs=2.0,
                      maneuver_std=1.0, corr_time=1.0)
    base = snr(cp, env)
    double_t = ControlPoint(t_d=20e-3, f_t=1.0, n_h=12)
    assert snr(double_t, env) == pytest.approx(2 * base, rel=1e-12)
    double_n = ControlPoint(t_d=10e-3, f_t=1.0, n_h=24)
    assert snr(double_n, env) == pytest.approx(8 * base, rel=1e-12)
    double_r = Environment(range=100e3, bearing=0.0, rcs=2.0,
                           maneuver_std=1.0, corr_time=1.0)
    assert snr(cp, double_r) == pytest.approx(base / 16, rel=1e-12)
    slanted = Environment(range=50e3, bearing=math.radians(60.0), rcs=2.0,
                          maneuver_std=1.0, corr_time=1.0)
    assert snr(cp, slanted) == pytest.approx(base / 4, rel=1e-12)


def test_clamp_passes_low_snr_through_as_infeasible():
    def at(raw):  # raw SNR == k_rad at the unit point
        return evaluate(UNIT_POINT, UNIT_ENV, RadarConstants(k_rad=raw),
                        SHAPE)

    assert not at(3.0).feasible
    # the floor itself detects; only strictly below is infeasible
    assert at(CONSTS.snr_floor).snr_linear == CONSTS.snr_floor
    assert not at(math.nextafter(CONSTS.snr_floor, 0.0)).feasible
    assert at(500.0).snr_linear == 500.0
    assert at(3e6).snr_linear == CONSTS.snr_cap


def test_beamwidth_scan_broadening():
    def beamwidth_of(n_h, bearing_deg):  # q = beamwidth * v0
        env = Environment(range=10e3, bearing=math.radians(bearing_deg),
                          rcs=1.0, maneuver_std=1.0, corr_time=1.0)
        ev = evaluate(ControlPoint(t_d=20e-3, f_t=1.0, n_h=n_h), env,
                      CONSTS, SHAPE)
        return ev.quality / ev.track_sharpness

    assert beamwidth_of(48, 0.0) == pytest.approx(0.886 / 48, rel=1e-15)
    assert beamwidth_of(48, 60.0) == pytest.approx(2 * 0.886 / 48,
                                                   rel=1e-12)
    assert beamwidth_of(6, 0.0) == pytest.approx(0.886 / 6, rel=1e-15)


def test_alpha_factor_reference():
    # one element with alpha_bw = 18.46e-3 gives that beamwidth exactly
    consts = RadarConstants(alpha_bw=18.46e-3)
    env = Environment(range=10e3, bearing=0.0, rcs=10.0,
                      maneuver_std=5.0, corr_time=4.0)
    alpha = chain(ControlPoint(t_d=20e-3, f_t=1.0, n_h=1), env, 1e4,
                  consts).alpha
    expected = 0.4 * 1.0 * (10e3 * 18.46e-3 * math.sqrt(4.0) / 5.0) ** 0.4
    assert alpha == pytest.approx(expected, rel=1e-14)
    assert alpha == pytest.approx(2.23551025540612, rel=1e-12)
    # linear in f_t
    fast = ControlPoint(t_d=20e-3, f_t=4.0, n_h=1)
    assert chain(fast, env, 1e4, consts).alpha == pytest.approx(
        4 * alpha, rel=1e-12)


def test_beta_factor_reference():
    beta = chain(T2_POINT, T2_ENV, 1e4).beta  # 48 elements: xi = 1
    assert beta == pytest.approx(1e4 - math.log(1e-4), rel=1e-15)
    assert beta == pytest.approx(10009.210340371976, rel=1e-14)
    # positive even at the detection floor with the worst cross talk
    one = ControlPoint(t_d=20e-3, f_t=1.0, n_h=1)
    assert chain(one, T2_ENV, CONSTS.snr_floor).beta > 0.0


def test_detection_probability_swerling():
    p = chain(T2_POINT, T2_ENV, 1e4).p_d
    assert p == pytest.approx(1e-4 ** (1.0 / 10001.0), rel=1e-15)
    one = ControlPoint(t_d=20e-3, f_t=1.0, n_h=1)
    assert 0.0 < chain(one, T2_ENV, 10.0).p_d < p < 1.0
    # detection improves with SNR
    snrs = [10.0, 30.0, 100.0, 1e3, 1e4]
    p_ds = [chain(T2_POINT, T2_ENV, s).p_d for s in snrs]
    assert p_ds == sorted(p_ds)


def test_gamma_and_expected_looks():
    gamma = 1.0 + 14.0 * math.sqrt(-math.log(1e-4) / 1e4)
    # a solver stub fixes v0, so n_l = sqrt(1 + (gamma v0^2)^2) / p_d
    # shows the chain's gamma at SNR 1e4 with xi = 1
    unit = chain(T2_POINT, T2_ENV, 1e4, solve=lambda a, b: 1.0)
    assert unit.n_l * unit.p_d == pytest.approx(math.sqrt(1.0 + gamma**2),
                                                rel=1e-14)
    # at least one look per 1/p_d regardless of sharpness
    for v0 in (0.0, 0.1, 0.3, 2.0):
        out = chain(T2_POINT, T2_ENV, 1e4, solve=lambda a, b: v0)
        assert out.n_l >= 1.0 / out.p_d - 1e-12


def test_utility_boundaries_exact():
    assert utility(SHAPE.q_max, SHAPE) == 1.0
    assert utility(SHAPE.q_min, SHAPE) == 0.0
    assert utility(2e-3, SHAPE) == pytest.approx(0.5, rel=1e-12)
    assert utility(1e-5, SHAPE) == 1.0
    assert utility(0.5, SHAPE) == 0.0


# ---------------------------------------------------------------------------
# sharpness root solver


def test_track_sharpness_reference_root():
    v0 = track_sharpness(1.0, 100.0)
    assert v0 == pytest.approx(REF_V0, abs=1e-9)
    assert 0.3 < v0 < 0.31
    # residual falls through zero at the root
    assert balance_residual(v0 - 1e-6, 1.0, 100.0) > 0.0
    assert balance_residual(v0 + 1e-6, 1.0, 100.0) < 0.0


@pytest.mark.parametrize("alpha,beta", [
    (1.0, 100.0),
    (0.5, 1e3),
    (20.0, 10.0),
    (1e-3, 1.0),      # largest root in the supported domain, ~3e8
    (1e3, 1e5),       # smallest root, ~1e-6
])
def test_track_sharpness_matches_dense_scan(alpha, beta):
    assert track_sharpness(alpha, beta) == pytest.approx(
        dense_scan_root(alpha, beta), rel=1e-6)


def test_track_sharpness_relative_residual_is_tiny():
    # the bisection stops once the bracket shrinks to ~1e-10 in v; at
    # the smallest roots of this grid that allows relative residuals
    # up to ~1e-7 (measured worst 6.2e-8)
    alphas = np.logspace(-3, 3, 13)
    betas = np.logspace(0, 5, 11)
    for a in alphas:
        for b in betas:
            v0 = track_sharpness(float(a), float(b))
            scale = 1.0 + (0.5 * b + 2.0) * v0 * v0 + a * b * v0**2.4
            assert abs(balance_residual(v0, a, b)) / scale < 1e-6


def test_track_sharpness_absolute_residual_below_1e8():
    # at beta = 1e5 the balance terms span ~3e3 (alpha = 1) to ~1e18
    # (alpha = 1e-3), so the absolute residual says little; check the
    # docstring's promise instead: the root to 1e-10 absolute in v, or
    # to the float64 spacing where that is coarser
    for a in np.logspace(-3, 0, 7):
        v0 = track_sharpness(float(a), 1e5)
        oracle = dense_scan_root(float(a), 1e5)
        assert abs(v0 - oracle) <= max(1e-10, np.spacing(oracle)), (
            f"alpha={a:.4g}: root {v0!r} vs oracle {oracle!r}")


def test_track_sharpness_rejects_bad_factors():
    with pytest.raises(ValueError):
        track_sharpness(0.0, 100.0)
    with pytest.raises(ValueError):
        track_sharpness(1.0, -1.0)


@given(
    log_a1=st.floats(min_value=-3.0, max_value=1.5),
    log_a2=st.floats(min_value=-3.0, max_value=1.5),
    log_b=st.floats(min_value=0.0, max_value=4.0),
)
@settings(deadline=None, max_examples=80)
def test_track_sharpness_decreases_with_alpha(log_a1, log_a2, log_b):
    a_lo, a_hi = sorted((10.0**log_a1, 10.0**log_a2))
    assume(a_hi > a_lo * (1.0 + 1e-3))
    beta = 10.0**log_b
    assert track_sharpness(a_lo, beta) > track_sharpness(a_hi, beta)


def test_batch_solver_matches_bisection():
    rng = np.random.default_rng(7)
    alphas = 10.0 ** rng.uniform(-3, 3, size=300)
    betas = 10.0 ** rng.uniform(0, 5, size=300)
    batch = track_sharpness_batch(alphas, betas)
    scalar = np.array([track_sharpness(a, b)
                       for a, b in zip(alphas, betas)])
    np.testing.assert_allclose(batch, scalar, rtol=5e-8)


def test_batch_solver_reports_non_convergence():
    with pytest.raises(ValueError, match="did not converge"):
        track_sharpness_batch(np.array([1.0, np.nan]), np.array([100.0, 1e3]))


@pytest.mark.parametrize("alpha, beta", [(1e-300, 1e3), (1e-320, 1e-10)],
                         ids=["root-near-1e748", "alpha-beta-underflows"])
def test_batch_solver_reports_a_balance_beyond_float64(alpha, beta):
    # finite, positive factors whose root float64 cannot hold: an error
    # that says so, and no RuntimeWarning (warnings are errors here)
    with pytest.raises(ValueError, match="overflows float64"):
        track_sharpness_batch(np.array([1.0, alpha]), np.array([100.0, beta]))


# log10 of (alpha, beta) over the box the solver is specified on, so that
# lanes in one batch stop after different numbers of iterations
lane_factors = st.lists(
    st.tuples(st.floats(min_value=-3.0, max_value=3.0),
              st.floats(min_value=0.0, max_value=5.0)),
    min_size=1, max_size=40)


@given(lane_factors, st.data())
@settings(deadline=None, max_examples=100)
def test_batch_roots_depend_only_on_their_own_lane(pairs, data):
    alpha, beta = 10.0 ** np.array(pairs).T
    roots = track_sharpness_batch(alpha, beta)
    n = roots.size
    subsets = [data.draw(st.permutations(range(n))),
               data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  max_size=2 * n))]  # repeats lanes too
    for idx in subsets:
        idx = np.array(idx)
        assert track_sharpness_batch(alpha[idx], beta[idx]).tobytes() == \
            roots[idx].tobytes()
    for i in range(n):  # one lane alone, as 0-d inputs
        assert track_sharpness_batch(alpha[i], beta[i]) == roots[i]
    if n % 2 == 0:
        grid = track_sharpness_batch(alpha.reshape(2, -1),
                                     beta.reshape(2, -1))
        assert grid.tobytes() == roots.tobytes()


def test_one_lane_gives_the_same_root_as_0d_input_and_in_a_batch():
    # numpy's scalar ** calls libm pow, whose c2**(-1/6) here differs by
    # one ulp from the array power loop, and so did the root
    alpha, beta = 120.80620928155726, 1.7582924019621293
    root = track_sharpness_batch(np.array([alpha]), np.array([beta]))[0]
    assert track_sharpness_batch(alpha, beta) == root
    assert track_sharpness_batch(np.float64(alpha), np.float64(beta)) == root
    pair = track_sharpness_batch(np.array([alpha, 1.0]),
                                 np.array([beta, 100.0]))
    assert pair[0] == root


def batch_coupled_roots(alpha, beta):
    """Oracle: the former solve, which stepped every lane until the whole
    batch met the stop test."""
    c1 = 0.5 * beta + 2.0
    c2 = alpha * beta
    t = c1 / c2 + c2 ** (-1.0 / 6.0)
    for _ in range(24):
        t4 = t * t * t * t
        p = 1.0 + t4 * t * (c1 - c2 * t)
        step = p / (t4 * (5.0 * c1 - 6.0 * c2 * t))
        t = t - step
        if np.all(np.abs(step) <= 1e-15 * t):
            return t * t * np.sqrt(t)
    raise AssertionError("the coupled loop did not converge")


def test_per_lane_roots_stay_within_8_ulps_of_the_batch_coupled_loop(
        monkeypatch):
    # the lanes evaluate_grid solves for the 20 tasks of each shipped
    # scene behind tests/test_qram.py's hull digest, one batch per task
    # and grid, as the coupled loop saw them
    batches = []

    def recording(alpha, beta):
        batches.append(np.broadcast_arrays(alpha, beta))
        return track_sharpness_batch(alpha, beta)

    monkeypatch.setattr(radar_model, "track_sharpness_batch", recording)
    root = Path(__file__).resolve().parents[1]
    for name in ("campaign_70km", "campaign_250km"):
        cfg = load_config(root / "configs" / f"{name}.json")
        for task in generate_scene(cfg.scene).tasks[:20]:
            for grid_name in ("split", "full"):
                grid = cfg.grid(grid_name)
                evaluate_grid(np.asarray(grid.t_d_values),
                              np.asarray(grid.f_t_values),
                              np.asarray(grid.n_h_values, dtype=float),
                              task.environment, cfg.radar, cfg.utility)
    monkeypatch.undo()
    assert len(batches) == 80
    moved = 0
    for alpha, beta in batches:
        new = track_sharpness_batch(alpha, beta).view(np.int64)
        old = batch_coupled_roots(alpha, beta).view(np.int64)
        assert np.abs(new - old).max() <= 8  # positive floats: ulps apart
        moved += np.count_nonzero(new != old)
    assert moved > 0  # the oracle does differ from today's stop


def test_solvers_are_looked_up_at_call_time(monkeypatch):
    # a wrapper installed on a module attribute sees every solve
    seen = []

    def spy(name):
        solver = getattr(radar_model, name)

        def wrapper(alpha, beta):
            seen.append(name)
            return solver(alpha, beta)
        return wrapper

    for name in ("track_sharpness", "track_sharpness_batch"):
        monkeypatch.setattr(radar_model, name, spy(name))
    evaluate(T2_POINT, T2_ENV, CONSTS, SHAPE)
    evaluate_grid([20e-3], [1.0], [48.0], T2_ENV, CONSTS, SHAPE)
    assert seen == ["track_sharpness", "track_sharpness_batch"]


def test_batch_solver_broadcasts():
    alphas = np.array([[0.5, 1.0, 2.0]])    # (1, 3)
    betas = np.array([[50.0], [500.0]])     # (2, 1)
    out = track_sharpness_batch(alphas, betas)
    assert out.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert out[i, j] == pytest.approx(
                track_sharpness(alphas[0, j], betas[i, 0]), rel=1e-7)


# ---------------------------------------------------------------------------
# full evaluation chain


def chain_oracle(cp, env, consts=CONSTS, shape=SHAPE):
    """Re-derive the evaluation chain with independent arithmetic."""
    cos_b = math.cos(env.bearing)
    raw = (consts.k_rad * cp.n_h**3 * cp.t_d * cos_b * cos_b * env.rcs
           / env.range**4)
    if raw < 10.0:
        return None
    snr = min(raw, 1e4)
    xi = 0.8 + 0.2 * cp.n_h / 48.0
    theta = 0.886 / cp.n_h / cos_b
    alpha = 0.4 * cp.f_t * (env.range * theta * math.sqrt(env.corr_time)
                            / env.maneuver_std) ** 0.4
    beta = xi * snr - math.log(1e-4)
    v0 = dense_scan_root(alpha, beta)
    q = theta * v0
    p_d = (1e-4) ** (1.0 / (1.0 + xi * snr))
    gamma = 1.0 + 14.0 * math.sqrt(-math.log(1e-4) / (xi * snr))
    n_l = math.sqrt(1.0 + (gamma * v0 * v0) ** 2) / p_d
    g = n_l * cp.t_d * cp.f_t * cp.n_h / 48.0
    u = min(1.0, max(0.0, (q - shape.q_min) / (shape.q_max - shape.q_min)))
    return q, g, u, snr, p_d, n_l


@pytest.mark.parametrize("cp,env,ref_q", [
    (T2_POINT, T2_ENV, REF_T2_Q),
    (T1_POINT, T1_ENV, REF_T1_Q),
    (ControlPoint(t_d=20e-3, f_t=2.0, n_h=24), T2_ENV, None),
])
def test_evaluate_matches_chain_oracle(cp, env, ref_q):
    ev = evaluate(cp, env, CONSTS, SHAPE)
    q, g, u, snr, p_d, n_l = chain_oracle(cp, env)
    assert ev.feasible
    assert ev.quality == pytest.approx(q, rel=1e-6)
    assert ev.resource == pytest.approx(g, rel=1e-6)
    assert ev.utility == pytest.approx(u, abs=1e-6)
    assert ev.snr_linear == pytest.approx(snr, rel=1e-12)
    assert ev.p_d == pytest.approx(p_d, rel=1e-12)
    assert ev.n_looks == pytest.approx(n_l, rel=1e-6)
    if ref_q is not None:
        assert ev.quality == pytest.approx(ref_q, rel=1e-12)


def test_evaluate_reference_resource():
    ev = evaluate(T2_POINT, T2_ENV, CONSTS, SHAPE)
    assert ev.resource == pytest.approx(REF_T2_G, rel=1e-12)
    assert ev.utility == 1.0  # 0.17 mrad is well inside the full-credit zone


def test_evaluate_infeasible_returns_none_fields():
    cp = ControlPoint(t_d=4e-3, f_t=1.0, n_h=6)
    env = Environment(range=500e3, bearing=0.0, rcs=0.01,
                      maneuver_std=1.0, corr_time=1.0)
    ev = evaluate(cp, env, CONSTS, SHAPE)
    assert not ev.feasible
    for field in (ev.quality, ev.resource, ev.utility, ev.snr_linear,
                  ev.track_sharpness, ev.p_d, ev.n_looks):
        assert field is None


def grid_env(range_km, bearing_deg, rcs_dbsm, maneuver_std, corr_time):
    return Environment(range=range_km * 1e3,
                       bearing=math.radians(bearing_deg),
                       rcs=db_to_linear(rcs_dbsm),
                       maneuver_std=maneuver_std, corr_time=corr_time)


@pytest.mark.parametrize("env,all_feasible", [
    pytest.param(Environment(range=180e3, bearing=0.3, rcs=0.3,
                             maneuver_std=5.0, corr_time=4.0), False,
                 id="180km-0.3rad-0.3m2"),
    pytest.param(grid_env(10, 0, 10, 5.0, 4.0), True,
                 id="10km-0deg-+10dBsm"),
    pytest.param(grid_env(10, -60, -10, 5.0, 4.0), True,
                 id="10km--60deg--10dBsm"),
    pytest.param(grid_env(250, 0, 10, 35.0, 10.0), False,
                 id="250km-0deg-+10dBsm"),
    pytest.param(grid_env(250, -60, -10, 35.0, 10.0), False,
                 id="250km--60deg--10dBsm"),
    pytest.param(grid_env(250, 60, 10, 35.0, 10.0), False,
                 id="250km-+60deg-+10dBsm"),
])
def test_evaluate_grid_matches_scalar_pointwise(env, all_feasible):
    t_d = np.array([4e-3, 20e-3, 64e-3])
    f_t = np.array([0.5, 1.0, 2.0, 6.0])
    n_h = np.arange(6, 49, 6, dtype=float)
    ge = evaluate_grid(t_d, f_t, n_h, env, CONSTS, SHAPE)
    for values in (ge.feasible, ge.quality, ge.resource, ge.utility,
                   ge.snr_linear):
        assert values.shape == (3, 4, 8)
    n_feasible = 0
    for i, td in enumerate(t_d):
        for j, ft in enumerate(f_t):
            for k, nh in enumerate(n_h):
                ev = evaluate(ControlPoint(t_d=float(td), f_t=float(ft),
                                           n_h=int(nh)), env, CONSTS, SHAPE)
                assert bool(ge.feasible[i, j, k]) == ev.feasible
                if ev.feasible:
                    n_feasible += 1
                    assert ge.quality[i, j, k] == pytest.approx(
                        ev.quality, rel=1e-7)
                    assert ge.resource[i, j, k] == pytest.approx(
                        ev.resource, rel=1e-7)
                    assert ge.utility[i, j, k] == pytest.approx(
                        ev.utility, abs=1e-7)
                    assert ge.snr_linear[i, j, k] == pytest.approx(
                        ev.snr_linear, rel=1e-12)
                else:
                    assert np.isnan(ge.quality[i, j, k])
                    assert np.isnan(ge.resource[i, j, k])
                    assert np.isnan(ge.utility[i, j, k])
                    assert np.isnan(ge.snr_linear[i, j, k])
    # each environment hits the branch it is chosen for: every point
    # feasible, or both branches
    if all_feasible:
        assert n_feasible == t_d.size * f_t.size * n_h.size
    else:
        assert 0 < n_feasible < t_d.size * f_t.size * n_h.size


def test_evaluate_grid_rejects_bad_element_counts():
    env = Environment(range=10e3, bearing=0.0, rcs=1.0,
                      maneuver_std=1.0, corr_time=1.0)
    with pytest.raises(ValueError):
        evaluate_grid(np.array([20e-3]), np.array([1.0]), np.array([0.0]),
                      env, CONSTS, SHAPE)
    with pytest.raises(ValueError):
        evaluate_grid(np.array([20e-3]), np.array([1.0]), np.array([49.0]),
                      env, CONSTS, SHAPE)


def test_raw_snr_past_float64_is_capped_on_every_path():
    # the raw SNR at t_d = 1e297 s overflows to inf; the pytest
    # configuration turns an overflow warning into an error
    env = Environment(range=50e3, bearing=0.0, rcs=1.0,
                      maneuver_std=10.0, corr_time=4.0)
    t_d, f_t, n_h = np.array([1e297]), np.array([1.0]), np.array([48])
    scalar = evaluate(ControlPoint(t_d=1e297, f_t=1.0, n_h=48), env,
                      CONSTS, SHAPE)
    grid = evaluate_grid(t_d, f_t, n_h, env, CONSTS, SHAPE)
    [(flat, q, g, u)] = evaluate_candidates(t_d, f_t, n_h, [env], CONSTS,
                                            SHAPE)
    assert scalar.feasible and grid.feasible[0, 0, 0]
    assert scalar.snr_linear == grid.snr_linear[0, 0, 0] == CONSTS.snr_cap
    assert flat.tolist() == [0]
    assert (q[0], g[0], u[0]) == (grid.quality[0, 0, 0],
                                  grid.resource[0, 0, 0],
                                  grid.utility[0, 0, 0])

# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("build", [
    lambda: RadarConstants(k_rad=0.0),
    lambda: RadarConstants(n_h_total=0),
    lambda: RadarConstants(p_fa=0.0),
    lambda: RadarConstants(p_fa=1.0),
    lambda: RadarConstants(snr_floor_db=40.0, snr_cap_db=40.0),
    lambda: ControlPoint(t_d=0.0, f_t=1.0, n_h=48),
    lambda: ControlPoint(t_d=20e-3, f_t=0.0, n_h=48),
    lambda: ControlPoint(t_d=20e-3, f_t=1.0, n_h=0),
    lambda: Environment(range=0.0, bearing=0.0, rcs=1.0,
                        maneuver_std=1.0, corr_time=1.0),
    lambda: Environment(range=1e4, bearing=math.pi / 2, rcs=1.0,
                        maneuver_std=1.0, corr_time=1.0),
    lambda: Environment(range=1e4, bearing=0.0, rcs=0.0,
                        maneuver_std=1.0, corr_time=1.0),
    lambda: Environment(range=1e4, bearing=0.0, rcs=1.0,
                        maneuver_std=0.0, corr_time=1.0),
    lambda: Environment(range=1e4, bearing=0.0, rcs=1.0,
                        maneuver_std=1.0, corr_time=0.0),
    lambda: UtilityShape(q_min=1e-3, q_max=3e-3),
    # linear ratios that overflow or underflow a float
    lambda: RadarConstants(snr_cap_db=4000.0),
    lambda: RadarConstants(snr_floor_db=3500.0, snr_cap_db=4000.0),
    lambda: RadarConstants(snr_floor_db=-5000.0, snr_cap_db=-4000.0),
    # a range whose range^4 overflows or underflows a float
    lambda: Environment(range=1e100, bearing=0.0, rcs=1.0,
                        maneuver_std=1.0, corr_time=1.0),
    lambda: Environment(range=1e-90, bearing=0.0, rcs=1.0,
                        maneuver_std=1.0, corr_time=1.0),
    lambda: Environment(range=-1e4, bearing=0.0, rcs=1.0,
                        maneuver_std=1.0, corr_time=1.0),
    # a floor past the float range, and counts that are not integers
    lambda: RadarConstants(snr_floor_db=-math.inf),
    lambda: RadarConstants(n_h_total=48.5),
    lambda: ControlPoint(t_d=20e-3, f_t=1.0, n_h=6.5),
])
def test_invalid_parameters_raise(build):
    with pytest.raises(ValueError):
        build()
