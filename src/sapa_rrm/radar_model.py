"""Quality, resource, and utility model for phased-array tracking tasks.

Implements the Van Keuk-Blackman tracking strategy for a horizontally
split aperture: SNR with a cross-talk loss between simultaneous
sub-aperture tasks, the track-sharpness balance equation, Swerling I
detection, the expected number of looks per update, and a linear
utility on the achieved angular accuracy.

The chain runs on one control point (evaluate), on a whole grid
(evaluate_grid, the unpruned oracle) and on the grid points of many
tasks that can be vertices of their (g, u) hulls (evaluate_candidates).

All operations are pure functions; angles are radians, times seconds,
ranges meters, cross sections square meters.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

LN10_OVER_10 = math.log(10.0) / 10.0
FLOAT_MAX = sys.float_info.max  # x is a positive real: 0.0 < x <= FLOAT_MAX


def db_to_linear(db: float) -> float:
    return math.exp(db * LN10_OVER_10)


def linear_to_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


def is_integer(x) -> bool:
    """Whether x is a Python or numpy integer, as every count must be."""
    return isinstance(x, (int, np.integer))


def finite_positive(to_si, x: float) -> bool:
    """Whether to_si(float(x)), x in bench units, is a positive float."""
    try:  # on a Python float, not a numpy one, ** and exp raise on overflow
        return 0.0 < to_si(float(x)) <= FLOAT_MAX
    except OverflowError:  # also float(x) of an int past the float range
        return False


def range4(range_m: float) -> float:
    """range^4 [m^4], as _env_terms computes it for _raw_snr; 0 at
    range <= 0, so that finite_positive(range4, r) also asks r > 0."""
    return max(range_m, 0.0) ** 4


def dbsm_to_m2(db: float) -> float:
    """Cross section [m^2] of db [dBsm]."""
    return 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class RadarConstants:
    """Aggregate radar parameters shared by every task evaluation."""

    k_rad: float = 2.662e21       # radar constant [m^2/s]
    n_h_total: int = 48           # total horizontal element count N_hT
    p_fa: float = 1e-4            # false alarm rate
    alpha_bw: float = 0.886       # beamwidth factor [rad*elements]
    snr_floor_db: float = 10.0    # below this SN0 the target is not detected
    snr_cap_db: float = 40.0      # accuracy credit saturates at this SN0

    def __post_init__(self) -> None:
        for name in ("k_rad", "alpha_bw"):
            if not 0.0 < getattr(self, name) <= FLOAT_MAX:
                raise ValueError(f"{name} must be positive and finite")
        if not (is_integer(self.n_h_total)
                and 1 <= self.n_h_total <= sys.maxsize):
            raise ValueError(f"n_h_total must lie in [1, {sys.maxsize}] "
                             f"and be an integer")
        if not 0.0 < self.p_fa < 1.0:
            raise ValueError("p_fa must lie in (0, 1)")
        if not finite_positive(db_to_linear, self.snr_cap_db):
            raise ValueError("snr_cap_db must give a positive finite "
                             "linear ratio")
        # float(): comparing a huge int with a numpy float raises OverflowError
        if not -FLOAT_MAX <= self.snr_floor_db < float(self.snr_cap_db):
            raise ValueError("snr_floor_db must be finite, below snr_cap_db")

    @property
    def snr_floor(self) -> float:
        return db_to_linear(self.snr_floor_db)

    @property
    def snr_cap(self) -> float:
        return db_to_linear(self.snr_cap_db)


@dataclass(frozen=True)
class ControlPoint:
    """One candidate setting for a tracking task."""

    t_d: float   # coherent integration time [s]
    f_t: float   # track update frequency [Hz]
    n_h: int     # horizontal elements assigned to the task

    def __post_init__(self) -> None:
        if not 0.0 < self.t_d <= FLOAT_MAX:
            raise ValueError("t_d must be positive and finite")
        if not 0.0 < self.f_t <= FLOAT_MAX:
            raise ValueError("f_t must be positive and finite")
        if not (is_integer(self.n_h) and self.n_h >= 1):
            raise ValueError("n_h must be an integer of at least 1")


@dataclass(frozen=True)
class Environment:
    """Per-target state as seen by the radar."""

    range: float         # target range [m]
    bearing: float       # bearing off boresight [rad], |bearing| < pi/2
    rcs: float           # radar cross section [m^2]
    maneuver_std: float  # Singer acceleration standard deviation [m/s^2]
    corr_time: float     # Singer correlation time [s]

    def __post_init__(self) -> None:
        if not finite_positive(range4, self.range):
            raise ValueError("range must give a finite positive range^4")
        if not -math.pi / 2.0 < self.bearing < math.pi / 2.0:
            raise ValueError("bearing must lie strictly inside (-pi/2, pi/2)")
        for name in ("rcs", "maneuver_std", "corr_time"):
            if not 0.0 < getattr(self, name) <= FLOAT_MAX:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class UtilityShape:
    """Linear utility on angular error: 1 at q <= q_max, 0 at q >= q_min."""

    q_min: float = 3e-3  # worst acceptable angular error [rad]
    q_max: float = 1e-3  # best rewarded angular error [rad]

    def __post_init__(self) -> None:
        # Smaller error is better, so the full-reward bound sits below
        # the zero-reward bound.
        if not (all(0.0 < q <= FLOAT_MAX for q in (self.q_max, self.q_min))
                and self.q_max < self.q_min):
            raise ValueError("need 0 < q_max < q_min, both finite")


@dataclass(frozen=True)
class TaskEvaluation:
    """Outcome of evaluating one control point against one environment.

    When ``feasible`` is false the SNR fell below the detection floor
    and every other field is None; no NaN is ever produced.
    """

    feasible: bool
    quality: float | None = None          # angular error q [rad]
    resource: float | None = None         # fractional radar time g
    utility: float | None = None          # u in [0, 1]
    snr_linear: float | None = None       # clamped SN0, linear ratio
    track_sharpness: float | None = None  # v0 = q / beamwidth
    p_d: float | None = None              # detection probability
    n_looks: float | None = None          # expected looks per update


def _env_terms(env: Environment) -> tuple:
    """The chain's per-task scalars, computed once with math."""
    return (math.cos(env.bearing), env.rcs, env.range**4, env.range,
            math.sqrt(env.corr_time), env.maneuver_std)


def _raw_snr(t_d, n_h, terms: tuple, consts: RadarConstants):
    """Single-look SN0 (linear) before the floor and the cap."""
    cos_b, rcs, range4 = terms[:3]
    return consts.k_rad * n_h**3 * t_d * cos_b * cos_b * rcs / range4


def _row_terms(snr, n_h, terms: tuple, consts: RadarConstants, sqrt):
    """The chain's factors that depend on the clamped SNR and n_h only.

    Cross-talk loss, scan-broadened beamwidth theta_bw, the sharpness
    balance's alpha = 0.4 * f_t * k and beta, Swerling I detection p_d,
    and the look-count factor gamma; returned as that tuple
    (theta_bw, k, beta, p_d, gamma).  Operators only, so ``snr``, ``n_h``
    and the _env_terms ``terms`` may be Python floats or broadcastable
    arrays; ``sqrt`` must match that choice.
    """
    cos_b, _, _, range_m, sqrt_tc, maneuver_std = terms
    xisnr = (0.8 + 0.2 * n_h / consts.n_h_total) * snr
    theta_bw = consts.alpha_bw / n_h / cos_b
    k = (range_m * theta_bw * sqrt_tc / maneuver_std) ** 0.4
    p_d = consts.p_fa ** (1.0 / (1.0 + xisnr))
    gamma = 1.0 + 14.0 * sqrt(-math.log(consts.p_fa) / xisnr)
    return theta_bw, k, xisnr - math.log(consts.p_fa), p_d, gamma


def _lane_chain(row, t_d, f_t, n_h, consts: RadarConstants, solve, sqrt):
    """The model from the row terms on: (q, g, v0, p_d, n_l).

    Sharpness balance, angular error, expected looks (at least 1/p_d)
    and radar time of each control lane, a (t_d, f_t, n_h) point whose
    _row_terms are ``row``.  Each step after the solve rounds
    monotonically in v0, so a solver that returns bounds on v0 gives
    bounds on g.  Callers look the solver up as a module attribute at
    call time, so a wrapper installed on that attribute sees every
    solve.
    """
    theta_bw, k, beta, p_d, gamma = row
    v0 = solve(0.4 * f_t * k, beta)  # beta > 0: p_fa < 1
    gv2 = gamma * v0 * v0
    n_l = sqrt(1.0 + gv2 * gv2) / p_d
    g = n_l * t_d * f_t * (n_h / consts.n_h_total)
    return theta_bw * v0, g, v0, p_d, n_l


def _sharpness_equation(v: float, alpha: float, beta: float) -> float:
    return 1.0 + (0.5 * beta + 2.0) * v * v - alpha * beta * v**2.4


def track_sharpness(alpha: float, beta: float) -> float:
    """Solve the sharpness balance 1 + (beta/2 + 2)v^2 = alpha*beta*v^2.4.

    The left side grows like v^2 and the right like v^2.4, so the
    equation has exactly one positive root; bracketed bisection is
    unconditionally safe here.

    Args:
        alpha: update-rate/beamwidth factor, > 0.
        beta: SNR factor, > 0.

    Returns:
        The unique positive root, to 1e-10 absolute in v (or to the
        spacing of float64 for roots too large for that tolerance).
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("alpha and beta must be positive")
    lo, hi = 1e-8, 1.0
    if _sharpness_equation(lo, alpha, beta) <= 0.0:
        raise ValueError("root lies below the supported bracket")
    while _sharpness_equation(hi, alpha, beta) > 0.0:
        lo = hi
        hi *= 2.0
        if hi > 2.0**40:
            raise ValueError("no sign change found below 2^40")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # interval narrower than float64 spacing
        f_mid = _sharpness_equation(mid, alpha, beta)
        if f_mid > 0.0:
            lo = mid
        elif f_mid < 0.0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def track_sharpness_batch(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Vectorized sharpness roots for broadcastable alpha/beta arrays.

    Substituting t = v^0.4 turns the balance into the polynomial
    p(t) = 1 + c1*t^5 - c2*t^6 with c1 = beta/2 + 2 and c2 = alpha*beta.
    p has a single positive root, and t = c1/c2 + c2^(-1/6) is an upper
    bound for it (each summand bounds one of the two balance regimes),
    so Newton from there descends monotonically.  Agrees with
    track_sharpness to the root tolerance; used on large control grids
    where per-point bisection would dominate the runtime.

    Each lane stops after the first step with |step| <= 1e-15 t, so a
    root depends only on its own (alpha, beta), not on which lanes share
    the batch: any subset, order or shape of the lanes gives the same
    bits.

    Accuracy: the root is as good as float64 allows.  Its balance
    residual |1 + (beta/2 + 2)v^2 - alpha*beta*v^2.4| stays within a
    small multiple of eps times the sum of the terms' magnitudes,
    1 + (beta/2 + 2)v^2 + alpha*beta*v^2.4 (at most 16 eps; measured
    4.3 eps over alpha in [1e-3, 1e3], beta in [1, 1e5]).  The absolute
    residual is not small where the terms are large: they reach ~1e18
    in that box, where one ulp of a term is already 256.  A balance that
    overflows float64 near its root, or NaN input, raises ValueError.
    """
    c1 = 0.5 * np.asarray(beta, dtype=np.float64) + 2.0
    c2 = np.asarray(alpha, dtype=np.float64) * beta
    try:  # t falls from its start, so only the first step can overflow
        with np.errstate(over="raise", divide="raise"):
            t = c1 / c2 + np.power(c2, -1.0 / 6.0)  # not libm pow on 0-d
            c1_5, c2_6 = 5.0 * c1, 6.0 * c2  # loop invariants of dp
            done = np.zeros(np.shape(t), dtype=bool)
            for _ in range(24):
                t4 = t * t * t * t
                step = 1.0 + t4 * t * (c1 - c2 * t)  # p, divided in place
                step /= t4 * (c1_5 - c2_6 * t)       # by dp
                step = np.where(done, 0.0, step)     # stopped lanes stay put
                t -= step
                done |= np.abs(step) <= 1e-15 * t
                if done.all():
                    return t * t * np.sqrt(t)
    except FloatingPointError:
        raise ValueError("Newton did not converge: the sharpness balance "
                         "overflows float64") from None
    raise ValueError("Newton did not converge; is alpha or beta NaN?")


def utility(q: float, shape: UtilityShape) -> float:
    """Linear utility of angular error q [rad], clamped to [0, 1]."""
    u = (q - shape.q_min) / (shape.q_max - shape.q_min)
    return min(1.0, max(0.0, u))


def evaluate(cp: ControlPoint, env: Environment, consts: RadarConstants,
             shape: UtilityShape) -> TaskEvaluation:
    """Evaluate one control point against one environment.

    Args:
        cp: candidate control setting.
        env: target environment.
        consts: shared radar constants.
        shape: utility bounds on the angular error.

    Returns:
        A fully populated TaskEvaluation; ``feasible=False`` with all
        other fields None when the unclamped SNR falls below the floor.
    """
    if not 1 <= cp.n_h <= consts.n_h_total:
        raise ValueError("n_h must lie in [1, n_h_total]")
    terms = _env_terms(env)
    raw = _raw_snr(cp.t_d, cp.n_h, terms, consts)
    if raw < consts.snr_floor:
        return TaskEvaluation(feasible=False)
    snr = min(raw, consts.snr_cap)
    row = _row_terms(snr, cp.n_h, terms, consts, math.sqrt)
    q, g, v0, p_d, n_l = _lane_chain(row, cp.t_d, cp.f_t, cp.n_h, consts,
                                     track_sharpness, math.sqrt)
    return TaskEvaluation(
        feasible=True,
        quality=q,
        resource=g,
        utility=utility(q, shape),
        snr_linear=snr,
        track_sharpness=v0,
        p_d=p_d,
        n_looks=n_l,
    )


def _raw_snr_table(t_d: np.ndarray, n_h: np.ndarray, terms: tuple,
                   consts: RadarConstants) -> np.ndarray:
    """_raw_snr of every (t_d, n_h) pair, on the last two axes."""
    if np.any(n_h < 1) or np.any(n_h > consts.n_h_total):
        raise ValueError("n_h values must lie in [1, n_h_total]")
    # an SNR past float64 lies above the cap, as in evaluate(): no warning
    with np.errstate(over="ignore"):
        return _raw_snr(t_d[:, None], n_h[None, :], terms, consts)


def _evaluate_lanes(row: tuple, t_d: np.ndarray, f_t: np.ndarray,
                    n_h: np.ndarray, consts: RadarConstants,
                    shape: UtilityShape):
    """(q, g, u) of control lanes, each a (t_d, f_t, n_h) point.

    One batched formula chain and one root solve over all lanes; the
    arguments broadcast, and ``row`` holds each lane's _row_terms.
    """
    q, g = _lane_chain(row, t_d, f_t, n_h, consts, track_sharpness_batch,
                       np.sqrt)[:2]
    u = np.clip((q - shape.q_min) / (shape.q_max - shape.q_min), 0.0, 1.0)
    return q, g, u


@dataclass(frozen=True)
class GridEvaluation:
    """evaluate() over a full control grid, as arrays.

    All arrays are shaped (len(t_d), len(f_t), len(n_h)) and are views;
    ``feasible`` and ``snr_linear`` are read-only.  Where ``feasible`` is
    False the value arrays hold NaN; consume them through the mask.
    """

    feasible: np.ndarray   # bool
    quality: np.ndarray    # q [rad]
    resource: np.ndarray   # g
    utility: np.ndarray    # u in [0, 1]
    snr_linear: np.ndarray # clamped SN0


def evaluate_grid(t_d: np.ndarray, f_t: np.ndarray, n_h: np.ndarray,
                  env: Environment, consts: RadarConstants,
                  shape: UtilityShape) -> GridEvaluation:
    """Vectorized evaluate() over the cartesian product of control values.

    Runs the same formula chain as evaluate(); the only difference is
    the root solver (track_sharpness_batch), which agrees with the
    scalar bisection to its 1e-10 tolerance.

    Args:
        t_d: 1-D array of integration times [s], ascending.
        f_t: 1-D array of update frequencies [Hz], ascending.
        n_h: 1-D integer array of element counts, ascending.
        env, consts, shape: as for evaluate().
    """
    t_d, f_t, n_h = (np.asarray(x, dtype=np.float64).reshape(-1)
                     for x in (t_d, f_t, n_h))
    terms = _env_terms(env)
    raw = _raw_snr_table(t_d, n_h, terms, consts)      # (nt, nn)
    feasible = raw >= consts.snr_floor
    snr = np.minimum(raw, consts.snr_cap)
    nt, nn = raw.shape
    t_rows, n_rows = np.repeat(t_d, nn)[:, None], np.tile(n_h, nt)[:, None]
    row = _row_terms(snr.reshape(-1, 1), n_rows, terms, consts, np.sqrt)
    values = _evaluate_lanes(row, t_rows, f_t, n_rows, consts, shape)
    for fresh in values:
        np.copyto(fresh, np.nan, where=~feasible.reshape(-1, 1))
    q, g, u = (v.reshape(nt, nn, -1).transpose(0, 2, 1) for v in values)
    snr = np.where(feasible, snr, np.nan)[:, None, :]
    return GridEvaluation(feasible=np.broadcast_to(feasible[:, None, :],
                                                   q.shape),
                          quality=q, resource=g, utility=u,
                          snr_linear=np.broadcast_to(snr, q.shape))


def _columns_to_solve(row: tuple, t_d: np.ndarray, f_t: np.ndarray,
                      n_h: np.ndarray, task: np.ndarray,
                      consts: RadarConstants, shape: UtilityShape):
    """Per (t_d, n_h) row, the f_t columns whose point can be a hull
    vertex, so that its root must be solved: f_t[lo:end].

    In a row alpha = 0.4 f_t k, and the balance
    f(v) = 1 + (beta/2 + 2)v^2 - alpha*beta*v^2.4 falls through its only
    positive root.  So u > 0 (q < q_min) holds exactly when
    f(q_min/theta) < 0, and u = 1 (q <= q_max) exactly when
    f(q_max/theta) <= 0.  Each test is f_t beyond a per-row threshold,
    (1 + (beta/2 + 2)v^2) / (0.4 k beta v^2.4) at v = q/theta.  Columns
    where |f| is within 1e-6 of the sum of the terms' magnitudes, f_t
    within about 2e-6 of a threshold, are left to Newton, not settled:
    only there can the root lie within a relative 8e-7 of q/theta, where
    the rounding of the root and of q could decide the class.  A row
    whose factors leave [1e-100, 1e100], where the thresholds could lose
    precision, settles no column.

    A settled u = 0 point, f_t[:lo], adds no utility, so it is never a
    vertex.  The cost rises with v0 >= 0 and with f_t, and u = 1 means
    v0 <= q_max/theta, so G, the least such upper bound over the first
    settled u = 1 column of each row of one ``task``, is at or above a
    real u = 1 point's cost.  A point of that task whose v0 = 0 lower
    bound exceeds G is dearer and buys at most the same utility: neither
    the hull nor an exact knapsack needs it.  That lower bound is f_t
    times its value at 1 Hz, up to rounding; a 1e-12 widening covers it.
    """
    theta_bw, k, beta = row[:3]
    k4, c1 = 0.4 * k, 0.5 * beta + 2.0

    def threshold(q):
        v = q / theta_bw
        v24 = v ** 2.4
        return (1.0 + c1 * v * v) / (k4 * beta * v24), v24

    def cost(f, v0):  # g with the root fixed at v0
        return _lane_chain(row, t_d, f, n_h, consts, lambda *_: v0,
                           np.sqrt)[1]

    zero, v24_lo = threshold(shape.q_min)
    one, v24_hi = threshold(shape.q_max)
    widen = (1.0 + 1e-6) / (1.0 - 1e-6)
    # v24_hi < v24_lo, so these bound all four factors
    low = np.minimum(np.minimum(k4, beta), v24_hi)
    high = np.maximum(np.maximum(k4, beta), v24_lo)
    settled = (low >= 1e-100) & (high <= 1e100)
    lo = np.where(settled, np.searchsorted(f_t, zero / widen), 0)
    hi = np.where(settled, np.searchsorted(f_t, one * widen, side="right"),
                  f_t.size)  # the first settled u = 1 column
    g_hi = cost(f_t[np.minimum(hi, f_t.size - 1)], shape.q_max / theta_bw)
    bound = np.full(task.max(initial=-1) + 1, np.inf)
    np.minimum.at(bound, task, np.where(hi < f_t.size, g_hi, np.inf))
    end = np.searchsorted(f_t, bound[task] / cost(1.0, 0.0) * (1.0 + 1e-12),
                          side="right")
    return lo, np.maximum(lo, end)


def evaluate_candidates(t_d: np.ndarray, f_t: np.ndarray, n_h: np.ndarray,
                        envs: Sequence[Environment], consts: RadarConstants,
                        shape: UtilityShape) -> list[tuple]:
    """evaluate_grid's values, per task in ``envs``, at only the feasible
    grid points that can be vertices of the task's (g, u) hull.

    Two rules drop a feasible point before its root is solved, and
    neither changes the hull:
    - The SNR cap.  A point is dropped when a smaller t_d with the same
      n_h already reaches the cap.  The raw SNR grows with t_d and does
      not depend on f_t, and every capped t_d of one (f_t, n_h) buys
      bit-identical utility, only at a higher cost than the first one.
    - Closed-form bounds (_columns_to_solve).  A point whose utility is
      surely 0 is dropped, and so is any point surely dearer than a kept
      u = 1 point of its task, since it buys at most the same utility.
    The kept (t_d, n_h) rows of all tasks go through one batched formula
    chain, whose memory grows with their count.  A root depends only on
    its own point, so the values equal evaluate_grid's bit for bit,
    whichever tasks share the call.  Returns, per task, the kept points'
    ascending flat indices into the (t_d, f_t, n_h) grid and q, g, u.
    """
    t_d, f_t, n_h = (np.asarray(x, dtype=np.float64).reshape(-1)
                     for x in (t_d, f_t, n_h))
    terms = np.array([_env_terms(env) for env in envs]).reshape(-1, 6).T
    raw = _raw_snr_table(t_d, n_h, tuple(terms[:, :, None, None]), consts)
    capped = raw >= consts.snr_cap                       # (task, nt, nn)
    none_before = np.cumsum(capped, axis=1) <= capped    # no earlier t_d
    ti, it, kn = np.nonzero((raw >= consts.snr_floor) & none_before)
    n_rows = n_h[kn]
    row = _row_terms(np.minimum(raw[ti, it, kn], consts.snr_cap), n_rows,
                     tuple(terms[:, ti]), consts, np.sqrt)
    lo, end = _columns_to_solve(row, t_d[it], f_t, n_rows, ti, consts, shape)
    count = end - lo
    r = np.repeat(np.arange(it.size), count)  # f_t[lo:end] of each row
    jf = np.arange(r.size) - np.repeat(np.cumsum(count) - count - lo, count)
    flat = (it[r] * f_t.size + jf) * n_h.size + kn[r]
    order = np.argsort(ti[r] * (t_d.size * f_t.size * n_h.size) + flat,
                       kind="stable")  # by task, then flat index
    r, jf, flat = r[order], jf[order], flat[order]
    q, g, u = _evaluate_lanes(tuple(x[r] for x in row), t_d[it[r]],
                              f_t[jf], n_rows[r], consts, shape)
    bounds = np.searchsorted(ti[r], np.arange(len(envs) + 1)).tolist()
    return [tuple(x[a:b] for x in (flat, q, g, u))
            for a, b in zip(bounds, bounds[1:])]
