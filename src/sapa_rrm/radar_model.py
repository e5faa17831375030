"""Quality, resource, and utility model for phased-array tracking tasks.

Implements the Van Keuk-Blackman tracking strategy for a horizontally
split aperture: SNR with a cross-talk loss between simultaneous
sub-aperture tasks, the track-sharpness balance equation, Swerling I
detection, the expected number of looks per update, and a linear
utility on the achieved angular accuracy.

All operations are pure functions; angles are radians, times seconds,
ranges meters, cross sections square meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN10_OVER_10 = math.log(10.0) / 10.0


def db_to_linear(db: float) -> float:
    return math.exp(db * LN10_OVER_10)


def linear_to_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


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
        if not self.k_rad > 0.0:
            raise ValueError("k_rad must be positive")
        if not self.n_h_total >= 1:
            raise ValueError("n_h_total must be at least 1")
        if not 0.0 < self.p_fa < 1.0:
            raise ValueError("p_fa must lie in (0, 1)")
        if not self.alpha_bw > 0.0:
            raise ValueError("alpha_bw must be positive")
        if not self.snr_floor_db < self.snr_cap_db:
            raise ValueError("snr_floor_db must be below snr_cap_db")
        try:  # the floor lies below the cap, so this bounds both
            cap = self.snr_cap
        except OverflowError:
            cap = math.inf
        if not 0.0 < cap < math.inf:
            raise ValueError("snr_cap_db must give a positive finite "
                             "linear ratio")

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
        if not self.t_d > 0.0:
            raise ValueError("t_d must be positive")
        if not self.f_t > 0.0:
            raise ValueError("f_t must be positive")
        if not self.n_h >= 1:
            raise ValueError("n_h must be at least 1")


@dataclass(frozen=True)
class Environment:
    """Per-target state as seen by the radar."""

    range: float         # target range [m]
    bearing: float       # bearing off boresight [rad], |bearing| < pi/2
    rcs: float           # radar cross section [m^2]
    maneuver_std: float  # Singer acceleration standard deviation [m/s^2]
    corr_time: float     # Singer correlation time [s]

    def __post_init__(self) -> None:
        if not self.range > 0.0:
            raise ValueError("range must be positive")
        if not abs(self.bearing) < math.pi / 2.0:
            raise ValueError("bearing must lie strictly inside (-pi/2, pi/2)")
        if not self.rcs > 0.0:
            raise ValueError("rcs must be positive")
        if not self.maneuver_std > 0.0:
            raise ValueError("maneuver_std must be positive")
        if not self.corr_time > 0.0:
            raise ValueError("corr_time must be positive")


@dataclass(frozen=True)
class UtilityShape:
    """Linear utility on angular error: 1 at q <= q_max, 0 at q >= q_min."""

    q_min: float = 3e-3  # worst acceptable angular error [rad]
    q_max: float = 1e-3  # best rewarded angular error [rad]

    def __post_init__(self) -> None:
        # Smaller error is better, so the full-reward bound sits below
        # the zero-reward bound.
        if not 0.0 < self.q_max < self.q_min:
            raise ValueError("need 0 < q_max < q_min")


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


def _raw_snr(t_d, n_h, env: Environment, consts: RadarConstants):
    """Single-look SN0 (linear) before the floor and the cap."""
    cos_b = math.cos(env.bearing)
    return (consts.k_rad * n_h**3 * t_d * cos_b * cos_b * env.rcs
            / env.range**4)


def _row_terms(snr, n_h, env: Environment, consts: RadarConstants, sqrt):
    """The chain's factors that depend on the clamped SNR and n_h only.

    Cross-talk loss, scan-broadened beamwidth theta_bw, the sharpness
    balance's alpha = 0.4 * f_t * k and beta, Swerling I detection p_d,
    and the look-count factor gamma; returned as that tuple
    (theta_bw, k, beta, p_d, gamma).  Operators only, so ``snr`` and
    ``n_h`` may be Python floats or broadcastable arrays; ``sqrt`` must
    match that choice.
    """
    xisnr = (0.8 + 0.2 * n_h / consts.n_h_total) * snr
    theta_bw = consts.alpha_bw / n_h / math.cos(env.bearing)
    k = (env.range * theta_bw * math.sqrt(env.corr_time)
         / env.maneuver_std) ** 0.4
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
    in that box, where one ulp of a term is already 256.
    """
    c1 = 0.5 * np.asarray(beta, dtype=np.float64) + 2.0
    c2 = np.asarray(alpha, dtype=np.float64) * beta
    t = c1 / c2 + c2 ** (-1.0 / 6.0)
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
            break
    else:
        raise ValueError("Newton did not converge; is alpha or beta NaN?")
    return t * t * np.sqrt(t)


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
    raw = _raw_snr(cp.t_d, cp.n_h, env, consts)
    if raw < consts.snr_floor:
        return TaskEvaluation(feasible=False)
    snr = min(raw, consts.snr_cap)
    row = _row_terms(snr, cp.n_h, env, consts, math.sqrt)
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


def _raw_snr_table(t_d: np.ndarray, n_h: np.ndarray, env: Environment,
                   consts: RadarConstants) -> np.ndarray:
    """_raw_snr of every (t_d, n_h) pair, shaped (len(t_d), len(n_h))."""
    if np.any(n_h < 1) or np.any(n_h > consts.n_h_total):
        raise ValueError("n_h values must lie in [1, n_h_total]")
    return _raw_snr(t_d[:, None], n_h[None, :], env, consts)


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


# |f(v)| up to this share of the balance terms' magnitudes is left to Newton
_BALANCE_BAND = 1e-6


def _utility_columns(row: tuple, f_t: np.ndarray, shape: UtilityShape):
    """Per row, the f_t columns (ascending f_t) whose utility needs no
    root solve.

    In a row alpha = 0.4 f_t k, and the balance
    f(v) = 1 + (beta/2 + 2)v^2 - alpha*beta*v^2.4 falls through its only
    positive root.  So u > 0 (q < q_min) holds exactly when
    f(q_min/theta) < 0, and u = 1 (q <= q_max) exactly when
    f(q_max/theta) <= 0.  Each test is f_t beyond a per-row threshold,
    (1 + (beta/2 + 2)v^2) / (0.4 k beta v^2.4) at v = q/theta.

    Columns where |f| is within _BALANCE_BAND of the sum of the terms'
    magnitudes, f_t within about 2e-6 of a threshold, are not settled:
    only there can the root lie within a relative 8e-7 of q/theta, where
    the rounding of the root and of q could decide the class.  A row
    whose factors leave [1e-100, 1e100], where the thresholds could lose
    precision, settles no column.

    Returns:
        (lo, hi) per row, lo <= hi: u = 0 at f_t[:lo], u = 1 at f_t[hi:].
    """
    theta_bw, k, beta = row[:3]
    k4, c1 = 0.4 * k, 0.5 * beta + 2.0

    def threshold(q):
        v = q / theta_bw
        v24 = v ** 2.4
        return (1.0 + c1 * v * v) / (k4 * beta * v24), v24

    zero, v24_lo = threshold(shape.q_min)
    one, v24_hi = threshold(shape.q_max)
    widen = (1.0 + _BALANCE_BAND) / (1.0 - _BALANCE_BAND)
    lo = np.searchsorted(f_t, zero / widen)
    hi = np.searchsorted(f_t, one * widen, side="right")
    # v24_hi < v24_lo, so these bound all four factors
    low = np.minimum(np.minimum(k4, beta), v24_hi)
    high = np.maximum(np.maximum(k4, beta), v24_lo)
    settled = (low >= 1e-100) & (high <= 1e100)
    return np.where(settled, lo, 0), np.where(settled, hi, f_t.size)


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
    t_d = np.asarray(t_d, dtype=np.float64).reshape(-1)
    f_t = np.asarray(f_t, dtype=np.float64).reshape(-1)
    n_h = np.asarray(n_h, dtype=np.float64).reshape(-1)
    raw = _raw_snr_table(t_d, n_h, env, consts)        # (nt, nn)
    feasible = raw >= consts.snr_floor
    snr = np.minimum(raw, consts.snr_cap)
    nt, nn = raw.shape
    t_rows, n_rows = np.repeat(t_d, nn)[:, None], np.tile(n_h, nt)[:, None]
    row = _row_terms(snr.reshape(-1, 1), n_rows, env, consts, np.sqrt)
    values = _evaluate_lanes(row, t_rows, f_t, n_rows, consts, shape)
    for fresh in values:
        np.copyto(fresh, np.nan, where=~feasible.reshape(-1, 1))
    q, g, u = (v.reshape(nt, nn, -1).transpose(0, 2, 1) for v in values)
    snr = np.where(feasible, snr, np.nan)[:, None, :]
    return GridEvaluation(feasible=np.broadcast_to(feasible[:, None, :],
                                                   q.shape),
                          quality=q, resource=g, utility=u,
                          snr_linear=np.broadcast_to(snr, q.shape))
