"""Monte Carlo estimators and verification experiments.

Everything here reduces to a few primitives: censored survival curves with
Wilson score intervals (a censored path counts as still alive, which only
ever inflates the curve, so every bound derived from it stays conservative),
least-squares decay-rate fits on the log survival curve, and batched path
runs from the engines in :mod:`branchcouple.paths`.

The experiments: hitting-time tails for crossing levels of the first
component, meeting-time tails for the coupled pair with the induced total
variation bound, absorption tails of the dominating process, the
mean passage time of the mean-reverting diffusion against its closed-form
integral, a pathwise audit of the three comparison orderings, and a Dynkin
residual check that the simulated paths integrate the generator.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import integrate

from . import paths as sim
from .errors import (
    BranchCoupleError,
    DegenerateFit,
    InsufficientPaths,
    InvalidParams,
    NotApplicable,
    OutOfGrid,
    QuadratureFail,
)
from .model import ModelParams, m0_heuristic, zbar_equilibrium
from .paths import SimScheme

Z95 = 1.959963984540054


def wilson_interval(k: int, n: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise InsufficientPaths("wilson interval needs n >= 1")
    if not (0 <= k <= n):
        raise InvalidParams("need 0 <= k <= n")
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class TailEstimate:
    """Survival curve of a stopping time; censored samples count as alive.

    ``survival_at`` evaluates beyond the simulated horizon by clamping to the
    horizon, which over-estimates the survival probability, so upper bounds
    built from it remain valid.
    """

    times: np.ndarray  # raw stopping times, inf = censored at the horizon
    horizon: float
    grid: np.ndarray
    p_hat: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    n: int
    n_censored: int

    @staticmethod
    def from_times(times, horizon: float, n_grid: int = 64, grid=None) -> "TailEstimate":
        times = np.asarray(times, dtype=float)
        n = times.size
        if n == 0:
            raise InsufficientPaths("no stopping times recorded")
        if grid is None:
            grid = np.linspace(0.0, horizon, n_grid + 1)
        grid = np.asarray(grid, dtype=float)
        p_hat = np.empty(grid.size)
        lo = np.empty(grid.size)
        hi = np.empty(grid.size)
        for j, t in enumerate(grid):
            k = int(np.sum(times > t))
            p_hat[j] = k / n
            lo[j], hi[j] = wilson_interval(k, n)
        return TailEstimate(
            times=times,
            horizon=float(horizon),
            grid=grid,
            p_hat=p_hat,
            lo=lo,
            hi=hi,
            n=n,
            n_censored=int(np.sum(np.isinf(times))),
        )

    def survival_at(self, t: float) -> tuple[float, float, float]:
        t_eff = min(float(t), self.horizon)
        k = int(np.sum(self.times > t_eff))
        lo, hi = wilson_interval(k, self.n)
        return k / self.n, lo, hi

    def mean_finite(self) -> float:
        finite = self.times[np.isfinite(self.times)]
        return float(np.mean(finite)) if finite.size else math.nan

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "n": self.n,
            "n_censored": self.n_censored,
            "mean_finite": self.mean_finite(),
            "grid": self.grid.tolist(),
            "p_hat": self.p_hat.tolist(),
            "wilson_lo": self.lo.tolist(),
            "wilson_hi": self.hi.tolist(),
        }


@dataclass
class RateFit:
    """Least-squares decay rate of a survival curve on the log scale."""

    rate: float
    intercept: float
    r2: float
    rate_se: float
    n_used: int
    window: tuple[float, float]

    def to_dict(self) -> dict:
        return asdict(self)


def rate_fit(est: TailEstimate, p_lo: float = 0.01, p_hi: float = 0.9) -> RateFit:
    """Fit ``log p_hat(t) ~ intercept - rate * t`` on the usable window.

    Points with survival outside (p_lo, p_hi) carry too much noise or too
    much plateau; fewer than 4 usable points is a degenerate fit.
    """
    return curve_rate_fit(est.grid, est.p_hat, p_lo=p_lo, p_hi=p_hi)


def curve_rate_fit(
    grid, p_hat, p_lo: float = 0.01, p_hi: float = 0.9
) -> RateFit:
    """`rate_fit` on a bare survival curve (e.g. a max-over-inits envelope)."""
    grid = np.asarray(grid, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    mask = (p_hat > p_lo) & (p_hat < p_hi)
    t = grid[mask]
    y = np.log(p_hat[mask])
    if t.size < 4:
        raise DegenerateFit(
            "only %d grid points have survival in (%g, %g)" % (t.size, p_lo, p_hi)
        )
    A = np.vstack([t, np.ones_like(t)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = coef
    fitted = A @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = t.size - 2
    var_slope = (ss_res / dof) / float(np.sum((t - np.mean(t)) ** 2)) if dof > 0 else math.inf
    return RateFit(
        rate=float(-slope),
        intercept=float(intercept),
        r2=r2,
        rate_se=math.sqrt(var_slope),
        n_used=int(t.size),
        window=(float(t[0]), float(t[-1])),
    )


def rates_compatible(f1: RateFit, f2: RateFit, n_se: float = 3.0) -> bool:
    """Whether two fitted rates agree within n_se combined standard errors."""
    se = math.hypot(f1.rate_se, f2.rate_se)
    return abs(f1.rate - f2.rate) <= n_se * se


# ---------------------------------------------------------------------------
# experiments


def hitting_tail(
    p: ModelParams,
    scheme: SimScheme,
    x0s,
    seed: int,
    *,
    level: float,
    direction: str = "down",
    workers: int = 1,
    n_grid: int = 64,
) -> TailEstimate:
    """Tail of the first passage of the first component across a level.

    The first component is autonomous, so these runs skip the second one.
    """
    x0s = np.asarray(x0s, dtype=float)
    if direction == "down":
        out = sim.mc_system(
            p, scheme, x0s, None, seed, x_only=True, low=level, retire="low",
            workers=workers,
        )
        times = out["tau_minus"]
    elif direction == "up":
        out = sim.mc_system(
            p, scheme, x0s, None, seed, x_only=True, high=level, retire="high",
            workers=workers,
        )
        times = out["tau_plus"]
    else:
        raise InvalidParams("direction must be 'down' or 'up'")
    return TailEstimate.from_times(times, scheme.horizon, n_grid=n_grid)


def zbar_tail(
    p: ModelParams,
    scheme: SimScheme,
    M: float,
    z0s,
    seed: int,
    workers: int = 1,
    n_grid: int = 64,
) -> TailEstimate:
    """Absorption tail of the dominating frozen process."""
    out = sim.mc_zbar(p, scheme, M, z0s, seed, workers=workers)
    return TailEstimate.from_times(out["hitting"], scheme.horizon, n_grid=n_grid)


def coupling_tail(
    p: ModelParams,
    scheme: SimScheme,
    inits,
    seed: int,
    *,
    workers: int = 1,
    n_grid: int = 64,
) -> dict:
    """Meeting-time tails of the coupled pair from one 4-tuple of starts.

    Returns tail estimates for the first-component meeting time and the full
    meeting time, plus the aborted-path fraction (aborted paths count as
    never met, biasing the curves upward, never downward).
    """
    x0, xt0, y0, yt0 = (np.asarray(v, dtype=float) for v in inits)
    out = sim.mc_coupled(p, scheme, x0, xt0, y0, yt0, seed, workers=workers)
    est_x = TailEstimate.from_times(out["t_x"], scheme.horizon, n_grid=n_grid)
    est_full = TailEstimate.from_times(out["t_full"], scheme.horizon, n_grid=n_grid)
    n_abort = int(np.sum(np.isfinite(out["abort"])))
    return {"t_x": est_x, "t_full": est_full, "n_abort": n_abort, "raw": out}


def tv_upper_bound(est: TailEstimate, t: float, clamp: bool = False) -> dict:
    """Total variation bound 2 P(meeting > t) with its Wilson upper limit.

    With ``clamp`` a query beyond the horizon evaluates at the horizon
    (conservative); otherwise it is out of the simulated range.
    """
    if t > est.horizon and not clamp:
        raise OutOfGrid(
            "t=%g beyond simulated horizon %g (pass clamp=True for the "
            "conservative horizon value)" % (t, est.horizon)
        )
    p_hat, _, hi = est.survival_at(t)
    return {"t": float(t), "p_hat": p_hat, "bound": 2.0 * p_hat, "bound_hi": 2.0 * hi}


def cir_mean_hitting_time(b: float, gamma: float, sigma: float, z1: float) -> float:
    """Mean passage time below 1 of the mean-reverting branching diffusion.

    Computed from the Laplace-transform integral
    ``E = int_0^inf (e^{-s} - e^{-z1 s}) (1 + sigma s / b)^{gamma/sigma}
    / (s (b + sigma s)) ds`` for a start at ``z1 > 1``.
    """
    if sigma <= 0:
        raise NotApplicable("closed form needs sigma > 0")
    if not (b > 0 and gamma > 0):
        raise InvalidParams("b and gamma must be > 0")
    if z1 <= 1:
        return 0.0

    expo = gamma / sigma

    def integrand(s):
        # e^{-s} - e^{-z1 s} = -e^{-s} expm1(-(z1-1) s), stable for small s
        diff = -np.exp(-s) * np.expm1(-(z1 - 1.0) * s)
        weight = np.exp(expo * np.log1p(sigma * s / b))
        return diff * weight / (s * (b + sigma * s))

    v1, e1 = integrate.quad(integrand, 0.0, 1.0, limit=200)
    v2, e2 = integrate.quad(integrand, 1.0, np.inf, limit=200)
    val, err = v1 + v2, e1 + e2
    if err > 1e-8 * (1.0 + abs(val)):
        raise QuadratureFail("mean hitting integral error %g too large" % err)
    return float(val)


def cir_hitting_sample(
    b: float,
    gamma: float,
    sigma: float,
    scheme: SimScheme,
    z1: float,
    n_paths: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Monte Carlo mean passage time below 1, with its standard error."""
    z0s = np.full(n_paths, float(z1))
    out = sim.mc_cir(b, gamma, sigma, scheme, z0s, seed, workers=workers)
    times = out["hitting"]
    finite = times[np.isfinite(times)]
    frac_censored = 1.0 - finite.size / times.size
    if finite.size < 2:
        raise InsufficientPaths("almost all passage times censored")
    return {
        "mean": float(np.mean(finite)),
        "se": float(np.std(finite, ddof=1) / math.sqrt(finite.size)),
        "n": int(times.size),
        "frac_censored": frac_censored,
    }


def comparison_audit(
    p: ModelParams,
    scheme: SimScheme,
    init: tuple[float, float, float, float],
    M: float,
    n_paths: int,
    seed: int,
    *,
    workers: int = 1,
) -> dict:
    """Pathwise audit of the three comparison orderings before the exit time.

    Runs coupled pairs with the two dominating processes attached and
    reports, per ordering, the largest violation seen at any grid point and
    the fraction of paths whose violation exceeds the discretization
    tolerance ``3 sqrt(2 sigma2 dt scale) + 2 meet_tol``.

    An ordering can only fail inside a substep: when the comparison gap
    crosses zero the continuum processes have met, so the dominating process
    is projected onto the dominated one and the per-substep projection
    residual (the overshoot seeded within that single substep) is what the
    audit accumulates.  The per-event mean residual is the statistic that
    scales linearly with the substep length; per-path maxima mix in an
    extreme-value factor growing with the number of substeps.
    """
    x0, xt0, y0, yt0 = init
    ones = np.ones(n_paths)
    out = sim.mc_coupled(
        p,
        scheme,
        x0 * ones,
        xt0 * ones,
        y0 * ones,
        yt0 * ones,
        seed,
        M=M,
        with_aux=True,
        audit=True,
        high=2.0 * M,
        workers=workers,
    )
    scale = max(1.0, y0, zbar_equilibrium(p, M))
    tol = 3.0 * math.sqrt(2.0 * p.sigma2 * scheme.dt * scale) + 2.0 * scheme.meet_tol
    report = {"tol": tol, "n": n_paths, "scale": scale}
    for key, name in (
        ("viol_order", "pair_order"),
        ("viol_z", "difference_below_Z"),
        ("viol_zbar", "Z_below_Zbar"),
    ):
        v = out[key]
        v = v[np.isfinite(v)]
        entry = {
            "max_violation": float(np.max(v, initial=-math.inf)),
            "frac_over_tol": float(np.mean(v > tol)) if v.size else 0.0,
        }
        if key + "_cnt" in out:
            cnt = int(out[key + "_cnt"].sum())
            total = float(out[key + "_sum"].sum())
            entry["n_events"] = cnt
            entry["mean_event"] = total / cnt if cnt else 0.0
        report[name] = entry
    report["n_abort"] = int(np.sum(np.isfinite(out["abort"])))
    report["raw"] = out
    return report


def generator_residual(
    p: ModelParams,
    scheme: SimScheme,
    init: tuple[float, float],
    n_paths: int,
    seed: int,
    *,
    region: tuple[float, float] = (4.0, 4.0),
    n_nodes: int = 513,
    workers: int = 1,
) -> dict:
    """Dynkin residual of the separable quadratic along simulated paths.

    Tabulates the generator of ``x^2 + y^2`` through the custom-function
    evaluation hooks, integrates it along each path up to the exit of the
    region (or the horizon), and reports the sample mean of
    ``f(X_T) - f(X_0) - int L f`` with its standard error.  For the
    quadratic the sub-cutoff Gaussian substitution matches the jump variance
    exactly, so the residual is O(dt), not O(cutoff).
    """
    from .lyapunov import CustomFunction, eval_generator_xy, square_hook

    def _zero(z):
        return np.asarray(z, dtype=float) * 0.0

    zero = CustomFunction(_zero, _zero, _zero, label="zero", kinks=())
    sq = square_hook()
    x_hi, y_hi = region
    x_nodes = np.linspace(0.0, x_hi, n_nodes)
    y_nodes = np.linspace(0.0, y_hi, n_nodes)
    a_vals = eval_generator_xy(p, sq, zero, x_nodes, 0.0)
    b_vals = eval_generator_xy(p, zero, sq, 0.0, y_nodes)
    x0, y0 = init
    out = sim.mc_system(
        p,
        scheme,
        np.full(n_paths, float(x0)),
        np.full(n_paths, float(y0)),
        seed,
        dynkin=(x_nodes, a_vals, y_nodes, b_vals, p.k, x_hi, y_hi),
        workers=workers,
    )
    f0 = x0 * x0 + y0 * y0
    resid = out["dynkin_fT"] - f0 - out["dynkin_acc"]
    mean = float(np.mean(resid))
    se = float(np.std(resid, ddof=1) / math.sqrt(n_paths))
    return {"residual_mean": mean, "residual_se": se, "n": n_paths}


def localize_report(
    p: ModelParams,
    scheme: SimScheme,
    seed: int,
    *,
    M: float | None = None,
    start_scale: float = 10.0,
    n_paths: int = 2000,
    workers: int = 1,
) -> dict:
    """Estimates for the three localized ingredients of uniform ergodicity.

    (1) return of the first component below M from a far start, (2) full
    coupling started from the worst corner of the box [0, M]^2, (3) direct
    far-start coupling versus the product of the first two lower bounds.
    Certified time budgets from the drift certificates are attached when
    they are computable at this M, each flagged ``t0_vacuous`` when it
    exceeds the scheme's horizon; any certificate error marks its budget
    ``unavailable`` with the reason.
    """
    if M is None:
        M = m0_heuristic(p)
    budgets = {}
    from .lyapunov import meeting_time_budget

    for target in ("Xdiff", "Zbar"):
        try:
            b = meeting_time_budget(p, M, target=target)
        except BranchCoupleError as exc:
            budgets[target] = {"unavailable": str(exc)}
            continue
        budgets[target] = {
            "t0": b.t0,
            "t0_vacuous": b.t0 > scheme.horizon,
            "sup_value": b.sup_value,
            "certified_C": b.certified_C,
        }

    far = start_scale * M
    t_ret = scheme.horizon / 2.0
    est_ret = hitting_tail(
        p, scheme, np.full(n_paths, far), seed, level=M, direction="down",
        workers=workers,
    )
    _, _, p_ret_hi = est_ret.survival_at(t_ret)

    ct_box = coupling_tail(
        p,
        scheme,
        (np.full(n_paths, M), np.zeros(n_paths), np.full(n_paths, M), np.zeros(n_paths)),
        seed + 1,
        workers=workers,
    )
    t_cpl = scheme.horizon / 2.0
    _, _, p_cpl_hi = ct_box["t_full"].survival_at(t_cpl)

    ct_far = coupling_tail(
        p,
        scheme,
        (
            np.full(n_paths, far),
            np.zeros(n_paths),
            np.full(n_paths, far),
            np.zeros(n_paths),
        ),
        seed + 2,
        workers=workers,
    )
    p_far, _, p_far_hi = ct_far["t_full"].survival_at(t_ret + t_cpl)

    # lower bounds on the success probabilities from the Wilson upper limit
    # of the corresponding survival curve
    ret_lb = 1.0 - p_ret_hi
    cpl_lb = 1.0 - p_cpl_hi
    return {
        "M": M,
        "k_nonpositive": p.k <= 0,
        "budgets": budgets,
        "return_below_M": {
            "t": t_ret,
            "start": far,
            "prob_lower": ret_lb,
            "tail": est_ret.to_dict(),
        },
        "couple_from_box": {
            "t": t_cpl,
            "prob_lower": cpl_lb,
            "tail": ct_box["t_full"].to_dict(),
        },
        "far_start_couple": {
            "t": t_ret + t_cpl,
            "prob_direct": 1.0 - p_far,
            "prob_direct_lower": 1.0 - p_far_hi,
            "product_lower": ret_lb * cpl_lb,
            "tail": ct_far["t_full"].to_dict(),
        },
    }
