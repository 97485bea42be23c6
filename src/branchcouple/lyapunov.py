"""Lyapunov-type functions, generator evaluation, and drift certification.

The central object is a concave increasing three-piece function used twice:
once for the dominating one-dimensional proxy of the second-component
difference (label ``f``) and once for the first-component difference
(label ``h``).  The pieces are

* ``1 + z**beta`` on [0, l0],
* a saturating exponential on (l0, l1],
* a bounded power tail on (l1, infinity),

glued twice continuously differentiable.  ``beta`` and the constant
``kappa0`` come from the near-zero noise floor of the component; ``l0`` and
``l1`` are chosen so the generator applied to the function is strictly
negative on (0, infinity), which converts into an explicit meeting-time /
absorption-time budget ``t0 = 2 * sup V / C``.

Generator evaluation writes the jump part through the exact second-order
Taylor remainder,

    int D_xi V(z) n(dxi) = int_0^inf V''(z + s) K(s) ds,
    K(s) = int_s^inf (xi - s) n(dxi),

which is free of cancellation (no small differences of nearly equal function
values) and leaves a single integrable endpoint singularity that adaptive
quadrature handles directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import (
    ConditionFails,
    InvalidCertificate,
    InvalidRegion,
    QuadratureFail,
)
from .levy import CompoundPoisson, LevyMeasure, StableLike, ZeroMeasure
from .model import (
    ModelParams,
    drift_root,
    drift_x,
    drift_y,
    noise_floor,
    zbar_drift,
)

_QUAD_OPTS = dict(limit=400, epsabs=1e-13, epsrel=1e-12)


@dataclass(frozen=True)
class CustomFunction:
    """Ad-hoc C^2 test function given by three callables (value, V', V'')."""

    value_fn: Callable
    deriv1_fn: Callable
    deriv2_fn: Callable
    label: str = "custom"
    kinks: tuple = ()

    def value(self, z):
        return self.value_fn(z)

    def deriv1(self, z):
        return self.deriv1_fn(z)

    def deriv2(self, z):
        return self.deriv2_fn(z)


def identity_hook() -> CustomFunction:
    """V(z) = z; its compensated jump integral vanishes identically."""
    return CustomFunction(
        value_fn=lambda z: np.asarray(z, dtype=float),
        deriv1_fn=lambda z: np.ones_like(np.asarray(z, dtype=float)),
        deriv2_fn=lambda z: np.zeros_like(np.asarray(z, dtype=float)),
        label="identity",
    )


def square_hook() -> CustomFunction:
    """V(z) = z**2; its jump integral is the full second moment."""
    return CustomFunction(
        value_fn=lambda z: np.asarray(z, dtype=float) ** 2,
        deriv1_fn=lambda z: 2.0 * np.asarray(z, dtype=float),
        deriv2_fn=lambda z: np.full_like(np.asarray(z, dtype=float), 2.0),
        label="square",
    )


@dataclass(frozen=True)
class ThreePiece:
    """Concave increasing bounded Lyapunov function with two junctions."""

    label: str
    beta: float
    kappa0: float
    l0: float
    l1: float
    c0: float
    c1: float
    b: float
    alpha: float
    q: float  # positive-part linear drift coefficient used in the selection

    @property
    def kinks(self) -> tuple:
        return (self.l0, self.l1)

    def _masks(self, z):
        scalar = np.ndim(z) == 0
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return scalar, z, z <= self.l0, (z > self.l0) & (z <= self.l1), z > self.l1

    def _exp2(self, z):
        return np.exp(-(1.0 - self.beta) * (z - self.l0) / self.l0)

    def _bracket3(self, z):
        return self.c1 * (z - self.l1) + self.l1

    def value(self, z):
        scalar, z, m1, m2, m3 = self._masks(z)
        out = np.empty_like(z)
        beta, l0, l1 = self.beta, self.l0, self.l1
        out[m1] = 1.0 + z[m1] ** beta
        v_l0 = 1.0 + l0**beta
        amp = beta * l0**beta / (1.0 - beta)
        out[m2] = v_l0 + amp * (1.0 - self._exp2(z[m2]))
        v_l1 = v_l0 + amp * (1.0 - self._exp2(l1))
        coef = 2.0 * self.c0 / (self.b * self.c1 * (self.alpha - 1.0))
        out[m3] = v_l1 + coef * (
            l1 ** (1.0 - self.alpha) - self._bracket3(z[m3]) ** (1.0 - self.alpha)
        )
        return float(out[0]) if scalar else out

    def deriv1(self, z):
        scalar, z, m1, m2, m3 = self._masks(z)
        out = np.empty_like(z)
        beta, l0 = self.beta, self.l0
        with np.errstate(divide="ignore"):
            out[m1] = beta * z[m1] ** (beta - 1.0)
        out[m2] = beta * l0 ** (beta - 1.0) * self._exp2(z[m2])
        out[m3] = (2.0 * self.c0 / self.b) * self._bracket3(z[m3]) ** (-self.alpha)
        return float(out[0]) if scalar else out

    def deriv2(self, z):
        scalar, z, m1, m2, m3 = self._masks(z)
        out = np.empty_like(z)
        beta, l0 = self.beta, self.l0
        with np.errstate(divide="ignore"):
            out[m1] = -beta * (1.0 - beta) * z[m1] ** (beta - 2.0)
        out[m2] = -beta * (1.0 - beta) * l0 ** (beta - 2.0) * self._exp2(z[m2])
        out[m3] = -(2.0 * self.c0 * self.c1 * self.alpha / self.b) * self._bracket3(
            z[m3]
        ) ** (-self.alpha - 1.0)
        return float(out[0]) if scalar else out

    def sup_value(self) -> float:
        """Closed-form supremum (the limit at infinity)."""
        beta, l0, l1, alpha = self.beta, self.l0, self.l1, self.alpha
        v_l1 = float(self.value(l1))
        return v_l1 + beta * alpha * l0**beta * float(self._exp2(l1)) / (
            (1.0 - beta) * (alpha - 1.0)
        )

    def tail_margin(self) -> float:
        """Guaranteed limit of -LV at infinity for the matching generator."""
        return self.c0 / self.c1**self.alpha

    def params_dict(self) -> dict:
        return {
            "beta": self.beta,
            "kappa0": self.kappa0,
            "l0": self.l0,
            "l1": self.l1,
            "c0": self.c0,
            "c1": self.c1,
        }


def _three_piece(label, beta, kappa0, q, b, alpha) -> ThreePiece:
    """Select junctions for the three-piece function.

    ``q`` bounds the positive part of the linear drift coefficient of the
    dominated difference process.  The three entries of the ``l0`` selection
    keep, in order: the saturation scale below the diffusive regime, the
    piece-1 drift term dominated by the noise floor, and the piece-2 decay
    rate at least 1.  ``l1`` is where the competition term doubles the linear
    growth.  The 0.9 factor keeps every inequality strict.
    """
    qpos = max(q, 0.0)
    entries = [1.0 - beta]
    if qpos > 0.0:
        entries.append(
            (kappa0 * (1.0 - beta) * 2.0 ** (beta - 3.0) * math.exp(beta - 1.0) / qpos)
            ** (1.0 / (2.0 * beta))
        )
    entries.append((1.0 - beta) * (kappa0 / (qpos + 1.0)) ** (1.0 / (2.0 * beta)))
    l0 = 0.9 * min(entries)
    if qpos > 0.0:
        l1 = max(2.0, 2.0 * (2.0 * qpos / b) ** (1.0 / (alpha - 1.0)))
    else:
        l1 = 2.0
    c0 = (
        0.5
        * b
        * beta
        * l0 ** (beta - 1.0)
        * l1**alpha
        * math.exp(-(1.0 - beta) * (l1 - l0) / l0)
    )
    c1 = (1.0 - beta) * l1 / (alpha * l0)
    return ThreePiece(
        label=label,
        beta=beta,
        kappa0=kappa0,
        l0=l0,
        l1=l1,
        c0=c0,
        c1=c1,
        b=b,
        alpha=alpha,
        q=qpos,
    )


def make_f(p: ModelParams, M: float) -> ThreePiece:
    """Absorption Lyapunov function for the frozen dominating process.

    The dominated process has drift ``model.zbar_drift``,
    ``(2 k M + a2) z - b2 z**alpha2`` (the predation coefficient frozen at
    its bound below the exit level ``2M``; frozen at zero when ``k <= 0``).
    Requires ``alpha2 > 1`` and a noise floor for component 2.
    """
    if p.alpha2 <= 1.0:
        raise ConditionFails("three-piece construction requires alpha2 > 1")
    beta, kappa0 = noise_floor(p, 2)
    q = 2.0 * max(p.k, 0.0) * M + max(p.a2, 0.0)
    return _three_piece("f", beta, kappa0, q, p.b2, p.alpha2)


def make_h(p: ModelParams) -> ThreePiece:
    """Meeting Lyapunov function for the first-component difference.

    The difference of the coupled pair is dominated by drift
    ``-b1 z**alpha1 + a1 z`` (no immigration, no predation), so the linear
    coefficient bound is ``max(a1, 0)``.
    """
    if p.alpha1 <= 1.0:
        raise ConditionFails("three-piece construction requires alpha1 > 1")
    beta, kappa0 = noise_floor(p, 1)
    return _three_piece("h", beta, kappa0, max(p.a1, 0.0), p.b1, p.alpha1)


@dataclass(frozen=True)
class ExitProbe:
    """g(x) = 2 - (1+x)**(-(alpha-1)/2): bounded, increasing, concave."""

    alpha: float
    label: str = "g"
    kinks: tuple = ()

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = 2.0 - (1.0 + x) ** (-(self.alpha - 1.0) / 2.0)
        return out if out.ndim else float(out)

    def deriv1(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.5 * (self.alpha - 1.0) * (1.0 + x) ** (-(self.alpha + 1.0) / 2.0)
        return out if out.ndim else float(out)

    def deriv2(self, x):
        x = np.asarray(x, dtype=float)
        out = (
            0.25
            * (1.0 - self.alpha**2)
            * (1.0 + x) ** (-(self.alpha + 3.0) / 2.0)
        )
        return out if out.ndim else float(out)

    def sup_value(self) -> float:
        return 2.0

    def tail_margin(self) -> float:
        return math.inf


def make_g(p: ModelParams) -> ExitProbe:
    if p.alpha1 <= 1.0:
        raise ConditionFails("exit probe requires alpha1 > 1")
    return ExitProbe(alpha=p.alpha1)


@dataclass(frozen=True)
class Barrier:
    """w(x) = M / (M + x): decreasing convex barrier for exit probabilities."""

    M: float
    label: str = "w"
    kinks: tuple = ()

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = self.M / (self.M + x)
        return out if out.ndim else float(out)

    def deriv1(self, x):
        x = np.asarray(x, dtype=float)
        out = -self.M / (self.M + x) ** 2
        return out if out.ndim else float(out)

    def deriv2(self, x):
        x = np.asarray(x, dtype=float)
        out = 2.0 * self.M / (self.M + x) ** 3
        return out if out.ndim else float(out)


def make_w(M: float) -> Barrier:
    if not (M > 0):
        raise InvalidRegion("barrier level must be > 0")
    return Barrier(M=M)


@dataclass(frozen=True)
class SmoothingFamily:
    """Smoothed positive part phi_n approximating z+ from below.

    The second derivative is the log kernel ``1/(n z)`` supported on
    ``(a_n, a_{n-1})`` with ``a_n = exp(-n(n+1)/2)``, so
    ``z * phi_n''(z) <= 2/n`` and ``0 < phi_n' <= 1``.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidRegion("smoothing index must be >= 1")

    @property
    def lower(self) -> float:
        return math.exp(-self.n * (self.n + 1) / 2.0)

    @property
    def upper(self) -> float:
        return math.exp(-(self.n - 1) * self.n / 2.0)

    def psi(self, z):
        scalar = np.ndim(z) == 0
        z = np.atleast_1d(np.asarray(z, dtype=float))
        inside = (z > self.lower) & (z < self.upper)
        with np.errstate(divide="ignore"):
            out = np.where(inside, 1.0 / (self.n * np.maximum(z, 1e-300)), 0.0)
        return float(out[0]) if scalar else out

    def value(self, z):
        scalar = np.ndim(z) == 0
        z = np.atleast_1d(np.asarray(z, dtype=float))
        a, bnd, n = self.lower, self.upper, self.n
        out = np.zeros_like(z)
        mid = (z > a) & (z <= bnd)
        hi = z > bnd
        zm = z[mid]
        out[mid] = (zm * np.log(zm / a) - zm + a) / n
        phi_b = (bnd * n - bnd + a) / n
        out[hi] = phi_b + (z[hi] - bnd)
        return float(out[0]) if scalar else out

    def deriv1(self, z):
        scalar = np.ndim(z) == 0
        z = np.atleast_1d(np.asarray(z, dtype=float))
        a, bnd, n = self.lower, self.upper, self.n
        out = np.zeros_like(z)
        mid = (z > a) & (z <= bnd)
        out[mid] = np.log(z[mid] / a) / n
        out[z > bnd] = 1.0
        return float(out[0]) if scalar else out

    def deriv2(self, z):
        return self.psi(z)


def make_smoothing(n: int) -> SmoothingFamily:
    return SmoothingFamily(n=n)


# ---------------------------------------------------------------------------
# generator evaluation


def _remainder_kernel(measure: StableLike):
    """K(s) = int_s^U (xi - s) n(dxi) in closed form for stable-like."""
    c, theta, u = measure.c, measure.theta, measure.truncation

    if u is None:

        def kernel(s):
            return c * s ** (1.0 - theta) / (theta * (theta - 1.0))

    else:
        u1 = u ** (1.0 - theta)
        u0 = u**-theta

        def kernel(s):
            if s >= u:
                return 0.0
            return c * (
                (s ** (1.0 - theta) - u1) / (theta - 1.0)
                - s * (s**-theta - u0) / theta
            )

    return kernel


def _quad_sum(fn, lo, hi, splits):
    """Integrate fn over (lo, hi) splitting at interior points; hi may be inf."""
    splits = sorted(s for s in splits if lo < s < hi)
    total, err = 0.0, 0.0
    edges = [lo] + splits
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if math.isinf(hi):
            far = max(edges[-1] * 2.0, edges[-1] + 1.0, 1.0)
            for a, b in zip(edges, edges[1:] + [far]):
                v, e = quad(fn, a, b, **_QUAD_OPTS)
                total += v
                err += e
            v, e = quad(fn, far, np.inf, **_QUAD_OPTS)
            total += v
            err += e
        else:
            for a, b in zip(edges, edges[1:] + [hi]):
                v, e = quad(fn, a, b, **_QUAD_OPTS)
                total += v
                err += e
    return total, err


def jump_integral(measure: LevyMeasure, V, z: float) -> tuple[float, float]:
    """(value, error estimate) of ``int D_xi V(z) n(dxi)`` at a point.

    ``D_xi V(z) = V(z+xi) - V(z) - xi V'(z)`` is integrated through the
    remainder form ``int V''(z+s) K(s) ds`` so the result never involves
    differences of nearly equal values of V.
    """
    z = float(z)
    if isinstance(measure, ZeroMeasure):
        return 0.0, 0.0
    kinks = [k - z for k in getattr(V, "kinks", ()) if k - z > 0.0]
    if isinstance(measure, CompoundPoisson):
        s0 = measure.size

        def fn(r):
            return (s0 - r) * float(V.deriv2(z + r))

        value, err = _quad_sum(fn, 0.0, s0, kinks)
        return measure.rate * value, measure.rate * err
    kernel = _remainder_kernel(measure)

    def fn(s):
        return float(V.deriv2(z + s)) * kernel(s)

    upper = measure.truncation if measure.truncation is not None else math.inf
    return _quad_sum(fn, 0.0, upper, kinks)


_TARGETS = ("Zbar", "Xdiff", "X")


def _target_pieces(p: ModelParams, target: str, M: float | None):
    if target == "Zbar":
        if M is None:
            raise InvalidRegion("target 'Zbar' needs the freeze level M")
        return (lambda z: zbar_drift(p, M, z)), p.sigma2, p.n2
    if target == "Xdiff":
        return (lambda z: -p.b1 * z**p.alpha1 + p.a1 * z), p.sigma1, p.n1
    if target == "X":
        return (lambda z: drift_x(p, z)), p.sigma1, p.n1
    raise InvalidRegion("unknown generator target %r (one of %s)" % (target, _TARGETS))


def _generator(drift: float, sigma: float, measure: LevyMeasure, V, z: float) -> float:
    """``drift V'(z) + sigma z V''(z) + z int D_xi V(z) n(dxi)``.

    Raises ``QuadratureFail`` when the jump integral cannot be resolved to
    absolute tolerance ``1e-9 * (1 + |result|)``.
    """
    jump, jerr = jump_integral(measure, V, z)
    result = drift * float(V.deriv1(z)) + sigma * z * float(V.deriv2(z)) + z * jump
    if z * jerr > 1e-9 * (1.0 + abs(result)):
        raise QuadratureFail(
            "jump integral error %g exceeds tolerance at z=%g" % (z * jerr, z)
        )
    return float(result)


def eval_generator_1d(
    p: ModelParams, V, z: float, target: str, M: float | None = None
) -> float:
    """Generator of a one-dimensional comparison process applied to V at z.

    Targets: ``Zbar`` (frozen dominating process for component 2, drift
    ``model.zbar_drift``), ``Xdiff`` (first-component difference, drift
    ``-b1 z**alpha1 + a1 z``), ``X`` (full first component, drift
    ``model.drift_x``).  Raises ``QuadratureFail`` when the jump integral
    cannot be resolved to absolute tolerance ``1e-9 * (1 + |result|)``.
    """
    drift, sigma, measure = _target_pieces(p, target, M)
    z = float(z)
    return _generator(drift(z), sigma, measure, V, z)


def eval_generator_xy(p: ModelParams, u, v, x: float, y: float) -> float:
    """Full two-dimensional generator on a separable function u(x) + v(y)."""
    x, y = float(x), float(y)
    part_x = eval_generator_1d(p, u, x, "X") if x > 0 else p.gamma1 * float(u.deriv1(x))
    part_y = _generator(drift_y(p, x, y, p.gamma2), p.sigma2, p.n2, v, y)
    return part_x + part_y


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class DriftCertificate:
    function_label: str
    function_params: dict
    target: str
    M: float | None
    region: tuple[float, float]
    z_grid: np.ndarray
    lv: np.ndarray
    certified_C: float
    margin_at_infinity: float
    valid: bool

    def to_dict(self) -> dict:
        return {
            "function": self.function_label,
            "params": self.function_params,
            "target": self.target,
            "M": self.M,
            "region": list(self.region),
            "certified_C": self.certified_C,
            "tail_margin": self.margin_at_infinity,
            "valid": self.valid,
        }


def default_region(V, z_hi: float = 1e3) -> tuple[float, float]:
    """Certificate region for a three-piece function.

    Starts at ``1/n0`` with ``n0 = ceil(2/l0)``: below that the smoothed
    truncations of the function, not the function itself, carry the drift
    argument, so the grid starts where the plain function is authoritative.
    """
    if isinstance(V, ThreePiece):
        n0 = math.ceil(2.0 / V.l0)
        return (1.0 / n0, z_hi)
    return (1e-3, z_hi)


def certify_drift(
    p: ModelParams,
    V,
    target: str,
    region: tuple[float, float] | None = None,
    M: float | None = None,
    n_grid: int = 400,
) -> DriftCertificate:
    """Grid certificate that -LV stays positive on a log-spaced region.

    ``certified_C`` is the minimum of ``-LV`` over the grid;
    ``margin_at_infinity`` is the closed-form guaranteed limit of ``-LV``
    (``c0 / c1**alpha`` for the three-piece functions).  ``valid`` requires
    both positive.
    """
    if region is None:
        region = default_region(V)
    z_lo, z_hi = float(region[0]), float(region[1])
    if not (0.0 < z_lo < z_hi):
        raise InvalidRegion("certificate region must satisfy 0 < z_lo < z_hi")
    z_grid = np.geomspace(z_lo, z_hi, n_grid)
    lv = np.array([eval_generator_1d(p, V, z, target, M=M) for z in z_grid])
    certified_c = float(np.min(-lv))
    margin = float(V.tail_margin()) if hasattr(V, "tail_margin") else math.nan
    valid = certified_c > 0.0 and not (margin <= 0.0)
    params = V.params_dict() if hasattr(V, "params_dict") else {}
    return DriftCertificate(
        function_label=getattr(V, "label", "custom"),
        function_params=params,
        target=target,
        M=M,
        region=(z_lo, z_hi),
        z_grid=z_grid,
        lv=lv,
        certified_C=certified_c,
        margin_at_infinity=margin,
        valid=valid,
    )


@dataclass(frozen=True)
class BarrierReport:
    """Sign certificate for the drift term of the barrier on [M, 2M]."""

    M: float
    drift_root: float
    min_drift_term: float
    prob_lower_bound: float
    valid: bool

    def to_dict(self) -> dict:
        return asdict(self)


def certify_exit_barrier(p: ModelParams, M: float, n_grid: int = 128) -> BarrierReport:
    """Check ``phi(x) w'(x) > 0`` on [M, 2M] for the barrier w(x) = M/(M+x).

    Since w is decreasing and convex, positivity of the drift term makes
    w(X) a submartingale up to the exit of [M, 2M]; optional stopping then
    lower-bounds the probability of exiting below:
    ``(w(3M/2) - w(2M)) / (sup w - w(2M)) = 1/10``.
    """
    w = make_w(M)
    x0 = drift_root(p)
    grid = np.linspace(M, 2.0 * M, n_grid)
    term = drift_x(p, grid) * w.deriv1(grid)
    bound = (float(w.value(1.5 * M)) - float(w.value(2.0 * M))) / (
        1.0 - float(w.value(2.0 * M))
    )
    return BarrierReport(
        M=M,
        drift_root=x0,
        min_drift_term=float(np.min(term)),
        prob_lower_bound=bound,
        valid=bool(M > x0 and np.all(term > 0.0)),
    )


@dataclass(frozen=True)
class MeetingBudget:
    sup_value: float
    certified_C: float
    t0: float
    certificate: DriftCertificate

    def to_dict(self) -> dict:
        return {
            "sup_value": self.sup_value,
            "certified_C": self.certified_C,
            "t0": self.t0,
            "certificate": self.certificate.to_dict(),
        }


def budget_from(sup_value: float, certified_c: float, slack: float = 0.05) -> float:
    """Time budget 2 * sup V / C, padded by the slack factor.

    Any time strictly above ``2 sup V / C`` bounds the absorption (or
    meeting) probability by 1/2 via the drift inequality; the slack keeps
    the strictness quantitative.
    """
    if not (certified_c > 0.0):
        raise InvalidCertificate("certified drift constant must be > 0")
    return 2.0 * sup_value / certified_c * (1.0 + slack)


def meeting_time_budget(
    p: ModelParams,
    M: float,
    target: str = "Zbar",
    region: tuple[float, float] | None = None,
    n_grid: int = 400,
    slack: float = 0.05,
) -> MeetingBudget:
    """Certificate-backed time budget for absorption/meeting of a target.

    ``Zbar`` builds the f-function for the dominating process frozen at M;
    ``Xdiff`` builds the h-function for the first-component difference.
    Raises ``InvalidCertificate`` when the drift certificate fails.
    """
    if target == "Zbar":
        V = make_f(p, M)
    elif target == "Xdiff":
        V = make_h(p)
    else:
        raise InvalidRegion("budget target must be 'Zbar' or 'Xdiff'")
    cert = certify_drift(p, V, target, region=region, M=M, n_grid=n_grid)
    if not cert.valid:
        raise InvalidCertificate(
            "drift certificate invalid for %s (C=%g, margin=%g)"
            % (target, cert.certified_C, cert.margin_at_infinity)
        )
    sup_v = V.sup_value()
    return MeetingBudget(
        sup_value=sup_v,
        certified_C=cert.certified_C,
        t0=budget_from(sup_v, cert.certified_C, slack),
        certificate=cert,
    )
