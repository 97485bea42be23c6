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
values).  For a stable-like measure ``K(s) = A s^(1-theta) + B + C s``; the
singular part is integrated in ``r = s^(2-theta)``, where
``s^(1-theta) ds/dr = 1/(2-theta)`` is constant, so the endpoint singularity
cancels in closed form, and the polynomial part in s.  Each node's range is
cut into cells at the kinks of V, on a ratio-2 grading around the node, and
(for the three-piece functions) across the exponential piece and from the
pole of the power tail; every cell of every node goes through one fixed
21-point Gauss-Kronrod rule in a single array pass, and the error estimate
is the sum over the cells of ``|Kronrod - embedded Gauss|``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    ConditionFails,
    InvalidCertificate,
    InvalidParams,
    InvalidRegion,
    QuadratureFail,
)
from .levy import CompoundPoisson, LevyMeasure, ZeroMeasure
from .model import (
    ModelParams,
    drift_root,
    drift_x,
    drift_y,
    m0_heuristic,
    noise_floor,
    zbar_drift,
)


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
    try:
        l1 = max(2.0, 2.0 * (2.0 * qpos / b) ** (1.0 / (alpha - 1.0)))
        c0 = 0.5 * b * beta * l0 ** (beta - 1.0) * l1**alpha
    except OverflowError:
        raise ConditionFails(
            "%s: the junction l1 = 2 (2q/b)^(1/(alpha-1)) overflows at q=%g, "
            "b=%g, alpha=%g" % (label, qpos, b, alpha)
        ) from None
    c0 *= math.exp(-(1.0 - beta) * (l1 - l0) / l0)
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
    def kinks(self) -> tuple:
        """Where V'' jumps: the ends of the support of the log kernel."""
        return (self.lower, self.upper)

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


# QUADPACK's 21-point Gauss-Kronrod pair (qk21; Piessens et al. 1983): the
# non-negative Kronrod abscissae on [-1, 1] in decreasing order, their
# weights, and the weights of the embedded 10-point Gauss rule, which uses
# every second abscissa.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525103948, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0,
])
_X21 = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK21 = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG21 = np.concatenate([_WG[:-1], _WG[::-1]])

# Breakpoints z 2^k of the geometric grading around a node z: up to the far
# end of an untruncated measure, and down toward s = 0, where
# V''(z + r^(1/(2-theta))) is not smooth in r unless 1/(2-theta) is an integer.
_GRADING = 2.0 ** np.arange(-32, 61)
# Geometric grading of the power tail of a three-piece function from its pole.
_POLE_GRADING = 2.0 ** np.arange(61)
# Cells of two decay lengths across the exponential piece past max(z, l0);
# beyond 64 decay lengths V'' is below exp(-64) of its value there.
_EXP_CELLS = 32
# Cells per vectorized evaluation (21 points each), which bounds the memory.
_CHUNK = 256
# Absolute tolerance of z * (jump integral error), relative to 1 + |LV|.
_QUAD_TOL = 1e-9


def _kernel(measure):
    """``(A, B, C, theta, upper)`` with ``K(s) = A s^(1-theta) + B + C s``
    on ``(0, upper)``, ``K(s) = int_s^inf (xi - s) n(dxi)``."""
    if isinstance(measure, CompoundPoisson):  # A = 0: theta is never used
        return 0.0, measure.rate * measure.size, -measure.rate, 1.0, measure.size
    c, theta, u = measure.c, measure.theta, measure.truncation
    a = c / (theta * (theta - 1.0))
    if u is None:
        return a, 0.0, 0.0, theta, math.inf
    return a, -c * u ** (1.0 - theta) / (theta - 1.0), c * u**-theta / theta, theta, u


def _cell_plan(V, z, upper):
    """Cells ``(node, a, b)`` in the jump size s covering (0, upper) per node.

    Breakpoints: the kinks of V; the grading ``z 2^k`` (ratio 2), because
    V'' of every function here is singular at ``s = -z`` or further left;
    and for a three-piece function cells of two decay lengths across the
    exponential piece and a ratio-2 grading of the power tail from its pole
    (where ``c1 (x - l1) + l1 = 0``).  Under an untruncated measure the last
    cell is ``[z 2^60, inf)``.  Cells come out node by node, in order.
    """
    n = z.size
    scale = np.where(z > 0.0, z, 1.0)[:, None]  # a node at 0 has no scale
    top = np.full((n, 1), upper) if math.isfinite(upper) else scale * _GRADING[-1]
    # a grading point at or past every node's top would only end zero-length
    # cells, so the gradings stop below the largest top
    reach = top.max(initial=0.0)
    cols = [scale * _GRADING[_GRADING * scale.min(initial=math.inf) < reach]]
    cols += [np.full((n, 1), k) - z[:, None] for k in getattr(V, "kinks", ())]
    if isinstance(V, ThreePiece):
        cell = 2.0 * V.l0 / (1.0 - V.beta)
        first = np.floor((np.maximum(z, V.l0) - V.l0) / cell)
        x_exp = V.l0 + cell * (first[:, None] + np.arange(1, _EXP_CELLS + 1))
        cols.append(np.where(x_exp < V.l1, x_exp, -math.inf) - z[:, None])
        pole = V.l1 - V.l1 / V.c1
        x_pole = pole + (V.l1 - pole) * _POLE_GRADING
        cols.append(x_pole[x_pole - z.max(initial=-math.inf) < reach] - z[:, None])
    pts = np.concatenate(cols, axis=1)
    pts = np.where((pts > 0.0) & (pts < top), pts, top)
    pts.sort(axis=1)
    edges = [np.zeros((n, 1)), pts, top]
    if not math.isfinite(upper):
        edges.append(np.full((n, 1), math.inf))
    edges = np.concatenate(edges, axis=1)
    a, b = edges[:, :-1], edges[:, 1:]
    keep = b > a
    node = np.broadcast_to(np.arange(n)[:, None], a.shape)[keep]
    return node, a[keep], b[keep]


def _integrand(V, kernel, z, a, b):
    """Integrand times Jacobian at the 21 rule points of each cell.

    The part ``A s^(1-theta)`` of the kernel is integrated in
    ``r = s^(2-theta)``, where ``s^(1-theta) ds/dr = 1/(2-theta)``, so the
    endpoint singularity cancels in closed form; a cell ``[a, inf)`` maps
    onto (0, 1] by ``r = a^(2-theta) / t``.  The polynomial part ``B + C s``
    is integrated in s.
    """
    coef, lin0, lin1, theta, _ = kernel
    zc = z[:, None]
    out = np.zeros((a.size, _X21.size))
    if lin0 or lin1:
        half = 0.5 * (b - a)[:, None]
        s = 0.5 * (a + b)[:, None] + half * _X21
        out += V.deriv2(zc + s) * (lin0 + lin1 * s) * half
    if coef:
        q = 2.0 - theta
        tail = np.isinf(b)
        ra = a**q
        rb = np.where(tail, a, b) ** q
        half = 0.5 * (rb - ra)[:, None]
        r = 0.5 * (ra + rb)[:, None] + half * _X21
        jac = np.repeat(half, _X21.size, axis=1)
        if tail.any():
            t = 0.5 * (1.0 + _X21)
            r[tail] = ra[tail, None] / t
            jac[tail] = 0.5 * ra[tail, None] / t**2
        out += V.deriv2(zc + r ** (1.0 / q)) * (coef / q) * jac
    return out


def _shaped(z, out):
    """A float for a scalar ``z``, else ``out`` in the shape of ``z``."""
    return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def jump_integral(measure: LevyMeasure, V, z):
    """(value, error estimate) of ``int D_xi V(z) n(dxi)`` at the nodes z.

    ``D_xi V(z) = V(z+xi) - V(z) - xi V'(z)`` is integrated through the
    remainder form ``int V''(z+s) K(s) ds`` so the result never involves
    differences of nearly equal values of V.  Every cell of every node goes
    through one fixed Gauss-Kronrod pair (K21 with its embedded G10); the
    value is the Kronrod sum and the error the sum of ``|K21 - G10|`` over
    the cells.  Floats for a scalar ``z``, arrays in its shape otherwise.
    """
    zs = np.asarray(z, dtype=float).ravel()
    value, err = np.zeros_like(zs), np.zeros_like(zs)
    if not isinstance(measure, ZeroMeasure):
        kernel = _kernel(measure)
        node, a, b = _cell_plan(V, zs, kernel[-1])
        kron, diff = np.empty(a.size), np.empty(a.size)
        for lo in range(0, a.size, _CHUNK):
            cut = slice(lo, lo + _CHUNK)
            vals = _integrand(V, kernel, zs[node[cut]], a[cut], b[cut])
            kron[cut] = (vals * _WK21).sum(axis=1)
            diff[cut] = np.abs(kron[cut] - (vals * _WG21).sum(axis=1))
        value = np.bincount(node, kron, zs.size)
        err = np.bincount(node, diff, zs.size)
    return _shaped(z, value), _shaped(z, err)


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


def _generator(drift, sigma: float, measure: LevyMeasure, V, z: np.ndarray):
    """``(LV, z * error)`` at the nodes z, with
    ``LV = drift V'(z) + sigma z V''(z) + z int D_xi V(z) n(dxi)``.

    Raises ``QuadratureFail``, naming the worst node, when the jump integral
    misses the absolute tolerance ``1e-9 * (1 + |LV|)`` at any node.
    """
    jump, jerr = jump_integral(measure, V, z)
    lv = drift * V.deriv1(z) + sigma * z * V.deriv2(z) + z * jump
    zerr = z * jerr
    bad = zerr > _QUAD_TOL * (1.0 + np.abs(lv))
    if bad.any():
        worst = int(np.argmax(np.where(bad, zerr / (1.0 + np.abs(lv)), -math.inf)))
        raise QuadratureFail(
            "jump integral error %g exceeds tolerance at z=%g" % (zerr[worst], z[worst])
        )
    return lv, zerr


def eval_generator_1d(p: ModelParams, V, z, target: str, M: float | None = None):
    """Generator of a one-dimensional comparison process applied to V at z.

    Targets: ``Zbar`` (frozen dominating process for component 2, drift
    ``model.zbar_drift``), ``Xdiff`` (first-component difference, drift
    ``-b1 z**alpha1 + a1 z``), ``X`` (full first component, drift
    ``model.drift_x``).  ``z`` is a node or an array of nodes; a float comes
    back for a scalar.  Raises ``QuadratureFail`` when the jump integral
    cannot be resolved to absolute tolerance ``1e-9 * (1 + |result|)``.
    """
    drift, sigma, measure = _target_pieces(p, target, M)
    zs = np.asarray(z, dtype=float).ravel()
    return _shaped(z, _generator(drift(zs), sigma, measure, V, zs)[0])


def eval_generator_xy(p: ModelParams, u, v, x, y):
    """Full two-dimensional generator on a separable function u(x) + v(y).

    ``x`` and ``y`` broadcast against each other; a float comes back for
    scalars.
    """
    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    xs, ys = xb.ravel(), yb.ravel()
    # at x = 0 only the immigration moves the first component
    part_x = p.gamma1 * np.asarray(u.deriv1(xs), dtype=float)
    inside = xs > 0.0
    if inside.any():
        part_x[inside] = eval_generator_1d(p, u, xs[inside], "X")
    part_y, _ = _generator(drift_y(p, xs, ys, p.gamma2), p.sigma2, p.n2, v, ys)
    return _shaped(xb, part_x + part_y)


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
    max_quad_err: float  # largest z * (jump integral error) over the nodes
    argmin_z: float  # the node where certified_C is attained
    C_over_err: float  # min over the nodes of -LV / (z * error), inf where error = 0
    sup_value: float | None = None
    t0: float | None = None  # time budget, carried by a valid f or h certificate

    def to_dict(self) -> dict:
        out = {
            "function": self.function_label,
            "params": self.function_params,
            "target": self.target,
            "M": self.M,
            "region": list(self.region),
            "certified_C": self.certified_C,
            "tail_margin": self.margin_at_infinity,
            "valid": self.valid,
            "max_quad_err": self.max_quad_err,
            "argmin_z": self.argmin_z,
            "C_over_err": self.C_over_err,
        }
        if self.t0 is not None:
            out["t0"] = self.t0
        return out


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
    both positive.  ``max_quad_err`` is the largest error estimate of the
    jump term ``z int D_xi V(z) n(dxi)`` over the grid, ``argmin_z`` the
    node of the minimum and ``C_over_err`` the smallest ratio of ``-LV`` to
    that error estimate over the nodes.
    """
    drift, sigma, measure = _target_pieces(p, target, M)
    if region is None:
        region = default_region(V)
    z_lo, z_hi = float(region[0]), float(region[1])
    if not (0.0 < z_lo < z_hi):
        raise InvalidRegion("certificate region must satisfy 0 < z_lo < z_hi")
    z_grid = np.geomspace(z_lo, z_hi, n_grid)
    lv, zerr = _generator(drift(z_grid), sigma, measure, V, z_grid)
    imin = int(np.argmin(-lv))
    certified_c = float(-lv[imin])
    margin = float(V.tail_margin()) if hasattr(V, "tail_margin") else math.nan
    valid = certified_c > 0.0 and not (margin <= 0.0)
    params = V.params_dict() if hasattr(V, "params_dict") else {}
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(zerr > 0.0, -lv / zerr, math.inf)
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
        max_quad_err=float(np.max(zerr)),
        argmin_z=float(z_grid[imin]),
        C_over_err=float(np.min(ratio)),
        sup_value=float(V.sup_value()) if hasattr(V, "sup_value") else None,
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


def budget_from(sup_value: float, certified_c: float, slack: float = 0.05) -> float:
    """Time budget 2 * sup V / C, padded by the slack factor.

    Any time strictly above ``2 sup V / C`` bounds the absorption (or
    meeting) probability by 1/2 via the drift inequality; the slack keeps
    the strictness quantitative.
    """
    if not (certified_c > 0.0):
        raise InvalidCertificate("certified drift constant must be > 0")
    return 2.0 * sup_value / certified_c * (1.0 + slack)


# Each certified function: its constructor from (p, M), the comparison process
# whose generator it is certified against, and whether a valid certificate
# carries the absorption (f) or meeting (h) budget t0 = 2 sup V / C.
_CERTIFIED = {
    "f": (make_f, "Zbar", True),
    "h": (lambda p, M: make_h(p), "Xdiff", True),
    "g": (lambda p, M: make_g(p), "X", False),
}


def certify(
    p: ModelParams,
    function: str,
    M: float | None = None,
    region: tuple[float, float] | None = None,
    n_grid: int = 400,
) -> DriftCertificate:
    """Drift certificate of ``function`` (``f``, ``h`` or ``g``) against its
    target.

    The region defaults to ``default_region`` for f and h and to
    ``(M0, 10 M0)`` for the exit probe g (``M0 = model.m0_heuristic``).  A
    valid f or h certificate carries ``t0 = budget_from(sup V, C)``.
    """
    if function not in _CERTIFIED:
        raise InvalidParams(
            "unknown certificate function %r (one of %s)" % (function, ", ".join(_CERTIFIED))
        )
    make, target, budget = _CERTIFIED[function]
    if M is None and target == "Zbar":
        raise InvalidRegion("function %r needs the freeze level M" % function)
    if region is None and function == "g":
        m0 = m0_heuristic(p)
        region = (m0, 10.0 * m0)
    cert = certify_drift(p, make(p, M), target, region=region, M=M, n_grid=n_grid)
    if budget and cert.valid:
        cert = replace(cert, t0=budget_from(cert.sup_value, cert.certified_C))
    return cert


def meeting_time_budget(
    p: ModelParams,
    M: float,
    target: str = "Zbar",
    region: tuple[float, float] | None = None,
    n_grid: int = 400,
) -> DriftCertificate:
    """Certificate-backed time budget for absorption/meeting of a target.

    ``Zbar`` certifies f for the dominating process frozen at M, ``Xdiff``
    certifies h for the first-component difference; the budget is the
    certificate's ``t0``.  Raises ``InvalidCertificate`` when the drift
    certificate fails.
    """
    functions = {t: name for name, (_, t, budget) in _CERTIFIED.items() if budget}
    if target not in functions:
        raise InvalidRegion("budget target must be one of %s" % ", ".join(functions))
    cert = certify(p, functions[target], M=M, region=region, n_grid=n_grid)
    if not cert.valid:
        raise InvalidCertificate(
            "drift certificate invalid for %s (C=%g, margin=%g)"
            % (target, cert.certified_C, cert.margin_at_infinity)
        )
    return cert
