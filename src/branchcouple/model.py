"""Model parameters for the two-component branching system and derived scalars.

The system is

    dX = drift_x(X) dt + branching noise (sigma1, n1)
    dY = drift_y(X, Y, gamma2) dt + branching noise (sigma2, n2)

with the prey drift ``drift_x(x) = -b1 x^alpha1 + a1 x + gamma1``, the
predator drift ``drift_y(x, y, gamma) = k x y - b2 y^alpha2 + a2 y + gamma``,
state-proportional diffusion ``sqrt(2 sigma_i * state)`` and jump intensity
``state * n_i(dxi)``.  Standing assumptions: ``b_i > 0``, ``gamma_i > 0``,
``sigma_i >= 0``, ``alpha_i > 0``; ``a_i`` and ``k`` are unrestricted.

The dominating process Zbar of the second-component difference freezes the
predation gain ``k x`` at its supremum over ``x in [0, 2M]``: ``2 k M`` when
``k > 0`` and ``0`` when ``k <= 0``.  Its linear rate is ``zbar_rate`` and
its drift ``zbar_drift(z) = zbar_rate z - b2 z^alpha2`` (no immigration).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from .errors import ConditionFails, InvalidParams, NotApplicable
from .levy import LevyMeasure, ZeroMeasure, measure_from_config


@dataclass(frozen=True)
class ModelParams:
    b1: float
    a1: float
    alpha1: float
    gamma1: float
    sigma1: float
    b2: float
    a2: float
    alpha2: float
    gamma2: float
    sigma2: float
    k: float
    n1: LevyMeasure = field(default_factory=ZeroMeasure)
    n2: LevyMeasure = field(default_factory=ZeroMeasure)

    def component(self, i: int) -> tuple[float, float, float, float, float, LevyMeasure]:
        """(b, a, alpha, gamma, sigma, measure) for component ``i`` in {1, 2}."""
        if i == 1:
            return self.b1, self.a1, self.alpha1, self.gamma1, self.sigma1, self.n1
        if i == 2:
            return self.b2, self.a2, self.alpha2, self.gamma2, self.sigma2, self.n2
        raise ValueError("component index must be 1 or 2")

    def to_config(self) -> dict:
        cfg = {f.name: getattr(self, f.name) for f in fields(self)}
        cfg.update(n1=self.n1.to_config(), n2=self.n2.to_config())
        return cfg


def params_from_config(cfg: dict) -> ModelParams:
    """Build ``ModelParams`` from a config dict, naming any offending key."""
    required = [f.name for f in fields(ModelParams) if f.name not in ("n1", "n2")]
    missing = [key for key in required if key not in cfg]
    if missing:
        raise InvalidParams("model config missing keys: %s" % ", ".join(missing))
    values = {}
    for key in required:
        try:
            values[key] = float(cfg[key])
        except (TypeError, ValueError) as exc:
            raise InvalidParams("model key %s must be a number" % key) from exc
    n1 = measure_from_config(cfg.get("n1", {"family": "zero"}))
    n2 = measure_from_config(cfg.get("n2", {"family": "zero"}))
    params = ModelParams(n1=n1, n2=n2, **values)
    validate(params)
    return params


@dataclass(frozen=True)
class ConditionReport:
    """Which parts of the uniform-ergodicity condition hold for the model."""

    cond_i_1: bool
    cond_i_2: bool
    cond_ii_1: bool
    cond_ii_2: bool
    uniform_ergodicity_expected: bool

    def to_dict(self) -> dict:
        return asdict(self)


def validate(p: ModelParams) -> ConditionReport:
    """Check standing assumptions, then report the ergodicity conditions.

    Raises ``InvalidParams`` naming the first violated standing assumption;
    condition failures are reported, not raised.
    """
    for i in (1, 2):
        b, _a, alpha, gamma, sigma, _n = p.component(i)
        if not (b > 0):
            raise InvalidParams("b%d must be > 0 (got %r)" % (i, b))
        if not (gamma > 0):
            raise InvalidParams("gamma%d must be > 0 (got %r)" % (i, gamma))
        if not (sigma >= 0):
            raise InvalidParams("sigma%d must be >= 0 (got %r)" % (i, sigma))
        if not (alpha > 0):
            raise InvalidParams("alpha%d must be > 0 (got %r)" % (i, alpha))
    cond_i = [p.alpha1 > 1.0, p.alpha2 > 1.0]
    cond_ii = []
    for i in (1, 2):
        _b, _a, _alpha, _gamma, sigma, n = p.component(i)
        cond_ii.append(sigma > 0 or n.check_lower_bound().holds)
    return ConditionReport(
        cond_i_1=cond_i[0],
        cond_i_2=cond_i[1],
        cond_ii_1=cond_ii[0],
        cond_ii_2=cond_ii[1],
        uniform_ergodicity_expected=all(cond_i) and all(cond_ii),
    )


def drift_x(p: ModelParams, x):
    """Drift of the first component, ``-b1 x^alpha1 + a1 x + gamma1``."""
    return -p.b1 * x**p.alpha1 + p.a1 * x + p.gamma1


def drift_y(p: ModelParams, x, y, gamma):
    """Drift of the second component with immigration ``gamma``,
    ``k x y - b2 y^alpha2 + a2 y + gamma``; ``gamma = 0`` drives Z."""
    return p.k * x * y - p.b2 * y**p.alpha2 + p.a2 * y + gamma


def zbar_rate(p: ModelParams, M: float) -> float:
    """Linear rate of Zbar: the predation gain ``k x`` frozen at its
    supremum over ``x in [0, 2M]`` plus ``a2``."""
    return 2.0 * max(p.k, 0.0) * M + p.a2


def zbar_drift(p: ModelParams, M: float, z):
    """Drift of the dominating process Zbar frozen at level ``M``."""
    return zbar_rate(p, M) * z - p.b2 * z**p.alpha2


def zbar_equilibrium(p: ModelParams, M: float) -> float:
    """Positive root of ``zbar_drift`` (``zbar_rate`` floored at 0); 1 when
    ``alpha2 <= 1``."""
    if p.alpha2 <= 1:
        return 1.0
    return (max(zbar_rate(p, M), 0.0) / p.b2) ** (1.0 / (p.alpha2 - 1.0))


def drift_root(p: ModelParams, rel_tol: float = 1e-12) -> float:
    """Unique positive root of the first-component drift (``alpha1 > 1``).

    The drift is positive at 0 (immigration) and eventually negative, and for
    ``alpha1 > 1`` it crosses zero exactly once on (0, infinity).  Found by
    bracketing plus bisection to relative tolerance ``rel_tol``.
    """
    if p.alpha1 <= 1.0:
        raise NotApplicable("drift root requires alpha1 > 1 (got %r)" % p.alpha1)
    lo = p.gamma1 / (p.b1 + abs(p.a1) + p.gamma1)
    hi = max(1.0, ((abs(p.a1) + p.gamma1 + 1.0) / p.b1) ** (1.0 / (p.alpha1 - 1.0)))
    # expand geometrically until the bracket straddles the root
    for _ in range(200):
        if drift_x(p, lo) > 0:
            break
        lo /= 2.0
    for _ in range(200):
        if drift_x(p, hi) < 0:
            break
        hi *= 2.0
    if not (drift_x(p, lo) > 0 > drift_x(p, hi)):
        raise NotApplicable("could not bracket the drift root")
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if drift_x(p, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def noise_floor(p: ModelParams, component: int) -> tuple[float, float]:
    """Exponent and constant of the near-zero noise floor of a component.

    Returns ``(beta, kappa0)`` with
    ``sigma + (1/3) int_0^x xi^2 n(dxi) >= kappa0 * x**(1 - 2*beta)`` on
    (0, 1].  ``beta = 1/2`` when ``sigma > 0`` (then ``kappa0 = sigma``),
    otherwise ``beta = (theta - 1)/2`` from the jump lower bound with
    ``kappa0 = constant / 3``.  The inequality is re-verified on a dyadic
    grid; ``ConditionFails`` if no floor exists.
    """
    _b, _a, _alpha, _gamma, sigma, n = p.component(component)
    if sigma > 0:
        beta, kappa0 = 0.5, float(sigma)
    else:
        bound = n.check_lower_bound()
        if not bound.holds:
            raise ConditionFails(
                "component %d has sigma = 0 and no jump lower bound" % component
            )
        beta = (bound.theta - 1.0) / 2.0
        kappa0 = bound.constant / 3.0
    # re-verify on the dyadic grid spanning (0, 1]
    for j in range(21):
        x = 2.0**-j
        lhs = sigma + n.truncated_second_moment(x) / 3.0
        rhs = kappa0 * x ** (1.0 - 2.0 * beta)
        if lhs < rhs * (1.0 - 1e-12):
            raise ConditionFails(
                "noise floor fails at x=%g for component %d" % (x, component)
            )
    return beta, kappa0


def exit_drift_margin(p: ModelParams, x: float) -> float:
    """phi(x) + 2 (1+x)^((alpha1+1)/2) / (alpha1 - 1); <= 0 marks strong inflow."""
    return drift_x(p, x) + 2.0 * (1.0 + x) ** ((p.alpha1 + 1.0) / 2.0) / (
        p.alpha1 - 1.0
    )


def m0_heuristic(p: ModelParams, rel_tol: float = 1e-9) -> float:
    """Smallest level above the drift root where the inflow dominates enough
    that the mean entrance time from above is at most 2.

    Picks the smallest ``M >= drift_root`` with
    ``-b1 M^alpha1 + a1 M + gamma1 <= -2 (1+M)^((alpha1+1)/2)/(alpha1-1)``,
    found by doubling plus bisection.
    """
    x0 = drift_root(p)
    lo = max(x0, 1.0)
    if exit_drift_margin(p, lo) <= 0:
        return lo
    hi = lo
    for _ in range(200):
        hi *= 2.0
        if exit_drift_margin(p, hi) <= 0:
            break
    else:
        raise NotApplicable("no level with dominating inflow found")
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if exit_drift_margin(p, mid) <= 0:
            hi = mid
        else:
            lo = mid
    return hi
