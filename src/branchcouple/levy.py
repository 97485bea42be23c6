"""Jump measures on (0, infinity) with the moment structure the engine needs.

Three families are supported:

* ``ZeroMeasure`` -- no jumps at all;
* ``CompoundPoisson`` -- finite activity, all mass on a single jump size;
* ``StableLike`` -- density ``c * xi**(-1-theta)`` with ``theta in (1, 2)``,
  optionally truncated above.

Every family exposes closed-form partial moments (second moment below a
threshold, linear moment and mass above it), the inverse CDF of the tail, and
a check of the small-jump lower bound ``int_0^x xi^2 n(dxi) >= C * x**(2-theta)``
on (0, 1] that substitutes for a diffusion term when ``sigma = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ZeroTailMass


@dataclass(frozen=True)
class JumpLowerBound:
    """Result of the small-jump lower-bound check.

    ``holds`` reports whether ``int_0^x xi^2 n(dxi) >= constant * x**(2-theta)``
    was verified on a dyadic grid spanning (0, 1].
    """

    holds: bool
    theta: float | None = None
    constant: float | None = None


def _as_array(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class ZeroMeasure:
    """The null jump measure."""

    def truncated_second_moment(self, x):
        return np.zeros_like(_as_array(x)) if np.ndim(x) else 0.0

    def tail_linear_moment(self, x):
        return np.zeros_like(_as_array(x)) if np.ndim(x) else 0.0

    def tail_mass(self, x):
        return np.zeros_like(_as_array(x)) if np.ndim(x) else 0.0

    def tail_quantile(self, threshold, u):
        raise ZeroTailMass("the zero measure has no tail above %r" % (threshold,))

    def check_lower_bound(self) -> JumpLowerBound:
        return JumpLowerBound(holds=False)

    @property
    def is_zero(self) -> bool:
        return True

    def to_config(self) -> dict:
        return {"family": "zero"}


@dataclass(frozen=True)
class CompoundPoisson:
    """Finite-activity measure ``rate * delta_size``."""

    rate: float
    size: float

    def __post_init__(self):
        if not (self.rate > 0):
            raise InvalidParams("compound Poisson rate must be > 0")
        if not (self.size > 0):
            raise InvalidParams("compound Poisson jump size must be > 0")

    def truncated_second_moment(self, x):
        x = _as_array(x)
        out = np.where(self.size <= x, self.rate * self.size**2, 0.0)
        return out if out.ndim else float(out)

    def tail_linear_moment(self, x):
        x = _as_array(x)
        out = np.where(self.size > x, self.rate * self.size, 0.0)
        return out if out.ndim else float(out)

    def tail_mass(self, x):
        x = _as_array(x)
        out = np.where(self.size > x, self.rate, 0.0)
        return out if out.ndim else float(out)

    def tail_quantile(self, threshold, u):
        if self.size <= threshold:
            raise ZeroTailMass(
                "no jumps above %r (atom at %r)" % (threshold, self.size)
            )
        u = _as_array(u)
        out = np.full_like(u, self.size)
        return out if out.ndim else float(out)

    def check_lower_bound(self) -> JumpLowerBound:
        # mass is bounded away from 0, so the second moment vanishes below the
        # atom and no power lower bound on (0, 1] can hold
        return JumpLowerBound(holds=False)

    @property
    def is_zero(self) -> bool:
        return False

    def to_config(self) -> dict:
        return {"family": "cpp", "lambda": self.rate, "size": self.size}


@dataclass(frozen=True)
class StableLike:
    """Density ``c * xi**(-1-theta)`` on (0, truncation), infinite activity."""

    c: float
    theta: float
    truncation: float | None = None

    def __post_init__(self):
        if not (self.c > 0):
            raise InvalidParams("stable-like intensity c must be > 0")
        if not (1.0 < self.theta < 2.0):
            raise InvalidParams("stable-like index theta must lie in (1, 2)")
        if self.truncation is not None and not (self.truncation > 0):
            raise InvalidParams("stable-like truncation must be > 0 or None")

    def truncated_second_moment(self, x):
        x = _as_array(x)
        eff = x if self.truncation is None else np.minimum(x, self.truncation)
        eff = np.maximum(eff, 0.0)
        out = self.c * eff ** (2.0 - self.theta) / (2.0 - self.theta)
        return out if out.ndim else float(out)

    def _upper_pow(self, exponent: float) -> float:
        if self.truncation is None:
            return 0.0
        return float(self.truncation**exponent)

    def tail_linear_moment(self, x):
        x = _as_array(x)
        up = self._upper_pow(1.0 - self.theta)
        lo = np.maximum(x, 0.0)
        if self.truncation is not None:
            lo = np.minimum(lo, self.truncation)
        with np.errstate(divide="ignore"):
            out = self.c * (lo ** (1.0 - self.theta) - up) / (self.theta - 1.0)
        return out if out.ndim else float(out)

    def tail_mass(self, x):
        x = _as_array(x)
        up = self._upper_pow(-self.theta)
        lo = np.maximum(x, 0.0)
        if self.truncation is not None:
            lo = np.minimum(lo, self.truncation)
        with np.errstate(divide="ignore"):
            out = self.c * (lo ** (-self.theta) - up) / self.theta
        return out if out.ndim else float(out)

    def tail_quantile(self, threshold, u):
        """Inverse CDF of the restriction to (threshold, truncation).

        ``u = 1`` maps to the threshold itself and ``u -> 0`` to the upper end
        (infinity when untruncated): for the untruncated family this is the
        power transform ``threshold * u**(-1/theta)``.
        """
        if threshold <= 0:
            raise InvalidParams("tail threshold must be > 0")
        if self.truncation is not None and threshold >= self.truncation:
            raise ZeroTailMass(
                "no jumps above %r (truncated at %r)" % (threshold, self.truncation)
            )
        u = _as_array(u)
        up = self._upper_pow(-self.theta)
        base = u * (threshold**-self.theta - up) + up
        with np.errstate(divide="ignore"):
            out = base ** (-1.0 / self.theta)
        return out if out.ndim else float(out)

    def check_lower_bound(self) -> JumpLowerBound:
        if self.truncation is None or self.truncation >= 1.0:
            constant = self.c / (2.0 - self.theta)
        else:
            # above the truncation the second moment saturates; the worst grid
            # point on (0, 1] is x = 1
            constant = (
                self.c * self.truncation ** (2.0 - self.theta) / (2.0 - self.theta)
            )
        grid = 2.0 ** -np.arange(0, 21, dtype=float)
        lhs = self.truncated_second_moment(grid)
        rhs = constant * grid ** (2.0 - self.theta)
        holds = bool(np.all(lhs >= rhs * (1.0 - 1e-12)))
        return JumpLowerBound(holds=holds, theta=self.theta, constant=constant)

    @property
    def is_zero(self) -> bool:
        return False

    def to_config(self) -> dict:
        return {
            "family": "stable",
            "c": self.c,
            "theta": self.theta,
            "truncation": self.truncation,
        }


LevyMeasure = ZeroMeasure | CompoundPoisson | StableLike


def measure_from_config(cfg: dict) -> LevyMeasure:
    """Build a measure from its config dict form (see ``to_config``)."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise InvalidParams("jump measure config must be a dict with a 'family' key")
    family = cfg["family"]
    if family == "zero":
        return ZeroMeasure()
    if family == "cpp":
        try:
            return CompoundPoisson(rate=float(cfg["lambda"]), size=float(cfg["size"]))
        except KeyError as exc:
            raise InvalidParams("cpp measure needs 'lambda' and 'size'") from exc
    if family == "stable":
        try:
            trunc = cfg.get("truncation")
            return StableLike(
                c=float(cfg["c"]),
                theta=float(cfg["theta"]),
                truncation=None if trunc is None else float(trunc),
            )
        except KeyError as exc:
            raise InvalidParams("stable measure needs 'c' and 'theta'") from exc
    raise InvalidParams("unknown jump measure family %r" % (family,))


def suggest_cutoff(
    measure: LevyMeasure, dt: float, scale: float, rate_budget: float = 0.1
) -> float:
    """Pick a thinning threshold so individual-jump simulation stays feasible.

    Returns the smallest threshold ``eps`` with
    ``scale * tail_mass(eps) * dt <= rate_budget`` so a step of size ``dt`` at
    state magnitude ``scale`` fires about one large jump per ``1/rate_budget``
    steps.  Jumps below ``eps`` are left to the small-jump treatment of the
    scheme.  For finite-activity families the atom is always resolved.
    """
    if isinstance(measure, ZeroMeasure):
        return 1.0
    if isinstance(measure, CompoundPoisson):
        return measure.size / 2.0
    rate_cap = rate_budget / max(scale * dt, 1e-300)
    up = measure._upper_pow(-measure.theta)
    base = measure.theta * rate_cap / measure.c + up
    eps = float(base ** (-1.0 / measure.theta))
    if measure.truncation is not None:
        eps = min(eps, measure.truncation)
    return eps
