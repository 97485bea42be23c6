"""Survival estimators, rate fits, the mean-passage closed form, and the
pathwise audits built on top of the engines."""

import math

import numpy as np
import pytest

from branchcouple import ergodicity as ergo
from branchcouple.errors import (
    DegenerateFit,
    InsufficientPaths,
    InvalidParams,
    NotApplicable,
    OutOfGrid,
)
from branchcouple.paths import SimScheme
from refmodel import REF


def _wilson_oracle(k, n, z=ergo.Z95):
    # independent route: the interval ends solve the quadratic
    # (phat - p)^2 = z^2 p (1 - p) / n
    phat = k / n
    roots = np.roots(
        [1.0 + z * z / n, -(2.0 * phat + z * z / n), phat * phat]
    )
    return float(np.min(roots)), float(np.max(roots))


@pytest.mark.parametrize("k,n", [(5, 10), (1, 30), (250, 1000), (0, 20), (20, 20)])
def test_wilson_interval_matches_quadratic_roots(k, n):
    lo, hi = ergo.wilson_interval(k, n)
    want_lo, want_hi = _wilson_oracle(k, n)
    assert lo == pytest.approx(want_lo, abs=1e-12)
    assert hi == pytest.approx(want_hi, abs=1e-12)
    assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_wilson_interval_errors():
    with pytest.raises(InsufficientPaths):
        ergo.wilson_interval(0, 0)
    with pytest.raises(InvalidParams):
        ergo.wilson_interval(5, 3)


def test_tail_estimate_from_synthetic_times():
    times = np.array([1.0, 2.0, 3.0, np.inf])
    est = ergo.TailEstimate.from_times(times, horizon=3.0, grid=[0.0, 1.5, 2.5, 3.0])
    assert est.n == 4
    assert est.n_censored == 1
    assert est.p_hat.tolist() == [1.0, 0.75, 0.5, 0.25]
    assert np.all(np.diff(est.p_hat) <= 0.0)
    assert np.all((est.lo <= est.p_hat) & (est.p_hat <= est.hi))
    assert est.mean_finite() == pytest.approx(2.0)
    # queries beyond the horizon clamp to the horizon (censored paths count
    # as alive), an over-estimate of the survival probability
    assert est.survival_at(100.0)[0] == est.survival_at(3.0)[0] == 0.25
    d = est.to_dict()
    for key in ("horizon", "n", "n_censored", "grid", "p_hat", "wilson_lo", "wilson_hi"):
        assert key in d


def test_tail_estimate_needs_samples():
    with pytest.raises(InsufficientPaths):
        ergo.TailEstimate.from_times([], horizon=1.0)


def test_tail_estimate_covers_true_exponential_curve():
    rng = np.random.default_rng(2)
    hits = 0
    total = 0
    for _ in range(20):
        sample = rng.exponential(1.0, size=400)
        est = ergo.TailEstimate.from_times(sample, horizon=6.0, n_grid=16)
        true = np.exp(-est.grid)
        inside = (est.lo <= true) & (true <= est.hi)
        hits += int(np.sum(inside))
        total += inside.size
    # pointwise 95% intervals; a curve that drifts low misses at several
    # adjacent points at once, so the all-points tally is noisier than
    # binomial and the floor sits below the nominal level
    assert hits / total >= 0.85

    # at a single fixed time the replications are independent and coverage
    # concentrates near the nominal 95%
    single_hits = 0
    for _ in range(200):
        sample = rng.exponential(1.0, size=400)
        est = ergo.TailEstimate.from_times(sample, horizon=6.0, n_grid=4)
        p, lo_b, hi_b = est.survival_at(1.0)
        single_hits += int(lo_b <= math.exp(-1.0) <= hi_b)
    assert single_hits / 200 >= 0.9


def test_rate_fit_recovers_exact_exponential():
    grid = np.linspace(0.0, 5.0, 40)
    est = ergo.TailEstimate(
        times=np.array([1.0]),
        horizon=5.0,
        grid=grid,
        p_hat=np.exp(-2.0 * grid),
        lo=np.zeros_like(grid),
        hi=np.ones_like(grid),
        n=1,
        n_censored=0,
    )
    fit = ergo.rate_fit(est)
    assert fit.rate == pytest.approx(2.0, rel=1e-10)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.rate_se <= 1e-8
    assert fit.window[0] >= 0.0 and fit.window[1] <= 5.0


def test_curve_rate_fit_on_bare_arrays():
    grid = np.linspace(0.0, 8.0, 33)
    fit = ergo.curve_rate_fit(grid, 0.7 * np.exp(-0.5 * grid))
    assert fit.rate == pytest.approx(0.5, rel=1e-10)
    assert fit.n_used >= 4


def test_rate_fit_degenerate_cases():
    grid = np.linspace(0.0, 5.0, 40)
    with pytest.raises(DegenerateFit):
        ergo.curve_rate_fit(grid, np.full_like(grid, 1e-6))
    with pytest.raises(DegenerateFit):
        ergo.curve_rate_fit(grid[:3], np.exp(-grid[:3]))


def test_rates_compatible_uses_combined_se():
    f1 = ergo.RateFit(rate=1.0, intercept=0.0, r2=1.0, rate_se=0.1, n_used=10, window=(0, 1))
    f2 = ergo.RateFit(rate=1.25, intercept=0.0, r2=1.0, rate_se=0.1, n_used=10, window=(0, 1))
    # |diff| = 0.25, 3 * hypot(0.1, 0.1) = 0.424
    assert ergo.rates_compatible(f1, f2)
    f3 = ergo.RateFit(rate=1.5, intercept=0.0, r2=1.0, rate_se=0.01, n_used=10, window=(0, 1))
    assert not ergo.rates_compatible(f1, f3)


def test_cir_mean_hitting_time_logarithm_oracle():
    # b = gamma = sigma: the weight collapses and the integral is Frullani's,
    # so the mean passage time from z1 is exactly ln z1
    for z1 in (2.0, 5.0, 32.0):
        assert ergo.cir_mean_hitting_time(1.0, 1.0, 1.0, z1) == pytest.approx(
            math.log(z1), rel=1e-9
        )
    # gamma = 2 b = 2 sigma: weight (1+s); adds the integral of the plain
    # difference of exponentials, 1 - 1/z1
    z1 = 7.0
    want = math.log(z1) + 1.0 - 1.0 / z1
    assert ergo.cir_mean_hitting_time(1.0, 2.0, 1.0, z1) == pytest.approx(
        want, rel=1e-9
    )


def test_cir_mean_hitting_time_edge_cases():
    assert ergo.cir_mean_hitting_time(1.0, 1.0, 1.0, 1.0) == 0.0
    assert ergo.cir_mean_hitting_time(1.0, 1.0, 1.0, 0.5) == 0.0
    with pytest.raises(NotApplicable):
        ergo.cir_mean_hitting_time(1.0, 1.0, 0.0, 5.0)
    with pytest.raises(InvalidParams):
        ergo.cir_mean_hitting_time(0.0, 1.0, 1.0, 5.0)
    with pytest.raises(InvalidParams):
        ergo.cir_mean_hitting_time(1.0, -1.0, 1.0, 5.0)


def test_cir_mean_hitting_time_monotone_in_start():
    vals = [ergo.cir_mean_hitting_time(1.0, 1.0, 1.0, 2.0**j) for j in range(1, 11)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_tv_upper_bound_arithmetic_and_clamping():
    times = np.array([0.5, 1.5, np.inf, np.inf])
    est = ergo.TailEstimate.from_times(times, horizon=2.0, n_grid=8)
    out = ergo.tv_upper_bound(est, 1.0)
    assert out["p_hat"] == 0.75
    assert out["bound"] == 1.5
    assert out["bound_hi"] >= out["bound"]
    with pytest.raises(OutOfGrid):
        ergo.tv_upper_bound(est, 5.0)
    clamped = ergo.tv_upper_bound(est, 5.0, clamp=True)
    assert clamped["bound"] == 2.0 * est.survival_at(2.0)[0]


def test_hitting_tail_down_direction(ref):
    sch = SimScheme.auto(ref, 2e-3, 4.0, scale=15.0)
    est = ergo.hitting_tail(
        ref, sch, np.full(600, 10.0), seed=41, level=1.0, direction="down"
    )
    assert est.p_hat[0] == 1.0
    assert np.all(np.diff(est.p_hat) <= 0.0)
    assert est.p_hat[-1] < 0.2  # collapse to the root region is fast
    with pytest.raises(InvalidParams):
        ergo.hitting_tail(ref, sch, np.full(4, 10.0), seed=1, level=1.0, direction="x")


def test_hitting_tail_up_direction(ref):
    sch = SimScheme.auto(ref, 2e-3, 4.0, scale=15.0)
    est = ergo.hitting_tail(
        ref, sch, np.full(400, 1.0), seed=43, level=8.0, direction="up"
    )
    assert np.all((0.0 <= est.p_hat) & (est.p_hat <= 1.0))
    assert est.n == 400


def test_zbar_tail_absorbs_at_small_freeze_level(ref):
    sch = SimScheme(dt=2e-3, horizon=150.0, jump_cutoff=2.0, meet_tol=1e-3)
    est = ergo.zbar_tail(ref, sch, 1.0, np.full(400, 2.0), seed=47)
    assert est.p_hat[0] == 1.0
    assert est.p_hat[-1] <= 0.05


def test_coupling_tail_orders_partial_before_full(ref):
    sch = SimScheme.auto(ref, 2e-3, 8.0, scale=15.0)
    n = 500
    ct = ergo.coupling_tail(
        ref,
        sch,
        (np.full(n, 6.0), np.full(n, 1.0), np.full(n, 2.0), np.full(n, 0.3)),
        seed=51,
    )
    assert ct["n_abort"] == 0
    assert np.all(ct["t_x"].p_hat <= ct["t_full"].p_hat + 1e-12)
    assert ct["t_full"].p_hat[-1] < 0.5


def test_comparison_audit_smoke(ref):
    sch = SimScheme.auto(ref, 2e-3, 2.0, scale=12.0, meet_tol=1e-3)
    report = ergo.comparison_audit(
        ref, sch, (2.5, 2.5, 1.2, 0.2), 5.0, 300, seed=55
    )
    assert report["n"] == 300
    for name in ("pair_order", "difference_below_Z", "Z_below_Zbar"):
        assert report[name]["max_violation"] <= report["tol"]
        assert report[name]["frac_over_tol"] <= 0.05
    for name in ("difference_below_Z", "Z_below_Zbar"):
        assert "n_events" in report[name]
        assert "mean_event" in report[name]
        assert report[name]["mean_event"] >= 0.0
    # the grid-time ordering of the pair is exact under the monotone scheme
    assert report["pair_order"]["max_violation"] <= 0.0


def test_generator_residual_is_unbiased(ref):
    sch = SimScheme.auto(ref, 2e-3, 1.0, scale=8.0)
    out = ergo.generator_residual(ref, sch, (1.0, 1.0), 4000, seed=59)
    assert out["n"] == 4000
    assert abs(out["residual_mean"]) <= 4.0 * out["residual_se"] + 0.05


def test_localize_report_structure(ref):
    sch = SimScheme.auto(ref, 2e-3, 6.0, scale=10.0, meet_tol=1e-3)
    rep = ergo.localize_report(
        ref, sch, seed=61, M=2.0, start_scale=3.0, n_paths=300
    )
    assert rep["M"] == 2.0
    assert not rep["k_nonpositive"]
    assert set(rep["budgets"]) == {"Xdiff", "Zbar"}
    # the h budget (about 2.7e5) is far beyond the horizon of 6
    assert rep["budgets"]["Xdiff"]["t0_vacuous"] is True
    for key in ("return_below_M", "couple_from_box", "far_start_couple"):
        assert "tail" in rep[key]
    for key in ("return_below_M", "couple_from_box"):
        assert -1e-12 <= rep[key]["prob_lower"] <= 1.0
    far = rep["far_start_couple"]
    assert 0.0 <= far["product_lower"] <= 1.0
    assert far["t"] == pytest.approx(rep["return_below_M"]["t"] + rep["couple_from_box"]["t"])
