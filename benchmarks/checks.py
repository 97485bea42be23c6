"""Correctness checks for the benchmark workloads.

Each check compares the program's outputs with a computation made here, or
with a property the method must have; none compares with a stored copy of an
earlier output.  Every function returns ``{check name: (ok, detail)}`` so the
self-test can show that each named check rejects a deliberately wrong output.
"""

from __future__ import annotations

import math

import numpy as np

# least-squares window of the survival-curve rate fit, as in the program
FIT_P_LO, FIT_P_HI = 0.01, 0.9
# relative agreement of LV recomputed from the direct jump integral
LV_RTOL = 1e-5


def _result(ok: bool, detail: str) -> tuple[bool, str]:
    return bool(ok), detail


def _num(value) -> float:
    """JSON number, with the program's "inf"/"nan" strings mapped back."""
    return float(value)


def _monotone(p: np.ndarray) -> bool:
    return bool(np.all(np.diff(p) <= 0.0))


# ---------------------------------------------------------------------------
# couple: survival curves of the coupling time over a grid of inits


def fit_rate(grid, p_hat) -> tuple[float, float]:
    """(rate, r2) of ``log p ~ a - rate t`` on the points with p in the window."""
    grid = np.asarray(grid, dtype=float)
    p_hat = np.asarray(p_hat, dtype=float)
    mask = (p_hat > FIT_P_LO) & (p_hat < FIT_P_HI)
    if mask.sum() < 4:
        return math.nan, math.nan
    t, y = grid[mask], np.log(p_hat[mask])
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), r2


def bootstrap_rate_se(curves, n: int, grid, rng, n_boot: int = 400) -> float:
    """Standard error of the envelope rate by resampling the paths.

    A survival curve on a grid is exactly the binned sample of its stopping
    times, so each init's sample is redrawn from its own bins and the
    envelope is rebuilt and refitted.
    """
    bins = []
    for p in curves:
        alive = np.rint(np.asarray(p) * n).astype(np.int64)
        counts = np.concatenate([[n - alive[0]], -np.diff(alive), [alive[-1]]])
        # a non-monotone curve (flagged by its own check) has no sample behind it
        counts = np.maximum(counts, 0)
        bins.append(counts / counts.sum())
    rates = []
    for _ in range(n_boot):
        env = None
        for prob in bins:
            draw = rng.multinomial(n, prob)
            alive = (n - np.cumsum(draw)[:-1]) / n
            env = alive if env is None else np.maximum(env, alive)
        rate, _ = fit_rate(grid, env)
        if math.isfinite(rate):
            rates.append(rate)
    return float(np.std(rates, ddof=1)) if len(rates) > 1 else math.inf


def check_couple(grids: dict, n_paths: int, horizon: float, rng) -> dict:
    """``grids`` maps "base"/"wide" to the coupling-tail results payload."""
    out = {}
    fits = {}
    ok_abort = ok_diag = ok_order = ok_mono = ok_env = ok_refit = True
    details = []
    for label, res in grids.items():
        envelope = None
        curves = []
        for entry in res["per_init"]:
            x0, xt0, y0, yt0 = entry["init"]
            tx = np.asarray(entry["t_x"]["p_hat"], dtype=float)
            tf = np.asarray(entry["t_full"]["p_hat"], dtype=float)
            grid = np.asarray(entry["t_full"]["grid"], dtype=float)
            ok_abort &= entry["n_abort"] == 0 and entry["t_full"]["n"] == n_paths
            if x0 == xt0 and y0 == yt0:
                ok_diag &= (
                    not np.any(tf)
                    and not np.any(tx)
                    and entry["t_full"]["n_censored"] == 0
                    and _num(entry["t_full"]["mean_finite"]) == 0.0
                )
            ok_order &= bool(np.all(tx <= tf))
            ok_mono &= _monotone(tx) and _monotone(tf) and 0.0 <= tf[0] <= 1.0
            ok_env &= np.array_equal(grid, np.linspace(0.0, horizon, grid.size))
            curves.append(tf)
            envelope = tf if envelope is None else np.maximum(envelope, tf)
        reported = np.asarray(res["max_curve"]["p_hat"], dtype=float)
        ok_env &= np.array_equal(envelope, reported)
        rate, r2 = fit_rate(grid, envelope)
        fit = res["max_curve"]["fit"] or {}
        ok_refit &= (
            math.isfinite(rate)
            and abs(rate - fit.get("rate", math.nan)) <= 1e-9 * abs(rate)
            and abs(r2 - fit.get("r2", math.nan)) <= 1e-9
        )
        se = bootstrap_rate_se(curves, n_paths, grid, rng)
        fits[label] = (rate, r2, se)
        details.append("%s rate %.4f r2 %.4f boot-se %.4f" % (label, rate, r2, se))
    out["couple.no_abort"] = _result(ok_abort, "every init ran %d paths, none aborted" % n_paths)
    out["couple.diagonal_meets_at_zero"] = _result(ok_diag, "diagonal inits meet at t=0 on every path")
    out["couple.tx_below_tfull"] = _result(ok_order, "t_x survival <= t_full survival at every grid point")
    out["couple.curves_monotone"] = _result(ok_mono, "survival curves non-increasing in t")
    out["couple.envelope_is_max"] = _result(ok_env, "reported envelope = max of the per-init curves")
    out["couple.fit_recomputed"] = _result(ok_refit, "program's envelope fit = least squares redone here")
    (rb, r2b, seb), (rw, r2w, sew) = fits["base"], fits["wide"]
    out["couple.envelope_rate"] = _result(
        rb > 0.0 and r2b >= 0.9 and r2w >= 0.9, "; ".join(details)
    )
    combined = math.hypot(seb, sew)
    out["couple.widened_rate_agrees"] = _result(
        abs(rb - rw) <= 3.0 * combined,
        "|%.4f - %.4f| = %.4f <= 3 x combined bootstrap SE %.4f"
        % (rb, rw, abs(rb - rw), combined),
    )
    return out


# ---------------------------------------------------------------------------
# audit: comparison orderings at two step sizes


def check_audit(reports: dict, ctx: dict) -> dict:
    """``reports`` maps dt to the comparison-audit results payload."""
    out = {}
    names = ("pair_order", "difference_below_Z", "Z_below_Zbar")
    ok_tol = True
    for dt, rep in reports.items():
        scale = max(1.0, ctx["init"][2], ctx["zbar_eq"])
        tol = 3.0 * math.sqrt(2.0 * ctx["sigma2"] * dt * scale) + 2.0 * ctx["meet_tol"]
        ok_tol &= (
            abs(rep["tol"] - tol) <= 1e-12 * tol
            and rep["n"] == ctx["n_paths"]
            and rep["n_abort"] == 0
        )
    out["audit.tolerance"] = _result(ok_tol, "tolerance 3 sqrt(2 sigma2 dt scale) + 2 meet_tol, no aborts")
    viol = max(r["pair_order"]["max_violation"] for r in reports.values())
    out["audit.pair_order_exact"] = _result(viol <= 0.0, "max pair-order violation %.3e <= 0" % viol)
    events = sum(r["Z_below_Zbar"]["n_events"] for r in reports.values())
    out["audit.no_zbar_events"] = _result(events == 0, "%d Z-below-Zbar events" % events)
    frac = max(r[k]["frac_over_tol"] for r in reports.values() for k in names)
    out["audit.frac_over_tol"] = _result(frac <= 0.01, "max frac_over_tol %.4f <= 0.01" % frac)
    coarse, fine = (reports[dt]["difference_below_Z"] for dt in sorted(reports, reverse=True))
    ratio = coarse["mean_event"] / fine["mean_event"] if fine["mean_event"] > 0 else math.inf
    # first-order convergence puts the ratio at 2 itself, so "at least 2x" is
    # read within 3 standard errors of the two event means, each taken as
    # 1/sqrt(events) relative (per-event coefficient of variation 1)
    rel_se = math.sqrt(1.0 / max(coarse["n_events"], 1) + 1.0 / max(fine["n_events"], 1))
    floor = 2.0 * (1.0 - 3.0 * rel_se)
    out["audit.residual_halves"] = _result(
        floor <= ratio < math.inf,
        "mean projection residual shrinks %.4fx when dt halves (>= 2 within 3 SE: %.4f)"
        % (ratio, floor),
    )
    return out


# ---------------------------------------------------------------------------
# certify: drift certificates


def m0_level(p) -> float:
    """Smallest M >= the drift root with -b1 M^a + a1 M + g1 <= -2 (1+M)^((a+1)/2)/(a-1)."""
    # imported here so that set-up time counts only what the package imports
    from scipy import optimize

    def drift(x):
        return -p.b1 * x**p.alpha1 + p.a1 * x + p.gamma1

    def margin(x):
        return drift(x) + 2.0 * (1.0 + x) ** ((p.alpha1 + 1.0) / 2.0) / (p.alpha1 - 1.0)

    root = optimize.brentq(drift, 1e-12, 1e6, xtol=1e-14, rtol=1e-15)
    lo = max(root, 1.0)
    if margin(lo) <= 0.0:
        return lo
    return optimize.brentq(margin, lo, 1e9, xtol=1e-12, rtol=1e-15)


def _gauss_legendre(fn, a: float, b: float, cells: int, order: int = 20) -> float:
    """Composite Gauss-Legendre of fn over [a, b] in the log variable."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(math.log(a), math.log(b), cells + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    s = mid + half * x[None, :]
    xi = np.exp(s)
    return float(np.sum(half * w[None, :] * fn(xi) * xi))


def direct_lv(V, drift, sigma: float, measure, z: float) -> tuple[float, float, float]:
    """(LV, error estimate, scale of the terms) from the direct jump integral.

    ``int (V(z+xi) - V(z) - xi V'(z)) c xi^(-1-theta) dxi`` is integrated as
    written on (xi0, U); the cancellation in the bracket grows like
    ``eps |V| xi^(-1-theta)`` as xi -> 0, so (0, xi0) takes the
    second-order Taylor term and xi0 balances the two errors.
    """
    c, theta, upper = measure.c, measure.theta, measure.truncation
    v0 = float(V.value(z))
    d1 = float(V.deriv1(z))
    d2 = float(V.deriv2(z))
    offsets = [k - z for k in getattr(V, "kinks", ())]
    kinks = [k for k in offsets if k > 0.0]
    best = None
    for xi0 in np.geomspace(1e-9, 1e-2, 57) * max(1.0, z):
        # the Taylor piece and the difference quotient for the third
        # derivative need V smooth on [z - xi0, z + 2 xi0]
        if xi0 >= upper or xi0 >= z or any(abs(k) <= 2.0 * xi0 for k in offsets):
            continue
        d3 = (float(V.deriv2(z + xi0)) - float(V.deriv2(z - xi0))) / (2.0 * xi0)
        vmax = max(abs(v0), abs(float(V.value(z + upper)))) + upper * abs(d1)
        err = 4.0 * np.finfo(float).eps * vmax * c * xi0**-theta / theta
        err += abs(d3) * c * xi0 ** (3.0 - theta) / (6.0 * (3.0 - theta))
        if best is None or err < best[1]:
            best = (xi0, err)
    if best is None:
        return math.nan, math.inf, 0.0
    xi0, err = best

    def integrand(xi):
        return (V.value(z + xi) - v0 - xi * d1) * c * xi ** (-1.0 - theta)

    edges = [xi0] + sorted(k for k in kinks if xi0 < k < upper) + [upper]
    coarse = fine = 0.0
    for a, b in zip(edges, edges[1:]):
        coarse += _gauss_legendre(integrand, a, b, 48)
        fine += _gauss_legendre(integrand, a, b, 96)
    err += abs(fine - coarse)
    jump = 0.5 * d2 * c * xi0 ** (2.0 - theta) / (2.0 - theta) + fine
    terms = (drift(z) * d1, sigma * z * d2, z * jump)
    scale = sum(abs(t) for t in terms)
    return sum(terms), z * err, scale


def well_conditioned(err: float, scale: float) -> bool:
    return scale > 0.0 and err <= 0.1 * LV_RTOL * scale


def check_certify(certs: dict, ctx: dict, rng, n_nodes: int = 8) -> dict:
    """``certs`` maps a label to (results, z, LV, V, drift, sigma, measure, n_grid)."""
    out = {}
    ok_valid = ok_grid = ok_min = ok_direct = True
    worst = 0.0
    checked = []
    for label, (res, z, lv, V, drift, sigma, measure, n_grid) in certs.items():
        c_cert = _num(res["certified_C"])
        ok_valid &= bool(res["valid"]) and c_cert > 0.0 and _num(res["tail_margin"]) > 0.0
        lo, hi = res["region"]
        ok_grid &= z.size == n_grid and np.allclose(z, np.geomspace(lo, hi, n_grid), rtol=1e-13, atol=0)
        ok_min &= c_cert == float(np.min(-lv))
        cand = rng.permutation(z.size)
        n_ok = 0
        for i in cand:
            got, err, scale = direct_lv(V, drift, sigma, measure, float(z[i]))
            if not well_conditioned(err, scale):
                continue
            dev = abs(got - lv[i]) / scale
            worst = max(worst, dev)
            ok_direct &= dev <= LV_RTOL
            n_ok += 1
            if n_ok == n_nodes:
                break
        ok_direct &= n_ok == n_nodes
        checked.append("%s:%d" % (label, n_ok))
    out["certify.valid"] = _result(ok_valid, "every certificate valid with C > 0 and tail margin > 0")
    out["certify.grid"] = _result(ok_grid, "LV tabulated on the log-spaced grid of the region")
    out["certify.c_is_min"] = _result(ok_min, "certified C = min(-LV) over the grid")
    out["certify.lv_direct"] = _result(
        ok_direct,
        "LV from the direct jump integral at %s well-conditioned nodes, worst "
        "deviation %.2e of the term scale (<= %g)" % (", ".join(checked), worst, LV_RTOL),
    )
    g_res, _, g_lv = certs["g"][:3]
    lo, hi = g_res["region"]
    m0 = ctx["m0"]
    ok_region = abs(lo - m0) <= 1e-7 * m0 and abs(hi - 10.0 * m0) <= 1e-7 * m0
    out["certify.g_region"] = _result(ok_region, "g region (%.6g, %.6g) = (M0, 10 M0), M0 = %.9g" % (lo, hi, m0))
    g_max = float(np.max(g_lv))
    out["certify.g_max_lv"] = _result(g_max <= -1.0, "max LV for g %.4f <= -1" % g_max)
    return out


# ---------------------------------------------------------------------------
# passage: CIR passage time, Zbar absorption tails, Dynkin residual


def wilson(k, n, z=1.959963984540054):
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return np.maximum(0.0, center - half), np.minimum(1.0, center + half)


def check_passage(cir: dict, zbar: list, dynkin: dict, ctx: dict) -> dict:
    out = {}
    ln5 = math.log(5.0)
    exact = cir["exact_mean"]
    out["passage.cir_closed_form"] = _result(
        abs(exact - ln5) <= 1e-9 * ln5, "exact mean %.12f vs ln 5 = %.12f" % (exact, ln5)
    )
    mc = cir["mc"]
    err = abs(mc["mean"] - exact)
    bound = 3.0 * mc["se"] + 2.0 * ctx["cir_dt"]
    out["passage.cir_mc"] = _result(
        err <= bound and mc["n"] == ctx["cir_paths"] and mc["frac_censored"] == 0.0,
        "|MC %.5f - exact %.5f| = %.5f <= 3 SE + 2 dt = %.5f" % (mc["mean"], exact, err, bound),
    )
    ok_mono = ok_curve = ok_budget = True
    parts = []
    for z0, est in zbar:
        times = np.asarray(est.times)
        n = times.size
        k = np.array([np.sum(times > t) for t in est.grid])
        lo, hi = wilson(k, n)
        ok_curve &= (
            n == ctx["zbar_paths"]
            and np.array_equal(est.p_hat, k / n)
            and np.allclose(est.lo, lo, rtol=0, atol=1e-12)
            and np.allclose(est.hi, hi, rtol=0, atol=1e-12)
        )
        ok_mono &= _monotone(np.asarray(est.p_hat)) and est.p_hat[0] == 1.0
        p_end = float(np.mean(times > est.horizon))
        ok_budget &= p_end <= 0.5 + 3.0 * math.sqrt(p_end * (1.0 - p_end) / n)
        parts.append("z0=%g: p(T)=%.4f" % (z0, p_end))
    out["passage.zbar_monotone"] = _result(ok_mono, "Zbar survival curves start at 1 and are non-increasing")
    out["passage.zbar_curve"] = _result(ok_curve, "survival and Wilson bounds recomputed from the raw times")
    out["passage.zbar_horizon"] = _result(ok_budget, "survival at the horizon <= 0.5 + 3 SE; " + ", ".join(parts))
    mean, se = dynkin["residual_mean"], dynkin["residual_se"]
    out["passage.dynkin"] = _result(
        abs(mean) <= 3.0 * se and se > 0.0 and dynkin["n"] == ctx["dynkin_paths"],
        "Dynkin residual %.5f within 3 SE = %.5f of 0" % (mean, 3.0 * se),
    )
    return out
