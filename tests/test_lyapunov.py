"""Three-piece Lyapunov functions, generator evaluation and certificates.

The junction checks compare one-sided values across a single ulp, which a
C^2 gluing passes at rounding level while any genuine discontinuity in the
function or its derivatives shows up at order one.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from branchcouple.errors import (
    InvalidCertificate,
    InvalidParams,
    InvalidRegion,
    QuadratureFail,
)
from branchcouple.levy import CompoundPoisson, StableLike
from branchcouple.lyapunov import (
    CustomFunction,
    budget_from,
    certify,
    certify_drift,
    certify_exit_barrier,
    default_region,
    eval_generator_1d,
    eval_generator_xy,
    identity_hook,
    jump_integral,
    make_f,
    make_g,
    make_h,
    make_smoothing,
    make_w,
    meeting_time_budget,
    square_hook,
)
from branchcouple.model import drift_root, drift_x, noise_floor
from refmodel import REF, REF_DRIFT_ROOT, REF_M0, random_condition_model


def _draws(n, seed=2024):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p = random_condition_model(rng)
        m_level = float(10.0 ** (3.0 * rng.random() - 1.0))  # M in [0.1, 100]
        out.append((p, m_level))
    return out


def _one_sided_gap(fn, z):
    left = float(fn(z))
    right = float(fn(np.nextafter(z, np.inf)))
    scale = max(abs(left), abs(right), 1e-30)
    return abs(left - right) / scale


def test_three_piece_junctions_are_c2():
    for p, m_level in _draws(20):
        for V in (make_f(p, m_level), make_h(p)):
            for z in V.kinks:
                for fn in (V.value, V.deriv1, V.deriv2):
                    assert _one_sided_gap(fn, z) <= 1e-11, (V.label, z)


def test_three_piece_selection_inequalities():
    for p, m_level in _draws(20):
        for V in (make_f(p, m_level), make_h(p)):
            beta, kappa0, q = V.beta, V.kappa0, V.q
            l0, l1 = V.l0, V.l1
            # saturation below the diffusive scale
            assert l0 < 1.0 - beta
            # noise floor dominates the linear drift on piece 1
            if q > 0:
                assert q * l0 ** (2.0 * beta) < kappa0 * (1.0 - beta) * 2.0 ** (
                    beta - 3.0
                ) * math.exp(beta - 1.0)
            # decay rate of piece 2 at least 1
            assert (q + 1.0) * l0 ** (2.0 * beta) < kappa0 * (1.0 - beta) ** (
                2.0 * beta
            )
            # competition doubles the linear growth beyond l1 / 2
            assert l1 >= 2.0
            assert V.b * (l1 / 2.0) ** (V.alpha - 1.0) >= 2.0 * q * (1.0 - 1e-12)
            assert V.c0 >= 0.0 and V.c1 > 0.0


def test_three_piece_shape_monotone_concave_bounded():
    for p, m_level in _draws(8, seed=7):
        V = make_f(p, m_level)
        z = np.geomspace(V.l0 / 50.0, 50.0 * V.l1, 200)
        d1 = V.deriv1(z)
        d2 = V.deriv2(z)
        vals = V.value(z)
        # the saturating piece underflows to exact zero slope far past l0
        # (about 25 e-foldings), so strictness is only checkable on the head
        head = z <= V.l0 * (1.0 + 25.0 / (1.0 - V.beta))
        assert np.all(d1 >= 0.0)
        assert np.all(d1[head] > 0.0)
        assert np.all(d2 <= 0.0)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(np.diff(vals[head]) > 0.0)
        assert np.all(vals <= V.sup_value() * (1.0 + 1e-12))


def test_three_piece_sup_matches_quadrature_of_derivative():
    for p, m_level in _draws(12, seed=5):
        for V in (make_f(p, m_level), make_h(p)):
            tail_closed = V.sup_value() - float(V.value(V.l1))
            mid = 10.0 * V.l1
            v1, _ = quad(V.deriv1, V.l1, mid, limit=200, epsabs=1e-13, epsrel=1e-10)
            v2, _ = quad(V.deriv1, mid, np.inf, limit=200, epsabs=1e-13, epsrel=1e-10)
            assert tail_closed == pytest.approx(v1 + v2, rel=1e-8, abs=1e-12)


def test_three_piece_derivatives_match_finite_differences():
    V = make_f(REF, 5.0)
    pts = [V.l0 / 3.0, (V.l0 + V.l1) / 2.0, 3.0 * V.l1]
    for z in pts:
        h = 1e-6 * z
        fd1 = (V.value(z + h) - V.value(z - h)) / (2.0 * h)
        assert fd1 == pytest.approx(V.deriv1(z), rel=1e-5)
        fd2 = (V.deriv1(z + h) - V.deriv1(z - h)) / (2.0 * h)
        assert fd2 == pytest.approx(V.deriv2(z), rel=1e-4)


def test_make_f_uses_frozen_predation_bound():
    # the linear coefficient of the dominated drift is 2 k M + a2 (positive
    # parts), so the selected l1 grows with M through q
    f_small = make_f(REF, 1.0)
    f_large = make_f(REF, 50.0)
    assert f_small.q == pytest.approx(2.0 * 0.5 * 1.0 + 0.5)
    assert f_large.q == pytest.approx(2.0 * 0.5 * 50.0 + 0.5)
    assert f_large.l1 > f_small.l1


@pytest.mark.parametrize(
    "m",
    [StableLike(c=1.0, theta=1.5, truncation=10.0), CompoundPoisson(rate=2.0, size=0.5)],
    ids=["stable", "cpp"],
)
def test_jump_integral_identity_vanishes(m):
    val, err = jump_integral(m, identity_hook(), 3.0)
    assert abs(val) <= 1e-12
    assert err <= 1e-10


@pytest.mark.parametrize(
    "m,m2",
    [
        (StableLike(c=1.0, theta=1.5, truncation=10.0), 10.0**0.5 / 0.5),
        (StableLike(c=0.7, theta=1.3, truncation=4.0), 0.7 * 4.0**0.7 / 0.7),
        (CompoundPoisson(rate=2.0, size=0.5), 2.0 * 0.25),
    ],
    ids=["stable10", "stable4", "cpp"],
)
def test_jump_integral_square_is_second_moment(m, m2):
    # V(z + xi) - V(z) - xi V'(z) = xi^2 exactly for the square
    for z in (0.5, 7.0):
        val, _ = jump_integral(m, square_hook(), z)
        assert val == pytest.approx(m2, rel=1e-10)


def _quad_jump(measure, V, z):
    """Reference jump integral: adaptive quadrature of ``V''(z+s) K(s)`` at
    relative tolerance 1e-13, split at the kinks of V."""
    if isinstance(measure, CompoundPoisson):
        upper = measure.size

        def kernel(s):
            return measure.rate * (measure.size - s)

    else:
        c, theta, u = measure.c, measure.theta, measure.truncation
        upper = math.inf if u is None else u

        def kernel(s):
            out = c * s ** (1.0 - theta) / (theta * (theta - 1.0))
            if u is not None:
                out -= c * (u ** (1.0 - theta) / (theta - 1.0) - s * u**-theta / theta)
            return out

    edges = [0.0] + sorted(k - z for k in V.kinks if 0.0 < k - z < upper) + [upper]
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a, b in zip(edges, edges[1:]):
            total += quad(
                lambda s: float(V.deriv2(z + s)) * kernel(s),
                a, b, epsabs=0.0, epsrel=1e-13, limit=400,
            )[0]
    return total


def _jump_cases(ref):
    f_nodes = np.concatenate([np.geomspace(1.0 / 63.0, 1e3, 34), np.linspace(3.0, 8.0, 6)])
    nodes = np.geomspace(1e-3, 1e3, 40)
    untruncated = StableLike(c=0.7, theta=1.2)
    cpp = CompoundPoisson(rate=2.0, size=0.5)
    return [
        ("f0.5", make_f(ref, 0.5), ref.n2, f_nodes),
        ("f1", make_f(ref, 1.0), ref.n2, f_nodes),
        ("h", make_h(ref), ref.n1, nodes),
        ("g", make_g(ref), ref.n1, nodes),
        ("f1-untruncated", make_f(ref, 1.0), untruncated, f_nodes),
        ("h-untruncated", make_h(ref), untruncated, nodes),
        ("g-untruncated", make_g(ref), untruncated, nodes),
        ("f1-cpp", make_f(ref, 1.0), cpp, f_nodes),
        ("g-cpp", make_g(ref), cpp, nodes),
    ]


def test_jump_integral_matches_tight_adaptive_quadrature(ref):
    for label, V, measure, nodes in _jump_cases(ref):
        got, err = jump_integral(measure, V, nodes)
        want = np.array([_quad_jump(measure, V, z) for z in nodes])
        rel = np.abs(got - want) / np.abs(want)
        assert np.max(rel) <= 1e-10, (label, nodes[np.argmax(rel)], np.max(rel))
        assert np.all(err <= 1e-10 * np.abs(want)), label


def test_array_evaluation_equals_scalar_wrappers(ref):
    for label, V, measure, nodes in _jump_cases(ref):
        value, err = jump_integral(measure, V, nodes)
        one = [jump_integral(measure, V, z) for z in nodes]
        assert all(isinstance(v, float) and isinstance(e, float) for v, e in one)
        assert np.array_equal(value, [v for v, _ in one]), label
        assert np.array_equal(err, [e for _, e in one]), label
    for V, target, M in ((make_f(ref, 1.0), "Zbar", 1.0), (make_h(ref), "Xdiff", None)):
        cert = certify_drift(ref, V, target, M=M, n_grid=60)
        lv = eval_generator_1d(ref, V, cert.z_grid, target, M=M)
        one = [eval_generator_1d(ref, V, z, target, M=M) for z in cert.z_grid]
        assert np.array_equal(cert.lv, lv) and np.array_equal(lv, one)
    sq = square_hook()
    x = np.linspace(0.0, 4.0, 33)
    table = eval_generator_xy(ref, sq, sq, x, 0.5)
    assert np.array_equal(table, [eval_generator_xy(ref, sq, sq, v, 0.5) for v in x])


def test_undeclared_step_in_second_derivative_fails_quadrature(ref):
    # V'' steps at x = 3.3, inside the cell [2, 4] of the node z = 1
    def d2(z):
        return np.where(np.asarray(z) < 3.3, 2.0, 1.0)

    def d1(z):
        return 2.0 * np.asarray(z, dtype=float)

    def value(z):
        return np.asarray(z, dtype=float) ** 2

    with pytest.raises(QuadratureFail, match="z=1"):
        eval_generator_1d(ref, CustomFunction(value, d1, d2), 1.0, "X")
    declared = CustomFunction(value, d1, d2, kinks=(3.3,))
    got, err = jump_integral(ref.n1, declared, 1.0)
    assert got == pytest.approx(_quad_jump(ref.n1, declared, 1.0), rel=1e-10)
    assert err <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_smoothing_family_kinks_resolve_its_jump_integral(ref, n):
    phi = make_smoothing(n)
    assert phi.kinks == (phi.lower, phi.upper)
    for z in (phi.lower / 3.0, math.sqrt(phi.lower * phi.upper), 2.0 * phi.upper):
        got, err = jump_integral(ref.n1, phi, z)
        assert got == pytest.approx(_quad_jump(ref.n1, phi, z), rel=1e-10)
        assert z * err <= 1e-9


def test_eval_generator_identity_recovers_drift(ref):
    V = identity_hook()
    for z in (0.3, REF_DRIFT_ROOT, 8.0):
        got = eval_generator_1d(ref, V, z, "X")
        assert got == pytest.approx(drift_x(ref, z), rel=1e-12)
        got = eval_generator_1d(ref, V, z, "Xdiff")
        want = -ref.b1 * z**ref.alpha1 + ref.a1 * z
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_eval_generator_square_closed_form(ref):
    V = square_hook()
    z, M = 2.0, 3.0
    m2 = 1.0 * 10.0**0.5 / 0.5  # full second moment of the reference measure
    lam = 2.0 * ref.k * M + ref.a2
    want = (
        (lam * z - ref.b2 * z**ref.alpha2) * 2.0 * z
        + ref.sigma2 * z * 2.0
        + z * m2
    )
    got = eval_generator_1d(ref, V, z, "Zbar", M=M)
    assert got == pytest.approx(want, rel=1e-10)


def test_eval_generator_zbar_freezes_negative_predation_at_zero(ref):
    p = dataclasses.replace(ref, k=-0.5)
    for z in (0.3, 2.0, 8.0):
        got = eval_generator_1d(p, identity_hook(), z, "Zbar", 2.0)
        want = p.a2 * z - p.b2 * z**p.alpha2
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_eval_generator_zbar_requires_level(ref):
    with pytest.raises(InvalidRegion):
        eval_generator_1d(ref, identity_hook(), 1.0, "Zbar")
    with pytest.raises(InvalidRegion):
        eval_generator_1d(ref, identity_hook(), 1.0, "nonsense")


def test_eval_generator_xy_separable_quadratic(ref):
    sq = square_hook()
    m2 = 1.0 * 10.0**0.5 / 0.5
    x, y = 1.5, 0.8
    want_x = drift_x(ref, x) * 2.0 * x + ref.sigma1 * x * 2.0 + x * m2
    drift2 = ref.k * x * y - ref.b2 * y**ref.alpha2 + ref.a2 * y + ref.gamma2
    want_y = drift2 * 2.0 * y + ref.sigma2 * y * 2.0 + y * m2
    got = eval_generator_xy(ref, sq, sq, x, y)
    assert got == pytest.approx(want_x + want_y, rel=1e-9)


def test_certify_drift_reference_f_and_h(ref):
    f = make_f(ref, 1.0)
    cert_f = certify_drift(ref, f, "Zbar", M=1.0, n_grid=80)
    assert cert_f.valid
    assert cert_f.certified_C > 0.0
    assert cert_f.margin_at_infinity > 0.0
    assert cert_f.certified_C == pytest.approx(float(np.min(-cert_f.lv)))

    h = make_h(ref)
    cert_h = certify_drift(ref, h, "Xdiff", n_grid=80)
    assert cert_h.valid
    assert cert_h.certified_C > 0.0
    assert np.all(np.isfinite(cert_h.lv))


def test_certificate_reports_quadrature_error_and_argmin(ref):
    f = make_f(ref, 0.5)
    cert = certify_drift(ref, f, "Zbar", M=0.5, n_grid=80)
    _, jerr = jump_integral(ref.n2, f, cert.z_grid)
    worst = int(np.argmin(-cert.lv))
    assert cert.certified_C == float(np.min(-cert.lv))
    assert cert.argmin_z == cert.z_grid[worst]
    assert cert.max_quad_err == float(np.max(cert.z_grid * jerr))
    out = cert.to_dict()
    assert out["argmin_z"] == cert.argmin_z
    assert out["max_quad_err"] == cert.max_quad_err
    # the smallest per-node ratio of -LV to its error estimate
    assert out["C_over_err"] == float(np.min(-cert.lv / (cert.z_grid * jerr)))


def test_certify_drift_rejects_immigration_on_h(ref):
    # h is built for the immigration-free difference process; against the
    # full first component the generator is positive near zero
    cert = certify_drift(ref, make_h(ref), "X", region=(1e-4, 10.0), n_grid=40)
    assert not cert.valid
    assert cert.certified_C < 0.0


def test_certify_drift_region_errors(ref):
    with pytest.raises(InvalidRegion):
        certify_drift(ref, make_h(ref), "Xdiff", region=(-1.0, 5.0))
    with pytest.raises(InvalidRegion):
        certify_drift(ref, make_h(ref), "Xdiff", region=(5.0, 2.0))


def test_default_region_starts_at_smoothing_scale(ref):
    h = make_h(ref)
    lo, hi = default_region(h)
    assert lo == pytest.approx(1.0 / math.ceil(2.0 / h.l0))
    assert hi == 1e3
    assert default_region(make_g(ref)) == (1e-3, 1e3)


def test_exit_barrier_reference_level(ref):
    rep = certify_exit_barrier(ref, REF_M0)
    assert rep.valid
    assert rep.min_drift_term > 0.0
    assert rep.drift_root == pytest.approx(REF_DRIFT_ROOT, rel=1e-10)
    # (w(3M/2) - w(2M)) / (1 - w(2M)) = 1/10 for every M
    assert rep.prob_lower_bound == pytest.approx(0.1, rel=1e-12)

    below = certify_exit_barrier(ref, 1.0)
    assert not below.valid


def test_barrier_shape():
    w = make_w(4.0)
    assert w.value(0.0) == 1.0
    xs = np.linspace(0.0, 20.0, 50)
    assert np.all(np.diff(w.value(xs)) < 0.0)
    assert np.all(w.deriv2(xs) > 0.0)
    with pytest.raises(InvalidRegion):
        make_w(0.0)


def test_exit_probe_shape(ref):
    g = make_g(ref)
    assert g.sup_value() == 2.0
    xs = np.geomspace(1e-3, 1e4, 60)
    assert np.all(g.deriv1(xs) > 0.0)
    assert np.all(g.deriv2(xs) < 0.0)
    assert np.all(g.value(xs) < 2.0)
    assert g.value(0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_smoothing_family_properties(n):
    phi = make_smoothing(n)
    a, b = phi.lower, phi.upper
    assert a == pytest.approx(math.exp(-n * (n + 1) / 2.0))
    assert b == pytest.approx(math.exp(-(n - 1) * n / 2.0))
    z = np.concatenate([np.geomspace(a / 10.0, b * 10.0, 300), [2.0, 10.0]])
    vals = phi.value(z)
    d1 = phi.deriv1(z)
    d2 = phi.deriv2(z)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= np.maximum(z, 0.0) + 1e-15)
    assert np.all((d1 >= 0.0) & (d1 <= 1.0 + 1e-15))
    assert np.all(z * d2 <= 1.0 / n + 1e-15)
    # approximates the positive part from below within (b - a) / n
    hi = z >= b
    assert np.max(z[hi] - vals[hi]) <= b / n + 1e-15
    # C^1 at both edges of the support
    for edge in (a, b):
        assert _one_sided_gap(phi.value, edge) <= 1e-9 or abs(phi.value(edge)) < 1e-30
        gap1 = abs(float(phi.deriv1(edge)) - float(phi.deriv1(np.nextafter(edge, np.inf))))
        assert gap1 <= 1e-12


def test_smoothing_gap_shrinks_with_n():
    gaps = [make_smoothing(n).upper / n for n in (1, 2, 3, 4)]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    with pytest.raises(InvalidRegion):
        make_smoothing(0)


def test_budget_arithmetic():
    assert budget_from(3.0, 0.5, slack=0.05) == pytest.approx(12.6, rel=1e-12)
    assert budget_from(3.0, 0.5, slack=0.0) == pytest.approx(12.0, rel=1e-12)
    with pytest.raises(InvalidCertificate):
        budget_from(1.0, 0.0)
    with pytest.raises(InvalidCertificate):
        budget_from(1.0, -2.0)


def test_meeting_time_budget_consistency(ref):
    mb = meeting_time_budget(ref, 1.0, target="Xdiff", n_grid=80)
    assert mb.valid
    assert mb.t0 == pytest.approx(
        budget_from(mb.sup_value, mb.certified_C), rel=1e-12
    )
    with pytest.raises(InvalidRegion):
        meeting_time_budget(ref, 1.0, target="nonsense")


def test_certify_pairs_each_function_with_target_region_and_budget(ref):
    f = certify(ref, "f", M=1.0, n_grid=60)
    assert (f.target, f.region) == ("Zbar", default_region(make_f(ref, 1.0)))
    assert f.t0 == budget_from(make_f(ref, 1.0).sup_value(), f.certified_C)
    h = certify(ref, "h", n_grid=60)
    assert (h.target, h.region) == ("Xdiff", default_region(make_h(ref)))
    assert h.sup_value == make_h(ref).sup_value()
    assert h.t0 == budget_from(h.sup_value, h.certified_C)
    g = certify(ref, "g", n_grid=60)
    assert g.target == "X" and g.t0 is None
    assert g.region[0] == pytest.approx(REF_M0, rel=1e-8)
    assert g.region[1] == 10.0 * g.region[0]
    with pytest.raises(InvalidParams):
        certify(ref, "w", M=1.0)
    with pytest.raises(InvalidRegion):
        certify(ref, "f")


def test_noise_floor_feeds_beta(ref):
    beta, kappa0 = noise_floor(ref, 2)
    f = make_f(ref, 2.0)
    assert f.beta == beta
    assert f.kappa0 == kappa0
