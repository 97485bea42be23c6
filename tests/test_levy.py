"""Jump-measure moments against direct quadrature, sampling laws, and the
small-jump lower bound used when a component has no diffusion part."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from branchcouple.errors import InvalidParams, ZeroTailMass
from branchcouple.levy import (
    CompoundPoisson,
    StableLike,
    ZeroMeasure,
    measure_from_config,
    suggest_cutoff,
)

STABLES = [
    StableLike(c=1.3, theta=1.5, truncation=10.0),
    StableLike(c=0.7, theta=1.2),
    StableLike(c=2.0, theta=1.85, truncation=0.5),
]


def _quad_moment(m: StableLike, power: int, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    val, _ = integrate.quad(
        lambda s: s**power * m.c * s ** (-1.0 - m.theta), lo, hi, limit=200
    )
    return val


@pytest.mark.parametrize("m", STABLES, ids=["trunc10", "untrunc", "trunc05"])
@pytest.mark.parametrize("x", [0.05, 0.3, 1.0, 5.0, 50.0])
def test_stable_partial_moments_match_quadrature(m, x):
    top = m.truncation if m.truncation is not None else math.inf
    cut = min(x, top)
    assert m.truncated_second_moment(x) == pytest.approx(
        _quad_moment(m, 2, 0.0, cut), rel=1e-9
    )
    assert m.tail_linear_moment(x) == pytest.approx(
        _quad_moment(m, 1, cut, top), rel=1e-9, abs=1e-300
    )
    assert m.tail_mass(x) == pytest.approx(
        _quad_moment(m, 0, cut, top), rel=1e-9, abs=1e-300
    )


def test_compound_poisson_moments_are_atom_indicators():
    m = CompoundPoisson(rate=2.0, size=0.5)
    # the atom counts as "small" once the threshold reaches it
    assert m.truncated_second_moment(0.4) == 0.0
    assert m.truncated_second_moment(0.5) == 2.0 * 0.25
    assert m.truncated_second_moment(3.0) == 2.0 * 0.25
    assert m.tail_mass(0.4) == 2.0
    assert m.tail_mass(0.5) == 0.0
    assert m.tail_linear_moment(0.4) == 2.0 * 0.5
    assert m.tail_linear_moment(0.6) == 0.0


def test_zero_measure_has_no_moments_and_no_tail():
    m = ZeroMeasure()
    assert m.truncated_second_moment(1.0) == 0.0
    assert m.tail_mass(1.0) == 0.0
    assert m.tail_linear_moment(1.0) == 0.0
    assert m.is_zero
    with pytest.raises(ZeroTailMass):
        m.tail_quantile(1.0, 0.5)
    with pytest.raises(ZeroTailMass):
        m.tail_quantile(1.0, 1.0 - np.random.default_rng(0).random())


@pytest.mark.parametrize("m", STABLES, ids=["trunc10", "untrunc", "trunc05"])
def test_tail_quantile_inverts_tail_mass(m):
    thr = 0.1
    total = m.tail_mass(thr)
    for u in [1.0, 0.7, 0.25, 1e-3]:
        q = m.tail_quantile(thr, u)
        assert q >= thr
        assert m.tail_mass(q) == pytest.approx(u * total, rel=1e-10)


def test_tail_quantile_worked_values():
    m = StableLike(c=1.0, theta=1.5)
    assert m.tail_quantile(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    # untruncated power transform: u^(-1/theta) = 0.5^(-2/3) = 2^(2/3)
    assert m.tail_quantile(1.0, 0.5) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)
    assert m.tail_quantile(0.25, 1.0) == pytest.approx(0.25, rel=1e-14)


def test_tail_quantile_threshold_errors():
    with pytest.raises(InvalidParams):
        StableLike(c=1.0, theta=1.5).tail_quantile(0.0, 0.5)
    with pytest.raises(ZeroTailMass):
        StableLike(c=1.0, theta=1.5, truncation=2.0).tail_quantile(2.0, 0.5)
    with pytest.raises(ZeroTailMass):
        CompoundPoisson(rate=1.0, size=0.5).tail_quantile(0.5, 0.5)


def test_compound_poisson_tail_sampling_is_the_atom():
    m = CompoundPoisson(rate=1.0, size=0.5)
    rng = np.random.default_rng(3)
    assert m.tail_quantile(0.25, 1.0 - rng.random()) == 0.5
    assert m.tail_quantile(0.1, 0.3) == 0.5


def test_sample_tail_matches_inverse_cdf_law():
    m = StableLike(c=1.0, theta=1.5, truncation=10.0)
    rng = np.random.default_rng(42)
    draws = np.array([m.tail_quantile(0.5, 1.0 - rng.random()) for _ in range(4000)])
    assert np.all((draws >= 0.5) & (draws <= 10.0))
    total = m.tail_mass(0.5)

    def cdf(q):
        return 1.0 - m.tail_mass(np.clip(q, 0.5, 10.0)) / total

    stat = stats.kstest(draws, cdf).statistic
    # 4000 draws: the 0.1% critical value is about 1.95 / sqrt(n) = 0.031
    assert stat < 0.031


def test_constructor_rejects_bad_parameters():
    with pytest.raises(InvalidParams):
        StableLike(c=0.0, theta=1.5)
    with pytest.raises(InvalidParams):
        StableLike(c=1.0, theta=1.0)
    with pytest.raises(InvalidParams):
        StableLike(c=1.0, theta=2.0)
    with pytest.raises(InvalidParams):
        StableLike(c=1.0, theta=1.5, truncation=0.0)
    with pytest.raises(InvalidParams):
        CompoundPoisson(rate=0.0, size=1.0)
    with pytest.raises(InvalidParams):
        CompoundPoisson(rate=1.0, size=-1.0)


def test_small_jump_lower_bound_reports():
    rep = StableLike(c=1.0, theta=1.5, truncation=10.0).check_lower_bound()
    assert rep.holds
    assert rep.theta == 1.5
    assert rep.constant == pytest.approx(1.0 / (2.0 - 1.5))

    # truncation below 1: the bound saturates above the truncation and the
    # worst point of the dyadic grid is x = 1
    rep2 = StableLike(c=1.0, theta=1.5, truncation=0.25).check_lower_bound()
    assert rep2.holds
    assert rep2.constant == pytest.approx(0.25**0.5 / (2.0 - 1.5))

    assert not CompoundPoisson(rate=1.0, size=1.0).check_lower_bound().holds
    assert not ZeroMeasure().check_lower_bound().holds


@given(
    c=st.floats(0.1, 5.0),
    theta=st.floats(1.05, 1.95),
    trunc=st.one_of(st.none(), st.floats(0.2, 20.0)),
    x1=st.floats(1e-3, 30.0),
    x2=st.floats(1e-3, 30.0),
)
@settings(max_examples=80, deadline=None)
def test_partial_moment_monotonicity(c, theta, trunc, x1, x2):
    m = StableLike(c=c, theta=theta, truncation=trunc)
    lo_x, hi_x = sorted((x1, x2))
    assert m.truncated_second_moment(lo_x) <= m.truncated_second_moment(hi_x) * (
        1 + 1e-12
    ) + 1e-15
    assert m.tail_mass(lo_x) * (1 + 1e-12) + 1e-15 >= m.tail_mass(hi_x)
    assert m.tail_linear_moment(lo_x) * (1 + 1e-12) + 1e-15 >= m.tail_linear_moment(
        hi_x
    )
    # every jump in the tail above x is at least x
    assert m.tail_linear_moment(lo_x) >= lo_x * m.tail_mass(lo_x) * (1 - 1e-12)


@given(
    dt=st.floats(1e-5, 1e-2),
    scale=st.floats(0.5, 1e4),
    c=st.floats(0.2, 3.0),
    theta=st.floats(1.1, 1.9),
)
@settings(max_examples=60, deadline=None)
def test_suggest_cutoff_meets_rate_budget(dt, scale, c, theta):
    m = StableLike(c=c, theta=theta, truncation=10.0)
    eps = suggest_cutoff(m, dt, scale)
    assert 0.0 < eps <= 10.0
    rate = scale * m.tail_mass(eps) * dt
    assert rate <= 0.1 * (1.0 + 1e-9)
    # the cutoff is the smallest admissible one: either the budget binds or
    # the whole tail is already resolved at the truncation
    if eps < 10.0 * (1.0 - 1e-9):
        assert rate == pytest.approx(0.1, rel=1e-6)


def test_suggest_cutoff_finite_activity_families():
    assert suggest_cutoff(ZeroMeasure(), 1e-3, 10.0) == 1.0
    assert suggest_cutoff(CompoundPoisson(rate=3.0, size=0.8), 1e-3, 10.0) == 0.4


@pytest.mark.parametrize(
    "m",
    [ZeroMeasure(), CompoundPoisson(rate=2.0, size=0.5)] + STABLES,
    ids=["zero", "cpp", "trunc10", "untrunc", "trunc05"],
)
def test_config_round_trip(m):
    assert measure_from_config(m.to_config()) == m


def test_config_errors_name_the_problem():
    with pytest.raises(InvalidParams, match="family"):
        measure_from_config({"c": 1.0})
    with pytest.raises(InvalidParams, match="nonsense"):
        measure_from_config({"family": "nonsense"})
    with pytest.raises(InvalidParams, match="size"):
        measure_from_config({"family": "cpp", "lambda": 1.0})
    with pytest.raises(InvalidParams, match="theta"):
        measure_from_config({"family": "stable", "c": 1.0})
