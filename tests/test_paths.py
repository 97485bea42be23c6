"""Path engines: determinism, shared-stream structure, coupling glue,
truncation consistency, and statistical oracles with closed-form means."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from branchcouple import paths
from branchcouple.errors import InvalidParams
from branchcouple.levy import StableLike, ZeroMeasure
from branchcouple.model import drift_root
from branchcouple.paths import (
    SimScheme,
    mc_cir,
    mc_coupled,
    mc_system,
    mc_zbar,
    simulate_cbipc,
    simulate_coupled,
    simulate_truncated,
    stream,
    trace_rows,
)
from refmodel import REF


def _with(p, **kw):
    return dataclasses.replace(p, **kw)


NOISELESS = _with(
    REF, sigma1=0.0, sigma2=0.0, n1=ZeroMeasure(), n2=ZeroMeasure()
)


def test_stream_is_keyed_and_validated():
    a = stream(5, 1).random(4)
    b = stream(5, 2).random(4)
    c = stream(5, 1).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)
    with pytest.raises(InvalidParams):
        stream(-1)
    with pytest.raises(InvalidParams):
        stream(0, -3)


def test_scheme_validation_and_round_trip():
    s = SimScheme(dt=1e-3, horizon=2.0, jump_cutoff=0.7, meet_tol=1e-3)
    assert SimScheme(**s.to_config()) == s
    assert s.n_steps == 2000
    with pytest.raises(InvalidParams):
        SimScheme(dt=0.0, horizon=1.0)
    with pytest.raises(InvalidParams):
        SimScheme(dt=1e-3, horizon=1.0, small_jump_mode="huh")
    with pytest.raises(InvalidParams):
        SimScheme(dt=1e-3, horizon=1.0, meet_tol=0.0)


def test_scheme_auto_sizes_the_cutoff(ref):
    s = SimScheme.auto(ref, 1e-3, 5.0, scale=40.0)
    for m in (ref.n1, ref.n2):
        assert 40.0 * m.tail_mass(s.jump_cutoff) * 1e-3 <= 0.1 * (1.0 + 1e-9)
    assert s.small_jump_mode == "gaussian"
    assert s.meet_tol == pytest.approx(1e-4 * 41.0)
    s2 = SimScheme.auto(NOISELESS, 1e-3, 5.0, scale=40.0)
    assert s2.small_jump_mode == "compensator"


def test_noiseless_path_is_the_ode():
    root = drift_root(NOISELESS)
    sch = SimScheme(dt=1e-3, horizon=2.0)
    grid = simulate_cbipc(NOISELESS, sch, (root, 1.0), stream(1, 0))
    assert np.max(np.abs(grid.states["X"] - root)) <= 1e-8 * root

    sch_long = SimScheme(dt=1e-3, horizon=20.0)
    grid = simulate_cbipc(NOISELESS, sch_long, (5.0, 1.0), stream(1, 0))
    assert abs(grid.states["X"][-1] - root) <= 1e-5 * root


def test_linear_branching_mean_matches_closed_form():
    # alpha1 = 1 makes the drift affine: dE[X] = ((a1 - b1) E[X] + gamma1) dt,
    # and the compensated jumps leave the mean equation unchanged
    p = _with(REF, alpha1=1.0, a1=0.8, b1=0.3, gamma1=1.0)
    mu, gamma = 0.8 - 0.3, 1.0
    x0, t = 2.0, 1.0
    want = (x0 + gamma / mu) * math.exp(mu * t) - gamma / mu
    sch = SimScheme.auto(p, 1e-3, t, scale=10.0)
    n = 20000
    out = mc_system(p, sch, np.full(n, x0), None, seed=11, x_only=True)
    got = out["final_x"]
    se = np.std(got, ddof=1) / math.sqrt(n)
    assert abs(np.mean(got) - want) <= 4.0 * se + 1e-3


def test_same_seed_bitwise_and_worker_invariance(ref):
    sch = SimScheme.auto(ref, 2e-3, 0.5, scale=10.0)
    n = 6000  # two batches
    x0 = np.full(n, 3.0)
    y0 = np.full(n, 1.0)
    a = mc_system(ref, sch, x0, y0, seed=5, low=1.0)
    b = mc_system(ref, sch, x0, y0, seed=5, low=1.0)
    c = mc_system(ref, sch, x0, y0, seed=5, low=1.0, workers=3)
    for key in ("tau_minus", "final_x", "final_y"):
        assert np.array_equal(a[key], b[key])
        assert np.array_equal(a[key], c[key])
    d = mc_system(ref, sch, x0, y0, seed=6, low=1.0)
    assert not np.array_equal(a["final_x"], d["final_x"])


def test_coupled_worker_invariance(ref):
    sch = SimScheme.auto(ref, 2e-3, 1.0, scale=10.0)
    n = 5000
    arrs = (np.full(n, 4.0), np.full(n, 1.0), np.full(n, 2.0), np.full(n, 0.3))
    a = mc_coupled(ref, sch, *arrs, seed=9)
    b = mc_coupled(ref, sch, *arrs, seed=9, workers=3)
    for key in ("t_x", "t_full", "abort"):
        assert np.array_equal(a[key], b[key])


def test_recorded_paths_stay_nonnegative(ref):
    sch = SimScheme.auto(ref, 1e-3, 2.0, scale=10.0)
    out = mc_system(ref, sch, np.full(300, 1.0), np.full(300, 0.5), seed=3, record=True)
    rec = out["rec"]
    assert np.all(np.isfinite(rec))
    assert np.all(rec >= 0.0)


def test_coupled_glue_from_identical_start(ref):
    sch = SimScheme.auto(ref, 1e-3, 1.0, scale=10.0)
    grid = simulate_coupled(ref, sch, (1.5, 1.5, 0.7, 0.7), stream(2, 0))
    assert grid.stopping.t_x == 0.0
    assert grid.stopping.t_full == 0.0
    assert np.array_equal(grid.states["X"], grid.states["Xt"])
    assert np.array_equal(grid.states["Y"], grid.states["Yt"])


def test_single_coupled_path_logs_one_glue_per_pair(ref):
    sch = SimScheme.auto(ref, 1e-3, 8.0, scale=10.0)
    grid = simulate_coupled(ref, sch, (4.0, 1.0, 2.0, 0.2), stream(14, 0))
    st = grid.stopping
    assert 0.0 < st.t_x <= st.t_full < math.inf
    assert [ev.time for ev in grid.events if ev.kind == "glue"] == [st.t_x, st.t_full]
    # batched runs keep no event log
    out = mc_system(ref, sch, np.ones(3), np.ones(3), seed=3, record=True)
    assert "events" not in out


def test_coupled_paths_merge_and_stay_merged(ref):
    sch = SimScheme.auto(ref, 1e-3, 8.0, scale=10.0)
    grid = simulate_coupled(ref, sch, (4.0, 1.0, 2.0, 0.2), stream(14, 0))
    st = grid.stopping
    assert st.t_x <= st.t_full
    assert math.isfinite(st.t_full)
    after = grid.times > st.t_full
    assert np.array_equal(grid.states["X"][after], grid.states["Xt"][after])
    assert np.array_equal(grid.states["Y"][after], grid.states["Yt"][after])
    before = grid.times < st.t_x
    if np.any(before):
        assert np.any(grid.states["X"][before] != grid.states["Xt"][before])


def test_meeting_times_shrink_with_closer_starts(ref):
    sch = SimScheme.auto(ref, 2e-3, 10.0, scale=30.0)
    n = 800
    far = mc_coupled(
        ref, sch, np.full(n, 20.0), np.full(n, 0.5), np.full(n, 2.0), np.full(n, 0.1),
        seed=21,
    )
    near = mc_coupled(
        ref, sch, np.full(n, 1.2), np.full(n, 0.8), np.full(n, 0.6), np.full(n, 0.4),
        seed=22,
    )
    assert np.all(far["t_x"] <= far["t_full"])
    med_far = np.median(far["t_full"][np.isfinite(far["t_full"])])
    med_near = np.median(near["t_full"][np.isfinite(near["t_full"])])
    assert med_near < med_far


def test_compaction_keeps_slot_alignment(ref):
    # 260 pairs start already met (they retire immediately and trigger array
    # compaction), 240 start far apart; the late meeting times must land in
    # the far slots untouched
    sch = SimScheme.auto(ref, 2e-3, 8.0, scale=60.0)
    n_met, n_far = 260, 240
    x0 = np.concatenate([np.full(n_met, 1.0), np.full(n_far, 50.0)])
    xt0 = np.concatenate([np.full(n_met, 1.0), np.full(n_far, 1.0)])
    y0 = np.concatenate([np.full(n_met, 0.5), np.full(n_far, 3.0)])
    yt0 = np.concatenate([np.full(n_met, 0.5), np.full(n_far, 0.2)])
    out = mc_coupled(ref, sch, x0, xt0, y0, yt0, seed=33)
    assert np.all(out["t_full"][:n_met] == 0.0)
    assert np.all(out["t_x"][:n_met] == 0.0)
    assert np.all(out["t_full"][n_met:] > 0.0)
    assert np.all(out["t_x"] <= out["t_full"])
    met = np.isfinite(out["t_full"][n_met:])
    assert np.mean(met) > 0.5


def test_retired_paths_keep_their_final_state_across_compaction():
    # nearly every path retires below 1.5, so the batch compacts; a retired
    # path reads its frozen state whether or not a compaction came after it
    sch = SimScheme.auto(REF, 2e-3, 2.0, scale=10.0)
    out = mc_system(
        REF, sch, np.full(2000, 3.0), None, 5, x_only=True, low=1.5, retire="low"
    )
    retired = np.isfinite(out["tau_minus"])
    assert np.sum(retired) > 1000
    assert np.all(np.isfinite(out["final_x"]))
    assert np.all(out["final_x"][retired] <= 1.5)


def test_truncated_batch_is_bitwise_when_nothing_crosses(ref):
    # with the ceiling far above the running maximum the truncated system is
    # the plain system, path for path, bit for bit
    sch = SimScheme.auto(ref, 1e-3, 1.0, scale=60.0)
    n = 500
    x0 = np.full(n, 2.0)
    y0 = np.full(n, 1.0)
    plain = mc_system(ref, sch, x0, y0, seed=7, record=True)
    trunc = mc_system(ref, sch, x0, y0, seed=7, record=True, truncation=50.0, high=50.0)
    assert float(np.max(plain["rec"][:, :, 0])) < 50.0
    assert np.array_equal(plain["rec"], trunc["rec"])
    assert not np.any(np.isfinite(trunc["tau_plus"]))


def test_truncated_single_paths_share_streams_until_crossing(ref):
    # a single-path run carries its own integration schedule, so the shared
    # stream keeps both variants bitwise identical strictly before the first
    # passage above the ceiling, and they decorrelate after it
    sch = SimScheme.auto(ref, 1e-3, 1.0, scale=10.0)
    times = np.arange(sch.n_steps + 1) * sch.dt
    diverged = 0
    crossed = 0
    for i in range(30):
        plain = simulate_cbipc(ref, sch, (2.0, 1.0), stream(7, i))
        trunc = simulate_truncated(ref, sch, 3.0, (2.0, 1.0), stream(7, i))
        tau = trunc.stopping.tau_plus
        pre = times < tau
        assert np.array_equal(plain.states["Y"][pre], trunc.states["Y"][pre])
        assert np.array_equal(plain.states["X"][pre], trunc.states["X"][pre])
        if math.isfinite(tau):
            crossed += 1
            if not np.array_equal(plain.states["Y"], trunc.states["Y"]):
                diverged += 1
    assert crossed >= 5
    assert diverged >= 1


def test_pair_gauss_covariance_is_overlap():
    ch = paths._Channel.build(1.0, ZeroMeasure(), SimScheme(dt=1e-3, horizon=1.0))
    n, h = 200_000, 1e-3
    u = np.full(n, 2.0)
    v = np.full(n, 5.0)
    (gu, gv), _ = paths._sheet(ch, np.stack([u, v]), h, stream(17, 0))
    # Var = 2 sigma level h, Cov = 2 sigma min(level) h
    for got, lvl in ((gu, 2.0), (gv, 5.0)):
        var = np.var(got)
        want = 2.0 * lvl * h
        assert abs(var - want) <= 6.0 * want * math.sqrt(2.0 / n)
    cov = float(np.mean(gu * gv))
    want = 2.0 * 2.0 * h
    assert abs(cov - want) <= 6.0 * math.sqrt(np.var(gu * gv) / n)


def test_sheet_gauss_covariance_is_min_of_levels():
    ch = paths._Channel.build(1.0, ZeroMeasure(), SimScheme(dt=1e-3, horizon=1.0))
    n, h = 200_000, 1e-3
    levels = np.tile(np.array([[1.0, 4.0, 2.5]]), (n, 1))
    g = paths._sheet(ch, levels.T, h, stream(19, 0))[0].T
    for i in range(3):
        for j in range(3):
            want = 2.0 * min(levels[0, i], levels[0, j]) * h
            got = float(np.mean(g[:, i] * g[:, j]))
            spread = math.sqrt(np.var(g[:, i] * g[:, j]) / n)
            assert abs(got - want) <= 6.0 * max(spread, 1e-12), (i, j)


def test_sheet_jumps_are_nested():
    m = StableLike(c=1.0, theta=1.5, truncation=10.0)
    ch = paths._Channel.build(
        0.0, m, SimScheme(dt=1e-3, horizon=1.0, jump_cutoff=0.5)
    )
    n, h = 50_000, 1e-3
    levels = np.tile(np.array([[0.5, 3.0, 1.5]]), (n, 1))
    j = paths._sheet(ch, levels.T, h, stream(23, 0))[1].T
    # a mark below a level hits every larger level with the same size
    hit = j > 0.0
    assert np.any(hit)
    assert np.all(hit[:, 0] <= hit[:, 2])
    assert np.all(hit[:, 2] <= hit[:, 1])
    both = hit[:, 0]
    assert np.allclose(j[both, 0], j[both, 1])


@pytest.mark.parametrize(
    "levels",
    [(2.0, 2.0), (0.0, 0.0), (1.0, 1.0, 3.0), (0.5, 2.0, 2.0), (2.5, 2.5, 2.5)],
    ids=["pair", "pair-at-zero", "tie-bottom", "tie-top", "all-tied"],
)
def test_sheet_gives_tied_consumers_equal_increments(levels):
    m = StableLike(c=1.0, theta=1.5, truncation=10.0)
    ch = paths._Channel.build(1.0, m, SimScheme(dt=1e-3, horizon=1.0, jump_cutoff=0.5))
    n = 20_000
    lv = np.repeat(np.array(levels)[:, None], n, axis=1)
    g, j = paths._sheet(ch, lv, 0.05, stream(29, 0))
    assert np.any(j > 0.0) == (max(levels) > 0.0)
    for a in range(len(levels)):
        for b in range(a + 1, len(levels)):
            if levels[a] == levels[b]:
                assert np.array_equal(g[a], g[b])
                assert np.array_equal(j[a], j[b])
            else:
                assert not np.array_equal(g[a], g[b])


def test_substep_guard_raises_on_explosion(ref):
    sch = SimScheme(dt=1e-2, horizon=0.1, jump_cutoff=1e-7)
    with pytest.raises(RuntimeError, match="subdivision"):
        mc_system(ref, sch, np.full(4, 5.0), np.full(4, 1.0), seed=1)


def test_single_path_stopping_and_trace(ref):
    sch = SimScheme.auto(ref, 1e-3, 1.0, scale=10.0)
    grid = simulate_cbipc(ref, sch, (5.0, 1.0), stream(4, 0), low=0.5, high=100.0)
    st = grid.stopping.to_dict()
    assert st["tau_minus_level"] == 0.5
    assert st["tau_plus_level"] == 100.0
    # crossing far levels within one unit of time is unlikely: censored
    # stopping times encode as the string marker
    for key in ("tau_minus", "tau_plus"):
        assert st[key] == "censored" or isinstance(st[key], float)
    rows = list(trace_rows(grid))
    assert len(rows) == sch.n_steps + 1
    assert rows[0]["X"] == 5.0
    assert rows[0]["Y"] == 1.0
    assert set(rows[0]) == {"t", "X", "Xt", "Y", "Yt", "Z", "Zbar", "event"}
    assert rows[0]["Z"] == ""  # no aux columns on a plain system path


def test_aux_dominating_processes(ref):
    sch = SimScheme(dt=2e-3, horizon=200.0, jump_cutoff=2.0, meet_tol=1e-3)
    hit = mc_zbar(ref, sch, 1.0, [2.0, 1e-4], seed=6)["hitting"]
    assert 0.0 < hit[0] < math.inf
    assert hit[1] == 0.0  # a start at or below meet_tol is absorbed at once


def test_zbar_dominates_z_under_negative_predation():
    # with k <= 0 the predation gain freezes at 0, so the noiseless Zbar
    # (rate a2) stays above Z (rate k x + a2) and is never projected up
    p = _with(NOISELESS, k=-0.5)
    sch = SimScheme(dt=1e-3, horizon=2.0)
    ones = np.ones(4)
    out = mc_coupled(
        p, sch, 2.0 * ones, 2.0 * ones, 1.5 * ones, 0.2 * ones, seed=3,
        M=2.0, with_aux=True, audit=True, high=4.0,
    )
    assert out["viol_zbar_cnt"].sum() == 0


def test_cir_bridge_mean_hits_logarithm():
    # b = gamma = sigma = 1 started at z1: mean passage time below 1 is ln z1
    sch = SimScheme(dt=2e-3, horizon=60.0, jump_cutoff=1.0)
    z1 = 5.0
    out = mc_cir(1.0, 1.0, 1.0, sch, np.full(20000, z1), seed=31)
    times = out["hitting"]
    finite = times[np.isfinite(times)]
    assert finite.size == 20000  # nothing censored at this horizon
    mean = float(np.mean(finite))
    se = float(np.std(finite, ddof=1) / math.sqrt(finite.size))
    assert abs(mean - math.log(z1)) <= 4.0 * se + 2.0 * sch.dt


def test_single_cir_and_zbar_wrappers(ref):
    sch = SimScheme(dt=2e-3, horizon=60.0, jump_cutoff=1.0)
    hit = mc_cir(1.0, 1.0, 1.0, sch, [3.0, 0.5], seed=9)["hitting"]
    assert hit[0] > 0.0
    assert hit[1] == 0.0  # a start below the level passes at once


def test_zbar_batch_matches_single(ref):
    sch = SimScheme(dt=2e-3, horizon=100.0, jump_cutoff=2.0, meet_tol=1e-3)
    out = mc_zbar(ref, sch, 1.0, np.full(6, 2.0), seed=13)
    assert out["hitting"].shape == (6,)
    assert np.all(out["hitting"] >= 0.0)


def test_aux_comparison_requires_consistent_start(ref):
    sch = SimScheme.auto(ref, 2e-3, 0.5, scale=10.0)
    with pytest.raises(InvalidParams, match="x0 == xt0"):
        mc_coupled(
            ref, sch, np.array([1.0]), np.array([2.0]), np.array([1.0]),
            np.array([0.5]), seed=1, M=5.0, with_aux=True,
        )
    with pytest.raises(InvalidParams, match="y0 >= yt0"):
        mc_coupled(
            ref, sch, np.array([1.0]), np.array([1.0]), np.array([0.2]),
            np.array([0.5]), seed=1, M=5.0, with_aux=True,
        )
    with pytest.raises(InvalidParams, match="freeze level"):
        mc_coupled(
            ref, sch, np.array([1.0]), np.array([1.0]), np.array([1.0]),
            np.array([0.5]), seed=1, with_aux=True,
        )


def _sheet_measure_and_scheme():
    m = StableLike(c=1.0, theta=1.5, truncation=10.0)
    return m, SimScheme(dt=1e-3, horizon=1.0, jump_cutoff=0.5)


@pytest.mark.parametrize("zero", [False, True], ids=["stable", "zero-measure"])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_sheet_draws_one_normal_and_one_uniform_block(c, zero):
    m, sch = _sheet_measure_and_scheme()
    ch = paths._Channel.build(1.0, ZeroMeasure() if zero else m, sch)
    n = 1000
    levels = stream(41, c).random((c, n)) * 4.0
    levels[:, :10] = 2.0  # ties
    rng, twin = stream(43, c), stream(43, c)
    _, jumps = paths._sheet(ch, levels, 0.05, rng)
    assert np.any(jumps > 0.0) != zero
    twin.standard_normal((c, n))
    if not zero:
        twin.random((c, n))
    assert np.array_equal(rng.random(16), twin.random(16))


def test_sheet_gauss_variance_sums_diffusion_and_small_jumps():
    m, sch = _sheet_measure_and_scheme()
    sigma, level, h, n = 0.7, 2.0, 1e-3, 200_000
    ch = paths._Channel.build(sigma, m, sch)
    g, _ = paths._sheet(ch, np.full((1, n), level), h, stream(47, 0))
    want = (2.0 * sigma + m.truncated_second_moment(sch.jump_cutoff)) * level * h
    assert abs(np.var(g) - want) <= 6.0 * want * math.sqrt(2.0 / n)


def test_sheet_jump_sizes_follow_the_tail_law():
    m, sch = _sheet_measure_and_scheme()
    ch = paths._Channel.build(0.0, m, sch)
    level, h, n = 2.0, 0.02, 200_000
    pr = level * ch.lam * h
    _, j = paths._sheet(ch, np.full((1, n), level), h, stream(53, 0))
    sizes = j[j > 0.0]
    assert abs(sizes.size - n * pr) <= 5.0 * math.sqrt(n * pr * (1.0 - pr))
    eps, top, th = sch.jump_cutoff, m.truncation, m.theta
    assert np.all((sizes >= eps) & (sizes <= top))

    def cdf(x):
        return (eps**-th - x**-th) / (eps**-th - top**-th)

    assert stats.kstest(sizes, cdf).pvalue > 1e-3
