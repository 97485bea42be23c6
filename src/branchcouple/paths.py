"""Path engines for the system, its coupling, and comparison processes.

All engines share one stepping scheme, written once in ``_loop``: Euler
drift, branching diffusion with variance ``2 sigma * state * h``, thinned
jumps above ``jump_cutoff``, the compensator of the thinned jumps subtracted
as drift, and the sub-cutoff jumps either dropped (their compensated
integral has mean zero) or replaced by a Gaussian with the matching variance
``state * int_0^eps xi^2 n(dxi)``.  Both Gaussians scale with the same
state, so they are drawn as one with variance ``var * state * h``, where
``var = 2 sigma + int_0^eps xi^2 n(dxi)`` (the second term 0 when the
sub-cutoff jumps are dropped).  States clamp at 0 after each substep.  Steps
subdivide automatically whenever the jump rate or the drift stiffness at the
current batch maximum would make a single step too coarse.

Noise is a white-noise sheet in the mass coordinate.  The consumers of one
sheet split the mass axis at their sorted levels.  Each gap between
consecutive levels carries one Gaussian per gap with variance ``var * gap *
h``, and one uniform per gap that decides the firing and, rescaled, the size
of its thinned jump (at most one per gap and substep, with probability
``gap * rate * h``).  A consumer receives the sum over the gaps below its
level.  Components at levels ``u`` and ``v`` thus share the noise below
``min(u, v)`` and receive independent noise on the difference, which is the
overlap coupling of the generator, and a jump in a gap hits every consumer
above it.  The system runs two one-consumer sheets and the coupled pair two
two-consumer sheets.  The one-dimensional comparison processes consume the
second component's noise in the difference frame (levels measured above the
smaller component): a base sheet at ``Yt`` feeds both ``Y`` and ``Yt``, and
a three-consumer sheet at ``(Y - Yt, Z, Zbar)`` feeds ``Y``, ``Z`` and
``Zbar``.  That pairing keeps the pathwise dominations testable.

A coupled pair glues when its difference either falls below ``meet_tol`` or
changes sign within one substep (a sign change means the continuous paths
met in between); after gluing the pair is driven identically and stays
bitwise equal.  The second pair may glue only once the first has.

Randomness: every path batch owns a counter-based stream keyed by (master
seed, engine tag + batch index), so Monte Carlo results are bitwise
independent of the worker count.  A fixed number of variates is drawn per
substep whatever the events (per sheet of ``c`` consumers one ``(c, n)``
standard-normal block and, for a non-zero measure, one ``(c, n)`` uniform
block), so paths inside a batch never desynchronize.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context

import numpy as np

from .errors import InvalidParams, StepExplosion
from .levy import LevyMeasure, ZeroMeasure, suggest_cutoff
from .model import ModelParams, drift_x, drift_y, zbar_drift, zbar_rate

BATCH = 4096
_MAX_SUBSTEPS = 20_000
_JUMP_P_BUDGET = 0.1
_STIFF_BUDGET = 0.2

_TAG_SYSTEM = 1_000_000
_TAG_COUPLED = 2_000_000
_TAG_ZBAR = 3_000_000
_TAG_CIR = 4_000_000


def stream(seed: int, tag: int = 0) -> np.random.Generator:
    """Counter-based stream for (seed, tag); independent across tags."""
    if seed < 0 or tag < 0:
        raise InvalidParams("stream seed and tag must be nonnegative")
    key = np.array([seed & (2**64 - 1), tag & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return stream(int(rng), 0)


@dataclass(frozen=True)
class SimScheme:
    """Discretization controls shared by every engine."""

    dt: float
    horizon: float
    jump_cutoff: float = 1.0
    small_jump_mode: str = "gaussian"  # "gaussian" or "compensator"
    meet_tol: float = 1e-4
    state_cap: float = 1e6

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.horizon < math.inf):
            raise InvalidParams("dt and horizon must be finite and > 0")
        if self.small_jump_mode not in ("gaussian", "compensator"):
            raise InvalidParams("small_jump_mode must be 'gaussian' or 'compensator'")
        if not (self.meet_tol > 0 and self.state_cap > 0 and self.jump_cutoff > 0):
            raise InvalidParams("meet_tol, state_cap, jump_cutoff must be > 0")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.horizon / self.dt)))

    @staticmethod
    def auto(
        p: ModelParams,
        dt: float,
        horizon: float,
        scale: float,
        meet_tol: float | None = None,
        state_cap: float = 1e6,
        small_jump_mode: str | None = None,
        jump_cutoff: float | None = None,
    ) -> "SimScheme":
        """Scheme with the jump cutoff sized to the experiment's state scale."""
        if jump_cutoff is None:
            jump_cutoff = max(
                suggest_cutoff(p.n1, dt, scale), suggest_cutoff(p.n2, dt, scale)
            )
        if small_jump_mode is None:
            infinite_activity = any(
                not m.is_zero and not hasattr(m, "size") for m in (p.n1, p.n2)
            )
            small_jump_mode = "gaussian" if infinite_activity else "compensator"
        if meet_tol is None:
            meet_tol = 1e-4 * (1.0 + scale)
        return SimScheme(
            dt=dt,
            horizon=horizon,
            jump_cutoff=jump_cutoff,
            small_jump_mode=small_jump_mode,
            meet_tol=meet_tol,
            state_cap=state_cap,
        )

    def to_config(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class _Channel:
    """Per-component noise constants at a fixed cutoff."""

    var: float  # Gaussian variance per unit state: diffusion and sub-cutoff
    measure: LevyMeasure
    lam: float  # thinned-jump intensity per unit state
    tlm: float  # compensator of the thinned jumps per unit state
    eps: float

    @staticmethod
    def build(sigma: float, measure: LevyMeasure, scheme: SimScheme) -> "_Channel":
        eps = scheme.jump_cutoff
        small = (
            float(measure.truncated_second_moment(eps))
            if scheme.small_jump_mode == "gaussian"
            else 0.0
        )
        return _Channel(
            var=2.0 * float(sigma) + small,
            measure=measure,
            lam=float(measure.tail_mass(eps)),
            tlm=float(measure.tail_linear_moment(eps)),
            eps=eps,
        )

    def sizes(self, u: np.ndarray) -> np.ndarray:
        """Vector of tail jump sizes from uniforms in [0, 1)."""
        return np.asarray(self.measure.tail_quantile(self.eps, 1.0 - u), dtype=float)


@dataclass
class PathEvent:
    time: float
    kind: str  # "large_jump" | "glue" | "cap_abort"
    info: dict = field(default_factory=dict)


@dataclass
class StoppingRecord:
    """Stopping times of one path; ``inf`` means censored at the horizon."""

    horizon: float
    tau_minus: float | None = None
    tau_minus_level: float | None = None
    tau_plus: float | None = None
    tau_plus_level: float | None = None
    t_x: float | None = None
    t_full: float | None = None
    zeta0: float | None = None
    zetabar0: float | None = None
    cap_abort: float | None = None

    def to_dict(self) -> dict:
        def enc(v):
            if v is None:
                return None
            return "censored" if math.isinf(v) else v

        return {
            "horizon": self.horizon,
            "tau_minus": enc(self.tau_minus),
            "tau_minus_level": self.tau_minus_level,
            "tau_plus": enc(self.tau_plus),
            "tau_plus_level": self.tau_plus_level,
            "t_x": enc(self.t_x),
            "t_full": enc(self.t_full),
            "zeta0": enc(self.zeta0),
            "zetabar0": enc(self.zetabar0),
            "cap_abort": enc(self.cap_abort),
        }


@dataclass
class PathGrid:
    times: np.ndarray
    states: dict[str, np.ndarray]
    events: list[PathEvent]
    stopping: StoppingRecord


_TRACE_COLUMNS = ("X", "Xt", "Y", "Yt", "Z", "Zbar")


def trace_rows(grid: PathGrid):
    """Rows for the trace CSV: t, the six state columns, event marker."""
    marks = {}
    for ev in grid.events:
        idx = int(np.searchsorted(grid.times, ev.time, side="left"))
        idx = min(idx, len(grid.times) - 1)
        marks.setdefault(idx, []).append(ev.kind)
    for i, t in enumerate(grid.times):
        row = {"t": float(t)}
        for col in _TRACE_COLUMNS:
            arr = grid.states.get(col)
            row[col] = float(arr[i]) if arr is not None else ""
        row["event"] = ";".join(marks.get(i, []))
        yield row


# ---------------------------------------------------------------------------
# noise sheet and batch loop


def _substeps(dt: float, jump_rate: float, stiff_rate: float) -> int:
    need = max(
        1.0,
        dt * jump_rate / _JUMP_P_BUDGET,
        dt * stiff_rate / _STIFF_BUDGET,
    )
    n = int(math.ceil(need))
    if n > _MAX_SUBSTEPS:
        raise StepExplosion(
            "step subdivision exploded (n=%d); increase jump_cutoff or reduce "
            "dt / state_cap" % n
        )
    return n


def _sheet(ch: _Channel, levels: np.ndarray, h: float, rng) -> tuple:
    """Gaussian and jump increments of ``c`` consumers of one noise sheet.

    ``levels`` has shape ``(c, n)``.  Each gap between consecutive sorted
    levels carries one Gaussian per gap with variance ``var * gap * h``
    (diffusion plus the sub-cutoff part), and one uniform per gap that
    decides the firing and, rescaled, the size of its thinned jump.  A
    consumer receives the cumulative sum of the gaps up to its level, so
    consumers at equal levels receive equal increments.  The draws are one
    ``(c, n)`` standard-normal block, then one ``(c, n)`` uniform block
    whether or not anything fires; a zero measure draws no uniforms.  Returns
    the Gaussian and the jump increments, both of shape ``(c, n)``.
    """
    c, n = levels.shape
    gaps, rank = levels, None
    if c == 2:
        lo = np.minimum(levels[0], levels[1])
        gaps = np.stack([lo, np.maximum(levels[0], levels[1]) - lo])
        rank = np.stack([levels[1] < levels[0], levels[0] < levels[1]])
    elif c > 2:
        srt = levels.copy()  # sorting network over the rows, elementwise
        for i in range(1, c):
            for j in range(i, 0, -1):
                lo = np.minimum(srt[j - 1], srt[j])
                np.maximum(srt[j - 1], srt[j], out=srt[j])
                srt[j - 1] = lo
        gaps = srt.copy()
        gaps[1:] -= srt[:-1]
        # a consumer's rank is the number of consumers strictly below it;
        # as a flat index into the (c, n) gap sums
        rank = sum((levels > lv).astype(np.intp) for lv in levels) * n + np.arange(n)
    gauss = np.sqrt(ch.var * gaps * h) * rng.standard_normal((c, n))
    jumps = np.zeros((c, n))
    if not ch.measure.is_zero:
        # u / pr given u < pr is uniform on (0, 1) as long as pr <= 1, which
        # _substeps keeps at _JUMP_P_BUDGET: every gap is at most the batch
        # top the substeps were sized from.  The clip at 1 keeps the law of
        # a path that outgrows that top tenfold within one step.
        pr = gaps * ch.lam * h
        u = rng.random((c, n))
        fire = u < pr
        if np.any(fire):
            jumps[fire] = ch.sizes(u[fire] / np.minimum(pr[fire], 1.0))
    return _below(gauss, rank), _below(jumps, rank)


def _below(noise: np.ndarray, rank) -> np.ndarray:
    """Per-consumer sums of the gap noise up to each consumer's rank."""
    if rank is None:
        return noise
    if rank.dtype == bool:
        return np.where(rank, noise[0] + noise[1], noise[0])
    cums = noise.copy()  # row by row: np.cumsum along the short axis is slow
    for i in range(1, len(cums)):
        cums[i] += cums[i - 1]
    return cums.ravel()[rank]


class _Batch:
    """One batch of paths: states, noise sheets, drift, step sizing, rules.

    ``S`` holds one row per component.  A sheet is ``(channel, levels,
    rows)``: its consumers sit at ``levels(S)`` (shape ``(c, n)``) and feed
    the component rows ``rows``, one row per consumer or every row from a
    single consumer.  ``drift(S, k)`` returns one row per component at step
    ``k``; ``rates(top, k)`` returns the jump rate and the drift stiffness
    from the per-component maxima over live paths.  Each row is
    compensated for the thinned jumps of the channel whose sheets feed it.
    ``finals`` names the outputs holding the final state of a row; ``last``
    keeps the frozen state of the paths compaction dropped.
    """

    ov = None  # projection overshoots of the comparison processes

    def __init__(
        self, scheme, S, sheets, drift, rates, rules,
        *, record=False, compact=True, finals=(),
    ):
        self.scheme, self.S = scheme, S
        self.tlm = np.zeros((S.shape[0], 1))  # thinned-jump compensators
        for ch, _, rows in sheets:
            self.tlm[rows] = ch.tlm
        self.sheets, self.drift, self.rates, self.rules = sheets, drift, rates, rules
        self.record, self.compact, self.finals = record, compact, finals
        self.n = S.shape[1]
        self.alive = np.ones(self.n, dtype=bool)
        self.idx = np.arange(self.n)  # slot of each working path
        self.last = np.full(S.shape, np.nan)
        self.out: dict = {}
        self.events: list[PathEvent] = []

    def at(self, full: np.ndarray) -> np.ndarray:
        """Entries of a full-size output at the working paths."""
        return full if self.idx.size == self.n else full[self.idx]

    def final(self, row: int) -> np.ndarray:
        full = self.last[row].copy()
        full[self.idx] = self.S[row]
        return full


def _loop(b: _Batch, rng: np.random.Generator) -> dict:
    """Runs a batch to the horizon: substep sizing, the clamped Euler update
    of every component, the stopping rules, cap abort, recording and
    compaction.  During a substep ``b.was`` holds the paths live at its
    start, ``b.pre`` the states before the update and ``b.jumps`` the jump
    increments of each sheet."""
    dt, m, cap = b.scheme.dt, b.scheme.n_steps, b.scheme.state_cap
    b.rng, b.was, b.pre = rng, b.alive, b.S
    abort = b.out["abort"] = np.full(b.n, np.inf)
    for rule in b.rules:
        rule.start(b)
    if b.record:
        rec = np.full((m + 1, b.n, b.S.shape[0]), np.nan)
        rec[0] = b.S.T
    for k in range(m):
        if b.S.shape[1] == 0 or not np.any(b.alive):
            break
        # exact: dead paths read 0, which the initial 0 already covers
        top = np.where(b.alive, b.S, 0.0).max(axis=1, initial=0.0).tolist()
        nsub = _substeps(dt, *b.rates(top, k))
        h = dt / nsub
        for j in range(nsub):
            t = k * dt + (j + 1) * h
            S, b.was, b.jumps = b.S, b.alive.copy(), []
            new = S + b.drift(S, k) * h
            for ch, levels, rows in b.sheets:
                g, jumps = _sheet(ch, levels(S), h, rng)
                new[rows] += g
                new[rows] += jumps
                b.jumps.append(jumps)
            new -= S * b.tlm * h
            b.pre, b.S = S, np.where(b.was, np.maximum(new, 0.0, out=new), S)
            for rule in b.rules:
                rule.sub(b, t, h)
            # over the paths live at the substep start, like the rules, so a
            # path a rule stopped in this substep still records its abort
            over = b.was & (b.S.max(axis=0) >= cap)
            if np.any(over):
                abort[b.idx[over]] = t
                b.alive &= ~over
                if b.record:
                    b.events.append(PathEvent(t, "cap_abort", {}))
        for rule in b.rules:
            rule.step(b, k)
        if b.record:
            rec[k + 1] = b.S.T
        elif b.compact and k % 64 == 63 and np.mean(b.alive) < 0.5:
            b.last[:, b.idx[~b.alive]] = b.S[:, ~b.alive]
            b.S, b.idx = b.S[:, b.alive], b.idx[b.alive]
            b.alive = np.ones(b.idx.size, dtype=bool)
    for rule in b.rules:
        rule.finish(b)
    for key, row in b.finals:
        b.out[key] = b.final(row)
    if b.record:
        b.out["rec"], b.out["events"] = rec, b.events
    return b.out


# ---------------------------------------------------------------------------
# stopping rules


class _Rule:
    """A stopping rule; the loop calls the hooks of its rules in list order.

    Rules test the paths live at the start of the substep (``b.was``) and
    stop paths in ``b.alive``, so a rule that stops a path does not hide it
    from the rules after it.  A rule with a ``key`` keeps one stopping time
    per path under ``b.out[key]``; ``inf`` means not stopped.
    """

    key = None

    def start(self, b):
        if self.key:
            self.t = b.out[self.key] = np.full(b.n, np.inf)

    def sub(self, b, t, h):
        pass

    def step(self, b, k):
        pass

    def finish(self, b):
        pass

    def mark(self, b, hit, t):
        """Records ``t`` for the live paths in ``hit`` not stopped before."""
        hit = hit & b.was & np.isinf(b.at(self.t))
        self.t[b.idx[hit]] = t
        return hit


class _Cross(_Rule):
    """First passage of ``watch(S)`` to ``level`` from below (``up``) or
    above; with ``retire`` a path stops once it has passed."""

    def __init__(self, key, level, up, watch=lambda S: S[0], retire=False):
        self.key, self.level, self.up, self.watch = key, level, up, watch
        self.retire = retire

    def start(self, b):
        super().start(b)
        self._pass(b, 0.0)

    def _pass(self, b, t):
        if self.level is not None:
            w = self.watch(b.S)
            self.mark(b, w >= self.level if self.up else w <= self.level, t)

    def sub(self, b, t, h):
        self._pass(b, t)
        if self.retire:
            b.alive &= ~np.isfinite(b.at(self.t))


class _Glue(_Rule):
    """Glues rows ``a`` and ``c`` on a tolerance hit or a sign change within
    a substep; a glued ``c`` follows ``a``.  A pair glues only once the glue
    ``after`` holds; with ``retire`` a glued path stops at the end of a step.
    """

    def __init__(self, a, c, key, pair, after=None, retire=False):
        self.a, self.c, self.key, self.pair = a, c, key, pair
        self.after, self.retire = after, retire

    def start(self, b):
        super().start(b)
        self._glue(b, np.abs(b.S[self.a] - b.S[self.c]) <= b.scheme.meet_tol, 0.0)

    def sub(self, b, t, h):
        d_pre = b.pre[self.a] - b.pre[self.c]
        d_new = b.S[self.a] - b.S[self.c]
        tol = b.scheme.meet_tol
        meet = (np.abs(d_new) <= tol) | (d_pre * d_new < 0.0) | (d_new == 0.0)
        if np.any(self._glue(b, meet, t)) and b.record:
            b.events.append(PathEvent(t, "glue", {"pair": self.pair}))

    def _glue(self, b, meet, t):
        if self.after:
            meet &= np.isfinite(b.at(self.after.t))
        meet = self.mark(b, meet, t)
        np.copyto(b.S[self.c], b.S[self.a], where=np.isfinite(b.at(self.t)))
        return meet

    def step(self, b, k):
        if self.retire:
            b.alive &= ~np.isfinite(b.at(self.t))


class _Absorb(_Rule):
    """Absorption of row ``row`` at ``meet_tol``: the time is recorded and
    the state set to 0; with ``kill`` the path stops there."""

    def __init__(self, row, key, kill):
        self.row, self.key, self.kill = row, key, kill

    def start(self, b):
        super().start(b)
        self.sub(b, 0.0, 0.0)

    def sub(self, b, t, h):
        z = b.S[self.row]
        low = z <= b.scheme.meet_tol
        done = self.mark(b, low, t)
        z[low] = 0.0
        if self.kill:
            b.alive &= ~done


class _Bridge(_Rule):
    """Passage below ``level`` of a branching diffusion with coefficient
    ``sigma``: interpolated within the substep when the path ends below,
    else set at mid-substep with the Brownian-bridge crossing probability."""

    key = "hitting"

    def __init__(self, level, sigma):
        self.level, self.sigma = level, sigma

    def start(self, b):
        super().start(b)
        below = b.S[0] <= self.level
        self.t[below] = 0.0
        b.alive &= ~below

    def sub(self, b, t, h):
        u = b.rng.random(b.S.shape[1])
        z, new, lv = b.pre[0], b.S[0], self.level
        was = b.was & np.isinf(b.at(self.t))
        crossed = was & (new <= lv)
        if np.any(crossed):
            zc, nc = z[crossed], new[crossed]
            frac = np.clip((zc - lv) / np.maximum(zc - nc, 1e-300), 0.0, 1.0)
            self.t[b.idx[crossed]] = t - h + frac * h
        above = was & (new > lv)
        if np.any(above):
            za, na = z[above], new[above]
            vbar = self.sigma * (za + na)  # 2*sigma*mean
            expo = -2.0 * (za - lv) * (na - lv) / np.maximum(vbar * h, 1e-300)
            bridge = above.copy()
            bridge[above] = u[above] < np.exp(expo)
            self.t[b.idx[bridge]] = t - 0.5 * h
        b.alive &= np.isinf(b.at(self.t))


class _Dynkin(_Rule):
    """Tabulated generator of ``x^2 + y^2`` integrated along the path and
    frozen at the exit of ``[0, x_hi] x [0, y_hi]``; ``dynkin_fT`` holds
    ``x^2 + y^2`` at the exit or, for paths that stay inside, the horizon."""

    def __init__(self, xn, av, yn, bv, kcoef, x_hi, y_hi):
        self.tab = (xn, av, yn, bv, kcoef)
        self.x_hi, self.y_hi = x_hi, y_hi

    def start(self, b):
        self.acc = b.out["dynkin_acc"] = np.zeros(b.n)
        self.ft = b.out["dynkin_fT"] = np.full(b.n, np.nan)
        self._exit(b)

    def _exit(self, b):
        x, y = b.S[0], b.S[1]
        out = b.was & ((x > self.x_hi) | (y > self.y_hi))
        self.ft[b.idx[out]] = x[out] ** 2 + y[out] ** 2
        b.alive &= ~out

    def sub(self, b, t, h):
        x, y = b.pre[0], b.pre[1]
        xn, av, yn, bv, kcoef = self.tab
        lf = np.interp(x, xn, av) + np.interp(y, yn, bv) + 2.0 * kcoef * x * y * y
        self.acc[b.idx[b.was]] += lf[b.was] * h
        self._exit(b)

    def finish(self, b):
        inside = np.isnan(self.ft)
        self.ft[inside] = b.final(0)[inside] ** 2 + b.final(1)[inside] ** 2


class _JumpLog(_Rule):
    """Records every thinned jump of X and Y as a ``large_jump`` event."""

    def sub(self, b, t, h):
        for name, (jumps,) in zip(("X", "Y"), b.jumps):
            for i in np.flatnonzero(jumps > 0):
                info = {"component": name, "size": float(jumps[i])}
                b.events.append(PathEvent(t, "large_jump", info))


class _Dominate(_Rule):
    """Projects Z up to ``Y - Yt`` and Zbar up to Z after each substep.

    A negative comparison gap within a substep means the continuum paths
    met; the projection residuals are the overshoots the audit records.
    """

    def sub(self, b, t, h):
        S = b.S
        gap = np.maximum(S[2] - S[3], 0.0)
        ov_z = np.where(b.was, np.maximum(gap - S[4], 0.0), 0.0)
        S[4] += ov_z
        ov_zb = np.where(b.was, np.maximum(S[4] - S[5], 0.0), 0.0)
        S[5] += ov_zb
        b.ov = (ov_z, ov_zb)


class _Audit(_Rule):
    """Violations of the three comparison orderings, per path, up to the
    exit time ``tau_plus``."""

    def start(self, b):
        o = b.out
        o["viol_order"] = np.full(b.n, -np.inf)  # max of yt - y at grid points
        for key in ("viol_z", "viol_zbar"):
            o[key] = np.zeros(b.n)  # max per-substep projection overshoot
            o[key + "_sum"] = np.zeros(b.n)  # summed overshoots (per event)
            o[key + "_cnt"] = np.zeros(b.n, dtype=np.int64)

    def sub(self, b, t, h):
        if b.ov is None:
            return
        o, th = b.out, b.at(b.out["tau_plus"])
        scope = b.was & (np.isinf(th) | (th >= t))
        for key, ov in zip(("viol_z", "viol_zbar"), b.ov):
            o[key] = np.where(scope, np.maximum(o[key], ov), o[key])
            hit = scope & (ov > 0.0)
            o[key + "_sum"][hit] += ov[hit]
            o[key + "_cnt"][hit] += 1

    def step(self, b, k):
        o = b.out
        th = o["tau_plus"]
        act = b.alive & np.isinf(o["abort"])
        act &= ~(np.isfinite(th) & (th <= (k + 1) * b.scheme.dt))
        o["viol_order"] = np.where(
            act, np.maximum(o["viol_order"], b.S[3] - b.S[2]), o["viol_order"]
        )


# ---------------------------------------------------------------------------
# engines


def _system(p, scheme, truncation, x_only, low, high, retire, record, dynkin, x0, y0):
    """Independent (X, Y) paths on two one-consumer sheets.

    ``truncation`` replaces the predation driver by ``min(X, N)``.
    ``low``/``high`` are crossing levels for X; ``retire`` ("low", "high",
    "both") stops a path once the matching levels are recorded.  ``dynkin``
    holds the arguments of ``_Dynkin``.  With ``x_only`` Y stays at 0.
    """
    ch1 = _Channel.build(p.sigma1, p.n1, scheme)
    ch2 = _Channel.build(p.sigma2, p.n2, scheme)
    S = np.array([x0, np.zeros_like(x0) if x_only else y0], dtype=float)
    sheets = [(ch1, lambda S: S[:1], slice(0, 1))]
    if not x_only:
        sheets.append((ch2, lambda S: S[1:], slice(1, 2)))

    def drift(S, k):
        x, y = S
        if x_only:
            return np.stack([drift_x(p, x), np.zeros_like(y)])
        xeff = np.minimum(x, truncation) if truncation is not None else x
        return np.stack([drift_x(p, x), drift_y(p, xeff, y, p.gamma2)])

    def rates(top, k):
        mx, my = top
        stiff = p.b1 * mx ** (p.alpha1 - 1.0) + abs(p.a1)
        if not x_only:
            stiff = max(
                stiff, p.b2 * my ** (p.alpha2 - 1.0) + abs(p.a2) + abs(p.k) * mx
            )
        return max(ch1.lam * mx, ch2.lam * my), stiff

    rules = [_JumpLog()] if record else []
    rules += [
        _Cross("tau_minus", low, False, retire=retire in ("low", "both")),
        _Cross("tau_plus", high, True, retire=retire in ("high", "both")),
    ]
    rules += [_Dynkin(*dynkin)] if dynkin is not None else []
    finals = () if record else (("final_x", 0), ("final_y", 1))
    return _Batch(
        scheme, S, sheets, drift, rates, rules,
        record=record, compact=dynkin is None, finals=finals,
    )


def _coupled(p, scheme, M, with_aux, audit, high, record, x0, xt0, y0, yt0):
    """Coupled pairs ((X, Y), (Xt, Yt)) on two two-consumer sheets.

    With ``with_aux`` the dominating processes Z and Zbar ride along in the
    difference frame; the first components must coincide, ``y0 >= yt0``,
    and Z and Zbar both start at ``y0 - yt0``.
    """
    ch1 = _Channel.build(p.sigma1, p.n1, scheme)
    ch2 = _Channel.build(p.sigma2, p.n2, scheme)
    rows = [x0, xt0, y0, yt0]
    sheets = [(ch1, lambda S: S[0:2], slice(0, 2))]
    if with_aux:
        if M is None:
            raise InvalidParams("with_aux needs the freeze level M")
        if np.any(x0 != xt0):
            raise InvalidParams("aux comparison runs need x0 == xt0")
        if np.any(y0 < yt0):
            raise InvalidParams("aux comparison runs need y0 >= yt0")
        lam_bar = zbar_rate(p, M)
        rows += [y0 - yt0, y0 - yt0]
        # Y - Yt, Z and Zbar in the difference frame, above the base at Yt
        diff = lambda S: np.maximum(np.stack([S[2] - S[3], S[4], S[5]]), 0.0)
        sheets += [(ch2, lambda S: S[3:4], slice(2, 4)), (ch2, diff, [2, 4, 5])]
    else:
        sheets.append((ch2, lambda S: S[2:4], slice(2, 4)))

    def drift(S, k):
        x, xt, y, yt = S[:4]
        d = [drift_x(p, x), drift_x(p, xt), drift_y(p, x, y, p.gamma2)]
        d.append(drift_y(p, xt, yt, p.gamma2))
        if with_aux:
            d += [drift_y(p, x, S[4], 0.0), zbar_drift(p, M, S[5])]
        return np.stack(d)

    def rates(top, k):
        mx, my = max(top[:2]), max(top[2:])
        s2 = p.b2 * my ** (p.alpha2 - 1.0) + abs(p.a2) + abs(p.k) * mx
        if with_aux:
            s2 = max(s2, p.b2 * my ** (p.alpha2 - 1.0) + abs(lam_bar))
        stiff = max(p.b1 * mx ** (p.alpha1 - 1.0) + abs(p.a1), s2)
        return max(ch1.lam * mx, 2.0 * ch2.lam * my), stiff

    # audit, aux and record runs keep every path active, so their full-size
    # outputs stay aligned; only plain meeting-time runs retire met paths
    compact = not (audit or record or with_aux)
    glue_x = _Glue(0, 1, "t_x", "X")
    rules = [glue_x, _Glue(2, 3, "t_full", "Y", glue_x, compact)]
    rules += [_Dominate()] if with_aux else []
    rules += [_Audit()] if audit else []
    if with_aux:
        rules += [_Absorb(4, "zeta0", False), _Absorb(5, "zetabar0", False)]
    rules.append(_Cross("tau_plus", high, True, lambda S: np.maximum(S[0], S[1])))
    S = np.array(rows, dtype=float)
    return _Batch(scheme, S, sheets, drift, rates, rules, record=record, compact=compact)


def _scalar(scheme, z0, sigma, measure, drift, stiff, stop):
    """One consumer on one sheet, stopped by ``stop`` or the cap."""
    ch = _Channel.build(sigma, measure, scheme)
    sheets = [(ch, lambda S: S, slice(0, 1))]
    S = np.array([z0], dtype=float)

    def rates(top, k):
        return ch.lam * top[0], stiff(top[0], k)

    return _Batch(scheme, S, sheets, drift, rates, [stop])


def _zbar(p, M, scheme, z0):
    """Dominating frozen process, absorbed at ``meet_tol``."""
    lam_bar = zbar_rate(p, M)
    return _scalar(
        scheme,
        z0,
        p.sigma2,
        p.n2,
        lambda z, k: zbar_drift(p, M, z),
        lambda mz, k: p.b2 * mz ** (p.alpha2 - 1.0) + abs(lam_bar),
        _Absorb(0, "hitting", True),
    )


def _zdriver(p, xpath, scheme, z0):
    """Dominating process along a frozen first-component path ``xpath``."""

    def xk(k):
        return float(xpath[min(k, len(xpath) - 1)])

    return _scalar(
        scheme,
        z0,
        p.sigma2,
        p.n2,
        lambda z, k: drift_y(p, xk(k), z, 0.0),
        lambda mz, k: p.b2 * mz ** (p.alpha2 - 1.0) + abs(p.a2) + abs(p.k) * xk(k),
        _Absorb(0, "hitting", True),
    )


def _cir(b, gamma, sigma, level, scheme, z0):
    """Mean-reverting branching diffusion with bridge-corrected passage."""
    return _scalar(
        scheme,
        z0,
        sigma,
        ZeroMeasure(),
        lambda z, k: -b * z + gamma,
        lambda mz, k: b,
        _Bridge(level, sigma),
    )


# ---------------------------------------------------------------------------
# batch fan-out


def _run_task(payload):
    build, static, arrays, seed, tag = payload
    return _loop(build(*static, *arrays), stream(seed, tag))


def _fanout(build, static, arrays, seed, tag_base, workers):
    n = arrays[0].shape[0]
    tasks = []
    for b, lo in enumerate(range(0, n, BATCH)):
        hi = min(lo + BATCH, n)
        chunk = tuple(a[lo:hi] for a in arrays)
        tasks.append((build, static, chunk, seed, tag_base + b))
    if workers <= 1 or len(tasks) == 1:
        results = [_run_task(t) for t in tasks]
    else:
        ctx = get_context("fork")
        with ctx.Pool(processes=min(workers, len(tasks))) as pool:
            results = pool.map(_run_task, tasks)
    merged = {}
    for key in results[0]:
        parts = [r[key] for r in results]
        if isinstance(parts[0], np.ndarray):
            # recorded grids are (n_steps+1, batch, n_cols); the path axis is 1
            axis = 1 if parts[0].ndim == 3 else 0
            merged[key] = np.concatenate(parts, axis=axis)
        else:
            merged[key] = [item for part in parts for item in part]
    return merged


def mc_system(
    p: ModelParams,
    scheme: SimScheme,
    x0s: np.ndarray,
    y0s: np.ndarray | None,
    seed: int,
    *,
    truncation: float | None = None,
    x_only: bool = False,
    low: float | None = None,
    high: float | None = None,
    retire: str | None = None,
    record: bool = False,
    dynkin: tuple | None = None,
    workers: int = 1,
) -> dict:
    x0s = np.asarray(x0s, dtype=float)
    y0s = np.zeros_like(x0s) if y0s is None else np.asarray(y0s, dtype=float)
    return _fanout(
        _system,
        (p, scheme, truncation, x_only, low, high, retire, record, dynkin),
        (x0s, y0s),
        seed,
        _TAG_SYSTEM,
        workers,
    )


def mc_coupled(
    p: ModelParams,
    scheme: SimScheme,
    x0s,
    xt0s,
    y0s,
    yt0s,
    seed: int,
    *,
    M: float | None = None,
    with_aux: bool = False,
    audit: bool = False,
    high: float | None = None,
    workers: int = 1,
) -> dict:
    arrays = tuple(np.asarray(a, dtype=float) for a in (x0s, xt0s, y0s, yt0s))
    return _fanout(
        _coupled,
        (p, scheme, M, with_aux, audit, high, False),
        arrays,
        seed,
        _TAG_COUPLED,
        workers,
    )


def mc_zbar(
    p: ModelParams, scheme: SimScheme, M: float, z0s, seed: int, workers: int = 1
) -> dict:
    z0s = np.asarray(z0s, dtype=float)
    return _fanout(_zbar, (p, M, scheme), (z0s,), seed, _TAG_ZBAR, workers)


def mc_cir(
    b: float,
    gamma: float,
    sigma: float,
    scheme: SimScheme,
    z0s,
    seed: int,
    hit_level: float = 1.0,
    workers: int = 1,
) -> dict:
    z0s = np.asarray(z0s, dtype=float)
    return _fanout(
        _cir, (b, gamma, sigma, hit_level, scheme), (z0s,), seed, _TAG_CIR, workers
    )


# ---------------------------------------------------------------------------
# single-path wrappers


def _single(build, static, init, rng) -> dict:
    rng = _as_rng(rng)
    return _loop(build(*static, *(np.array([v], dtype=float) for v in init)), rng)


def _grid(scheme, out, states, **stops) -> PathGrid:
    abort = float(out["abort"][0])
    cap_abort = abort if math.isfinite(abort) else None
    return PathGrid(
        times=np.arange(scheme.n_steps + 1) * scheme.dt if states else np.array([0.0]),
        states=states,
        events=out.get("events", []),
        stopping=StoppingRecord(horizon=scheme.horizon, cap_abort=cap_abort, **stops),
    )


def _system_grid(p, scheme, init, rng, truncation, low, high) -> PathGrid:
    out = _single(
        _system, (p, scheme, truncation, False, low, high, None, True, None), init, rng
    )
    rec = out["rec"][:, 0]
    return _grid(
        scheme,
        out,
        {"X": rec[:, 0], "Y": rec[:, 1]},
        tau_minus=float(out["tau_minus"][0]) if low is not None else None,
        tau_minus_level=low,
        tau_plus=float(out["tau_plus"][0]) if high is not None else None,
        tau_plus_level=high,
    )


def simulate_cbipc(
    p: ModelParams,
    scheme: SimScheme,
    init: tuple[float, float],
    rng,
    *,
    low: float | None = None,
    high: float | None = None,
) -> PathGrid:
    """One (X, Y) path on the dt-grid with optional X crossing levels."""
    return _system_grid(p, scheme, init, rng, None, low, high)


def simulate_truncated(
    p: ModelParams,
    scheme: SimScheme,
    N: float,
    init: tuple[float, float],
    rng,
) -> PathGrid:
    """Path of the N-truncated system: predation driven by min(X, N).

    Under the same stream the truncated and plain paths are bitwise equal at
    every grid point up to the first passage of X above N.
    """
    return _system_grid(p, scheme, init, rng, N, None, N)


def simulate_coupled(
    p: ModelParams,
    scheme: SimScheme,
    init: tuple[float, float, float, float],
    rng,
    *,
    M: float | None = None,
    with_aux: bool = False,
    high: float | None = None,
) -> PathGrid:
    """One coupled path ((X, Y), (Xt, Yt)), optionally with (Z, Zbar)."""
    static = (p, scheme, M, with_aux, False, high, True)
    out = _single(_coupled, static, init, rng)
    keys = ("t_x", "t_full", "zeta0", "zetabar0")
    stops = {key: float(out[key][0]) for key in keys if key in out}
    return _grid(
        scheme,
        out,
        dict(zip(_TRACE_COLUMNS, out["rec"][:, 0].T)),
        tau_plus=float(out["tau_plus"][0]) if high is not None else None,
        tau_plus_level=high,
        **stops,
    )


def simulate_aux_Zbar(
    p: ModelParams, scheme: SimScheme, M: float, z0: float, rng
) -> PathGrid:
    """Dominating frozen process; only the absorption time is recorded."""
    out = _single(_zbar, (p, M, scheme), (z0,), rng)
    return _grid(scheme, out, {}, zetabar0=float(out["hitting"][0]))


def simulate_aux_Z(
    p: ModelParams, scheme: SimScheme, driver: PathGrid, z0: float, rng
) -> PathGrid:
    """Dominating process along a frozen X driver path."""
    xpath = np.asarray(driver.states["X"], dtype=float)
    out = _single(_zdriver, (p, xpath, scheme), (z0,), rng)
    return _grid(scheme, out, {}, zeta0=float(out["hitting"][0]))


def simulate_cir(
    b: float, gamma: float, sigma: float, scheme: SimScheme, x0: float, rng
) -> PathGrid:
    """Mean-reverting branching diffusion; records the passage below 1."""
    out = _single(_cir, (b, gamma, sigma, 1.0, scheme), (x0,), rng)
    return _grid(scheme, out, {}, zeta0=float(out["hitting"][0]))
