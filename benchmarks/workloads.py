"""The four benchmark workloads on the reference model.

Each workload is built once (the set-up: imports done, config read and
validated, ``m0_heuristic`` and the jump cutoffs computed, inputs derived
from the seed) and then runs rounds of the same operations.  An operation is
one in-process ``branchcouple.cli.main`` call, or one ``ergodicity`` call
where the CLI has no subcommand for the acceptance criterion's construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

REFERENCE_CONFIG = os.path.join("scripts", "reference_config.json")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    # reads what the operation returned or wrote into plain data
    collect: Callable[[object], object]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # work units of one round (path-steps, or certified grid nodes)
    work: Callable[[dict], float]
    check: Callable[[dict], dict]
    fingerprint: Callable[[dict], str]
    sizes: dict


class CliRunner:
    """Calls ``cli.main`` in-process with its files under one directory."""

    def __init__(self, cli, root: str, outdir: str):
        self.cli = cli
        self.config = os.path.join(root, REFERENCE_CONFIG)
        self.outdir = outdir

    def op(self, name: str, argv: list[str]) -> Op:
        prefix = os.path.join(self.outdir, name)
        full = argv + ["--config", self.config, "--workers", "1", "--out", prefix]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(full)
            if rc != 0:
                raise RuntimeError("%s exited with code %d" % (name, rc))
            return buf.getvalue()

        def collect(stdout: str) -> dict:
            wrote = [line[len("wrote "):] for line in stdout.splitlines() if line.startswith("wrote ")]
            if not wrote or any(
                os.path.dirname(w) != self.outdir or not os.path.isfile(w) for w in wrote
            ):
                raise RuntimeError("%s: unexpected output files %r" % (name, wrote))
            with open(prefix + ".json") as fh:
                payload = json.load(fh)
            payload.pop("timestamp", None)
            csvs = {}
            for path in wrote[1:]:
                if path.endswith(".csv"):
                    with open(path) as fh:
                        csvs[os.path.basename(path)[len(name):]] = fh.read()
            return {"payload": payload, "csv": csvs}

        return Op(name, run, collect)


def _cli_fingerprint(outs: dict) -> str:
    return json.dumps(
        {k: v for k, v in outs.items() if isinstance(v, dict) and "payload" in v},
        sort_keys=True,
    )


def _csv_columns(text: str) -> np.ndarray:
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return np.array(rows, dtype=float)


def _reference(pkg, root: str):
    with open(os.path.join(root, REFERENCE_CONFIG)) as fh:
        p = pkg.model.params_from_config(json.load(fh)["model"])
    pkg.model.validate(p)
    return p


def _sets(scheme: dict) -> list[str]:
    argv = []
    for key, value in scheme.items():
        argv += ["--set", "scheme.%s=%s" % (key, json.dumps(value))]
    return argv


# ---------------------------------------------------------------------------


def couple(pkg, root: str, outdir: str, seed: int, smoke: bool = False) -> Workload:
    """Criterion 6's envelope construction, sized down.

    Two inits of each grid start apart in both components; two are diagonal
    and must meet at time 0.  1,000 paths per init, dt 1e-3, horizon 20,
    meeting tolerance 1e-3, cutoff sized for state 450 as in criterion 6.
    ``smoke`` keeps one apart init per grid.
    """
    p = _reference(pkg, root)
    n_paths, dt, horizon = 1000, 1e-3, 20.0
    eps = pkg.levy.suggest_cutoff(p.n2, dt, 450.0)
    scheme = {"dt": dt, "horizon": horizon, "jump_cutoff": eps, "meet_tol": 1e-3}
    runner = CliRunner(pkg.cli, root, outdir)
    grids = {"base": 20.0, "wide": 40.0}
    inits = {
        label: [[0.0, 0.0, 0.0, 0.0], [hi, hi, hi, hi], [hi, 0.0, 0.0, hi], [hi, 0.0, hi, hi]][
            : 3 if smoke else 4
        ]
        for label, hi in grids.items()
    }
    ops = []
    for j, label in enumerate(grids):
        argv = [
            "coupling-tail",
            "--seed", str(100 * seed + 50 * j),
            "--paths", str(n_paths),
            *_sets(scheme),
            "--set", "experiment=" + json.dumps({"inits": inits[label]}),
        ]
        ops.append(runner.op(label, argv))

    def work(outs):
        total = 0.0
        for label in grids:
            for entry in outs[label]["payload"]["results"]["per_init"]:
                tf = entry["t_full"]
                n_fin = tf["n"] - tf["n_censored"]
                mean = float(tf["mean_finite"]) if n_fin else 0.0
                total += (n_fin * mean + tf["n_censored"] * horizon) / dt
        return total

    def check(outs):
        results = {label: outs[label]["payload"]["results"] for label in grids}
        return checks.check_couple(results, n_paths, horizon, np.random.default_rng(seed))

    sizes = {
        "inits": inits,
        "paths_per_init": n_paths,
        "dt": dt,
        "horizon": horizon,
        "jump_cutoff": eps,
    }
    return Workload("couple", ops, work, check, _cli_fingerprint, sizes)


def audit(pkg, root: str, outdir: str, seed: int, smoke: bool = False) -> Workload:
    """Criterion 5's comparison audit at 2,048 paths and both step sizes.

    The jump cutoff is sized at 4x the Zbar equilibrium
    ``((2 k M0 + a2) / b2)^(1/(alpha2 - 1))``, as the criterion does.
    ``smoke`` shortens the horizon to 0.25.
    """
    p = _reference(pkg, root)
    m0 = pkg.model.m0_heuristic(p)
    zbar_eq = ((2.0 * p.k * m0 + p.a2) / p.b2) ** (1.0 / (p.alpha2 - 1.0))
    n_paths, horizon, meet_tol = 2048, 0.25 if smoke else 1.0, 1e-3
    init = [m0 / 2.0, m0 / 2.0, 1.2, 0.2]
    runner = CliRunner(pkg.cli, root, outdir)
    dts = (2.5e-4, 1.25e-4)
    ops = []
    for dt in dts:
        eps = pkg.levy.suggest_cutoff(p.n2, dt, 4.0 * zbar_eq)
        scheme = {
            "horizon": horizon,
            "jump_cutoff": eps,
            "meet_tol": meet_tol,
            "small_jump_mode": "gaussian",
        }
        argv = [
            "comparison-audit",
            "--seed", str(seed),
            "--paths", str(n_paths),
            "--dt", repr(dt),
            *_sets(scheme),
            "--set", "experiment=" + json.dumps({"M": m0, "init": init}),
        ]
        ops.append(runner.op("dt%g" % dt, argv))

    def work(outs):
        return sum(n_paths * round(horizon / dt) for dt in dts)

    ctx = {
        "init": init,
        "zbar_eq": zbar_eq,
        "sigma2": p.sigma2,
        "meet_tol": meet_tol,
        "n_paths": n_paths,
    }

    def check(outs):
        reports = {dt: outs[op.name]["payload"]["results"] for dt, op in zip(dts, ops)}
        return checks.check_audit(reports, ctx)

    sizes = {"paths": n_paths, "dt": list(dts), "horizon": horizon, "M": m0, "init": init}
    return Workload("audit", ops, work, check, _cli_fingerprint, sizes)


def certify(pkg, root: str, outdir: str, seed: int, smoke: bool = False) -> Workload:
    """``drift-check`` for f at three freeze levels, h and g, 400 nodes each.

    The seed draws each freeze level within 5 % of 0.5, 0.75 and 1.0 (f is
    reported invalid from about M = 1.55 up, where its LV underflows) and the
    nodes at which LV is recomputed independently.  ``smoke`` certifies f at
    one level only, on 100 nodes.
    """
    p = _reference(pkg, root)
    m0 = pkg.model.m0_heuristic(p)
    rng = np.random.default_rng(seed)
    bases = (0.5,) if smoke else (0.5, 0.75, 1.0)
    levels = [round(base * (1.0 + 0.05 * (2.0 * rng.random() - 1.0)), 6) for base in bases]
    n_grid = 100 if smoke else 400
    runner = CliRunner(pkg.cli, root, outdir)
    lyap = pkg.lyapunov
    specs = {}
    for j, M in enumerate(levels):
        lam = 2.0 * p.k * M + p.a2
        specs["f%d" % j] = (
            {"function": "f", "M": M},
            lyap.make_f(p, M),
            lambda z, lam=lam: lam * z - p.b2 * z**p.alpha2,
            p.sigma2,
            p.n2,
        )
    specs["h"] = (
        {"function": "h"},
        lyap.make_h(p),
        lambda z: -p.b1 * z**p.alpha1 + p.a1 * z,
        p.sigma1,
        p.n1,
    )
    specs["g"] = (
        {"function": "g"},
        lyap.make_g(p),
        lambda z: -p.b1 * z**p.alpha1 + p.a1 * z + p.gamma1,
        p.sigma1,
        p.n1,
    )
    ops = [
        runner.op(label, ["drift-check", "--set", "experiment=" + json.dumps({**exp, "n_grid": n_grid})])
        for label, (exp, *_rest) in specs.items()
    ]

    def tables(outs):
        out = {}
        for label, (_exp, V, drift, sigma, measure) in specs.items():
            table = _csv_columns(outs[label]["csv"]["_drift.csv"])
            res = outs[label]["payload"]["results"]
            out[label] = (res, table[:, 0], table[:, 1], V, drift, sigma, measure, n_grid)
        return out

    def work(outs):
        return float(sum(len(t[1]) for t in tables(outs).values()))

    def check(outs):
        return checks.check_certify(
            tables(outs), {"m0": checks.m0_level(p)}, np.random.default_rng(seed)
        )

    sizes = {"M_levels": levels, "n_grid": n_grid, "g_region": [m0, 10.0 * m0]}
    return Workload("certify", ops, work, check, _cli_fingerprint, sizes)


def passage(pkg, root: str, outdir: str, seed: int, smoke: bool = False) -> Workload:
    """Criterion 7's CIR passage (CLI), criterion 3's Zbar tails and 8's Dynkin run.

    cir-check: 20,000 paths, dt 2e-3, horizon 60, b = gamma = sigma = 1,
    start 5.  Zbar at M = 1: 4 starts x 5,000 paths, dt 5e-3, horizon 300.
    Dynkin residual: 10,000 paths from (1, 1), dt 1e-3, horizon 1.  ``smoke``
    runs a quarter to a fifth of the paths and two Zbar starts.
    """
    p = _reference(pkg, root)
    ergo, paths = pkg.ergodicity, pkg.paths
    runner = CliRunner(pkg.cli, root, outdir)
    cir_paths, cir_dt, cir_horizon = 5000 if smoke else 20_000, 2e-3, 60.0
    zbar_paths = 1000 if smoke else 5000
    zbar_starts = (1.0, 100.0) if smoke else (0.1, 1.0, 10.0, 100.0)
    dynkin_paths = 2500 if smoke else 10_000
    zbar_scheme = paths.SimScheme.auto(p, 5e-3, 300.0, scale=100.0, meet_tol=1e-3)
    dyn_scheme = paths.SimScheme.auto(p, 1e-3, 1.0, scale=4.0)
    ops = [
        runner.op(
            "cir",
            [
                "cir-check",
                "--seed", str(seed),
                "--paths", str(cir_paths),
                "--dt", repr(cir_dt),
                "--set", "scheme.horizon=%r" % cir_horizon,
                "--set", 'experiment={"b": 1.0, "gamma": 1.0, "sigma": 1.0, "z1": 5.0}',
            ],
        )
    ]
    for j, z0 in enumerate(zbar_starts):
        ops.append(
            Op(
                "zbar%g" % z0,
                lambda z0=z0, j=j: ergo.zbar_tail(
                    p, zbar_scheme, 1.0, np.full(zbar_paths, z0), 4 * seed + j
                ),
                lambda est: est,
            )
        )
    ops.append(
        Op(
            "dynkin",
            lambda: ergo.generator_residual(p, dyn_scheme, (1.0, 1.0), dynkin_paths, seed),
            lambda res: res,
        )
    )
    zbar_names = [op.name for op in ops[1:-1]]

    def work(outs):
        mc = outs["cir"]["payload"]["results"]["mc"]
        steps = mc["n"] * ((1.0 - mc["frac_censored"]) * mc["mean"] + mc["frac_censored"] * cir_horizon) / cir_dt
        for name in zbar_names:
            est = outs[name]
            steps += float(np.sum(np.minimum(est.times, est.horizon))) / zbar_scheme.dt
        steps += dynkin_paths * dyn_scheme.n_steps
        return steps

    ctx = {
        "cir_dt": cir_dt,
        "cir_paths": cir_paths,
        "zbar_paths": zbar_paths,
        "dynkin_paths": dynkin_paths,
    }

    def check(outs):
        zbar = [(z0, outs[name]) for z0, name in zip(zbar_starts, zbar_names)]
        return checks.check_passage(outs["cir"]["payload"]["results"], zbar, outs["dynkin"], ctx)

    def fingerprint(outs):
        parts = [_cli_fingerprint(outs)]
        for name in zbar_names:
            parts += [json.dumps(outs[name].to_dict(), sort_keys=True), outs[name].times.tobytes().hex()]
        parts.append(json.dumps(outs["dynkin"], sort_keys=True))
        return "|".join(parts)

    sizes = {
        "cir": {"paths": cir_paths, "dt": cir_dt, "horizon": cir_horizon, "z1": 5.0},
        "zbar": {"paths": zbar_paths, "starts": list(zbar_starts), "M": 1.0, "dt": 5e-3, "horizon": 300.0},
        "dynkin": {"paths": dynkin_paths, "dt": 1e-3, "horizon": 1.0, "init": [1.0, 1.0]},
    }
    return Workload("passage", ops, work, check, fingerprint, sizes)


WORKLOADS = {"couple": couple, "audit": audit, "certify": certify, "passage": passage}
