"""Command-line front end.

One executable with subcommands for the path experiments and the numerical
certificates.  Every run resolves a JSON config (built-in defaults, then an
optional config file, then repeated ``--set dotted.key=value`` overrides),
validates the model parameters, and writes ``<out>.json`` with the resolved
config and the results, plus a CSV next to it when the experiment produces a
curve or a trace.

Exit codes: 0 success, 2 invalid model parameters, 3 a requested certificate
is invalid, 4 a quadrature failed to converge, 5 the adaptive step
subdivision exploded, 1 any other package error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import ergodicity as ergo
from . import lyapunov, model, paths
from .errors import (
    BranchCoupleError,
    InvalidCertificate,
    InvalidParams,
    QuadratureFail,
    StepExplosion,
)

SCHEMA_VERSION = 1

DEFAULT_CONFIG: dict = {
    "model": {
        "b1": 1.0,
        "a1": 0.2,
        "alpha1": 1.5,
        "gamma1": 1.0,
        "sigma1": 0.5,
        "n1": {"family": "stable", "c": 0.5, "theta": 1.5, "truncation": 10.0},
        "b2": 1.0,
        "a2": 0.1,
        "alpha2": 2.0,
        "gamma2": 1.0,
        "sigma2": 0.5,
        "n2": {"family": "stable", "c": 0.5, "theta": 1.5, "truncation": 10.0},
        "k": 0.3,
    },
    "scheme": {
        "dt": 1e-3,
        "horizon": 20.0,
        "state_cap": 1e6,
    },
    "experiment": {},
}


def _deep_update(dst: dict, src: dict) -> dict:
    for key, val in src.items():
        if isinstance(val, dict) and isinstance(dst.get(key), dict):
            _deep_update(dst[key], val)
        else:
            dst[key] = val
    return dst


def _apply_set(cfg: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise InvalidParams("--set expects dotted.key=value, got %r" % assignment)
    key, raw = assignment.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise InvalidParams("--set path %r crosses a non-dict entry" % key)
    node[parts[-1]] = value


def _resolve_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        with open(args.config) as fh:
            _deep_update(cfg, json.load(fh))
    for assignment in args.set or []:
        _apply_set(cfg, assignment)
    if args.dt is not None:
        cfg["scheme"]["dt"] = args.dt
    return cfg


def _resolve_scheme(cfg: dict, p: model.ModelParams, scale_hint: float) -> paths.SimScheme:
    """``SimScheme.auto`` at the experiment's scale; a scheme key that is set
    overrides only its own value."""
    sc = cfg["scheme"]

    def number(key, default=None):
        value = sc.get(key, default)
        try:
            return None if value is None else float(value)
        except (TypeError, ValueError) as exc:
            raise InvalidParams("scheme key %s must be a number" % key) from exc

    return paths.SimScheme.auto(
        p,
        number("dt", 1e-3),
        number("horizon", 20.0),
        scale=scale_hint,
        meet_tol=number("meet_tol"),
        state_cap=number("state_cap", 1e6),
        small_jump_mode=sc.get("small_jump_mode"),
        jump_cutoff=number("jump_cutoff"),
    )


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and not np.isfinite(obj):
        return str(obj)
    return str(obj)


def _sanitize(obj):
    """Replace non-finite floats so the JSON stays loadable everywhere."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    return obj


def _write_json(out_prefix: str, payload: dict) -> str:
    path = out_prefix + ".json"
    with open(path, "w") as fh:
        json.dump(_sanitize(payload), fh, indent=2, default=_json_default)
        fh.write("\n")
    return path


def _write_csv(path: str, header: list[str], rows) -> str:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path


def _tail_csv(path: str, est: ergo.TailEstimate) -> str:
    rows = zip(est.grid, est.p_hat, est.lo, est.hi)
    return _write_csv(path, ["t", "p_hat", "wilson_lo", "wilson_hi"], rows)


def _trace_csv(path: str, grid: paths.PathGrid) -> str:
    rows = (
        [r["t"]] + [r[c] for c in paths._TRACE_COLUMNS] + [r["event"]]
        for r in paths.trace_rows(grid)
    )
    return _write_csv(
        path, ["t"] + list(paths._TRACE_COLUMNS) + ["event"], rows
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg, args, p, files):
    exp = cfg["experiment"]
    init = tuple(float(v) for v in exp.get("init", (1.0, 1.0)))
    low = exp.get("low")
    high = exp.get("high")
    truncation = exp.get("truncation")
    scale = max(1.0, *init, float(high or 0.0), float(truncation or 0.0))
    scheme = _resolve_scheme(cfg, p, scale)
    rng = paths.stream(args.seed, 0)
    if truncation is not None:
        grid = paths.simulate_truncated(p, scheme, float(truncation), init, rng)
    else:
        grid = paths.simulate_cbipc(
            p,
            scheme,
            init,
            rng,
            low=float(low) if low is not None else None,
            high=float(high) if high is not None else None,
        )
    files.append(_trace_csv(args.out + "_trace.csv", grid))
    return scheme, {
        "init": list(init),
        "stopping": grid.stopping.to_dict(),
        "n_events": len(grid.events),
        "final": {name: float(arr[-1]) for name, arr in grid.states.items()},
    }


def cmd_couple(cfg, args, p, files):
    exp = cfg["experiment"]
    init = tuple(float(v) for v in exp.get("init", (2.0, 0.5, 1.5, 0.2)))
    with_aux = bool(exp.get("with_aux", False))
    M = exp.get("M")
    high = exp.get("high")
    scale = max(1.0, *init)
    scheme = _resolve_scheme(cfg, p, scale)
    rng = paths.stream(args.seed, 0)
    grid = paths.simulate_coupled(
        p,
        scheme,
        init,
        rng,
        M=float(M) if M is not None else None,
        with_aux=with_aux,
        high=float(high) if high is not None else None,
    )
    files.append(_trace_csv(args.out + "_trace.csv", grid))
    return scheme, {
        "init": list(init),
        "with_aux": with_aux,
        "stopping": grid.stopping.to_dict(),
        "n_events": len(grid.events),
    }


def cmd_drift_check(cfg, args, p, files):
    exp = cfg["experiment"]
    function = exp.get("function", "f")
    M = float(exp.get("M", 1.0))
    region = exp.get("region")
    n_grid = int(exp.get("n_grid", 400))
    scheme = None

    if function == "w":
        report = lyapunov.certify_exit_barrier(p, M, n_grid=max(n_grid, 16))
        results = report.to_dict()
        if not report.valid:
            raise InvalidCertificate(
                "exit barrier at M=%g fails (M must exceed the drift root)" % M
            )
        return scheme, results

    if function == "f":
        V = lyapunov.make_f(p, M)
        target = exp.get("target", "Zbar")
    elif function == "h":
        V = lyapunov.make_h(p)
        target = exp.get("target", "Xdiff")
    elif function == "g":
        V = lyapunov.make_g(p)
        target = exp.get("target", "X")
        if region is None:
            m0 = model.m0_heuristic(p)
            region = (m0, 10.0 * m0)
    else:
        raise InvalidParams("unknown drift-check function %r" % function)

    if region is None:
        region = lyapunov.default_region(V)
    region = (float(region[0]), float(region[1]))
    cert = lyapunov.certify_drift(p, V, target, M=M, region=region, n_grid=n_grid)
    files.append(
        _write_csv(
            args.out + "_drift.csv", ["z", "LV"], zip(cert.z_grid, cert.lv)
        )
    )
    results = cert.to_dict()
    if function in ("f", "h"):
        try:
            results["t0"] = lyapunov.budget_from(V.sup_value(), cert.certified_C)
        except (InvalidCertificate, OverflowError) as exc:
            results["t0_unavailable"] = str(exc)
    if not cert.valid:
        raise InvalidCertificate(
            "drift certificate for %s on %s is not valid (C=%g)"
            % (function, target, cert.certified_C)
        )
    return scheme, results


def cmd_hitting(cfg, args, p, files):
    exp = cfg["experiment"]
    level = float(exp.get("level", 1.0))
    direction = exp.get("direction", "down")
    start = exp.get("start", 10.0)
    n_paths = int(args.paths or exp.get("n_paths", 4096))
    starts = (
        np.asarray(exp["starts"], dtype=float)
        if "starts" in exp
        else np.full(n_paths, float(start))
    )
    scale = max(1.0, float(np.max(starts)), level)
    scheme = _resolve_scheme(cfg, p, scale)
    est = ergo.hitting_tail(
        p,
        scheme,
        starts,
        args.seed,
        level=level,
        direction=direction,
        workers=args.workers,
    )
    files.append(_tail_csv(args.out + "_tail.csv", est))
    results = {"level": level, "direction": direction, "tail": est.to_dict()}
    try:
        results["rate_fit"] = ergo.rate_fit(est).to_dict()
    except BranchCoupleError as exc:
        results["rate_fit_unavailable"] = str(exc)
    return scheme, results


def cmd_coupling_tail(cfg, args, p, files):
    exp = cfg["experiment"]
    inits = exp.get("inits", [[2.0, 0.5, 1.5, 0.2]])
    if not inits:
        raise InvalidParams("coupling-tail needs at least one init in experiment.inits")
    n_paths = int(args.paths or exp.get("n_paths", 4096))
    t_query = exp.get("t_query")
    scale = max(1.0, max(max(row) for row in inits))
    scheme = _resolve_scheme(cfg, p, scale)
    per_init = []
    max_curve = None
    for j, row in enumerate(inits):
        x0, xt0, y0, yt0 = (np.full(n_paths, float(v)) for v in row)
        ct = ergo.coupling_tail(
            p,
            scheme,
            (x0, xt0, y0, yt0),
            args.seed + j,
            workers=args.workers,
        )
        entry = {
            "init": list(map(float, row)),
            "t_x": ct["t_x"].to_dict(),
            "t_full": ct["t_full"].to_dict(),
            "n_abort": ct["n_abort"],
        }
        if t_query is not None:
            entry["tv_bound"] = ergo.tv_upper_bound(
                ct["t_full"], float(t_query), clamp=True
            )
        per_init.append(entry)
        curve = ct["t_full"].p_hat
        max_curve = curve if max_curve is None else np.maximum(max_curve, curve)
        if j == 0:
            grid = ct["t_full"].grid
            files.append(_tail_csv(args.out + "_tail.csv", ct["t_full"]))
    results = {
        "per_init": per_init,
        "max_curve": {"grid": grid.tolist(), "p_hat": max_curve.tolist()},
    }
    try:
        results["max_curve"]["fit"] = ergo.curve_rate_fit(grid, max_curve).to_dict()
    except ergo.DegenerateFit:
        results["max_curve"]["fit"] = None
    return scheme, results


def cmd_cir_check(cfg, args, p, files):
    exp = cfg["experiment"]
    b = float(exp.get("b", p.b1))
    gamma = float(exp.get("gamma", p.gamma1))
    sigma = float(exp.get("sigma", p.sigma1))
    z1 = float(exp.get("z1", 5.0))
    n_paths = int(args.paths or exp.get("n_paths", 20000))
    scheme = _resolve_scheme(cfg, p, max(1.0, z1))
    exact = ergo.cir_mean_hitting_time(b, gamma, sigma, z1)
    mc = ergo.cir_hitting_sample(
        b, gamma, sigma, scheme, z1, n_paths, args.seed, workers=args.workers
    )
    return scheme, {
        "b": b,
        "gamma": gamma,
        "sigma": sigma,
        "z1": z1,
        "exact_mean": exact,
        "mc": mc,
        "abs_error": abs(exact - mc["mean"]),
        "within_3se": abs(exact - mc["mean"])
        <= 3.0 * mc["se"] + 2.0 * scheme.dt,
    }


def cmd_comparison_audit(cfg, args, p, files):
    exp = cfg["experiment"]
    M = float(exp.get("M", model.m0_heuristic(p)))
    init = exp.get("init")
    if init is None:
        init = [M / 2.0, M / 2.0, 1.0, 0.0]
    init = tuple(float(v) for v in init)
    n_paths = int(args.paths or exp.get("n_paths", 2048))
    # the cutoff must resolve jumps at the Zbar equilibrium, which the
    # dominating process reaches long before the horizon
    scale = max(1.0, *init, 2.0 * M, 4.0 * model.zbar_equilibrium(p, M))
    scheme = _resolve_scheme(cfg, p, scale)
    report = ergo.comparison_audit(
        p,
        scheme,
        init,
        M,
        n_paths,
        args.seed,
        ignore_exit=bool(exp.get("ignore_exit", False)),
        workers=args.workers,
    )
    report.pop("raw", None)
    report["M"] = M
    report["init"] = list(init)
    return scheme, report


def cmd_localize(cfg, args, p, files):
    exp = cfg["experiment"]
    M = exp.get("M")
    n_paths = int(args.paths or exp.get("n_paths", 2000))
    start_scale = float(exp.get("start_scale", 10.0))
    M_val = float(M) if M is not None else model.m0_heuristic(p)
    scheme = _resolve_scheme(cfg, p, max(1.0, start_scale * M_val))
    report = ergo.localize_report(
        p,
        scheme,
        args.seed,
        M=M_val,
        start_scale=start_scale,
        n_paths=n_paths,
        workers=args.workers,
    )
    return scheme, report


_COMMANDS = {
    "simulate": cmd_simulate,
    "couple": cmd_couple,
    "drift-check": cmd_drift_check,
    "hitting": cmd_hitting,
    "coupling-tail": cmd_coupling_tail,
    "cir-check": cmd_cir_check,
    "comparison-audit": cmd_comparison_audit,
    "localize": cmd_localize,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchcouple",
        description="simulation and numerical certificates for a coupled "
        "branching system with immigration, predation and competition",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, default=12345)
        sp.add_argument("--paths", type=int, default=None, help="number of paths")
        sp.add_argument("--dt", type=float, default=None)
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--out", default="branchcouple_out", help="output prefix")
        sp.add_argument(
            "--set",
            action="append",
            metavar="dotted.key=value",
            help="override one config entry (value parsed as JSON)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        p = model.params_from_config(cfg["model"])
        report = model.validate(p)
        files: list[str] = []
        scheme, results = _COMMANDS[args.command](cfg, args, p, files)
        payload = {
            "schema": SCHEMA_VERSION,
            "experiment": args.command,
            "seed": args.seed,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "config": cfg,
            "scheme": scheme.to_config() if scheme is not None else None,
            "model_conditions": report.to_dict(),
            "results": results,
        }
        files.insert(0, _write_json(args.out, payload))
        for f in files:
            print("wrote %s" % f)
        return 0
    except InvalidParams as exc:
        print("invalid parameters: %s" % exc, file=sys.stderr)
        return 2
    except InvalidCertificate as exc:
        print("invalid certificate: %s" % exc, file=sys.stderr)
        return 3
    except QuadratureFail as exc:
        print("quadrature failure: %s" % exc, file=sys.stderr)
        return 4
    except StepExplosion as exc:
        print("step explosion: %s" % exc, file=sys.stderr)
        return 5
    except BranchCoupleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
