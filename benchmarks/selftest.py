"""Self-test of the benchmark's correctness checks at smoke size.

    PYTHONPATH=src python3 benchmarks/selftest.py [--seed N]

Runs one round of each workload at reduced size, requires every check to
pass on the program's real outputs, then corrupts the outputs once per check
(a shifted CIR mean, a curve with one non-monotone point, perturbed LV
values, ...) and requires that check, by name, to fail.  Exits non-zero if a
check passes a wrong output or fails a correct one.  Takes about 10 s.
"""

from __future__ import annotations

import argparse
import copy
import os
import shutil
import sys
import tempfile

import numpy as np

import branchcouple
import harness
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _res(outs, name):
    return outs[name]["payload"]["results"]


def _curve(outs, grid, k, key="t_full"):
    return _res(outs, grid)["per_init"][k][key]


def _bump_point(p):
    """Make one mid-curve point exceed its predecessor."""
    j = int(np.flatnonzero(np.asarray(p) < 0.9)[0]) + 1
    p[j] = p[j - 1] + 0.01


def _flatten_base(o):
    for entry in _res(o, "base")["per_init"]:
        if entry["init"][0] != entry["init"][1] or entry["init"][2] != entry["init"][3]:
            for key in ("t_x", "t_full"):
                entry[key]["p_hat"] = [0.5] * len(entry[key]["p_hat"])
    _res(o, "base")["max_curve"]["p_hat"] = [0.5] * len(_res(o, "base")["max_curve"]["p_hat"])


def _square_wide(o):
    for entry in _res(o, "wide")["per_init"]:
        for key in ("t_x", "t_full"):
            entry[key]["p_hat"] = [v * v for v in entry[key]["p_hat"]]
    curve = _res(o, "wide")["max_curve"]
    curve["p_hat"] = [v * v for v in curve["p_hat"]]


COUPLE = {
    "couple.no_abort": lambda o: _res(o, "base")["per_init"][2].update(n_abort=3),
    "couple.diagonal_meets_at_zero": lambda o: _curve(o, "base", 0)["p_hat"].__setitem__(1, 0.001),
    "couple.tx_below_tfull": lambda o: _curve(o, "base", 2, "t_x").update(
        p_hat=[min(1.0, v + 0.02) for v in _curve(o, "base", 2)["p_hat"]]
    ),
    "couple.curves_monotone": lambda o: _bump_point(_curve(o, "wide", 2)["p_hat"]),
    "couple.envelope_is_max": lambda o: _res(o, "base")["max_curve"]["p_hat"].__setitem__(
        10, 0.9 * _res(o, "base")["max_curve"]["p_hat"][10]
    ),
    "couple.fit_recomputed": lambda o: _res(o, "wide")["max_curve"]["fit"].update(
        rate=1.001 * _res(o, "wide")["max_curve"]["fit"]["rate"]
    ),
    "couple.envelope_rate": _flatten_base,
    "couple.widened_rate_agrees": _square_wide,
}


def _audit_fine(o):
    return _res(o, "dt0.000125")


def _audit_coarse(o):
    return _res(o, "dt0.00025")


AUDIT = {
    "audit.tolerance": lambda o: _audit_coarse(o).update(tol=1.01 * _audit_coarse(o)["tol"]),
    "audit.pair_order_exact": lambda o: _audit_fine(o)["pair_order"].update(max_violation=1e-6),
    "audit.no_zbar_events": lambda o: _audit_coarse(o)["Z_below_Zbar"].update(n_events=1),
    "audit.frac_over_tol": lambda o: _audit_fine(o)["difference_below_Z"].update(frac_over_tol=0.02),
    "audit.residual_halves": lambda o: _audit_fine(o)["difference_below_Z"].update(
        mean_event=_audit_coarse(o)["difference_below_Z"]["mean_event"] / 1.9
    ),
}


def _drift_csv(o, name, fn):
    text = o[name]["csv"]["_drift.csv"]
    lines = text.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    fn(rows)
    o[name]["csv"]["_drift.csv"] = "\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n"


def _scale_lv(rows):
    for r in rows:
        r[1] = repr(float(r[1]) * (1.0 + 1e-3))


def _shift_z(rows):
    rows[5][0] = repr(float(rows[5][0]) * 1.001)


def _raise_g(rows):
    rows[3][1] = repr(-0.99)


CERTIFY = {
    "certify.valid": lambda o: _res(o, "f0").update(valid=False),
    "certify.grid": lambda o: _drift_csv(o, "h", _shift_z),
    "certify.c_is_min": lambda o: _res(o, "h").update(certified_C=1.5 * _res(o, "h")["certified_C"]),
    "certify.lv_direct": lambda o: _drift_csv(o, "h", _scale_lv),
    "certify.g_region": lambda o: _res(o, "g")["region"].__setitem__(0, 1.001 * _res(o, "g")["region"][0]),
    "certify.g_max_lv": lambda o: _drift_csv(o, "g", _raise_g),
}


def _zbar(o):
    return next(v for k, v in o.items() if k.startswith("zbar"))


def _bump_zbar(o):
    est = _zbar(o)
    p = est.p_hat.copy()
    j = int(np.flatnonzero(p < 0.9)[0]) + 1
    p[j] = p[j - 1] + 0.01
    est.p_hat = p


def _censor_zbar(o):
    est = _zbar(o)
    times = est.times.copy()
    times[: int(0.6 * times.size)] = np.inf
    est.times = times


def _shift_cir(o):
    mc = _res(o, "cir")["mc"]
    mc["mean"] += 10.0 * mc["se"]


PASSAGE = {
    "passage.cir_closed_form": lambda o: _res(o, "cir").update(exact_mean=_res(o, "cir")["exact_mean"] + 1e-6),
    "passage.cir_mc": _shift_cir,
    "passage.zbar_monotone": _bump_zbar,
    "passage.zbar_curve": lambda o: setattr(_zbar(o), "lo", _zbar(o).lo + 0.01),
    "passage.zbar_horizon": _censor_zbar,
    "passage.dynkin": lambda o: o["dynkin"].update(residual_mean=4.0 * o["dynkin"]["residual_se"]),
}

MUTATIONS = {"couple": COUPLE, "audit": AUDIT, "certify": CERTIFY, "passage": PASSAGE}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench_out = os.path.join(ROOT, ".bench_out")
    os.makedirs(bench_out, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="selftest-", dir=bench_out)
    problems = []
    try:
        for name, factory in workloads.WORKLOADS.items():
            wl = factory(branchcouple, ROOT, outdir, args.seed, smoke=True)
            outs, failed, elapsed = harness.run_round(wl)
            if failed:
                problems.append("%s: %d operations failed" % (name, failed))
                continue
            base = wl.check(outs)
            mutations = MUTATIONS[name]
            missing = set(base) ^ set(mutations)
            if missing:
                problems.append("%s: checks without a mutation or vice versa: %s" % (name, sorted(missing)))
            for check, (ok, detail) in base.items():
                if not ok:
                    problems.append("%s fails on the real outputs: %s" % (check, detail))
            for check, mutate in mutations.items():
                bad = copy.deepcopy(outs)
                mutate(bad)
                ok, detail = wl.check(bad)[check]
                verdict = "rejects" if not ok else "PASSES"
                print("%-32s %s the corrupted output (%s)" % (check, verdict, detail))
                if ok:
                    problems.append("%s passes a corrupted output" % check)
                if wl.fingerprint(bad) == wl.fingerprint(outs):
                    problems.append("determinism check misses the corruption for %s" % check)
            print("%-32s %.1f s, %d checks" % (name, elapsed, len(base)))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    for problem in problems:
        print("SELFTEST PROBLEM: " + problem, file=sys.stderr)
    print("selftest %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
