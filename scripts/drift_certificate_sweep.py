#!/usr/bin/env python3
"""Sweep the freeze level M and certify the drift inequality for each
Lyapunov function, reporting the certified constant and the implied time
budget.  Writes one CSV row per (function, level)."""

import argparse
import csv
import json
import pathlib
import sys

import numpy as np

from branchcouple import lyapunov, model

DEFAULT_CONFIG = pathlib.Path(__file__).parent / "reference_config.json"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(DEFAULT_CONFIG), help="model JSON")
    ap.add_argument(
        "--levels",
        default="0.25,0.5,1,2,5",
        help="comma-separated freeze levels M for the absorption function "
        "(the certified constant decays steeply in M and the certificate "
        "eventually fails in double precision)",
    )
    ap.add_argument("--n-grid", type=int, default=200)
    ap.add_argument("--out", default="drift_sweep.csv")
    args = ap.parse_args(argv)

    with open(args.config) as fh:
        cfg = json.load(fh)
    p = model.params_from_config(cfg["model"])
    model.validate(p)

    levels = [float(s) for s in args.levels.split(",")]
    rows = []
    for function, m_level in [("f", m) for m in levels] + [("h", None), ("g", None)]:
        cert = lyapunov.certify(p, function, M=m_level, n_grid=args.n_grid)
        if function == "g":
            # the probe has no meeting budget: its row gives the level M0 it
            # is certified above
            m_level = cert.region[0]
        t0 = float("nan") if cert.t0 is None else cert.t0
        m_level = float("nan") if m_level is None else m_level
        rows.append([function, m_level, cert.valid, cert.certified_C, cert.sup_value, t0])

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["function", "M", "valid", "certified_C", "sup_V", "t0"])
        writer.writerows(rows)

    width = max(len(str(r[0])) for r in rows) + 2
    print(f"{'fn':<{width}}{'M':>10}{'valid':>8}{'C':>14}{'sup V':>12}{'t0':>14}")
    for fn, m_level, valid, c, sup, t0 in rows:
        print(
            f"{fn:<{width}}{m_level:>10.3g}{str(valid):>8}{c:>14.4e}"
            f"{sup:>12.5g}{t0:>14.4e}"
        )
    print("wrote", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
