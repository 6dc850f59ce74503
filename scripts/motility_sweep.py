#!/usr/bin/env python3
"""Sweep the attached-phase diffusivity and report the long-run outcome.

Holds the isolated phase slow (du = 0.1) and scans the attached-phase
diffusivity dv across four decades, reproducing the dispersal-speed
transition between washout and coexistence.
"""

import argparse
from pathlib import Path

import flocstat as fs

BASE_CONFIG = """\
[model]
d0 = 1
du = 0.1
dv = 1
yu = 0.1
yv = 0.1
gamma_s = 1

[kinetics]
f = monod 4 1
g = monod 5 1
alpha = attached_times_total
beta = one_plus_attached_times_total

[initial]
S = 0.1
u = 1
v = 1

[controls]
t_end = {t_end}
grid_n = {grid_n}

[sweep]
parameter = dv
values = {values}
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="motility_out", help="output directory")
    parser.add_argument("--t-end", type=float, default=100.0)
    parser.add_argument(
        "--values",
        type=float,
        nargs="*",
        default=[0.001, 0.1, 1.0, 100.0],
        help="isolated-phase diffusivities to scan",
    )
    args = parser.parse_args()

    # the finest grid that keeps h <= 2*min(d) for the smallest dv scanned
    min_d = min([1.0, 0.1] + list(args.values))
    grid_n = max(201, int(round(1.0 / (2.0 * min_d))) + 2)
    text = BASE_CONFIG.format(
        t_end=args.t_end,
        grid_n=grid_n,
        values=" ".join(repr(v) for v in args.values),
    )
    config = fs.parse_config(text)
    rows = fs.sweep(config, args.out)

    print(f"{'dv':>10} {'verdict':<14} {'sup_u':>12} {'sup_v':>12} {'R_u':>8} {'R_v':>8}")
    for row in rows:
        if row["error"]:
            print(f"{row['value']:>10} ERROR: {row['error']}")
            continue
        print(
            f"{float(row['value']):>10g} {row['verdict']:<14} "
            f"{float(row['sup_u_1']):>12.3e} {float(row['sup_v_1']):>12.3e} "
            f"{float(row['R_u']):>8.3f} {float(row['R_v']):>8.3f}"
        )
    print(f"\nsummary at {Path(args.out).resolve() / 'summary.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
