#!/usr/bin/env python3
"""Doubling search for the smallest initial magnitude that blows up.

With growth switched off, linear exchange rates, and both yields above one,
large equal initial data in the two bacterial phases produce finite-time
blow-up while small data wash out.  Starting from M = 1, double the constant
initial value until the run blows up, then report the dichotomy pair.
"""

import argparse

import flocstat as fs


def run_at(magnitude: float, *, yu: float, t_end: float, grid_n: int):
    params = fs.ModelParams(m=1, d0=1.0, du=1.0, dv=1.0, yu=yu, yv=yu, gamma_s=1.0)
    kin = fs.KineticsSpec(
        f=(fs.ZeroGrowth(),),
        g=(fs.ZeroGrowth(),),
        alpha=(fs.LinearTotalRate(1.0),),
        beta=(fs.LinearTotalRate(1.0),),
    )
    grid = fs.Grid(grid_n)
    initial = fs.StateField.constant(grid, S=1.0, u=magnitude, v=magnitude)
    result = fs.simulate(initial, params, kin, t_end=t_end)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--yield", dest="yu", type=float, default=1.5)
    parser.add_argument("--t-end", type=float, default=20.0)
    parser.add_argument("--grid-n", type=int, default=201)
    parser.add_argument("--max-doublings", type=int, default=12)
    args = parser.parse_args()

    magnitude = 1.0
    last_completed = None
    for _ in range(args.max_doublings):
        result = run_at(magnitude, yu=args.yu, t_end=args.t_end, grid_n=args.grid_n)
        verdict = result.verdict
        sup_final = max(result.monitors["sup_u_1"][-1], result.monitors["sup_v_1"][-1])
        print(
            f"M={magnitude:<8g} verdict={verdict.kind:<10} "
            f"t_final={verdict.t_final:<8g} final_sup={sup_final:.3e}"
        )
        if verdict.kind == "blow_up":
            print(
                f"\ndichotomy: M={last_completed} completes, M={magnitude} blows up "
                f"(detected at t={verdict.t_final:g}, {verdict.reason})"
            )
            return 0
        last_completed = magnitude
        magnitude *= 2.0
    print("\nno blow-up found within the doubling budget")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
