#!/usr/bin/env python3
"""Run every shipped figure preset and tabulate the verdicts.

Writes one output directory per preset under --out and prints a summary
table (preset, diffusivities, verdict, final sup norms, wall time).
"""

import argparse
import time
from pathlib import Path

import flocstat as fs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figures_out", help="output root directory")
    parser.add_argument("--t-end", type=float, default=None, help="override end time")
    parser.add_argument(
        "--only", nargs="*", default=None, help="subset of preset names to run"
    )
    args = parser.parse_args()

    names = [n for n in fs.available_presets() if n.startswith("fig")]
    if args.only:
        names = [n for n in names if n in set(args.only)]
    out_root = Path(args.out)

    header = f"{'preset':<8} {'d0':>6} {'du':>7} {'dv':>7} {'verdict':<14} {'sup_u':>10} {'sup_v':>10} {'secs':>6}"
    print(header)
    print("-" * len(header))
    for name in names:
        config = fs.load_preset(name)
        if args.t_end is not None:
            from dataclasses import replace

            config = replace(config, controls=replace(config.controls, t_end=args.t_end))
        start = time.perf_counter()
        result, verdict = fs.run_experiment(config, out_root / name)
        elapsed = time.perf_counter() - start
        p = config.params
        sup_u, sup_v = (result.monitors[key][-1] for key in ("sup_u_1", "sup_v_1"))
        print(
            f"{name:<8} {p.d0:>6g} {p.du[0]:>7g} {p.dv[0]:>7g} {verdict:<14} "
            f"{sup_u:>10.3e} {sup_v:>10.3e} {elapsed:>6.1f}"
        )
    print(f"\noutputs under {out_root.resolve()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
