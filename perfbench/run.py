#!/usr/bin/env python3
"""Benchmark of the flocstat CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload run-presets --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each pass over a workload's
operations runs ``flocstat.cli.main`` in a fresh interpreter (``worker.py``,
with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned to one thread), and
passes repeat until ``--seconds`` have been measured.

``--trace 0`` reports the end-to-end metrics, as medians over the passes:
``wall_s`` (start of the pass process to its exit), ``setup_s`` (start of
the pass process until flocstat is imported and every config of the pass is
parsed) and ``peak_rss_mb`` (peak resident memory of the pass process and
its children).  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of ``layers.py`` plus the tracing overhead.

Every operation's result is checked against ``baseline.json`` (see
``check.py``); ``attempted``/``failed`` count operations over all passes.
``--write-baseline`` records that table from one pass of every workload.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from check import judge_op
from workloads import WORKLOADS, operations

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
OUT = Path(".perfbench_out")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 2  # set-up-only processes started after each pass
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    """The machine the numbers come from."""
    env = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "cpu_model": "unknown", "caches": {},
           "pinned": {name: "1" for name in PINNED}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            env["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass  # the description is informative; the run does not depend on it
    return env


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in PINNED})
    return env


def run_pass(root: Path, workload: str, seed: int, trace: bool, deadline: float,
             setup_only: bool = False) -> dict:
    """One pass in a fresh process; its records, timings and layer metrics.

    With ``setup_only`` the process stops once set-up is done, and only
    ``setup_s`` is meaningful.
    """
    pass_dir = OUT / workload / "pass"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    ops = operations(workload, seed, pass_dir)
    job = {
        "ops": [{"key": op.key, "kind": op.kind, "argv": list(op.argv)} for op in ops],
        "trace": trace,
        "setup_only": setup_only,
        "result": str(pass_dir / "result.json"),
        "spans": str(OUT / workload / "spans.txt"),
    }
    (pass_dir / "job.json").write_text(json.dumps(job))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the first pass ended")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(pass_dir / "job.json")],
            cwd=root, env=worker_env(root), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {workload} pass did not end within {timeout:.0f} s") from exc
    t_exit = time.monotonic()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads((pass_dir / "result.json").read_text())
    shutil.rmtree(pass_dir)
    result["setup_s"] = result["t_setup"] - t_spawn
    if not setup_only:
        result["ops"] = ops
        result["wall_s"] = t_exit - t_spawn
        result["done_s"] = result["t_done"] - t_spawn
    return result


def judge_pass(result: dict, baseline: dict) -> list[tuple]:
    verdicts = []
    for op in result["ops"]:
        verdicts += judge_op(op.kind, op.key, result["records"][op.key], baseline)
    return verdicts


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def write_baseline(root: Path) -> int:
    table = {}
    deadline = time.monotonic() + 3 * RUN_LIMIT_S
    for workload in WORKLOADS:
        result = run_pass(root, workload, 0, False, deadline)
        for op in result["ops"]:
            table.update(result["records"][op.key])
    BASELINE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} references to {BASELINE}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-baseline", action="store_true",
                        help="record every operation's result as the reference")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "flocstat" / "cli.py").is_file():
        print("run from the root of a flocstat checkout (src/flocstat is missing)",
              file=sys.stderr)
        return 2
    if args.write_baseline:
        return write_baseline(root)
    if args.workload is None:
        parser.error("--workload is required")
    baseline = json.loads(BASELINE.read_text())
    workload = WORKLOADS[args.workload]
    shutil.rmtree(OUT / workload.name, ignore_errors=True)

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    # fill the bytecode cache so the first pass does not pay for compiling
    warm = subprocess.run([sys.executable, "-c", "import flocstat.cli"], cwd=root,
                          env=worker_env(root), capture_output=True, text=True, timeout=60)
    if warm.returncode != 0:
        raise BenchError(f"flocstat does not import:\n{warm.stderr[-3000:]}")
    t_measure = time.monotonic()
    plain, traced, setups = [], [], []
    while True:
        plain.append(run_pass(root, workload.name, args.seed, False, deadline))
        setups.append(plain[-1]["setup_s"])
        if args.trace:
            traced.append(run_pass(root, workload.name, args.seed, True, deadline))
        else:
            # set-up is short next to a pass: sample it more often
            for _ in range(SETUP_PROBES):
                setups.append(run_pass(root, workload.name, args.seed, False, deadline,
                                       setup_only=True)["setup_s"])
        if time.monotonic() - t_measure >= args.seconds:
            break

    verdicts = [v for r in plain + traced for v in judge_pass(r, baseline)]
    failures = [v for v in verdicts if v[1]]
    env = {**environment(), **plain[0]["versions"]}
    report = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "env": env, "passes": len(plain) + len(traced)}
    print(f"{workload.name} (seed {args.seed}): {workload.why}")
    print("env: " + json.dumps(env))

    if args.trace:
        names = list(traced[0]["layers"])
        metrics = {
            name: {"value": statistics.median(r["layers"][name][0] for r in traced),
                   "unit": traced[0]["layers"][name][1]}
            for name in names
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["done_s"] for r in traced)
            - statistics.median(r["done_s"] for r in plain),
            "unit": "s",
        }
        metrics["proc.cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in plain),
                                 "unit": "s"}
        called = set(traced[-1]["called"])
        absent = [name for name in workload.layers if name not in called]
        report.update(per_op=traced[-1]["per_op"], absent=absent,
                      raised=traced[-1]["raised"], missing_targets=traced[-1]["missing"])
        print(f"traced passes: {len(traced)}, untraced passes: {len(plain)}; "
              "times are inclusive of called layers")
        for op, row in sorted(traced[-1]["per_op"].items()):
            steps = (f", pde.steps_accepted={row['steps_accepted']}, "
                     f"pde.steps_rejected={row['steps_rejected']}"
                     if row["steps_accepted"] or row["steps_rejected"] else "")
            print(f"  op {op}: {row['s']:.3f} s{steps}")
        if absent:
            print("absent (expected on this workload, never called; reported as 0 below): "
                  + ", ".join(absent))
        if traced[-1]["raised"]:
            print("calls that raised: " + ", ".join(
                f"{name} {count}x" for name, count in sorted(traced[-1]["raised"].items())))
        if traced[-1]["missing"]:
            print("wrap targets the program no longer defines: "
                  + ", ".join(traced[-1]["missing"]))
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    else:
        stats = {
            "wall_s": ([r["wall_s"] for r in plain], "s"),
            "setup_s": (setups, "s"),
            "peak_rss_mb": ([r["peak_rss_kb"] / 1024.0 for r in plain], "MB"),
        }
        metrics = {}
        report["op_s"] = [r["op_s"] for r in plain]
        for name, (values, unit) in stats.items():
            s = summary(values)
            report[name] = {**s, "values": values}
            metrics[name] = {"value": s["median"], "unit": unit}
            print(f"  {name}: median {s['median']:.4f} {unit} "
                  f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
    print(f"ops_total={len(verdicts)} ops_failed={len(failures)}")
    for (key, _failed, regressed, reason), count in Counter(failures).items():
        print(f"  failed {count}x: {key}: {reason}"
              + (" [disagrees with seed]" if regressed else ""))
    report.update(metrics=metrics, ops_total=len(verdicts), ops_failed=len(failures),
                  failures=[list(v) for v in failures])
    (OUT / workload.name / "summary.json").write_text(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": not any(v[2] for v in verdicts),
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        sys.exit(1)
