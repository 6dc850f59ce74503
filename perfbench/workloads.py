"""The benchmark's workloads: which CLI operations one pass runs, and why.

Every workload is a fixed list of ``flocstat`` command lines over shipped
presets or the motility script's configuration.  The benchmark seed only
shuffles the order of the operations inside a pass; it never changes an
input.  Each operation carries a key that names it independently of that
order, so its result can be compared with the reference recorded at seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Shipped presets that `steady-eigen` runs at their own grid.  Listed here
# rather than globbed so that a preset added later does not change the work.
PRESETS = (
    "blowup_demo", "fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b",
    "fig4d", "fig4e", "fig4f", "fig4g", "fig5h", "fig5i", "fig5j", "fig5k",
    "fig5l", "fig5m", "fig6n", "fig6o", "fig6p", "washout_demo",
)

# scripts/motility_sweep.py's configuration: du = 0.1, dv over four
# decades, grid_n = 502 (the finest grid with h <= 2*min(d)).  The horizon
# is shortened from 100 to 25 so one pass lasts about as long as a
# `run-presets` pass.
MOTILITY_VALUES = (0.001, 0.1, 1.0, 100.0)
MOTILITY_CONFIG = """\
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
t_end = 25
grid_n = 502

[sweep]
parameter = dv
values = {values}
"""


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``key`` names it in the reference table."""

    key: str
    kind: str  # run, sweep, steady or eigen
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # span names (see layers.TARGETS) the workload is expected to call; one
    # that gets no call is reported as absent
    layers: tuple[str, ...]


PDE_LAYERS = (
    "pde.simulate", "pde.tridiag_solve", "pde.record_quadrature",
    "model.reaction_field", "eigen.solve_principal", "operators",
    "cli.run_experiment", "cli.write_outputs", "cli.parse_config",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run-presets",
            "flocstat run on fig2a, fig6n, fig4e and blowup_demo: PDE stepping does "
            "almost all the work (equilibrium-heavy, transient-heavy, n=501, exit 4)",
            PDE_LAYERS,
        ),
        Workload(
            "sweep-motility",
            "flocstat sweep --threads 2 over the motility axis: many short runs, "
            "per-run setup, the sweep executor and reproductive numbers",
            PDE_LAYERS + ("diagnostics.reproductive_numbers",),
        ),
        Workload(
            "steady-eigen",
            "flocstat steady (n=4001 and every preset) and eigen on every preset: "
            "no PDE stepping, only dense steady kernels and eigen iterations",
            (
                "eigen.solve_principal", "steady.fixed_point_solve",
                "steady.kernel_matrix", "steady.hypotheses", "operators",
                "cli.parse_config",
            ),
        ),
    )
}

# Why each workload exists, at more length than the one-line `why`:
#
# run-presets: fig2a spends most of its horizon at equilibrium, so an
#   error-controlled dt wins most there; fig6n is transient-heavy and uses
#   the linear/constant exchange laws; fig4e runs at n=501, where array size
#   starts to matter once per-call overhead is gone; blowup_demo covers the
#   exit-4 path.  Each figure preset takes exactly 10 000 steps at seed.
# sweep-motility: the same PDE layer used differently, as many short runs
#   whose per-run setup (stepper, Q eigenfunction, per-point CSVs) weighs
#   more.  The only workload that drives the sweep executor (two threads,
#   equal to the core count of the machine the benchmark was defined on)
#   and diagnostics.reproductive_numbers.  The dv=0.001 point fails at seed
#   with EigenSolverError and stays in, counted as a failed operation.
# steady-eigen: bypasses PDE stepping entirely, so per-step and adaptive-dt
#   changes must leave it unchanged.  At n=4001 the dense kernel matrices
#   dominate time and peak memory.  fig4e's `steady` raises a ValueError
#   traceback at seed and stays in, counted as a failed operation.


def operations(workload: str, seed: int, out_dir: Path) -> list[Op]:
    """The operations of one pass, in the order the seed gives."""
    rng = random.Random(seed)
    if workload == "run-presets":
        ops = [
            Op(f"run {p}", "run", ("run", "--preset", p))
            for p in ("fig2a", "fig6n", "fig4e", "blowup_demo")
        ]
    elif workload == "sweep-motility":
        values = list(MOTILITY_VALUES)
        rng.shuffle(values)
        config = out_dir / "motility.ini"
        config.write_text(
            MOTILITY_CONFIG.format(values=" ".join(repr(v) for v in values))
        )
        ops = [
            Op("sweep motility", "sweep",
               ("sweep", "--config", str(config), "--threads", "2"))
        ]
    elif workload == "steady-eigen":
        ops = [
            Op(f"steady {p} n=4001", "steady", ("steady", "--preset", p, "--grid-n", "4001"))
            for p in ("fig2a", "fig3a")
        ]
        for p in PRESETS:
            ops.append(Op(f"steady {p}", "steady", ("steady", "--preset", p)))
            ops.append(Op(f"eigen {p}", "eigen", ("eigen", "--preset", p)))
    else:
        raise KeyError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return [
        Op(op.key, op.kind, op.argv + ("--out", str(out_dir / f"op{i:02d}")))
        for i, op in enumerate(ops)
    ]
