"""Every benchmark operation still agrees with the record made at seed.

``perfbench/run.py`` judges each pass against ``perfbench/baseline.json``
only when the benchmark runs.  This test runs each workload's operations
once (seed 0) in this process, through ``flocstat.cli.main``, reads them
with ``check.observe`` and judges them with ``check.judge_op``, as a
benchmark pass does.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import pytest

from flocstat import cli

ROOT = Path(__file__).resolve().parents[1]

# the records that fail without disagreeing with seed: the dv = 0.001 point,
# whose reproductive numbers the eigen solver cannot resolve at n = 502
FAILED = {"run-presets": [], "sweep-motility": ["sweep dv=0.001"], "steady-eigen": []}


@pytest.mark.parametrize("workload", sorted(FAILED))
def test_workload_agrees_with_seed(workload, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    check = importlib.import_module("check")
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    failed, disagreeing = [], []
    for op in workloads.operations(workload, 0, tmp_path):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            exit_code = cli.main(list(op.argv))
        out_dir = Path(op.argv[op.argv.index("--out") + 1])
        records = check.observe(op.key, op.kind, exit_code, None, stdout.getvalue(), out_dir)
        for key, is_failed, disagrees, reason in check.judge_op(op.kind, op.key, records,
                                                                baseline):
            if is_failed:
                failed.append(key)
            if disagrees:
                disagreeing.append(f"{key}: {reason}")
    assert disagreeing == []
    assert sorted(failed) == FAILED[workload]
