"""What each operation produced, and whether that still agrees with seed.

An operation's result is a small record: its exit code, a traceback summary
if it raised out of ``main``, a sweep row's ``error`` column, its verdict
labels and its final numeric values.  ``baseline.json`` holds the record of
every operation as the seed commit produced it.

An operation fails when
  * it raised out of ``main`` (a traceback),
  * it returned an exit code other than 0, 2, 3 or 4,
  * its sweep row has a filled ``error`` column, or
  * it succeeded at seed (exit 0 or 4, no error) and now disagrees with its
    reference: another exit code, another label, or a value outside the
    tolerance below.
Only the last case makes the run incorrect; the others are counted as
failed operations.  An operation that failed, or exited 2 or 3, at seed and
succeeds now has nothing to be compared with and does not fail.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

OK_EXITS = (0, 2, 3, 4)

# Time-stepped values (run monitors, sweep rows) must admit an
# error-controlled dt: fig6n's final state moved by up to 4e-5 relative when
# dt_init was raised to 0.2.  Eigenvalues and steady profiles are not
# time-stepped and are held tighter.  ATOL covers values that decay to zero
# (a washed-out phase ends near 1e-11 or below).
RTOL = {"run": 1e-3, "sweep": 1e-3, "steady": 1e-6, "eigen": 1e-6}
ATOL = 1e-8

_VERDICT = re.compile(r"^verdict: (\S+)", re.M)
_EXTINCTION = re.compile(r"^(extinction\[\w+\]): all_satisfied=(\w+)", re.M)
_COEXISTENCE = re.compile(r"^coexistence: feasible=(\w+) .*binding=(\S+)", re.M)
_LAMBDA = re.compile(r"^(\w+): d=\S+ lambda=(\S+)", re.M)


def _last_row(path: Path) -> dict[str, str]:
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    return rows[-1]


def observe(key: str, kind: str, exit_code, raised, stdout: str, out_dir: Path) -> dict:
    """Result records of one operation: one record, or one per sweep point."""
    base = {"exit": exit_code, "raised": raised, "error": "", "labels": {}, "values": {}}
    if raised is not None or exit_code not in (0, 4):
        return {key: base}
    if kind == "run":
        base["labels"] = dict(verdict=_VERDICT.search(stdout).group(1))
        # the state where a blow-up is detected depends on where the step
        # that crossed the threshold landed, so only its verdict is compared
        if exit_code == 0:
            row = _last_row(out_dir / "monitors.csv")
            base["values"] = {k: float(v) for k, v in row.items() if k != "dt"}
        return {key: base}
    if kind == "sweep":
        records = {}
        with (out_dir / "summary.csv").open() as handle:
            for row in csv.DictReader(handle):
                numeric = ("t_final", "sup_S", "sup_u_1", "sup_v_1", "l1_S",
                           "l1_u_1", "l1_v_1", "R_u", "R_v")
                records[f"sweep {row['parameter']}={float(row['value'])!r}"] = {
                    **base,
                    "error": row["error"],
                    "labels": {"verdict": row["verdict"]},
                    "values": {k: float(row[k]) for k in numeric if row[k]},
                }
        return records
    if kind == "steady":
        labels = dict(_EXTINCTION.findall(stdout))
        coex = _COEXISTENCE.search(stdout)
        labels["coexistence"], labels["binding"] = coex.group(1), coex.group(2)
        with (out_dir / "steady.csv").open() as handle:
            rows = list(csv.DictReader(handle))
        values = {}
        for col in ("depletion", "S", "u", "v"):
            column = [float(r[col]) for r in rows]
            values[f"max_{col}"] = max(column)
            values[f"mean_{col}"] = math.fsum(column) / len(column)
        base["labels"], base["values"] = labels, values
        return {key: base}
    if kind == "eigen":
        base["values"] = {label: float(lam) for label, lam in _LAMBDA.findall(stdout)}
        return {key: base}
    raise ValueError(f"unknown operation kind {kind!r}")


def _succeeded(record: dict) -> bool:
    return record["raised"] is None and not record["error"] and record["exit"] in (0, 4)


def judge_op(kind: str, key: str, records: dict, baseline: dict) -> list[tuple]:
    """``(record key, failed, disagrees with seed, reason)`` per result record.

    A sweep is judged per point; when it produced no row for a point (it
    raised, or dropped the point) its op-level record stands for that point.
    """
    keys = ([k for k in baseline if k.startswith("sweep ") and k != key]
            if kind == "sweep" else [key])
    verdicts = []
    for k in keys:
        record = records.get(k) or records.get(key)
        if record is None:
            verdicts.append((k, True, _succeeded(baseline[k]), "no result"))
        else:
            verdicts.append((k, *judge(kind, record, baseline[k])))
    return verdicts


def judge(kind: str, record: dict, reference: dict) -> tuple[bool, bool, str]:
    """(failed, disagrees with seed, reason) for one result record."""
    if record["raised"] is not None:
        failed, reason = True, f"raised {record['raised']}"
    elif record["exit"] not in OK_EXITS:
        failed, reason = True, f"exit code {record['exit']}"
    elif record["error"]:
        failed, reason = True, f"sweep row error: {record['error']}"
    else:
        failed, reason = False, ""
    if not _succeeded(reference):
        return failed, False, reason
    if record["exit"] != reference["exit"]:
        return True, True, reason or f"exit {record['exit']}, seed exited {reference['exit']}"
    for name, want in reference["labels"].items():
        got = record["labels"].get(name)
        if got != want:
            return True, True, reason or f"{name} is {got!r}, seed gave {want!r}"
    rtol = RTOL[kind]
    for name, want in reference["values"].items():
        got = record["values"].get(name)
        if got is None or not abs(got - want) <= rtol * max(abs(got), abs(want)) + ATOL:
            return True, True, reason or f"{name} = {got!r}, seed gave {want!r} (rtol {rtol:g})"
    return failed, failed, reason
