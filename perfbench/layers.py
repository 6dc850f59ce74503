"""Spans around the calls into flocstat's layers, recorded from outside.

The package imports names directly (``from scipy.linalg import
solve_banded`` in ``pde``, ``from .steady import fixed_point_solve`` in
``cli``), so a function is wrapped where its caller looks it up: the
attribute of the calling module, not the defining one.  Each call records a
:class:`Span` in memory; its ``info`` is a small count taken from the
arguments or result after the end time is read.  Spans are written out once,
when the pass ends.

Only this process is traced.  The CLI's sweep executor uses threads, which
are covered; a change that moved work into worker processes would hide their
spans from this tracer, and the layer totals would drop accordingly.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

_clock = time.perf_counter


def _out_bytes(args, kwargs, result) -> int:
    out_dir = Path(args[0] if args else kwargs["out_dir"])
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def _steps(args, kwargs, result) -> tuple[int, int]:
    return result.steps_accepted, result.steps_rejected


def _iterations(args, kwargs, result) -> int:
    return result.iterations


def _picard(args, kwargs, result) -> tuple[int, bool]:
    return result.iterations, result.converged


def _kernel_bytes(args, kwargs, result) -> int:
    n = args[1] if len(args) > 1 else kwargs["n"]
    return 8 * n * n  # computed from the matrix shape, not measured


# (calling module, attribute, span name, info probe).  Several attributes
# may share a span name: that name is then one layer seen from several
# callers.
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("flocstat.cli", "parse_config", "cli.parse_config", None),
    ("flocstat.cli", "run_experiment", "cli.run_experiment", None),
    ("flocstat.cli", "write_outputs", "cli.write_outputs", _out_bytes),
    ("flocstat.cli", "simulate", "pde.simulate", _steps),
    ("flocstat.cli", "solve_principal", "eigen.solve_principal", _iterations),
    ("flocstat.cli", "reproductive_numbers", "diagnostics.reproductive_numbers", None),
    ("flocstat.cli", "fixed_point_solve", "steady.fixed_point_solve", _picard),
    ("flocstat.cli", "check_extinction_hypotheses", "steady.hypotheses", None),
    ("flocstat.cli", "check_coexistence_hypotheses", "steady.hypotheses", None),
    ("flocstat.pde", "solve_banded", "pde.tridiag_solve", None),
    ("flocstat.pde", "trapezoid", "pde.record_quadrature", None),
    ("flocstat.pde", "reaction_field", "model.reaction_field", None),
    ("flocstat.pde", "solve_principal", "eigen.solve_principal", _iterations),
    ("flocstat.pde", "operator_bands", "operators", None),
    ("flocstat.pde", "feed_vector", "operators", None),
    ("flocstat.diagnostics", "solve_principal", "eigen.solve_principal", _iterations),
    ("flocstat.steady", "solve_principal", "eigen.solve_principal", _iterations),
    ("flocstat.steady", "kernel_matrix", "steady.kernel_matrix", _kernel_bytes),
    ("flocstat.steady", "transport_defect", "operators", None),
    ("flocstat.eigen", "operator_bands", "operators", None),
    ("flocstat.eigen", "band_matvec", "operators", None),
)


class Tracer:
    """Wraps the layer functions and keeps their spans in memory.

    A span is ``(id, name index, start, end, parent id, thread, ok, info)``.
    Wrappers on several threads share only the id counter and the span list;
    ``next`` on an ``itertools.count`` and ``list.append`` are each one call
    into C, which the interpreter lock makes atomic.  The stack of open spans
    is per thread.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.missing: list[str] = []  # targets the program no longer defines
        self.op_span: Optional[int] = None  # the cli.main call now running
        self._op_start = 0.0
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def install(self) -> None:
        for module_name, attr, span_name, probe in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, self._name_index(span_name), probe))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn: Callable, name_id: int, probe: Optional[Callable]) -> Callable:
        ids, local, spans, get_ident = self._ids, self._local, self.spans, threading.get_ident

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            # a sweep worker thread starts with an empty stack: its parent is
            # the operation that submitted it
            parent = stack[-1] if stack else self.op_span
            span_id = next(ids)
            stack.append(span_id)
            ok = False
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = _clock()
                stack.pop()
                info = probe(args, kwargs, result) if ok and probe else None
                spans.append((span_id, name_id, start, end, parent, get_ident(), ok, info))

        return traced

    def begin_op(self) -> int:
        """Open the span of one ``cli.main`` call; layer spans nest under it."""
        self.op_span = next(self._ids)
        self._op_start = _clock()
        return self.op_span

    def end_op(self, ok: bool, label: str) -> None:
        self.spans.append((self.op_span, self._name_index("cli.main"), self._op_start,
                           _clock(), None, threading.get_ident(), ok, label))
        self.op_span = None


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Span(NamedTuple):
    id: int
    name: int  # index into Tracer.names
    start: float
    end: float
    parent: Optional[int]
    thread: int
    ok: bool
    info: object

    @property
    def seconds(self) -> float:
        return self.end - self.start


def layer_metrics(tracer: Tracer, sweep_ops: set[int]) -> tuple[dict, dict]:
    """Per-layer totals of one traced pass, and per-operation step counts.

    ``sweep_ops`` holds the span ids of the ``cli.main`` calls that ran a
    sweep; ``cli.run_experiment`` spans under them are the sweep's points.
    Times are inclusive: a layer's seconds include the layers it called.
    """
    names = tracer.names
    spans = {s.id: s for s in map(Span._make, tracer.spans)}
    by_name: dict[str, list[Span]] = {n: [] for n in names}
    for s in spans.values():
        by_name[names[s.name]].append(s)

    def total(name: str) -> float:
        return sum(s.seconds for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def info_sum(name: str, pick=lambda info: info) -> int:
        return sum(pick(s.info) for s in by_name.get(name, ()) if s.ok)

    sim = by_name.get("pde.simulate", [])
    simulate_ids = {s.id for s in sim}
    accepted = info_sum("pde.simulate", lambda info: info[0])
    attempted = accepted + info_sum("pde.simulate", lambda info: info[1])
    eig = by_name.get("eigen.solve_principal", [])
    eig_in_sim = sum(s.seconds for s in eig if s.parent in simulate_ids)
    points = [s.seconds for s in by_name.get("cli.run_experiment", ()) if s.parent in sweep_ops]
    reaction_calls = calls("model.reaction_field")

    metrics = {
        "pde.simulate.s": (total("pde.simulate"), "s"),
        "pde.step_us": (
            1e6 * (total("pde.simulate") - eig_in_sim) / attempted if attempted else 0.0, "us"),
        "pde.steps_accepted": (accepted, "count"),
        "pde.steps_rejected": (attempted - accepted, "count"),
        "pde.accept_ratio": (accepted / attempted if attempted else 0.0, "ratio"),
        "pde.tridiag_solve.s": (total("pde.tridiag_solve"), "s"),
        "pde.tridiag_solve.calls": (calls("pde.tridiag_solve"), "count"),
        "pde.record_quadrature.s": (total("pde.record_quadrature"), "s"),
        "pde.record_quadrature.calls": (calls("pde.record_quadrature"), "count"),
        "model.reaction_field.s": (total("model.reaction_field"), "s"),
        "model.reaction_field.calls": (reaction_calls, "count"),
        "model.reaction_field.us_per_call": (
            1e6 * total("model.reaction_field") / reaction_calls if reaction_calls else 0.0,
            "us"),
        "eigen.solve_principal.s": (total("eigen.solve_principal"), "s"),
        "eigen.solve_principal.calls": (len(eig), "count"),
        "eigen.solve_principal.iterations": (info_sum("eigen.solve_principal"), "count"),
        "eigen.solve_principal.failures": (sum(1 for s in eig if not s.ok), "count"),
        "steady.fixed_point_solve.s": (total("steady.fixed_point_solve"), "s"),
        "steady.fixed_point_solve.picard_iterations": (
            info_sum("steady.fixed_point_solve", lambda info: info[0]), "count"),
        "steady.fixed_point_solve.unconverged": (
            info_sum("steady.fixed_point_solve", lambda info: not info[1]), "count"),
        "steady.kernel_matrix.s": (total("steady.kernel_matrix"), "s"),
        "steady.kernel_matrix.bytes": (info_sum("steady.kernel_matrix"), "bytes"),
        "steady.hypotheses.s": (total("steady.hypotheses"), "s"),
        "diagnostics.reproductive_numbers.s": (total("diagnostics.reproductive_numbers"), "s"),
        "diagnostics.reproductive_numbers.calls": (
            calls("diagnostics.reproductive_numbers"), "count"),
        "operators.s": (total("operators"), "s"),
        "operators.calls": (calls("operators"), "count"),
        "cli.write_outputs.s": (total("cli.write_outputs"), "s"),
        "cli.write_outputs.bytes": (info_sum("cli.write_outputs"), "bytes"),
        "cli.sweep.point_s.max": (max(points, default=0.0), "s"),
        "cli.sweep.point_s.sum": (sum(points), "s"),
        "cli.parse_config.s": (total("cli.parse_config"), "s"),
    }

    # time inside each cli.main call that no layer span directly under it
    # covers, and the steps each operation's simulations took
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans.values():
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    uncovered = 0.0
    per_op = {}
    for op in by_name.get("cli.main", ()):
        uncovered += op.seconds - _union_length(children.get(op.id, []))
        steps = [s.info for s in sim if s.ok and _descends(spans, s, op.id)]
        per_op[op.info] = {
            "s": op.seconds,
            "steps_accepted": sum(a for a, _r in steps),
            "steps_rejected": sum(r for _a, r in steps),
        }
    metrics["trace.uncovered_s"] = (uncovered, "s")
    return metrics, per_op


def _descends(spans: dict[int, Span], span: Span, ancestor: int) -> bool:
    parent = span.parent
    while parent is not None:
        if parent == ancestor:
            return True
        parent = spans[parent].parent
    return False


def dump(tracer: Tracer, path: Path) -> None:
    """Write the spans as text, one line each, times in µs from the first span."""
    spans = sorted(map(Span._make, tracer.spans))
    t0 = min((s.start for s in spans), default=0.0)
    with path.open("w") as handle:
        handle.write("# names: " + " ".join(tracer.names) + "\n")
        handle.write("# id name_index start_us end_us parent_id thread ok\n")
        for s in spans:
            parent = -1 if s.parent is None else s.parent
            handle.write(
                f"{s.id} {s.name} {1e6 * (s.start - t0):.1f} {1e6 * (s.end - t0):.1f} "
                f"{parent} {s.thread} {int(s.ok)}\n"
            )
