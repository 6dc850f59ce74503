"""One pass of a workload, in a fresh interpreter: ``worker.py JOB.json``.

The job file lists the operations (argv for ``flocstat.cli.main``), whether
to trace or only to set up, and where to write the result.  Set-up ends once
``flocstat`` is imported and every configuration the pass uses is parsed.
Timestamps are ``time.monotonic()`` readings, which the parent compares with
its own reading taken just before it started this process.  Outputs are read
and checked only after the last operation, outside the timed region.
"""

import contextlib
import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())

    import flocstat.cli as cli

    tracer = None
    if job["trace"]:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    for op in job["ops"]:
        argv = op["argv"]
        if "--preset" in argv:
            cli.load_preset(argv[argv.index("--preset") + 1])
        else:
            cli.load_config(argv[argv.index("--config") + 1])
    t_setup = time.monotonic()
    if job["setup_only"]:
        Path(job["result"]).write_text(json.dumps({"t_setup": t_setup}))
        return 0

    from check import observe

    raw, op_s, sweep_ops = [], {}, set()
    for op in job["ops"]:
        if tracer is not None:
            span = tracer.begin_op()
            if op["kind"] == "sweep":
                sweep_ops.add(span)
        stdout, stderr = io.StringIO(), io.StringIO()
        exit_code, raised = None, None
        t_op = time.monotonic()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                exit_code = cli.main(op["argv"])
        except SystemExit as exc:  # argparse rejects its arguments this way
            exit_code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a traceback is a failed operation
            raised = f"{type(exc).__name__}: {exc}"
        op_s[op["key"]] = time.monotonic() - t_op
        if tracer is not None:
            tracer.end_op(raised is None, op["key"])
        raw.append((op, exit_code, raised, stdout.getvalue()))
    t_done = time.monotonic()

    records = {}
    for op, exit_code, raised, stdout in raw:
        out_dir = Path(op["argv"][op["argv"].index("--out") + 1])
        try:
            records[op["key"]] = observe(op["key"], op["kind"], exit_code, raised, stdout, out_dir)
        except Exception as exc:  # noqa: BLE001 - output that cannot be read is a failure
            records[op["key"]] = {op["key"]: {
                "exit": exit_code, "raised": raised, "labels": {}, "values": {},
                "error": f"unreadable output: {type(exc).__name__}: {exc}",
            }}

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "t_setup": t_setup,
        "t_done": t_done,
        "records": records,
        "op_s": op_s,
        "peak_rss_kb": max(own.ru_maxrss, kids.ru_maxrss),
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        metrics, per_op = layers.layer_metrics(tracer, sweep_ops)
        result["layers"] = metrics
        result["per_op"] = per_op
        result["missing"] = tracer.missing
        result["called"] = sorted({tracer.names[s[1]] for s in tracer.spans})
        result["raised"] = dict(Counter(tracer.names[s[1]] for s in tracer.spans if not s[6]))
        layers.dump(tracer, Path(job["spans"]))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
