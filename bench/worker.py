"""Benchmark worker: one fresh process that imports fracext and serves requests.

Run as ``python3 bench/worker.py JOB_DIR [--setup-only] [--trace]`` with
``src`` on PYTHONPATH.  It imports ``fracext.cli``, prints ``ready`` (the
parent times process start to this line as set-up), then sends the
requests in ``JOB_DIR/requests.json`` through ``fracext.cli.main``
in-process, one after the other (a closed loop with one client), until
``seconds`` have passed or the list ends.  Per-request wall, CPU, exit
code and output go to ``JOB_DIR/results.json``; nothing is checked here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _steal_s():
    """Hypervisor steal time of the whole machine so far, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def main(argv):
    job = argv[1]
    import fracext.cli as cli

    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    with open(os.path.join(job, "requests.json")) as fh:
        spec = json.load(fh)
    paths = []
    for i, req in enumerate(spec["requests"]):
        path = os.path.join(job, f"cfg{i:04d}.json")
        with open(path, "w") as fh:
            json.dump(req["config"], fh)
        paths.append(path)

    tracer = None
    if "--trace" in argv:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    prefix, cycle = int(spec["prefix"]), int(spec["cycle"])
    records = []
    steal0 = _steal_s()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    deadline = wall0 + float(spec["max_seconds"])
    for i, req in enumerate(spec["requests"]):
        if (i - prefix) % cycle == 0 and i > prefix and time.perf_counter() >= deadline:
            break
        out, err = io.StringIO(), io.StringIO()
        argv_i = [req["command"], "--config", paths[i]]
        if tracer is not None:
            tracer.request = i
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv_i)
        except Exception:  # an escaped exception is what a console user sees as exit 1
            code = 1
            err.write(traceback.format_exc())
        t1, c1 = time.perf_counter(), time.process_time()
        records.append({"index": i, "code": code, "wall": t1 - t0, "cpu": c1 - c0,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
    wall1, cpu1 = time.perf_counter(), time.process_time()
    steal1 = _steal_s()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"records": records, "wall": wall1 - wall0, "cpu": cpu1 - cpu0,
              "peak_rss_mb": rss_kb / 1024.0,
              "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
              "threads_env": os.environ.get("FRACEXT_THREADS"),
              "threads_resolved": cli._threads() if hasattr(cli, "_threads") else None}
    if tracer is not None:
        totals, spans = tracer.finish()
        result["trace"] = totals
        result["trace_installed"] = len(tracer.installed)
        result["trace_spans"] = len(spans)
        tracer.write_spans(spans, os.path.join(job, "spans.json"))
    with open(os.path.join(job, "results.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
