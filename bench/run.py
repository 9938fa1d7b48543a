"""fracext benchmark: seeded CLI request streams, checked against an own oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The script generates the workload's
requests from the seed, measures set-up (fresh worker process start until
``fracext.cli`` is imported) several times, then has one fresh worker
process send the requests through ``fracext.cli.main`` in a closed loop
with one client.  A run is a fixed number of whole cycles of request
classes, sized so that it takes about S seconds on the box the nominal
cycle times in ``bench/workloads.py`` were measured on.  Every executed request is checked against
the oracle in ``bench/oracle.py`` (outside the timed loop).

--trace 0 prints the end-to-end metrics; --trace 1 runs the loop with the
layer tracer installed, replays the same requests untraced in another
fresh worker to measure the tracing overhead, and prints the per-layer
metrics.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it carry
the environment, the per-class breakdown and the tail percentile used.
Spans and per-request records are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
OVERRUN = 3.0  # a run slower than this many --seconds stops at the next cycle
WALL_LIMIT_S = 170.0
GROSS_ERROR = 1e-2  # an exit-0 answer this far off is wrong, not merely inaccurate

E2E_UNITS = {
    "cpu_per_solve_s": "s", "cpu_p50_s": "s", "cpu_tail_s": "s", "worst_digits": "digits",
    "solved_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _worker_env(root):
    env = dict(os.environ)
    env.pop("FRACEXT_THREADS", None)  # as users run the CLI
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Worker:
    """A fresh worker process; `ready_s` is start-to-imported wall time."""

    def __init__(self, root, job, flags, deadline):
        self.deadline = deadline
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), job] + flags
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=_worker_env(root),
                                     stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                     text=True)
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.stop()
            raise BenchError("worker did not start: " + self.proc.stderr.read()[-2000:])

    def wait(self):
        try:
            _, err = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("worker exceeded the wall limit")
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}: {err[-2000:]}")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def measure_setup(root, job, deadline):
    """Median start-to-ready time of fresh workers (the first, which may
    compile bytecode, is discarded)."""
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        w = Worker(root, job, ["--setup-only"], deadline)
        try:
            w.wait()
        finally:
            w.stop()
        if k:
            samples.append(w.ready_s)
    return statistics.median(samples), samples


def run_requests(root, job, requests, max_seconds, trace, deadline, prefix=0, cycle=1):
    os.makedirs(job, exist_ok=True)
    with open(os.path.join(job, "requests.json"), "w") as fh:
        json.dump({"max_seconds": max_seconds, "prefix": prefix, "cycle": cycle,
                   "requests": [{"command": r["command"], "config": r["config"]}
                                for r in requests]}, fh)
    w = Worker(root, job, ["--trace"] if trace else [], deadline)
    try:
        w.wait()
    finally:
        w.stop()
    with open(os.path.join(job, "results.json")) as fh:
        return json.load(fh)


# -- checking ---------------------------------------------------------------

def _vectors(rows, key_col, val_col):
    """{key cell as JSON: (key cell, vector over components)}"""
    out = {}
    for row in rows:
        key = json.dumps(row[key_col], sort_keys=True)
        vec = out.setdefault(key, (row[key_col], {}))[1]
        vec[int(row["component"])] = oracle.cell(row[val_col])
    return {k: (cell, [v[i] for i in sorted(v)]) for k, (cell, v) in out.items()}


def check(request, stdout, ext_oracle):
    """Worst relative error of every value the table reports, vs the oracle."""
    cfg = request["config"]
    rows = json.loads(stdout)
    if not rows:
        raise ValueError("empty table")
    worst = 0.0
    cmd = request["command"]
    if cmd == "fracpow":
        ref = oracle.fractional_power(cfg)
        for _, vec in _vectors(rows, "method", "value").values():
            worst = max(worst, oracle.rel_error(vec, ref))
    elif cmd == "extend":
        cols = [c for c in rows[0] if c.startswith("u_")]
        if not cols:
            raise ValueError("no solution columns")
        for col in cols:
            vecs = _vectors(rows, "z", col)
            if len(vecs) != len(cfg["z_grid"]):
                raise ValueError("z grid incomplete")
            for z, vec in vecs.values():
                worst = max(worst, oracle.rel_error(vec, ext_oracle.values(cfg, oracle.cell(z))))
    else:
        ref = oracle.fractional_power(cfg)
        s = oracle.cell(cfg["sigma"])
        c = oracle.c_sigma(s)
        factor = {"quotient": c, "neumann": 2.0 * s * c}
        for kind, vec in _vectors(rows, "kind", "final_limit").values():
            worst = max(worst, oracle.rel_error([v / factor[kind] for v in vec], ref))
    return worst


def classify(requests, records, ext_oracle):
    """Per-record outcome: ok, failed (exit != 0, no table, or over tol)."""
    out = []
    for rec in records:
        req = requests[rec["index"]]
        err, note = None, ""
        if rec["code"] == 2:
            note = "config error"  # the benchmark sent a config the CLI rejects
        elif rec["stdout"].strip():
            try:
                err = check(req, rec["stdout"], ext_oracle)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                note = f"unreadable table: {exc}"
        ok = rec["code"] == 0 and err is not None and err <= req["config"]["tol"]
        out.append({"cls": req["cls"], "code": rec["code"], "wall": rec["wall"],
                    "cpu": rec["cpu"], "error": err, "ok": ok, "note": note,
                    "stderr": rec["stderr"].strip().splitlines()[-1:] if not ok else []})
    return out


# -- metrics ----------------------------------------------------------------

def tail(values):
    """(value, percentile) of the highest whole percentile that has at least
    ten samples above it (nearest rank).  Below 20 samples no percentile at
    or above the median has ten above it, and the maximum is returned."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return xs[-1], 100
    p = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(p / 100.0 * n))
    return xs[rank - 1], p


def end_to_end(outcomes, result, setup_s):
    """End-to-end metrics, and the wall-clock figures printed beside them.

    The gated timings are process CPU seconds: on a shared host, wall time
    also carries the time other tenants hold the CPU (hypervisor steal, up
    to 13 s in a 20 s loop when the benchmark was written), which moves a
    run's wall figures by a third while its CPU figures move by a tenth.
    """
    ok = [o for o in outcomes if o["ok"]]
    timed = ok or outcomes  # nothing succeeded: time what ran rather than nothing
    cpus = [o["cpu"] for o in timed]
    walls = [o["wall"] for o in timed]
    cpu_tail, tail_p = tail(cpus)
    wall_tail, _ = tail(walls)
    metrics = {
        "cpu_per_solve_s": result["cpu"] / max(len(ok), 1),
        "cpu_p50_s": statistics.median(cpus),
        "cpu_tail_s": cpu_tail,
        "worst_digits": min((oracle.digits(o["error"]) for o in ok), default=0.0),
        "solved_ratio": len(ok) / len(outcomes),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    info = {"tail_percentile": tail_p, "latency_samples": len(timed),
            "failed_ratio": 1.0 - len(ok) / len(outcomes),
            "wall": {"solves_per_s": {"value": len(ok) / result["wall"], "unit": "1/s"},
                     "latency_p50_s": {"value": statistics.median(walls), "unit": "s"},
                     "latency_tail_s": {"value": wall_tail, "unit": "s"}}}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, info


def per_layer(trace, traced, replay):
    calls, incl, self_s, counts = (trace["calls"], trace["incl"], trace["self"],
                                   trace["counts"])

    def n(key):
        return counts.get(key, 0)

    def per(a, b):
        return a / b if b else 0.0

    def quad_self(kind):  # quadrature self time by the kind of the outermost integral
        return sum(v for k, v in trace["self_by_kind"].items() if k.endswith("|" + kind))

    m = {
        "quadrature.integrals": n("quadrature.integrals"),
        "quadrature.evals": n("quadrature.evals"),
        "quadrature.integrand_calls": n("quadrature.integrand_calls"),
        "quadrature.values_per_call": per(n("quadrature.values"),
                                          n("quadrature.integrand_calls")),
        "quadrature.self_s": quad_self("plain"),
        "quadrature.failures": n("quadrature.failures"),
        "quadrature.integrand_self_s": self_s.get("quadrature.integrand", 0.0),
        "funcalc.scalar_memo_calls": calls.get("funcalc.scalar_memo", 0),
        "funcalc.scalar_memo_hit_ratio": per(n("funcalc.scalar_memo_hits"),
                                             calls.get("funcalc.scalar_memo", 0)),
        "funcalc.scalar_memo_entries": n("funcalc.scalar_memo_entries"),
        "kernels.expr_calls": calls.get("kernels.expr", 0),
        "kernels.expr_nodes": n("kernels.expr_nodes"),
        "kernels.expr_s": self_s.get("kernels.expr", 0.0),
        "kernels.weyl_calls": calls.get("kernels.weyl", 0),
        "kernels.weyl_s": incl.get("kernels.weyl", 0.0),
        "quadrature.osc_integrals": n("quadrature.osc_integrals"),
        "quadrature.osc_evals": n("quadrature.osc_evals"),
        "quadrature.osc_self_s": quad_self("osc"),
        "quadrature.wynn_calls": calls.get("quadrature.wynn", 0),
        "quadrature.wynn_s": incl.get("quadrature.wynn", 0.0),
        "quadrature.richardson_calls": calls.get("quadrature.richardson", 0),
        "quadrature.richardson_s": incl.get("quadrature.richardson", 0.0),
        "families.integrated_exponential_calls":
            calls.get("families.integrated_exponential", 0),
        "families.integrated_exponential_s": incl.get("families.integrated_exponential", 0.0),
        "families.evaluate_calls": calls.get("families.evaluate", 0),
        "families.evaluate_s": incl.get("families.evaluate", 0.0),
        "specfun.gamma_calls": calls.get("specfun.gamma", 0),
        "specfun.incgamma_calls": calls.get("specfun.incgamma", 0),
        "specfun.s": self_s.get("specfun.gamma", 0.0) + self_s.get("specfun.incgamma", 0.0),
        "operators.decompose_calls": calls.get("operators.decompose", 0),
        "operators.decompose_s": incl.get("operators.decompose", 0.0),
        "operators.resolvent_calls": calls.get("operators.resolvent", 0),
        "operators.resolvent_s": incl.get("operators.resolvent", 0.0),
    }
    for route in ("semigroup", "regularized", "fractional_data", "cosine",
                  "cosine_fractional", "trace"):
        m[f"extension.{route}_s"] = incl.get(f"extension.{route}", 0.0)
    for name, key in (("balakrishnan", "funcalc.balakrishnan"),
                      ("integrated_power", "funcalc.integrated_power"),
                      ("pi_alpha", "funcalc.pi_alpha")):
        m[f"funcalc.{name}_s"] = incl.get(key, 0.0)
    for cmd in ("fracpow", "extend", "trace"):
        m[f"cli.{cmd}_s"] = incl.get(f"cli.{cmd}", 0.0)
    m["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
    traced_s = sum(r["wall"] for r in traced["records"])
    replay_s = sum(r["wall"] for r in replay["records"])
    m["trace.overhead_s"] = traced_s - replay_s
    m["trace.overhead_ratio"] = per(traced_s - replay_s, replay_s)
    units = {"_s": "s", "_ratio": "ratio", "_per_call": "count"}
    out = {}
    for k, v in m.items():
        unit = next((u for suf, u in units.items() if k.endswith(suf)), "count")
        if k == "specfun.s":
            unit = "s"
        out[k] = {"value": v, "unit": unit}
    return out


def reuse_ratio(requests):
    seen, reused = set(), 0
    for r in requests:
        key = workloads.setup_key(r["config"])
        reused += key in seen
        seen.add(key)
    return reused / max(len(requests), 1)


def environment(result):
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "FRACEXT_THREADS": result.get("threads_env"),
            "threads_resolved": result.get("threads_resolved"),
            "steal_s_during_loop": result.get("steal_s")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    started = time.monotonic()
    deadline = started + WALL_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracext", "cli.py")):
        raise BenchError("run from the repository root: src/fracext is missing")
    out_dir = os.path.join(root, ".bench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    job = os.path.join(out_dir, f"job-{tag}-{os.getpid()}")
    stream = workloads.generate(args.workload, args.seed, args.seconds)
    requests = stream["requests"]
    try:
        setup_s, setup_samples = measure_setup(root, job, deadline)
        result = run_requests(root, job, requests, OVERRUN * args.seconds, args.trace,
                              deadline, stream["prefix"], stream["cycle"])
        replay = None
        if args.trace:
            spans_path = os.path.join(out_dir, f"spans-{tag}.json")
            shutil.move(os.path.join(job, "spans.json"), spans_path)
            done = [requests[r["index"]] for r in result["records"]]
            replay = run_requests(root, job + "-replay", done, 1e9, False, deadline)
    finally:
        shutil.rmtree(job, ignore_errors=True)
        shutil.rmtree(job + "-replay", ignore_errors=True)

    ext_oracle = oracle.ExtensionOracle()
    outcomes = classify(requests, result["records"], ext_oracle)
    if not outcomes:
        raise BenchError("no request finished")
    executed = [requests[r["index"]] for r in result["records"]]
    reuse = reuse_ratio(executed)
    wrong = [o for o in outcomes
             if o["note"] == "config error"
             or (o["code"] == 0 and (o["error"] is None or o["error"] > GROSS_ERROR))]
    failed = sum(not o["ok"] for o in outcomes)

    by_cls = {}
    for o in outcomes:
        c = by_cls.setdefault(o["cls"], {"n": 0, "ok": 0, "walls": [], "exit": {},
                                         "worst_error": 0.0})
        c["n"] += 1
        c["ok"] += o["ok"]
        c["walls"].append(o["wall"])
        c["exit"][str(o["code"])] = c["exit"].get(str(o["code"]), 0) + 1
        if o["error"] is not None:
            c["worst_error"] = max(c["worst_error"], o["error"])
    classes = {k: {"n": v["n"], "ok": v["ok"], "exit": v["exit"],
                   "median_wall_s": statistics.median(v["walls"]),
                   "worst_error": v["worst_error"]} for k, v in sorted(by_cls.items())}

    if args.trace:
        metrics = per_layer(result["trace"], result, replay)
        info = {"trace_spans": result["trace_spans"],
                "trace_installed": result["trace_installed"]}
    else:
        metrics, info = end_to_end(outcomes, result, setup_s)
    info.update({"workload": args.workload, "why": workloads.WHY[args.workload],
                 "seed": args.seed, "seconds": args.seconds, "loop": "closed, 1 client",
                 "setup_samples_s": setup_samples, "setup_reuse_ratio": reuse,
                 "wrong": [{k: o[k] for k in ("cls", "code", "error", "note")}
                           for o in wrong],
                 "environment": environment(result), "classes": classes})
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump({"info": info, "metrics": metrics, "outcomes": outcomes}, fh, indent=1)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not wrong, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the finally blocks that stop workers


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
