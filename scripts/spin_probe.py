"""CPU, integrand calls and nodes a CLI request uses, and CPU its process
burns in the idle time after it.

A threaded BLAS call can leave OpenBLAS worker threads spinning on idle
cores after it returns; that CPU is charged to no request but the process
pays for it.  For each set-up (the three the `spectral-shared` benchmark
workload repeats: fracpow on the n = 64 Dirichlet Laplacian, trace on the
n = 8 Laplacian, the README extend config; and one `dispersive`-style
fracpow on the i xi^3 multiplier at alpha = 1; and a semigroup-form extend
on the periodic n = 16 Laplacian at alpha = 2, sigma = 0.05, whose exact
zero mode takes its row from the weight's closed-form moment), a fresh
process imports `fracext.cli` from a given source tree, runs the request
once to warm up,
and then, REPEATS times, idles, runs the request on a new seeded f and
idles for a 150 ms window.  It records the CPU inside the request, the CPU
in that window, and the integrand calls and nodes of the request's
quadratures, counted by wrapping the integrand at the outermost
`quadrature._halfline` or `quadrature._graded` entry (so a half-line
integral counts its probe, walk, rounds and add-back samples).  Each set-up runs
once with OPENBLAS_NUM_THREADS unset and once with it set to 1.

    python scripts/spin_probe.py --before PARENT/src [--after src] [--out BENCH_15.json]

`--before` is the source tree of the commit to compare against (for
instance a `git archive` of it); `--after` defaults to this checkout's
`src`.  Both sides are written to one JSON file with the medians and
maxima over the repeats.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

REPEATS = 7
WINDOW_S = 0.150
SETTLE_S = 0.4

_README = {"schema": "fracext/1",
           "operator": {"kind": "laplacian", "size": 8, "spacing": 1.0,
                        "boundary": "dirichlet"},
           "sigma": 0.5, "family": {"kind": "integrated_semigroup", "alpha": 1.0},
           "method": "all", "tol": 1e-8, "z_grid": [0.25, 1.0],
           "trace_grid": {"y0": 0.5, "ratio": 0.7, "count": 13, "theta": 0.0}}


def _laplacian(n, sigma, tol):
    return {"schema": "fracext/1",
            "operator": {"kind": "laplacian", "size": n, "spacing": 1.0},
            "sigma": sigma, "family": {"kind": "integrated_semigroup", "alpha": 1.0},
            "method": "all", "tol": tol}


_I_XI3 = {"schema": "fracext/1",
          "operator": {"kind": "fourier", "symbol": "i_xi3", "modes": [-1.3, 0.55, 1.7, -0.9]},
          "sigma": 0.45, "family": {"kind": "integrated_semigroup", "alpha": 1.0},
          "method": "all", "tol": 1e-6}

_PERIODIC_ZERO = {"schema": "fracext/1",
                  "operator": {"kind": "laplacian", "size": 16, "spacing": 0.05,
                               "boundary": "periodic"},
                  "sigma": 0.05, "family": {"kind": "integrated_semigroup", "alpha": 2.0},
                  "method": "semigroup", "tol": 1e-8, "z_grid": [0.1, 0.5]}

SETUPS = {
    "fracpow_n64": ("fracpow", _laplacian(64, 0.5, 1e-8)),
    "trace_n8": ("trace", _laplacian(8, 0.3, 1e-6)),
    "readme_extend": ("extend", _README),
    "fracpow_i_xi3": ("fracpow", _I_XI3),
    "extend_periodic_zero": ("extend", _PERIODIC_ZERO),
}


def count_integrand_calls():
    """Wrap the integrand of every outermost quadrature._halfline/_graded
    call, in every fracext module that holds those names, and return the
    running totals {"calls": ..., "nodes": ...}.  A call made from inside
    another's integrand is not outermost and is not counted."""
    import fracext.quadrature as quadrature

    totals = {"calls": 0, "nodes": 0}
    depth = [0]

    def counted(f):
        def g(t, lane):
            totals["calls"] += 1
            totals["nodes"] += t.size
            return f(t, lane)
        return g

    def wrap(entry):
        def outer(f, *args, **kwargs):
            if depth[0]:
                return entry(f, *args, **kwargs)
            depth[0] += 1
            try:
                return entry(counted(f), *args, **kwargs)
            finally:
                depth[0] -= 1
        return outer

    originals = {name: getattr(quadrature, name) for name in ("_halfline", "_graded")}
    wrapped = {name: wrap(fn) for name, fn in originals.items()}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("fracext"):
            for name, fn in originals.items():
                if getattr(module, name, None) is fn:
                    setattr(module, name, wrapped[name])
    return totals


def _child(name: str) -> dict:
    import fracext.cli as cli

    command, config = SETUPS[name]
    totals = count_integrand_calls()
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        for seed in range(REPEATS + 1):
            with open(path, "w") as fh:
                json.dump(dict(config, f={"kind": "random", "seed": seed},
                               output={"path": "-", "format": "json"}), fh)
            time.sleep(SETTLE_S)
            before = dict(totals)
            c0, t0 = time.process_time(), time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", path])
            c1, t1 = time.process_time(), time.perf_counter()
            time.sleep(WINDOW_S)
            c2 = time.process_time()
            if seed:  # the first run warms caches and is not recorded
                records.append({"code": code, "request_cpu_s": c1 - c0,
                                "request_wall_s": t1 - t0, "window_cpu_s": c2 - c1,
                                "integrand_calls": totals["calls"] - before["calls"],
                                "integrand_nodes": totals["nodes"] - before["nodes"]})
    return {"records": records}


def _summary(records) -> dict:
    out = {"exit_codes": sorted({r["code"] for r in records})}
    for key in ("request_cpu_s", "request_wall_s", "window_cpu_s", "integrand_calls",
                "integrand_nodes"):
        vals = [r[key] for r in records]
        out[key] = {"median": statistics.median(vals), "max": max(vals)}
    return out


def _run_side(src: str) -> dict:
    side = {}
    for name in SETUPS:
        side[name] = {}
        for threads in ("unset", "1"):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "FRACEXT_THREADS")}
            env["PYTHONPATH"] = os.path.abspath(src)
            if threads != "unset":
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", name],
                                  env=env, capture_output=True, text=True, check=True)
            summary = _summary(json.loads(proc.stdout.strip().splitlines()[-1])["records"])
            side[name][f"OPENBLAS_NUM_THREADS={threads}"] = summary
            print(f"{src} {name} threads={threads}: request cpu "
                  f"{summary['request_cpu_s']['median']:.4f} s, window cpu "
                  f"{summary['window_cpu_s']['median']:.4f} s "
                  f"(max {summary['window_cpu_s']['max']:.4f}), integrand calls "
                  f"{summary['integrand_calls']['median']}, nodes "
                  f"{summary['integrand_nodes']['median']}", file=sys.stderr)
    return side


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--before", help="source tree of the commit compared against")
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--after", default=os.path.normpath(os.path.join(here, "..", "src")),
                    help="source tree of the change (default: this checkout's src)")
    ap.add_argument("--out", default="BENCH_15.json")
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_child(args.child)))
        return 0
    import numpy as np

    result = {"what": "CPU, integrand calls and nodes inside one CLI request, and CPU "
                      "in the idle window after it",
              "window_s": WINDOW_S, "settle_s": SETTLE_S, "repeats": REPEATS,
              "machine": {"cpus": os.cpu_count(), "machine": platform.machine(),
                          "python": platform.python_version(), "numpy": np.__version__}}
    if args.before:
        result["before"] = _run_side(args.before)
    result["after"] = _run_side(args.after)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
