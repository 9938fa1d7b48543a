"""Per-request CPU of two source trees, alternated request by request in one
process, and whether their outputs are identical.

A fresh benchmark worker per run can carry a bias of a few percent per
tree, which ten pairs of runs cannot tell from a small change.  Here
both trees' `fracext` packages are loaded into one process, under the
names `fracext_before` and `fracext_after`, and each request of
`bench/workloads.generate(name, seed, SECONDS)` (imported, never changed)
is sent through both `cli.main`s back to back, the side that goes first
alternating from request to request and from pass to pass.  Each request's
CPU (`time.process_time`) is the median over the passes, so the first,
cold pass counts only where it is typical.  For every workload it prints
the median over requests of the after/before CPU ratio, the same median
per request class, and how many requests gave the same exit code and
stdout bytes on both sides.

    python scripts/ab_cpu.py --before PARENT/src [--after src] [--seeds 31,51] \\
        [--workloads dispersive,spectral-shared] [--passes 3] [--out BENCH_34.json]

`--before` is the source tree compared against (for instance a
`git archive` of the parent commit); `--after` defaults to this checkout's
`src`.  `--out` writes the ratios under the key "ab_cpu" of a JSON file,
keeping its other keys (such as those `spin_probe.py --out` wrote there).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, ".."))
SECONDS = 24.0  # the benchmark's run length, which sets the cycles per seed
SIDES = ("before", "after")


def _seeds(spec: str) -> list:
    # "31", "11-20" or a comma list of either
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def load_cli(src: str, name: str):
    """The `cli` module of the `fracext` package under src, imported as the
    package `name` (its modules import each other relatively)."""
    pkg = os.path.join(os.path.abspath(src), "fracext")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def _run(cli, argv):
    out = io.StringIO()
    c0 = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception exits 1 on a console
            code = 1
    return time.process_time() - c0, code, out.getvalue()


def _ratio_median(rows) -> float:
    return statistics.median(r["cpu"]["after"] / r["cpu"]["before"] for r in rows)


def measure(clis, requests, passes: int, tmp: str) -> list:
    """One row per request: its class, each side's median CPU over the
    passes, and whether the outputs agree."""
    cpu = [{side: [] for side in SIDES} for _ in requests]
    same = [True] * len(requests)
    for p in range(passes):
        for i, req in enumerate(requests):
            path = os.path.join(tmp, f"cfg{i:04d}.json")
            if p == 0:
                with open(path, "w") as fh:
                    json.dump(req["config"], fh)
            order = SIDES if (i + p) % 2 == 0 else SIDES[::-1]
            seen = {}
            for side in order:
                t, code, text = _run(clis[side], [req["command"], "--config", path])
                cpu[i][side].append(t)
                seen[side] = (code, text)
            same[i] = same[i] and seen["before"] == seen["after"]
    return [{"cls": req["cls"], "same": same[i],
             "cpu": {side: statistics.median(cpu[i][side]) for side in SIDES}}
            for i, req in enumerate(requests)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", required=True, help="source tree compared against")
    ap.add_argument("--after", default=os.path.join(ROOT, "src"),
                    help="source tree of the change (default: this checkout's src)")
    ap.add_argument("--seeds", default="31", help="seeds, e.g. 31, 31-33 or 31,51")
    ap.add_argument("--workloads", default="dispersive,spectral-shared,spectral-fresh")
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--out", help="JSON file for the per-workload and per-class ratios")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    clis = {side: load_cli(src, f"fracext_{side}")
            for side, src in zip(SIDES, (args.before, args.after))}
    result = {"what": "median over requests of after/before CPU per request, each side's "
                      "CPU the median over passes alternated request by request in one "
                      "process", "passes": args.passes, "seeds": _seeds(args.seeds),
              "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workloads.split(","):
            rows = [row for seed in _seeds(args.seeds)
                    for row in measure(clis, workloads.generate(name, seed, SECONDS)["requests"],
                                       args.passes, tmp)]
            classes = sorted({r["cls"] for r in rows})
            entry = {"requests": len(rows), "identical": sum(r["same"] for r in rows),
                     "ratio": _ratio_median(rows),
                     "cpu_s": {side: sum(r["cpu"][side] for r in rows) for side in SIDES},
                     "class_ratio": {c: _ratio_median([r for r in rows if r["cls"] == c])
                                     for c in classes}}
            result["workloads"][name] = entry
            print(f"{name}: after/before CPU {entry['ratio']:.3f} (median of "
                  f"{entry['requests']} requests), {entry['identical']} identical outputs; "
                  f"total {entry['cpu_s']['before']:.2f} s -> {entry['cpu_s']['after']:.2f} s")
            for c, ratio in entry["class_ratio"].items():
                print(f"  {c}: {ratio:.3f}")
    if args.out:
        kept = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                kept = json.load(fh)
        with open(args.out, "w") as fh:
            json.dump(dict(kept, ab_cpu=result), fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
