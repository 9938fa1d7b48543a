"""Replay every benchmark request through two source trees and report the
requests whose exit code or stdout bytes differ, in either table format.

The requests are those of the three workloads of `bench/workloads.py`, as
`generate(name, seed, SECONDS)` draws them for each seed in a run of the
benchmark's standard length (the module is imported, never changed), and
`fracext verify --suite all --seed s` for each seed s, the only runs that
reach cosine zero modes, dense non-normal matrices and Jordan blocks.  For
each tree one child process, with that tree on PYTHONPATH, sends them all
through `fracext.cli.main` in-process, one after the other as the
benchmark worker does, and records each exit code with a hash of its
stdout.  Each request runs twice: as configured (the benchmark's JSON
tables) and with `--format csv`; each `verify` run as well with
`--format json`.

    python scripts/replay_diff.py --before PARENT/src [--after src] [--seeds 11-20]

`--before` is the source tree compared against (for instance a
`git archive` of the parent commit); `--after` defaults to this checkout's
`src`.  The two children run side by side.  Exit status 1 if any request
differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, ".."))
SECONDS = 24.0  # the benchmark's run length, which sets the cycles per seed


def _seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _child(seeds, out: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    import fracext.cli as cli

    def run(argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception:  # an escaped exception exits 1 on a console
                code = 1
        return [code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()]

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        for name in sorted(workloads.WORKLOADS):
            for seed in seeds:
                for i, req in enumerate(workloads.generate(name, seed, SECONDS)["requests"]):
                    with open(path, "w") as fh:
                        json.dump(req["config"], fh)
                    argv = [req["command"], "--config", path]
                    records.append([name, seed, i, req["cls"]]
                                   + run(argv) + run(argv + ["--format", "csv"]))
    for seed in seeds:
        argv = ["verify", "--suite", "all", "--seed", str(seed)]
        records.append(["verify", seed, 0, "verify --suite all"]
                       + run(argv) + run(argv + ["--format", "json"]))
    with open(out, "w") as fh:
        json.dump(records, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", required=True, help="source tree compared against")
    ap.add_argument("--after", default=os.path.join(ROOT, "src"),
                    help="source tree of the change (default: this checkout's src)")
    ap.add_argument("--seeds", default="11-20", help="seed or inclusive range, e.g. 11-20")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seeds = _seeds(args.seeds)
    if args.child:
        _child(seeds, args.child)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        procs, outs = [], []
        for k, src in enumerate((args.before, args.after)):
            outs.append(os.path.join(tmp, f"side{k}.json"))
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            procs.append(subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--before", src,
                 "--seeds", args.seeds, "--child", outs[-1]], env=env))
        if any(p.wait() for p in procs):
            print("a replay child failed", file=sys.stderr)
            return 2
        before, after = (json.load(open(path)) for path in outs)
    differ = 0
    for name in sorted({r[0] for r in before}):
        rows = [(b, a) for b, a in zip(before, after) if b[0] == name]
        bad = [(b, a) for b, a in rows if b[4:] != a[4:]]
        differ += len(bad)
        print(f"{name}: {len(bad)} of {len(rows)} requests differ")
        for b, a in bad:
            what = ", ".join(w for w, k in (("exit code", 4), ("stdout", 5),
                                            ("exit code (other format)", 6),
                                            ("stdout (other format)", 7)) if b[k] != a[k])
            print(f"  seed {b[1]} request {b[2]} ({b[3]}): {what} "
                  f"(exit {b[4]} -> {a[4]})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
