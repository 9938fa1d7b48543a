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
`--format json`.  For each request whose JSON table differs, the oracle
error of both tables is computed as the benchmark checks it
(`bench/run.py`'s `check` against `bench/oracle.py`, imported, never
changed), and each workload's line counts how many errors rose and fell,
and gives the largest rise and the worst error of those requests on each
side.

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


def _table(store: str, digest: str) -> str:
    # a stored JSON table, named by the hash of its bytes
    return os.path.join(store, digest + ".json")


def _child(seeds, out: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    import fracext.cli as cli

    store = os.path.dirname(out)  # shared by both sides: a table is kept once

    def run(argv, keep=False):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except Exception:  # an escaped exception exits 1 on a console
                code = 1
        text = stdout.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        path = _table(store, digest)
        if keep and not os.path.exists(path):
            with open(f"{path}.{os.getpid()}", "w") as fh:
                fh.write(text)
            os.replace(f"{path}.{os.getpid()}", path)  # whole, if both sides write it
        return [code, digest]

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
                                   + run(argv, keep=True) + run(argv + ["--format", "csv"]))
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
        return _report(before, after, tmp)


def _report(before, after, store) -> int:
    """Print the differing requests of each workload, and how the oracle
    errors of those whose JSON tables differ moved; 1 if any differs."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import oracle
    import run as bench
    import workloads

    ext_oracle, streams = oracle.ExtensionOracle(), {}

    def error(request, digest):
        with open(_table(store, digest)) as fh:
            try:
                return bench.check(request, fh.read(), ext_oracle)
            except (ValueError, KeyError, TypeError, IndexError):
                return None  # no table, or one the benchmark cannot read

    differ = 0
    for name in sorted({r[0] for r in before}):
        rows = [(b, a) for b, a in zip(before, after) if b[0] == name]
        bad = [(b, a) for b, a in rows if b[4:] != a[4:]]
        differ += len(bad)
        print(f"{name}: {len(bad)} of {len(rows)} requests differ")
        moves = []
        for b, a in bad:
            what = ", ".join(w for w, k in (("exit code", 4), ("stdout", 5),
                                            ("exit code (other format)", 6),
                                            ("stdout (other format)", 7)) if b[k] != a[k])
            line = f"  seed {b[1]} request {b[2]} ({b[3]}): {what} (exit {b[4]} -> {a[4]})"
            if name != "verify" and b[5] != a[5]:
                if (name, b[1]) not in streams:
                    streams[name, b[1]] = workloads.generate(name, b[1], SECONDS)["requests"]
                request = streams[name, b[1]][b[2]]
                errs = [error(request, r[5]) for r in (b, a)]
                line += ", error " + " -> ".join("none" if e is None else f"{e:.3g}"
                                                 for e in errs)
                if None not in errs:
                    moves.append(errs)
            print(line)
        if moves:
            rises = [a - b for b, a in moves]
            print(f"{name}: oracle errors rose on {sum(m > 0 for m in rises)} and fell on "
                  f"{sum(m < 0 for m in rises)} of {len(rises)} requests; largest rise "
                  f"{max(rises + [0.0]):+.3g}; worst error of these "
                  f"{max(b for b, _ in moves):.4g} -> {max(a for _, a in moves):.4g}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
