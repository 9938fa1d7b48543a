"""Command-line surface: configure an operator, run computations, emit tables.

Config files are JSON with a schema-versioned header key; output tables
are CSV (RFC 4180) or JSON arrays of row objects.  Complex numbers are
serialized as {"re": x, "im": y} in JSON and "re;im" cells in CSV.

Exit codes: 0 ok, 2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import verify as verify_mod
from .extension import (
    SIGMA_BAND,
    ExtensionSolver,
    boundary_traces,
    solve_cosine_form,
    solve_cosine_fractional,
    solve_fractional_data,
    solve_regularized,
    solve_semigroup_form,
    trace_grid,
)
from .families import cosine_family, heat_semigroup, integrate_family
from .funcalc import balakrishnan_power, integrated_power, spectral_power_oracle
from .kernels import SectorPoint
from .operators import MAX_DIMENSION, LinearOperator, build_fourier_multiplier, build_laplacian_1d
from .quadrature import QuadratureError
from .specfun import ConvergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SCHEMA = "fracext/1"

_SYMBOLS = {
    "i_xi": lambda xi: 1j * xi,
    "i_xi3": lambda xi: 1j * xi ** 3,
    "minus_xi2": lambda xi: -xi ** 2,
}


class ConfigError(ValueError):
    pass


def _decode_complex(v, name: str = "value") -> complex:
    try:
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return complex(v)
        if isinstance(v, dict) and set(v) <= {"re", "im"}:
            return complex(float(v.get("re", 0.0)), float(v.get("im", 0.0)))
        if isinstance(v, str) and ";" in v:
            re_s, im_s = v.split(";", 1)
            return complex(float(re_s), float(im_s))
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name}: cannot parse complex value {v!r}")


def _encode_complex(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return {"re": z.real, "im": z.imag}


@dataclass
class ProblemConfig:
    operator: dict
    sigma: complex
    family: dict = field(default_factory=lambda: {"kind": "semigroup", "alpha": 0.0})
    method: str = "all"
    z_grid: list = field(default_factory=list)
    trace_grid: dict = field(default_factory=dict)
    f: object = None
    tol: float = 1e-6
    seed: int = 0
    output: dict = field(default_factory=lambda: {"path": "-", "format": "csv"})


def _finite(values, name: str):
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{name} must hold finite numbers")
    return values


def _number(v, name: str, ok=lambda x: True, need: str = "", integer: bool = False):
    """v as a finite float (an int if integer) for which ok holds; anything
    else is a ConfigError naming the field."""
    if (isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
            or (integer and v != int(v)) or not ok(v)):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a finite number'}"
                          f"{need}, got {v!r}")
    return int(v) if integer else float(v)


def _typed(data: dict, key: str, default, kind: type, name: str):
    value = data.get(key, default)
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be a JSON {'object' if kind is dict else 'list'}")
    return kind(value)


def parse_config(data: dict) -> ProblemConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if data.get("schema") != SCHEMA:
        raise ConfigError(f"config schema must be {SCHEMA!r}, got {data.get('schema')!r}")
    if "operator" not in data or "sigma" not in data:
        raise ConfigError("config needs 'operator' and 'sigma'")
    sigma = _decode_complex(data["sigma"], "sigma")
    if not (SIGMA_BAND[0] < sigma.real < SIGMA_BAND[1]):
        raise ConfigError(
            f"Re(sigma) = {sigma.real:g} outside the supported band "
            f"({SIGMA_BAND[0]}, {SIGMA_BAND[1]})"
        )
    z_grid = _typed(data, "z_grid", [], list, "z_grid")
    output = {"path": "-", "format": "csv", **_typed(data, "output", {}, dict, "output")}
    if not (isinstance(output["path"], str) and output["path"]):
        raise ConfigError(f"output.path must be a nonempty string, got {output['path']!r}")
    if output["format"] not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {output['format']!r}")
    return ProblemConfig(
        operator=_typed(data, "operator", None, dict, "operator"),
        sigma=sigma,
        family=_typed(data, "family", {"kind": "semigroup", "alpha": 0.0}, dict, "family"),
        method=str(data.get("method", "all")),
        z_grid=_finite([_decode_complex(z, "z_grid") for z in z_grid], "z_grid"),
        trace_grid=_typed(data, "trace_grid", {}, dict, "trace_grid"),
        f=data.get("f"),
        tol=_number(data.get("tol", 1e-6), "tol", lambda x: x > 0, " > 0"),
        seed=_number(data.get("seed", 0), "seed", lambda x: x >= 0, " >= 0", integer=True),
        output=output,
    )


def _dimension_list(spec: dict, key: str) -> list:
    """operator.<key>: a list of 1 to MAX_DIMENSION entries, one per dimension."""
    items = _typed(spec, key, [], list, f"operator.{key}")
    if not 1 <= len(items) <= MAX_DIMENSION:
        raise ConfigError(f"operator.{key} needs 1 to {MAX_DIMENSION} entries, got {len(items)}")
    return items


def build_operator(cfg: ProblemConfig) -> LinearOperator:
    spec = cfg.operator
    kind = spec.get("kind")
    if kind == "laplacian":
        size = _number(spec.get("size", 8), "operator.size", lambda n: 2 <= n <= MAX_DIMENSION,
                       f" in [2, {MAX_DIMENSION}]", integer=True)
        spacing = _number(spec.get("spacing", 1.0), "operator.spacing", lambda h: h > 0, " > 0")
        boundary = spec.get("boundary", "dirichlet")
        if boundary not in ("dirichlet", "periodic"):
            raise ConfigError(f"unknown operator.boundary {boundary!r}")
        return build_laplacian_1d(size, spacing, boundary)
    if kind == "diagonal":
        items = _dimension_list(spec, "entries")
        entries = _finite(np.array([_decode_complex(v, "operator.entries") for v in items]),
                          "operator.entries")
        if np.any(entries.real > 1e-12 * max(float(np.max(np.abs(entries))), 1.0)):
            raise ConfigError("operator.entries must have real part <= 0 (tempered generator)")
        return LinearOperator("diagonal", entries)
    if kind == "fourier":
        name = spec.get("symbol")
        if name not in _SYMBOLS:
            raise ConfigError(f"unknown symbol {name!r}; choose from {sorted(_SYMBOLS)}")
        modes = [_number(m, "operator.modes") for m in _dimension_list(spec, "modes")]
        return build_fourier_multiplier(_SYMBOLS[name], modes)
    raise ConfigError(f"unknown operator kind {kind!r}")


def build_family(cfg: ProblemConfig, A: LinearOperator):
    """The heat semigroup of A (kind 'semigroup', alpha 0) or its alpha-times
    integrated family (kind 'integrated_semigroup', alpha > 0)."""
    kind = cfg.family.get("kind", "semigroup")
    if kind not in ("semigroup", "integrated_semigroup"):
        raise ConfigError(f"unknown family.kind {kind!r}; choose 'semigroup' or "
                          "'integrated_semigroup'")
    integrated = kind == "integrated_semigroup"
    alpha = _number(cfg.family.get("alpha", 0.0), "family.alpha",
                    (lambda a: a > 0) if integrated else (lambda a: a == 0),
                    f" {'> 0' if integrated else 'equal to 0'} for kind {kind!r}")
    return integrate_family(heat_semigroup(A), alpha) if integrated else heat_semigroup(A)


def resolve_f(cfg: ProblemConfig, n: int) -> np.ndarray:
    spec = cfg.f
    if spec is None:
        return np.ones(n)
    if isinstance(spec, list):
        vec = _finite(np.array([_decode_complex(v, "f") for v in spec]), "f")
        if vec.shape[0] != n:
            raise ConfigError(f"f has length {vec.shape[0]}, operator dimension is {n}")
        return vec
    if isinstance(spec, dict) and spec.get("kind") == "random":
        rng = np.random.default_rng(_number(spec.get("seed", cfg.seed), "f.seed",
                                            lambda x: x >= 0, " >= 0", integer=True))
        return rng.normal(size=n)
    raise ConfigError(f"cannot parse data vector spec {spec!r}")


def _cell(v, fmt: str):
    """A table cell: CSV text, or a JSON value."""
    if isinstance(v, (complex, np.complexfloating)) and not isinstance(v, float):
        v = complex(v)
        return f"{v.real!r};{v.imag!r}" if fmt == "csv" else _encode_complex(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v)) if fmt == "csv" else float(v)
    v = int(v) if isinstance(v, np.integer) else v
    return str(v) if fmt == "csv" else v


def _emit_table(rows, columns, out_path: str, fmt: str):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v, fmt) for v in row])
        text = buf.getvalue()
    else:  # json: the config and the argument parser admit no other format
        payload = [{key: _cell(v, fmt) for key, v in zip(columns, row)} for row in rows]
        # compact: any indent forces json's pure-Python encoder
        text = json.dumps(payload, sort_keys=True) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def cmd_fracpow(cfg: ProblemConfig):
    A = build_operator(cfg)
    f = resolve_f(cfg, A.dimension)
    fam = build_family(cfg, A)  # checked whichever methods run
    oracle = spectral_power_oracle(A, cfg.sigma, f).value
    scale = max(float(np.linalg.norm(oracle)), 1e-300)
    methods = []
    if cfg.method in ("balakrishnan", "all"):
        methods.append(("balakrishnan",
                        balakrishnan_power(A, cfg.sigma, f, tol=1e-9).value))
    if cfg.method in ("integrated", "all"):
        methods.append((f"integrated(alpha={fam.alpha:g})",
                        integrated_power(fam, cfg.sigma, f, tol=1e-9).value))
    if not methods and cfg.method != "oracle":
        raise ConfigError(f"unknown fracpow method {cfg.method!r}")
    methods.append(("spectral_oracle", oracle))
    rows = []
    worst = 0.0
    for name, val in methods:
        for k in range(A.dimension):
            err = abs(val[k] - oracle[k]) / scale
            worst = max(worst, err)
            rows.append([name, cfg.sigma, k, complex(val[k]), complex(oracle[k]), err])
    columns = ["method", "sigma", "component", "value", "oracle", "rel_error"]
    code = EXIT_OK if worst <= cfg.tol else EXIT_NUMERICAL
    return rows, columns, code


_EXTEND_METHODS = ("semigroup", "regularized", "fractional_data",
                   "cosine", "cosine_fractional")


def _extend_at(cfg, A, fam, f, zs, power, wanted):
    """{method: ExtensionEvaluation} at every point of zs, one solver call
    per method; power is (-A)^sigma f or None."""
    evals = {}
    for m in wanted:
        if m == "semigroup":
            evals[m] = solve_semigroup_form(fam, cfg.sigma, zs, f, tol=1e-10)
        elif m == "regularized":
            evals[m] = solve_regularized(fam, cfg.sigma, zs, f, power_input=power, tol=1e-10)
        elif m == "fractional_data":
            evals[m] = solve_fractional_data(fam, cfg.sigma, zs, f,
                                             power_input=power, tol=1e-10)
        elif m == "cosine":
            evals[m] = solve_cosine_form(cosine_family(A), cfg.sigma, zs, f, tol=1e-9)
        elif m == "cosine_fractional":
            evals[m] = solve_cosine_fractional(cosine_family(A), cfg.sigma, zs, f,
                                               power_input=power, tol=1e-9)
        else:
            raise ConfigError(f"unknown extend method {m!r}")
    return evals


def cmd_extend(cfg: ProblemConfig):
    if not cfg.z_grid:
        raise ConfigError("extend needs a nonempty z_grid")
    for z in cfg.z_grid:
        try:
            SectorPoint(z, closed=True)
        except ValueError as exc:
            raise ConfigError(f"z_grid entry {z!r}: {exc}")
    A = build_operator(cfg)
    f = resolve_f(cfg, A.dimension)
    fam = build_family(cfg, A)
    wanted = _EXTEND_METHODS if cfg.method == "all" else (cfg.method,)
    columns = (["z", "component"] + [f"u_{m}" for m in wanted]
               + ["error_estimate", "max_pairwise_delta"])
    power = None
    if any(m in ("regularized", "fractional_data", "cosine_fractional") for m in wanted):
        power = balakrishnan_power(A, cfg.sigma, f, tol=1e-10).value
    evals = _extend_at(cfg, A, fam, f, np.array(cfg.z_grid, dtype=complex), power, wanted)
    rows = []
    worst = 0.0
    for i, z in enumerate(cfg.z_grid):
        arr = [evals[m].value[i] for m in wanted]
        estimate = max(float(evals[m].error_estimate[i]) for m in wanted)
        delta = max((float(np.max(np.abs(u - v))) for u, v in itertools.combinations(arr, 2)),
                    default=0.0)
        worst = max(worst, delta)
        for k in range(A.dimension):
            rows.append([complex(z), k] + [complex(v[k]) for v in arr]
                        + [estimate, delta])
    code = EXIT_OK if (len(wanted) < 2 or worst <= cfg.tol) else EXIT_NUMERICAL
    return rows, columns, code


def cmd_trace(cfg: ProblemConfig):
    A = build_operator(cfg)
    f = resolve_f(cfg, A.dimension)
    fam = build_family(cfg, A)
    gspec = cfg.trace_grid
    theta = _number(gspec.get("theta", 0.0), "trace_grid.theta",
                    lambda x: abs(x) < math.pi / 4.0, " with |theta| < pi/4")
    shape = {k: _number(gspec[k], f"trace_grid.{k}", integer=k == "count")
             for k in ("y0", "ratio", "count") if k in gspec}
    try:
        grid = trace_grid(A, **shape)  # y0 defaults to the operator's scale
    except ValueError as exc:
        raise ConfigError(f"bad trace_grid {gspec!r}: {exc}")
    sol = ExtensionSolver(fam, cfg.sigma, f, tol=1e-11)
    oracle = spectral_power_oracle(A, cfg.sigma, f).value
    scale = max(float(np.linalg.norm(oracle)), 1e-300)
    which = "both" if cfg.method == "all" else cfg.method
    if which not in ("neumann", "quotient", "both"):
        raise ConfigError(f"unknown trace method {cfg.method!r}")
    kinds = ("neumann", "quotient") if which == "both" else (which,)
    estimates = boundary_traces(sol, theta=theta, grid=grid, kinds=kinds)
    consistency = math.nan
    if len(estimates) == 2:
        consistency = float(np.linalg.norm(
            estimates["quotient"].fractional_power
            - estimates["neumann"].fractional_power) / scale)
    rows = []
    worst = 0.0
    for kind, est in sorted(estimates.items()):
        rel = float(np.linalg.norm(est.fractional_power - oracle) / scale)
        worst = max(worst, rel)
        for (y, raw), running in zip(est.samples, est.extrapolants):
            raw = np.asarray(raw).reshape(-1)
            for k in range(A.dimension):
                rows.append([kind, float(y), k, complex(raw[k]),
                             complex(running[k]), complex(est.limit[k]),
                             complex(oracle[k]), rel, est.diagnostic, consistency])
    columns = ["kind", "y", "component", "raw_sample", "extrapolant",
               "final_limit", "oracle", "rel_error", "diagnostic", "consistency"]
    code = EXIT_OK if worst <= cfg.tol else EXIT_NUMERICAL
    return rows, columns, code


def cmd_verify(suite: str, seed: int):
    try:
        results = verify_mod.run_suite(suite, seed)
    except KeyError:
        raise ConfigError(
            f"unknown suite {suite!r}; choose from {('all',) + verify_mod.SUITES}"
        )
    rows = [[name, check, "pass" if passed else "FAIL", detail]
            for name, check, passed, detail in results]
    ok = all(passed for _, _, passed, _ in results)
    columns = ["suite", "check", "status", "detail"]
    return rows, columns, EXIT_OK if ok else EXIT_NUMERICAL


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracext",
        description="Fractional operator powers via extension-problem representations")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("fracpow", "compute (-A)^sigma f by the configured methods"),
        ("extend", "evaluate the extension solution u(z) on a z grid"),
        ("trace", "extract boundary traces recovering (-A)^sigma f"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output path or '-' for stdout")
        p.add_argument("--format", default=None, choices=("csv", "json"))
        p.add_argument("--tol", type=float, default=None, help="override config tol")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    v = sub.add_parser("verify", help="run a named invariant suite")
    v.add_argument("--suite", required=True)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default="-")
    v.add_argument("--format", default="csv", choices=("csv", "json"))
    return ap


def _writable(path: str, name: str):
    """Refuse, before any solve, an output path that cannot be written."""
    folder = os.path.dirname(path) or "."
    if path != "-" and (os.path.isdir(path) or not os.access(folder, os.W_OK)):
        raise ConfigError(f"{name}: cannot write {path!r}")


def _load_config(args) -> ProblemConfig:
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    cfg = parse_config(data)
    if args.tol is not None:
        cfg.tol = _number(args.tol, "--tol", lambda x: x > 0, " > 0")
    if args.seed is not None:
        cfg.seed = _number(args.seed, "--seed", lambda x: x >= 0, " >= 0", integer=True)
    if args.out is not None:
        cfg.output["path"] = args.out
    _writable(cfg.output["path"], "output.path" if args.out is None else "--out")
    if args.format is not None:
        cfg.output["format"] = args.format
    return cfg


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "verify":
            seed = _number(args.seed, "--seed", lambda x: x >= 0, " >= 0", integer=True)
            _writable(args.out, "--out")
            rows, columns, code = cmd_verify(args.suite, seed)
            _emit_table(rows, columns, args.out, args.format)
            return code
        cfg = _load_config(args)
        if args.command == "fracpow":
            rows, columns, code = cmd_fracpow(cfg)
        elif args.command == "extend":
            rows, columns, code = cmd_extend(cfg)
        else:
            rows, columns, code = cmd_trace(cfg)
        fmt = cfg.output["format"]
        ext = os.path.splitext(cfg.output["path"])[1].lower()
        if ext in (".json", ".csv") and args.format is None:
            fmt = ext[1:]
        _emit_table(rows, columns, cfg.output["path"], fmt)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, ConvergenceError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
