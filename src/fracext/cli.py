"""Command-line surface: configure an operator, run computations, emit tables.

Config files are JSON with a schema-versioned header key; output tables
are CSV (RFC 4180) or JSON arrays of row objects.  Each command returns
its table as {column: 1-d array or list}, encoded once per column (_cells).

Exit codes: 0 ok, 2 usage/config error, 3 numerical failure (a non-finite
result included).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

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
from .operators import (MAX_DIMENSION, SPACING_RANGE, LinearOperator, build_fourier_multiplier,
                        build_laplacian_1d)
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
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name}: cannot parse complex value {v!r}")


@dataclass
class ProblemConfig:
    operator: dict
    sigma: complex
    family: dict
    method: str
    z_grid: list
    trace_grid: dict
    f: object
    tol: float
    seed: int
    output: dict


def _finite(values, name: str):
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{name} must hold finite numbers")
    return values


def _number(v, name: str, ok=lambda x: True, need: str = "", integer: bool = False):
    """v as a finite float (an int if integer) for which ok holds; anything
    else, an int too large for a float included, is a ConfigError naming the field."""
    if (isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max
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
        spacing = _number(spec.get("spacing", 1.0), "operator.spacing",
                          lambda h: SPACING_RANGE[0] <= h <= SPACING_RANGE[1],
                          f" in {list(SPACING_RANGE)} (4/h^2 a finite normal float)")
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
        symbol = _SYMBOLS[name]
        modes = [_number(m, "operator.modes", lambda xi: _finite_symbol(symbol, float(xi)),
                         f" with a finite {name}") for m in _dimension_list(spec, "modes")]
        return build_fourier_multiplier(symbol, modes)
    raise ConfigError(f"unknown operator kind {kind!r}")


def _finite_symbol(symbol, xi: float) -> bool:
    try:
        return cmath.isfinite(symbol(xi))
    except OverflowError:  # a float power raises where it would overflow
        return False


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


def _problem(cfg: ProblemConfig):
    """(A, f, family) of a solve command, the family checked whichever methods run."""
    A = build_operator(cfg)
    return A, resolve_f(cfg, A.dimension), build_family(cfg, A)


def _oracle(A: LinearOperator, cfg: ProblemConfig, f):
    """(-A)^sigma f by the spectral oracle, and its norm (>= 1e-300), the rel_error scale."""
    oracle = spectral_power_oracle(A, cfg.sigma, f).value
    return oracle, max(float(np.linalg.norm(oracle)), 1e-300)


def _code(ok, *reported) -> int:
    """EXIT_OK when ok holds and every reported array is finite."""
    finite = all(np.isfinite(x).all() for x in reported)
    return EXIT_OK if ok and finite else EXIT_NUMERICAL


def _flat(vectors) -> np.ndarray:
    """The vectors end to end, as one complex column."""
    return np.concatenate([np.reshape(v, -1) for v in vectors]).astype(complex)


def _cells(column, fmt: str) -> list:
    """A column's cells: complex as "re;im" in CSV, and in JSON as a number
    when the imaginary part is 0, else {"re", "im"}; anything else as it is
    (csv writes a float by repr, as json does)."""
    if isinstance(column, list):
        return column
    if column.dtype.kind != "c":
        return column.tolist()
    pairs = zip(column.real.tolist(), column.imag.tolist())
    if fmt == "csv":
        return [f"{re!r};{im!r}" for re, im in pairs]
    return [re if im == 0.0 else {"re": re, "im": im} for re, im in pairs]


def _emit_table(table: dict, out_path: str, fmt: str):
    """Write {column: 1-d array or list} as CSV in column order, or as a JSON
    array of row objects with sorted keys."""
    rows = zip(*(_cells(column, fmt) for column in table.values()))
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(table)
        writer.writerows(rows)
        text = buf.getvalue()
    else:  # json: the config and the argument parser admit no other format
        # compact: any indent forces json's pure-Python encoder
        text = json.dumps([dict(zip(table, row)) for row in rows], sort_keys=True) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def cmd_fracpow(cfg: ProblemConfig):
    A, f, fam = _problem(cfg)
    oracle, scale = _oracle(A, cfg, f)
    methods = {}
    if cfg.method in ("balakrishnan", "all"):
        methods["balakrishnan"] = balakrishnan_power(A, cfg.sigma, f, tol=1e-9).value
    if cfg.method in ("integrated", "all"):
        methods[f"integrated(alpha={fam.alpha:g})"] = integrated_power(
            fam, cfg.sigma, f, tol=1e-9).value
    if not methods and cfg.method != "oracle":
        raise ConfigError(f"unknown fracpow method {cfg.method!r}")
    methods["spectral_oracle"] = oracle
    n, copies = A.dimension, len(methods)
    value, oracles = _flat(methods.values()), _flat([oracle] * copies)
    d = value - oracles
    rel = np.hypot(d.real, d.imag) / scale  # np.abs on complex128 can differ in the last bit
    table = {"method": np.repeat(list(methods), n), "sigma": np.full(n * copies, cfg.sigma),
             "component": np.tile(np.arange(n), copies), "value": value, "oracle": oracles,
             "rel_error": rel}
    return table, _code(rel.max() <= cfg.tol, value, oracles, rel)


_EXTEND = {  # route -> its solver at the points zs; power() is (-A)^sigma f
    "semigroup": lambda fam, s, zs, f, power: solve_semigroup_form(fam, s, zs, f, tol=1e-10),
    "regularized": lambda fam, s, zs, f, power: solve_regularized(
        fam, s, zs, f, power_input=power(), tol=1e-10),
    "fractional_data": lambda fam, s, zs, f, power: solve_fractional_data(
        fam, s, zs, f, power_input=power(), tol=1e-10),
    "cosine": lambda fam, s, zs, f, power: solve_cosine_form(
        cosine_family(fam.generator), s, zs, f, tol=1e-9),
    "cosine_fractional": lambda fam, s, zs, f, power: solve_cosine_fractional(
        cosine_family(fam.generator), s, zs, f, power_input=power(), tol=1e-9),
}


def cmd_extend(cfg: ProblemConfig):
    if not cfg.z_grid:
        raise ConfigError("extend needs a nonempty z_grid")
    for z in cfg.z_grid:
        try:
            SectorPoint(z, closed=True)
        except ValueError as exc:
            raise ConfigError(f"z_grid entry {z!r}: {exc}")
    A, f, fam = _problem(cfg)
    if cfg.method != "all" and cfg.method not in _EXTEND:
        raise ConfigError(f"unknown extend method {cfg.method!r}")
    wanted = tuple(_EXTEND) if cfg.method == "all" else (cfg.method,)
    n, zs = A.dimension, np.array(cfg.z_grid, dtype=complex)
    power = functools.cache(lambda: balakrishnan_power(A, cfg.sigma, f, tol=1e-10).value)
    evals = [_EXTEND[m](fam, cfg.sigma, zs, f, power) for m in wanted]
    values = [np.reshape(e.value, (len(zs), n)) for e in evals]
    delta = np.zeros(len(zs))
    for u, v in itertools.combinations(values, 2):
        delta = np.maximum(delta, np.abs(u - v).max(axis=1))
    table = {"z": np.repeat(zs, n), "component": np.tile(np.arange(n), len(zs))}
    for m, u in zip(wanted, values):
        table[f"u_{m}"] = _flat([u])
    estimate = np.array([e.error_estimate for e in evals], dtype=float).max(axis=0)
    table["error_estimate"] = np.repeat(estimate, n)
    table["max_pairwise_delta"] = np.repeat(delta, n)
    return table, _code(len(wanted) < 2 or delta.max() <= cfg.tol, delta, *values)


def cmd_trace(cfg: ProblemConfig):
    A, f, fam = _problem(cfg)
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
    oracle, scale = _oracle(A, cfg, f)
    which = "both" if cfg.method == "all" else cfg.method
    if which not in ("neumann", "quotient", "both"):
        raise ConfigError(f"unknown trace method {cfg.method!r}")
    kinds = ("neumann", "quotient") if which == "both" else (which,)
    estimates = boundary_traces(sol, theta=theta, grid=grid, kinds=kinds)
    ests = [estimates[kind] for kind in sorted(estimates)]  # neumann before quotient
    consistency = (np.linalg.norm(ests[1].fractional_power - ests[0].fractional_power) / scale
                   if len(ests) == 2 else math.nan)
    ys = [float(y) for y, _ in ests[0].samples]  # one grid for every kind
    n, rows, blocks = A.dimension, A.dimension * len(ys), len(ys) * len(ests)
    rel = np.array([np.linalg.norm(e.fractional_power - oracle) / scale for e in ests])
    table = {"kind": np.repeat(sorted(estimates), rows), "y": np.tile(np.repeat(ys, n), len(ests)),
             "component": np.tile(np.arange(n), blocks),
             "raw_sample": _flat(raw for e in ests for _, raw in e.samples),
             "extrapolant": _flat(v for e in ests for v in e.extrapolants),
             "final_limit": _flat(e.limit for e in ests for _ in ys),
             "oracle": _flat([oracle] * blocks), "rel_error": np.repeat(rel, rows),
             "diagnostic": np.repeat([e.diagnostic for e in ests], rows),
             "consistency": np.full(rows * len(ests), consistency)}
    reported = (table[c] for c in ("raw_sample", "extrapolant", "final_limit", "oracle"))
    return table, _code(rel.max() <= cfg.tol, rel, *reported)


def cmd_verify(suite: str, seed: int):
    try:
        results = verify_mod.run_suite(suite, seed)
    except KeyError:
        raise ConfigError(f"unknown suite {suite!r}; choose from {('all',) + verify_mod.SUITES}")
    suites, checks, passed, details = (list(c) for c in zip(*results))
    table = {"suite": suites, "check": checks,
             "status": ["pass" if p else "FAIL" for p in passed], "detail": details}
    return table, EXIT_OK if all(passed) else EXIT_NUMERICAL


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
    elif os.path.splitext(cfg.output["path"])[1].lower() in (".json", ".csv"):
        cfg.output["format"] = os.path.splitext(cfg.output["path"])[1][1:].lower()
    return cfg


# each cmd_* is looked up when it runs, so a wrapper rebound over it (a profiler's) is called
_COMMANDS = {"fracpow": lambda cfg: cmd_fracpow(cfg), "extend": lambda cfg: cmd_extend(cfg),
             "trace": lambda cfg: cmd_trace(cfg)}


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
            table, code = cmd_verify(args.suite, seed)
            _emit_table(table, args.out, args.format)
            return code
        cfg = _load_config(args)
        table, code = _COMMANDS[args.command](cfg)
        _emit_table(table, cfg.output["path"], cfg.output["format"])
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, ConvergenceError, np.linalg.LinAlgError, ValueError,
            ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
