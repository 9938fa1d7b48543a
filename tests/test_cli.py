import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracext
from fracext.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    _cells,
    _decode_complex,
    main,
    parse_config,
)


def base_config(**overrides):
    cfg = {
        "schema": "fracext/1",
        "operator": {"kind": "laplacian", "size": 4, "spacing": 1.0,
                     "boundary": "dirichlet"},
        "sigma": 0.5,
        "family": {"kind": "semigroup", "alpha": 0.0},
        "method": "all",
        "tol": 1e-4,
        "seed": 7,
        "z_grid": [0.5, 1.0],
        "trace_grid": {"y0": 0.5, "ratio": 0.7, "count": 13, "theta": 0.0},
        "f": {"kind": "random"},
        "output": {"path": "-", "format": "csv"},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_complex_codec_round_trip():
    for z in (1.5, complex(0.25, -1.75)):
        for fmt in ("csv", "json"):
            enc = _cells(np.array([z], dtype=complex), fmt)[0]
            assert _decode_complex(enc) == complex(z)
    assert _decode_complex("1.5;-0.25") == complex(1.5, -0.25)


def test_config_parses_complex_sigma():
    cfg = parse_config(base_config(sigma={"re": 0.4, "im": 0.2}))
    assert cfg.sigma == complex(0.4, 0.2)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        parse_config({"operator": {}, "sigma": 0.5})  # missing schema
    with pytest.raises(ConfigError):
        parse_config(base_config(schema="fracext/2"))
    with pytest.raises(ConfigError):
        parse_config(base_config(tol=-1.0))


def test_sigma_band_message(tmp_path, capsys):
    path = write_config(tmp_path, base_config(sigma=1.5))
    code = main(["fracpow", "--config", path])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert "(0.02, 0.98)" in captured.err


def test_fracpow_exit_ok(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    code = main(["fracpow", "--config", path])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("method,sigma,component,value,oracle,rel_error")
    assert any(line.startswith("balakrishnan") for line in lines)
    assert any(line.startswith("spectral_oracle") for line in lines)


def test_fracpow_tolerance_failure(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tol=1e-18))
    code = main(["fracpow", "--config", path])
    capsys.readouterr()
    assert code == EXIT_NUMERICAL


def test_fracpow_imaginary_symbol(tmp_path, capsys):
    cfg = base_config(operator={"kind": "fourier", "symbol": "i_xi3",
                                "modes": [-2.0, -1.0, 1.0, 2.0]},
                      method="balakrishnan", tol=1e-5)
    path = write_config(tmp_path, cfg)
    code = main(["fracpow", "--config", path])
    capsys.readouterr()
    assert code == EXIT_OK


def test_extend_empty_grid(tmp_path, capsys):
    path = write_config(tmp_path, base_config(z_grid=[]))
    code = main(["extend", "--config", path])
    capsys.readouterr()
    assert code == EXIT_CONFIG


def test_extend_and_trace_run(tmp_path, capsys):
    path = write_config(tmp_path, base_config(method="semigroup", tol=1e-5))
    code = main(["extend", "--config", path])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("z,component,u_semigroup")
    path = write_config(tmp_path, base_config(method="both", tol=1e-3))
    code = main(["trace", "--config", path])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    header = out.splitlines()[0]
    for col in ("kind", "y", "raw_sample", "extrapolant", "final_limit",
                "oracle", "rel_error", "consistency"):
        assert col in header
    assert "neumann" in out and "quotient" in out


def test_readme_config_runs(tmp_path, capsys):
    # the JSON example of the README, verbatim, through every config command
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "readme.json"
    path.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    for command in ("fracpow", "extend", "trace"):
        code = main([command, "--config", str(path)])
        capsys.readouterr()
        assert code == EXIT_OK, command


@pytest.mark.parametrize("size, spacing", [(8, 0.5), (32, 0.228)])
def test_periodic_fracpow(tmp_path, capsys, size, spacing):
    # the zero mode of a periodic Laplacian adds exactly 0 to Balakrishnan's
    # integral in the eigenbasis
    operator = {"kind": "laplacian", "size": size, "spacing": spacing, "boundary": "periodic"}
    path = write_config(tmp_path, base_config(operator=operator, sigma=0.3, tol=1e-8))
    code = main(["fracpow", "--config", path])
    capsys.readouterr()
    assert code == EXIT_OK


def test_fracpow_balakrishnan_near_sigma_one(tmp_path, capsys):
    # at sigma 0.979 Balakrishnan's lam^{sigma-2} tail is still above its
    # cut at the window walk's end; the add-back above the window keeps
    # every component within tol, so the command exits 0
    operator = {"kind": "laplacian", "size": 8, "spacing": 1.0, "boundary": "dirichlet"}
    cfg = base_config(operator=operator, sigma=0.979, method="balakrishnan", tol=1e-10,
                      output={"path": "-", "format": "json"})
    code = main(["fracpow", "--config", write_config(tmp_path, cfg)])
    rows = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert max(r["rel_error"] for r in rows) <= 1e-12


@pytest.mark.parametrize("z", [0.1, 0.5])
def test_extend_zero_mode_small_sigma_integrated_family(tmp_path, capsys, z):
    # the periodic Laplacian's zero mode under b'' T_2 at sigma 0.05 takes
    # b's closed-form moment instead of a lane whose t^{1-sigma} tail the
    # window walk cut short: every component agrees with the Bessel-K
    # oracle, taken in eigencoordinates, within 1e-10
    from fracext.families import spectral_apply
    from fracext.operators import build_laplacian_1d, spectral_decompose
    from tests.conftest import bessel_k_solution

    operator = {"kind": "laplacian", "size": 16, "spacing": 0.05, "boundary": "periodic"}
    cfg = base_config(operator=operator, sigma=0.05, method="semigroup", seed=5, z_grid=[z],
                      family={"kind": "integrated_semigroup", "alpha": 2.0},
                      output={"path": "-", "format": "json"})
    code = main(["extend", "--config", write_config(tmp_path, cfg)])
    rows = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    A = build_laplacian_1d(16, 0.05, "periodic")
    factors = bessel_k_solution(spectral_decompose(A).eigenvalues, np.ones(16), 0.05, z)
    ref = spectral_apply(A, np.random.default_rng(5).normal(size=16), factors)
    got = np.array([_decode_complex(r["u_semigroup"]) for r in rows])
    assert np.max(np.abs(got - ref)) <= 1e-10


def test_fracpow_integrated_on_a_zero_mode(tmp_path, capsys):
    # integrated_power's tail integral gives the periodic zero mode the
    # weight's stated moment, so sigma 0.021 at alpha 1.5 meets tol 1e-8
    operator = {"kind": "laplacian", "size": 16, "spacing": 0.5, "boundary": "periodic"}
    cfg = base_config(operator=operator, sigma=0.021, method="integrated", seed=5, tol=1e-8,
                      family={"kind": "integrated_semigroup", "alpha": 1.5})
    code = main(["fracpow", "--config", write_config(tmp_path, cfg)])
    capsys.readouterr()
    assert code == EXIT_OK


def test_stiff_trace_default_grid(tmp_path, capsys):
    # without a y0 the trace grid starts at 2/sqrt(||A||) = 0.01 here
    cfg = base_config(operator={"kind": "laplacian", "size": 16, "spacing": 0.01,
                                "boundary": "dirichlet"}, tol=1e-6)
    del cfg["trace_grid"]
    code = main(["trace", "--config", write_config(tmp_path, cfg)])
    capsys.readouterr()
    assert code == EXIT_OK


def test_output_determinism(tmp_path, capsys):
    path = write_config(tmp_path, base_config(method="semigroup", tol=1e-5))
    outputs = []
    for _ in range(2):
        code = main(["extend", "--config", path])
        outputs.append(capsys.readouterr().out)
        assert code == EXIT_OK
    assert outputs[0] == outputs[1]


def test_json_output(tmp_path, capsys):
    path = write_config(tmp_path, base_config(method="semigroup", tol=1e-5))
    code = main(["extend", "--config", path, "--format", "json"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rows = json.loads(out)
    assert isinstance(rows, list) and rows
    assert set(rows[0]) >= {"z", "component", "u_semigroup"}
    z0 = rows[0]["z"]
    assert isinstance(z0, (int, float, dict))


def test_output_to_file(tmp_path, capsys):
    cfg = base_config(method="semigroup", tol=1e-5)
    out_path = tmp_path / "table.csv"
    cfg["output"] = {"path": str(out_path), "format": "csv"}
    path = write_config(tmp_path, cfg)
    code = main(["extend", "--config", path])
    capsys.readouterr()
    assert code == EXIT_OK
    assert out_path.read_text().startswith("z,component")


def test_missing_and_malformed_config(tmp_path, capsys):
    code = main(["fracpow", "--config", str(tmp_path / "nope.json")])
    capsys.readouterr()
    assert code == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["fracpow", "--config", str(bad)])
    capsys.readouterr()
    assert code == EXIT_CONFIG


def test_verify_unknown_suite(capsys):
    code = main(["verify", "--suite", "warp-drive"])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert "unknown suite" in captured.err


def test_verify_quadrature_suite(capsys):
    code = main(["verify", "--suite", "quadrature"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "pass" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("argv,name", [(["--seed", "-1"], "--seed"),
                                       (["--out", "no-such-dir/table.csv"], "--out")])
def test_bad_verify_argument_exits_2_naming_it(capsys, monkeypatch, argv, name):
    # refused before the suite runs
    monkeypatch.setattr("fracext.verify.run_suite", lambda *args: pytest.fail("suite ran"))
    code = main(["verify", "--suite", "quadrature"] + argv)
    assert code == EXIT_CONFIG
    assert name in capsys.readouterr().err


def test_threads_env_cap(tmp_path, capsys, monkeypatch):
    # FRACEXT_THREADS is no longer read: it changes neither exit code nor table
    path = write_config(tmp_path, base_config(method="semigroup", tol=1e-5))
    monkeypatch.delenv("FRACEXT_THREADS", raising=False)
    code = main(["extend", "--config", path])
    reference = capsys.readouterr().out
    assert code == EXIT_OK
    for value in ("1", "zebra"):
        monkeypatch.setenv("FRACEXT_THREADS", value)
        code = main(["extend", "--config", path])
        assert code == EXIT_OK
        assert capsys.readouterr().out == reference


def test_non_finite_f_is_config_error(tmp_path, capsys):
    cfg = base_config(method="semigroup", f=[1.0, float("nan"), 0.0, 1.0])
    code = main(["extend", "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert "f must hold finite numbers" in captured.err
    assert captured.out == ""


def test_non_finite_grids_are_config_errors(tmp_path, capsys):
    cfg = base_config(method="semigroup", z_grid=[0.5, float("nan")])
    code = main(["extend", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_CONFIG
    assert "z_grid" in capsys.readouterr().err
    cfg = base_config(trace_grid={"y0": float("inf"), "ratio": 0.7, "count": 13})
    code = main(["trace", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_CONFIG
    assert "trace_grid" in capsys.readouterr().err


def test_non_finite_operator_entry_is_config_error(tmp_path, capsys):
    cfg = base_config(method="semigroup",
                      operator={"kind": "diagonal",
                                "entries": [-1.0, float("-inf"), -2.0, -3.0]})
    code = main(["extend", "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert "operator.entries" in captured.err


_LAP = {"kind": "laplacian", "size": 4, "spacing": 1.0, "boundary": "dirichlet"}
_BAD_FIELDS = [
    # (command, config overrides, extra argv, field named in the message)
    ("fracpow", {"z_grid": 5}, [], "z_grid"),
    ("fracpow", {"trace_grid": [0.5, 0.7]}, [], "trace_grid"),
    ("fracpow", {"family": ["semigroup"]}, [], "family"),
    ("fracpow", {"operator": 3}, [], "operator"),
    ("fracpow", {"operator": dict(_LAP, size="four")}, [], "operator.size"),
    ("fracpow", {"tol": "tight"}, [], "tol"),
    ("fracpow", {"seed": "seven"}, [], "seed"),
    ("fracpow", {"f": {"kind": "random", "seed": "x"}}, [], "f.seed"),
    ("fracpow", {"family": {"kind": "integrated_semigroup", "alpha": "one"}}, [],
     "family.alpha"),
    ("fracpow", {"operator": {"kind": "fourier", "symbol": "i_xi", "modes": ["a"]}}, [],
     "operator.modes"),
    ("trace", {"trace_grid": {"theta": "flat"}}, [], "trace_grid.theta"),
    ("fracpow", {"operator": dict(_LAP, size=1)}, [], "operator.size"),
    ("fracpow", {"operator": dict(_LAP, size=100)}, [], "operator.size"),
    ("fracpow", {"operator": dict(_LAP, size=8.7)}, [], "operator.size"),
    ("fracpow", {"operator": dict(_LAP, spacing=0.0)}, [], "operator.spacing"),
    ("fracpow", {"operator": dict(_LAP, boundary="neumann")}, [], "operator.boundary"),
    ("fracpow", {"output": "table.csv"}, [], "output"),
    ("trace", {"trace_grid": {"theta": 0.8}}, [], "trace_grid.theta"),
    ("fracpow", {"operator": {"kind": "diagonal", "entries": [-1.0, 0.5]}}, [],
     "operator.entries"),
    ("fracpow", {}, ["--tol", "-1"], "--tol"),
    ("fracpow", {}, ["--tol", "nan"], "--tol"),
    ("fracpow", {"tol": float("inf")}, [], "tol"),
    ("fracpow", {}, ["--seed", "-1"], "--seed"),
    ("fracpow", {"operator": {"kind": "diagonal", "entries": [-1.0] * 65}}, [],
     "operator.entries"),
    ("fracpow", {"operator": {"kind": "fourier", "symbol": "i_xi", "modes": [1.0] * 65}}, [],
     "operator.modes"),
    ("extend", {"z_grid": [0.5, 0.0]}, [], "z_grid"),
    ("extend", {"z_grid": [-1.0]}, [], "z_grid"),
    ("extend", {"z_grid": [{"re": 0.0, "im": 1.0}]}, [], "z_grid"),
    ("extend", {"z_grid": [{"re": math.cos(0.876), "im": math.sin(0.876)}]}, [], "z_grid"),
    ("trace", {"trace_grid": {"count": 2500}}, [], "trace_grid"),
    ("trace", {"trace_grid": {"y0": 1e-320}}, [], "trace_grid"),
    ("fracpow", {"output": {"path": None, "format": "csv"}}, [], "output.path"),
    ("fracpow", {"output": {"path": 2, "format": "csv"}}, [], "output.path"),
    ("fracpow", {"output": {"path": "-", "format": "xml"}}, [], "output.format"),
    # "f:" and not "f", which "config error" already holds
    ("fracpow", {"f": ["x", 1, 2, 3]}, [], "f:"),
    ("fracpow", {"output": {"path": "no-such-dir/table.csv", "format": "csv"}}, [],
     "output.path"),
    ("fracpow", {}, ["--out", "no-such-dir/table.csv"], "--out"),
    ("fracpow", {"family": {"kind": "semigroup", "alpha": 1.5}}, [], "family.alpha"),
    ("fracpow", {"family": {"kind": "cosine", "alpha": 0.0}}, [], "family.kind"),
    ("extend", {"family": {"kind": "integrated_cosine", "alpha": 1.0}}, [], "family.kind"),
    ("fracpow", {"method": "balakrishnan", "family": {"kind": "cosine"}}, [], "family.kind"),
    # 4/h^2 is 0 in floats, or overflows
    ("fracpow", {"operator": dict(_LAP, spacing=1e-200)}, [], "operator.spacing"),
    ("fracpow", {"operator": dict(_LAP, spacing=1e160)}, [], "operator.spacing"),
    # the symbol overflows
    ("fracpow", {"operator": {"kind": "fourier", "symbol": "i_xi3", "modes": [1.0, 1e120]}}, [],
     "operator.modes"),
    ("fracpow", {"operator": {"kind": "fourier", "symbol": "minus_xi2", "modes": [1e200]}}, [],
     "operator.modes"),
    # JSON integers too large for a float
    ("fracpow", {"operator": dict(_LAP, spacing=10 ** 400)}, [], "operator.spacing"),
    ("fracpow", {"f": [10 ** 400, 1, 2, 3]}, [], "f:"),
]


@pytest.mark.parametrize("command,overrides,argv,name", _BAD_FIELDS,
                         ids=[f"{c[3]}-{i}" for i, c in enumerate(_BAD_FIELDS)])
def test_bad_config_field_exits_2_naming_it(tmp_path, capsys, command, overrides, argv, name):
    path = write_config(tmp_path, base_config(**overrides))
    code = main([command, "--config", path] + argv)
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert name in captured.err


def test_non_finite_results_exit_3(tmp_path, capsys):
    # f = 1e308 overflows every route into a table of nan: a numerical
    # failure whatever the number of methods, extend's single one included
    cfg = base_config(f=[1e308] * 4, z_grid=[0.5])
    for command, method in (("fracpow", "all"), ("extend", "semigroup"), ("trace", "all")):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([command, "--config", write_config(tmp_path, dict(cfg, method=method))])
        assert code == EXIT_NUMERICAL, command
        assert "nan" in capsys.readouterr().out


def test_arithmetic_error_exits_3(tmp_path, capsys):
    # Gamma(1e6 + 1) overflows: a numerical failure, not a traceback
    cfg = base_config(family={"kind": "integrated_semigroup", "alpha": 1e6})
    code = main(["fracpow", "--config", write_config(tmp_path, cfg)])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERICAL
    assert err.startswith("numerical failure") and "Traceback" not in err


def test_csv_and_json_tables_hold_the_same_cells(tmp_path, capsys):
    # complex cells are "re;im" in CSV and a number or {"re", "im"} in JSON;
    # every other cell is the same text in both
    cfg = base_config(sigma={"re": 0.4, "im": 0.2}, tol=1.0, z_grid=[0.5])
    for command in ("fracpow", "extend", "trace"):
        path = write_config(tmp_path, cfg)
        tables = []
        for fmt in ("csv", "json"):
            main([command, "--config", path, "--format", fmt])
            tables.append(capsys.readouterr().out)
        csv_rows = list(csv.DictReader(io.StringIO(tables[0])))
        json_rows = json.loads(tables[1])
        assert len(csv_rows) == len(json_rows) > 0
        for text_row, json_row in zip(csv_rows, json_rows):
            assert set(text_row) == set(json_row)
            for key, cell in text_row.items():
                if ";" in cell:
                    assert _decode_complex(cell) == _decode_complex(json_row[key]), key
                else:
                    assert cell == str(json_row[key]), key
        assert any(isinstance(v, dict) for v in json_rows[0].values())
        if command == "fracpow":  # rel_error is the per-cell Python abs, bit for bit
            oracle = [_decode_complex(r["oracle"]) for r in json_rows
                      if r["method"] == "spectral_oracle"]
            scale = max(float(np.linalg.norm(oracle)), 1e-300)
            for r in json_rows:
                d = _decode_complex(r["value"]) - _decode_complex(r["oracle"])
                assert r["rel_error"] == abs(d) / scale


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("z", [complex(0.6, 0.6), complex(0.6, -0.6)])
def test_extend_on_closed_sector_edge(tmp_path, capsys, alpha, z):
    # z on the edge |arg z| = pi/4, integer-order integrated family: the
    # derivatives of b stay flat at t -> 0+ along the rotated ray, for a
    # real spectrum and for a complex one, each mode on its own ray; the
    # estimate bounds the error in both
    from tests.conftest import bessel_k_solution

    f = [1.0, -0.4, 0.7]
    for eigs in ([-0.5, -1.2, -2.0], [complex(-1, 0.5), complex(-3, -2), complex(-0.2, 5)]):
        entries = [{"re": a.real, "im": a.imag} if isinstance(a, complex) else a for a in eigs]
        cfg = base_config(operator={"kind": "diagonal", "entries": entries}, sigma=0.4,
                          family={"kind": "integrated_semigroup", "alpha": alpha},
                          method="semigroup", z_grid=[{"re": z.real, "im": z.imag}], f=f,
                          output={"path": "-", "format": "json"})
        code = main(["extend", "--config", write_config(tmp_path, cfg)])
        rows = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        got = np.array([_decode_complex(r["u_semigroup"]) for r in rows])
        ref = bessel_k_solution(eigs, np.array(f), 0.4, z)
        assert np.max(np.abs(got - ref)) <= rows[0]["error_estimate"]
        # -0.2 + 5i decays below the edge only within 0.04 rad of the kernel's
        # sector, where neither factor of the weight b'' T_2 damps the other:
        # the error, 9.8e-10 relative, misses tol and stays below the estimate
        wedge = alpha == 2.0 and z.imag < 0 and isinstance(eigs[0], complex)
        assert np.linalg.norm(got - ref) <= (2e-9 if wedge else 1e-10) * np.linalg.norm(ref)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_laplacian_requests_need_no_eigensolver(tmp_path, capsys, monkeypatch, boundary):
    # 1d Laplacians carry their closed-form spectrum, so CLI requests on
    # them never reach a dense eigensolver (whose threaded BLAS spins)
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    lap = {"kind": "laplacian", "size": 8, "spacing": 1.0, "boundary": boundary}
    cfg = base_config(operator=lap, sigma=0.4, tol=1e-6,
                      family={"kind": "integrated_semigroup", "alpha": 1.0})
    for command in ("fracpow", "extend", "trace"):
        code = main([command, "--config", write_config(tmp_path, cfg)])
        captured = capsys.readouterr()
        assert code == EXIT_OK, (command, captured.err)


def test_console_entry_point(tmp_path):
    path = write_config(tmp_path, base_config(method="semigroup", tol=1e-5))
    # the child must import the same fracext, whatever the caller's PYTHONPATH
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracext.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fracext.cli", "extend", "--config", path],
        capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("z,component")
    assert proc.stderr == ""


def test_output_format_inferred_from_extension(tmp_path, capsys):
    cfg = base_config(method="semigroup", tol=1e-5)
    out_path = tmp_path / "table.json"
    cfg["output"] = {"path": str(out_path), "format": "csv"}  # extension wins
    path = write_config(tmp_path, cfg)
    code = main(["extend", "--config", path])
    capsys.readouterr()
    assert code == EXIT_OK
    rows = json.loads(out_path.read_text())
    assert isinstance(rows, list) and rows
