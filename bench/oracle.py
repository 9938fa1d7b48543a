"""Reference values of the benchmark, computed without fracext.

* ``(-A)^sigma f`` from a numpy eigendecomposition of the dense matrix
  (the bench builds the matrix itself from the config), with eigenvalues
  of -A that are zero to rounding snapped to exactly zero.
* ``u(z)`` of the extension problem, per eigenvalue lam of -A, from the
  closed form u = 2^{1-sigma}/Gamma(sigma) (z sqrt(lam))^sigma
  K_sigma(z sqrt(lam)) (mpmath Bessel K; u = f on zero modes).
* Trace limits are converted back to ``(-A)^sigma f`` with mpmath's own
  c_sigma = 4^{-sigma} Gamma(-sigma)/Gamma(sigma).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

mpmath.mp.dps = 30

_SYMBOLS = {
    "i_xi": lambda xi: 1j * xi,
    "i_xi3": lambda xi: 1j * xi ** 3,
}


def cell(v) -> complex:
    """A number as configs and JSON tables write it: plain or {"re", "im"}."""
    if isinstance(v, dict):
        return complex(v.get("re", 0.0), v.get("im", 0.0))
    return complex(v)


def operator_spectrum(spec: dict):
    """(mu, V, V^{-1}) with -A = V diag(mu) V^{-1}, mu = eigenvalues of -A."""
    kind = spec["kind"]
    if kind == "laplacian":
        n, h = int(spec["size"]), float(spec["spacing"])
        m = np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
        if spec.get("boundary", "dirichlet") == "periodic":
            m[0, n - 1] -= 1.0
            m[n - 1, 0] -= 1.0
        mu, v = np.linalg.eigh(m / h ** 2)
        mu = np.where(np.abs(mu) <= 1e-12 * np.max(np.abs(mu)), 0.0, mu).astype(complex)
        return mu, v.astype(complex), v.T.astype(complex)
    if kind == "diagonal":
        mu = -np.array([cell(e) for e in spec["entries"]])
    elif kind == "fourier":
        sym = _SYMBOLS[spec["symbol"]]
        mu = -np.array([sym(float(x)) for x in spec["modes"]], dtype=complex)
    else:
        raise ValueError(f"no oracle for operator kind {kind!r}")
    eye = np.eye(len(mu), dtype=complex)
    return mu, eye, eye


def data_vector(config: dict, n: int) -> np.ndarray:
    spec = config["f"]
    if isinstance(spec, list):
        return np.array([cell(v) for v in spec])
    # {"kind": "random"}: the documented numpy generator of the config's seed
    rng = np.random.default_rng(int(spec.get("seed", config.get("seed", 0))))
    return rng.normal(size=n).astype(complex)


def _power(mu: complex, sigma: complex) -> complex:
    return 0j if mu == 0 else complex(mpmath.power(mpmath.mpc(mu), mpmath.mpc(sigma)))


def fractional_power(config: dict) -> np.ndarray:
    mu, v, vinv = operator_spectrum(config["operator"])
    f = data_vector(config, len(mu))
    s = cell(config["sigma"])
    return v @ (np.array([_power(m, s) for m in mu]) * (vinv @ f))


class ExtensionOracle:
    """u(z) per request, with the scalar Bessel factors memoized by value."""

    def __init__(self):
        self._cache = {}

    def factor(self, mu: complex, sigma: complex, z: complex) -> complex:
        if mu == 0:
            return 1.0 + 0j
        key = (mu, sigma, z)
        val = self._cache.get(key)
        if val is None:
            s = mpmath.mpc(sigma)
            w = mpmath.mpc(z) * mpmath.sqrt(mpmath.mpc(mu))
            val = complex(2 ** (1 - s) / mpmath.gamma(s) * w ** s * mpmath.besselk(s, w))
            self._cache[key] = val
        return val

    def values(self, config: dict, z: complex) -> np.ndarray:
        mu, v, vinv = operator_spectrum(config["operator"])
        f = data_vector(config, len(mu))
        s = cell(config["sigma"])
        return v @ (np.array([self.factor(m, s, z) for m in mu]) * (vinv @ f))


def c_sigma(sigma: complex) -> complex:
    s = mpmath.mpc(sigma)
    return complex(mpmath.power(4, -s) * mpmath.gamma(-s) / mpmath.gamma(s))


def rel_error(value, reference) -> float:
    scale = max(float(np.linalg.norm(reference)), 1e-300)
    return float(np.linalg.norm(np.asarray(value) - reference)) / scale


def digits(err: float) -> float:
    return 15.0 if err <= 1e-15 else min(15.0, -math.log10(err))
