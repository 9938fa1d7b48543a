"""Shared fixtures and brute-force oracles for the test suite.

The oracles here are deliberately dumb (composite Simpson panels, often in
log-time), so they stay independent of the adaptive Gauss-Kronrod and
acceleration machinery they validate.
"""

import cmath

import numpy as np
import pytest

from fracext.operators import (
    LinearOperator,
    build_fourier_multiplier,
    build_laplacian_1d,
)


def simpson(f, a, b, n=200001):
    x = np.linspace(a, b, n)
    vals = np.asarray(f(x), dtype=complex)
    h = (b - a) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4
    w[2:-2:2] = 2
    return complex(h / 3 * np.sum(w * vals))


def simpson_log(f, u_lo, u_hi, n=200001):
    """Brute-force integral over (0, inf) through t = e^u panels."""
    return simpson(lambda u: np.asarray(f(np.exp(u))) * np.exp(u), u_lo, u_hi, n)


def bessel_k_solution(eigs, f, sigma, z):
    """u = 2^{1-sigma}/Gamma(sigma) (z sqrt(lam))^sigma K_sigma(z sqrt(lam)) f
    per eigenvalue -lam of a diagonal generator (complex sigma and lam too),
    and u = f on zero modes."""
    mpmath = pytest.importorskip("mpmath")
    out = []
    for a, fk in zip(eigs, f):
        if a == 0:
            out.append(fk)
            continue
        w, s = mpmath.mpc(complex(z) * cmath.sqrt(-complex(a))), mpmath.mpc(sigma)
        out.append(complex(2 ** (1 - s) / mpmath.gamma(s) * w ** s * mpmath.besselk(s, w)) * fk)
    return np.array(out)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240814)


@pytest.fixture(scope="session")
def scalar_op():
    return LinearOperator("diagonal", [-1.0])


@pytest.fixture(scope="session")
def laplacian3():
    return build_laplacian_1d(3, 1.0, "dirichlet")


@pytest.fixture(scope="session")
def laplacian8():
    return build_laplacian_1d(8, 1.0, "dirichlet")


@pytest.fixture(scope="session")
def imag_multiplier():
    # symbol i xi^3 on the modes {-2, -1, 1, 2}
    return build_fourier_multiplier(lambda xi: 1j * xi ** 3, [-2.0, -1.0, 1.0, 2.0])


@pytest.fixture(scope="session")
def f8():
    return np.random.default_rng(88).normal(size=8)


@pytest.fixture(scope="session")
def f3():
    return np.random.default_rng(33).normal(size=3)


@pytest.fixture(scope="session")
def f4():
    return np.random.default_rng(44).normal(size=4)
