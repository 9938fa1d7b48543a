"""Shared fixtures and brute-force oracles for the test suite.

The oracles here are deliberately dumb (composite Simpson panels, often in
log-time), so they stay independent of the adaptive Gauss-Kronrod and
acceleration machinery they validate.
"""

import numpy as np
import pytest

from fracext.families import integrated_exponential
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


def _bessel_k_factor(mpmath, a, sigma, z):
    # 2^{1-sigma}/Gamma(sigma) w^sigma K_sigma(w), w = z sqrt(-a), in mpmath
    w, s = mpmath.mpc(complex(z)) * mpmath.sqrt(-mpmath.mpc(a)), mpmath.mpc(sigma)
    return 2 ** (1 - s) / mpmath.gamma(s) * w ** s * mpmath.besselk(s, w)


def bessel_k_solution(eigs, f, sigma, z):
    """u = 2^{1-sigma}/Gamma(sigma) (z sqrt(lam))^sigma K_sigma(z sqrt(lam)) f
    per eigenvalue -lam of a diagonal generator (complex sigma and lam too),
    and u = f on zero modes."""
    mpmath = pytest.importorskip("mpmath")
    return np.array([fk if a == 0 else complex(_bessel_k_factor(mpmath, complex(a), sigma, z)) * fk
                     for a, fk in zip(eigs, f)])


# The 2x2 Jordan block A = -I + N, N = [[0, 1], [0, 0]]: no eigenbasis, so
# every family of it takes the matrix route.  A function g of A acts as
# g(-1) + g'(-1) N.
JORDAN = [[-1.0, 1.0], [0.0, -1.0]]


def _nilpotent(f):
    return np.array([f[1], 0.0], dtype=complex)


def jordan_solution(f, sigma, z):
    """g(-1) f + g'(-1) N f, g the Bessel-K extension factor as a function of
    the eigenvalue, differentiated by mpmath."""
    mpmath = pytest.importorskip("mpmath")
    f = np.asarray(f, dtype=complex)

    def g(a):
        return _bessel_k_factor(mpmath, a, sigma, z)

    return complex(g(-1)) * f + complex(mpmath.diff(g, -1)) * _nilpotent(f)


def jordan_family(beta, t, f):
    """T_beta(t) f = E_beta f + (t E_beta - beta E_{beta+1}) N f, E_beta the
    integrated exponential at a = -1: d/da E_beta(a, t) = t E_beta - beta
    E_{beta+1}.  Needs no mpmath."""
    f = np.asarray(f, dtype=complex)
    e, e_next = integrated_exponential(-1.0, beta, t), integrated_exponential(-1.0, beta + 1, t)
    return e * f + (t * e - beta * e_next) * _nilpotent(f)


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
