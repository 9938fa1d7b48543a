"""Complex special functions and the named constants of the extension calculus.

Everything downstream (kernels, closed-form families, boundary-trace
constants) is built on the complex gamma function, the lower incomplete
gamma, and principal-branch complex powers defined here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FracOrder",
    "NamedConstants",
    "PoleError",
    "ConvergenceError",
    "gamma",
    "lower_incomplete_gamma",
    "constants_for",
    "cpow",
    "cexpm1",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class PoleError(ValueError):
    """Gamma requested at a nonpositive integer."""


class ConvergenceError(RuntimeError):
    """An iterative special-function scheme hit its iteration cap."""


@dataclass(frozen=True)
class FracOrder:
    """Fractional order sigma with 0 < Re(sigma) < 1 (strictly).

    Real sigma is the default mode; complex sigma (nonzero imaginary part)
    is admitted with the same open-strip constraint on the real part.
    """

    sigma: complex

    def __post_init__(self):
        s = complex(self.sigma)
        if not (0.0 < s.real < 1.0):
            raise ValueError(
                f"sigma must satisfy 0 < Re(sigma) < 1 strictly, got {s}"
            )
        object.__setattr__(self, "sigma", s)

    def __complex__(self) -> complex:
        return self.sigma

    @property
    def is_half(self) -> bool:
        return abs(self.sigma - 0.5) < 1e-8


@dataclass(frozen=True)
class NamedConstants:
    """The closed-form constants attached to a fractional order.

    kappa_sigma is undefined at sigma = 1/2 (the wave-representation
    formula switches to a logarithmic kernel there) and is stored as None.
    neumann_factor = 2*sigma*c_sigma exactly, by construction.
    """

    c_sigma: complex
    d_sigma: complex
    kappa_sigma: complex | None
    neumann_factor: complex


def cpow(z, w):
    """z**w on the principal branch, arg z in (-pi, pi]."""
    z = complex(z)
    w = complex(w)
    if z == 0.0:
        if w.real > 0.0:
            return 0.0 + 0.0j
        raise ZeroDivisionError("0 raised to a power with Re <= 0")
    return cmath.exp(w * complex(math.log(abs(z)), cmath.phase(z)))


def cexpm1(w):
    """exp(w) - 1, stable for small |w|, for complex scalars or arrays."""
    w = np.asarray(w, dtype=complex)
    x = w.real
    y = w.imag
    out = np.expm1(x) * np.cos(y) - 2.0 * np.sin(0.5 * y) ** 2 + 1j * np.exp(x) * np.sin(y)
    if out.ndim == 0:
        return complex(out)
    return out


# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _lanczos(z: complex) -> complex:
    # valid for Re z >= 0.5
    acc = _LANCZOS_COEF[0]
    for k in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[k] / (z - 1.0 + k)
    w = z + _LANCZOS_G - 0.5
    return _SQRT_2PI * cpow(w, z - 0.5) * cmath.exp(-w) * acc


def gamma(x) -> complex:
    """Complex gamma function (Lanczos + reflection for Re x < 1/2)."""
    z = complex(x)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise PoleError(f"gamma pole at {z.real:g}")
    if z.real >= 0.5:
        return _lanczos(z)
    # reflection: gamma(z) = pi / (sin(pi z) * gamma(1 - z))
    return math.pi / (cmath.sin(math.pi * z) * _lanczos(1.0 - z))


def _pow(x, a):
    # x^a on the principal branch, elementwise
    return np.exp(a * np.log(x))


# The series, continued fraction and asymptotic helpers below take a 1-d
# array x and iterate every lane until all have met their own stopping
# rule; lanes that are done keep their value.


def _kummer_series(a: complex, x, tol: float, maxiter: int):
    # gamma_lower(a,x) = x^a e^{-x} sum_n x^n / (a (a+1) ... (a+n))
    term = np.full(x.shape, 1.0 / a, dtype=complex)
    total = term
    done = np.zeros(x.shape, dtype=bool)
    for n in range(1, maxiter):
        term = term * x / (a + n)
        total = np.where(done, total, total + term)
        done |= np.abs(term) <= tol * np.abs(total)
        if done.all():
            return _pow(x, a) * np.exp(-x) * total
    raise ConvergenceError("incomplete gamma series did not converge")


def _direct_series(a: complex, x, tol: float, maxiter: int):
    # gamma_lower(a,x) = x^a sum_n (-x)^n / (n! (a+n)); no cancellation for
    # x near the negative real axis.
    p = np.ones(x.shape, dtype=complex)
    total = np.full(x.shape, 1.0 / a, dtype=complex)
    ax = np.abs(x)
    done = np.zeros(x.shape, dtype=bool)
    for n in range(1, maxiter):
        p = p * (-x / n)
        term = p / (a + n)
        total = np.where(done, total, total + term)
        done |= (n > ax) & (np.abs(term) <= tol * np.abs(total))
        if done.all():
            return _pow(x, a) * total
    raise ConvergenceError("incomplete gamma direct series did not converge")


def _upper_cf_scaled(a: complex, x, tol: float, maxiter: int):
    # Modified Lentz for U with Gamma(a,x) = e^{-x} x^a U(a,x).
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full(x.shape, 1.0 / tiny, dtype=complex)
    d = 1.0 / np.where(b != 0, b, tiny)
    h = d
    done = np.zeros(x.shape, dtype=bool)
    for i in range(1, maxiter):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = np.where(d == 0, tiny, d)
        c = b + an / c
        c = np.where(c == 0, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1.0) < tol
        if done.all():
            return h
    raise ConvergenceError("incomplete gamma continued fraction did not converge")


def _upper_asymptotic_scaled(a: complex, x, tol: float):
    # U(a,x) ~ (1/x) sum_k (a-1)(a-2)...(a-k) / x^k, truncated at the
    # smallest term; adequate for |x| >~ 40.
    term = np.ones(x.shape, dtype=complex)
    total = term
    best = np.ones(x.shape)
    live = np.ones(x.shape, dtype=bool)
    for k in range(1, 80):
        term = term * (a - k) / x
        mag = np.abs(term)
        live &= mag <= best
        best = np.where(live, mag, best)
        total = np.where(live, total + term, total)
        live &= mag > tol * np.abs(total)
        if not live.any():
            break
    return total / x


def _by_regime(regimes, *arrays):
    """Evaluate each (mask, fn) on its lanes: fn gets the masked entries of
    every (equally shaped) array.  The result has the arrays' result type;
    0-d input gives a Python scalar of it."""
    shape = arrays[0].shape
    flat = [v.reshape(-1) for v in arrays]
    out = np.zeros(flat[0].shape, dtype=np.result_type(*flat))
    for mask, fn in regimes:
        mask = mask.reshape(-1)
        if mask.any():
            out[mask] = fn(*(v[mask] for v in flat))
    return out[0].item() if len(shape) == 0 else out.reshape(shape)


def _scaled_upper_u(a: complex, x, tol: float = 1e-15, maxiter: int = 10000):
    """U(a,x) with Gamma(a,x) = e^{-x} x^a U(a,x), for |x| not small."""
    x = np.asarray(x, dtype=complex)
    asym = (np.abs(x) > 45.0) & (np.abs(np.angle(x)) > 0.75 * math.pi)
    return _by_regime([
        (asym, lambda v: _upper_asymptotic_scaled(a, v, tol)),
        (~asym, lambda v: _upper_cf_scaled(a, v, tol, maxiter)),
    ], x)


def lower_incomplete_gamma(a, x, tol: float = 1e-15, maxiter: int = 10000):
    """Lower incomplete gamma gamma(a, x) for complex a (Re a > 0) and complex x.

    Regimes: Kummer series for |x| <= Re(a)+1; Lentz continued fraction for
    larger |x| with |arg x| <= 3*pi/4; near the negative real axis a direct
    series (moderate |x|) or the asymptotic expansion of Gamma(a,x).
    x may be an array; each entry takes its own regime.
    """
    a = complex(a)
    if a.real <= 0.0:
        raise ValueError(f"lower_incomplete_gamma needs Re a > 0, got a={a}")
    x = np.asarray(x, dtype=complex)
    ax = np.abs(x)
    live = x != 0.0
    series = live & (ax <= max(a.real + 1.0, 1.0))
    cf = live & ~series & (np.abs(np.angle(x)) <= 0.75 * math.pi)
    direct = live & ~series & ~cf & (ax <= 40.0)
    asym = live & ~series & ~cf & ~direct
    ga = gamma(a)
    return _by_regime([
        (series, lambda v: _kummer_series(a, v, tol, maxiter)),
        (cf, lambda v: ga - np.exp(-v) * _pow(v, a) * _scaled_upper_u(a, v, tol, maxiter)),
        (direct, lambda v: _direct_series(a, v, tol, maxiter)),
        (asym, lambda v: ga - np.exp(-v) * _pow(v, a) * _upper_asymptotic_scaled(a, v, tol)),
    ], x)


def constants_for(sigma: FracOrder) -> NamedConstants:
    """c_sigma, d_sigma, kappa_sigma and the Neumann factor for a given order.

    c_sigma = 4^{-sigma} Gamma(-sigma)/Gamma(sigma)  (< 0 for real sigma),
    d_sigma = 2 Gamma(sigma+1/2)/(sqrt(pi) Gamma(sigma)),
    kappa_sigma = 2 Gamma(1/2-sigma)/(4^sigma sqrt(pi) Gamma(sigma)),
    neumann_factor = 2 sigma c_sigma.
    """
    s = sigma.sigma
    gs = gamma(s)
    c = cpow(4.0, -s) * gamma(-s) / gs
    d = 2.0 * gamma(s + 0.5) / (math.sqrt(math.pi) * gs)
    if sigma.is_half:
        kappa = None
    else:
        kappa = 2.0 * gamma(0.5 - s) / (cpow(4.0, s) * math.sqrt(math.pi) * gs)
    return NamedConstants(
        c_sigma=c,
        d_sigma=d,
        kappa_sigma=kappa,
        neumann_factor=2.0 * s * c,
    )
