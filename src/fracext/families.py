"""Semigroup and cosine-family engines with their defining-identity verifiers.

A family T_alpha(t) of temperedness order alpha evaluates t -> T_alpha(t) f.
A family (kind, alpha, generator) is a "semigroup" or a "cosine" integrated
alpha times, on a route fixed when it is built.  A generator with an
eigenbasis makes a spectral family: T_alpha(t) scales each eigenvector by
family_factor(kind, alpha, a, t) at its eigenvalue a, as snapped by
operators.spectral_decompose, from the closed form t^alpha sum_n (a t)^n /
Gamma(alpha+n+1) of the alpha-fold integral of e^{a s}, for all eigenvalues
and times at once.  Without one (semigroups only), T_m(t) f = t^m phi_m(tA) f
is one augmented matrix exponential per time, and a fractional order
integrates it once more.

The dtype follows the data: at an integer order, real rates a at real
finite times t give float64 factors, by the same formulas as complex ones;
a fractional order, a complex a or t, and t = inf give complex128.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (DefectiveOperatorError, LinearOperator, apply, resolvent_solve,
                        spectral_decompose)
from .quadrature import _graded, integrate_halfline, integrate_interval
from .specfun import (ConvergenceError, _by_regime, _pow, _scaled_upper_u, cpow, gamma,
                      lower_incomplete_gamma)

__all__ = [
    "OperatorFamily",
    "GrowthProfile",
    "heat_semigroup",
    "cosine_family",
    "integrated_cosine",
    "integrate_family",
    "integrated_exponential",
    "cosine_to_semigroup",
    "verify_resolvent",
    "integra_identity_residual",
    "measure_growth",
    "temperedness_profile",
]

_MATRIX_TOL = 1e-12  # of the matrix route's one graded integral at fractional order


def _coords(inv, f):
    # einsum, not matmul: see the operators module on threaded BLAS
    return np.einsum("ij,j->i", inv, np.asarray(f, dtype=complex).reshape(-1))


def spectral_apply(op, f, vals):
    """V diag(vals) V^{-1} f for the eigenbasis V of op.  The eigenvalue axis
    of vals comes last; leading axes give leading axes of the result."""
    dec = spectral_decompose(op)
    return np.einsum("...j,ij->...i", vals * _coords(dec.inverse_basis, f), dec.basis)


def spectral_error(op, f, err: float) -> float:
    """Max-norm error bound of spectral_apply(op, f, vals) when no entry of
    vals is off by more than err: err ||V||_inf ||V^{-1} f||_inf."""
    dec = spectral_decompose(op)
    return err * float(np.abs(dec.basis).sum(axis=1).max()
                       * np.abs(_coords(dec.inverse_basis, f)).max())


def _series_sum(alpha: float, x):
    # sum_n x^n / Gamma(alpha+n+1) for |x| <= 12 at fractional alpha, each
    # lane summed up to the first term n > |x| below 1e-17 of its partial sum
    n = np.arange(1, min(400, 64 + int(2.0 * np.max(np.abs(x), initial=0.0))))
    first = 1.0 / gamma(alpha + 1.0)
    terms = np.cumprod(x[:, None] / (alpha + n), axis=1) * first
    partial = first + np.cumsum(terms, axis=1)
    stop = (np.abs(terms) <= 1e-17 * np.abs(partial)) & (n > np.abs(x)[:, None])
    if not stop.any(axis=1).all():
        raise ConvergenceError("integrated exponential series stalled")
    return partial[np.arange(x.size), np.argmax(stop, axis=1)]


@functools.lru_cache(maxsize=64)
def _phi_taylor(m: int):
    """(radius r, coefficients 1/(n+m)! for n = N..0) of phi_m near zero.

    Past r the recurrence of _phi_far loses at most a factor e^r m! / r^m
    to cancellation, under 20 for m <= 60 (e^x has nothing to cancel at
    m = 0); within it the dropped tail is below 1e-17 of the leading term.
    """
    radius = 0.0 if m == 0 else max(1.0, m - 2.0)
    coef = [1.0 / math.factorial(m)]
    while radius ** len(coef) * coef[-1] / (m + len(coef)) > 1e-17 * coef[0]:
        coef.append(coef[-1] / (m + len(coef)))
    return radius, tuple(coef[::-1])


def _phi_far(m: int, x):
    # phi_{k+1} = (phi_k - 1/k!) / x from phi_1 = expm1(x) / x
    if m == 0:
        return np.exp(x)
    phi = np.expm1(x) / x
    for k in range(1, m):
        phi = (phi - 1.0 / math.factorial(k)) / x
    return phi


def _times_power(t, m: int, phi):
    """t^m phi.  Where t^m overflows at real t (only past |t| = 1e150), the
    factors of t multiply in one at a time, real and imaginary parts apart,
    so a finite product stays finite and an overflowing one becomes inf
    rather than NaN."""
    if m < 2 or not np.abs(t).max(initial=0.0) > 1e150:
        return t ** m * phi
    with np.errstate(over="ignore", invalid="ignore"):
        tm = t ** m
        out = tm * phi
        big = ~np.isfinite(tm) & (t.imag == 0.0)
        if big.any():
            s = t[big].real
            for part in (np.real, np.imag) if np.iscomplexobj(out) else (np.real,):
                v = part(phi)[big]
                for _ in range(m):
                    v = v * s
                part(out)[big] = v
    return out


def integrated_exponential(a, alpha: float, t):
    """The alpha-fold integral of the scalar exponential:
    (1/Gamma(alpha)) int_0^t (t-s)^{alpha-1} e^{a s} ds.

    Equals t^alpha sum_n (a t)^n / Gamma(alpha+n+1).  At an integer order
    m this is t^m phi_m(a t) with phi_m(x) = (e^x - sum_{k<m} x^k/k!) / x^m,
    evaluated in closed form: a Taylor sum for small |a t|, where the
    subtraction would cancel, and the recurrence from expm1 elsewhere.  A
    fractional order takes the entire series, the incomplete gamma, or its
    scaled asymptotics depending on |a t|, all as t^alpha times an entire
    function of x = a t.  Valid for complex a and complex t off the
    negative real axis (t^alpha on the principal branch).  At t = inf it is
    the limit where one exists, with Re a < 0: 0 for alpha < 1 and -1/a at
    alpha = 1; elsewhere t = inf raises ValueError.  a and t broadcast
    against each other, each entry taking its own regime; scalar arguments
    give a Python scalar.  The result is float64 at an integer order when a
    and t are both real and t is finite, and complex128 otherwise.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    a, t = np.asarray(a), np.asarray(t)
    real = alpha == int(alpha) and np.isrealobj(a) and np.isrealobj(t) and np.isfinite(t).all()
    dtype = float if real else complex
    a, t = np.broadcast_arrays(np.asarray(a, dtype=dtype), np.asarray(t, dtype=dtype))
    if np.isinf(t).any():
        limit = (t.real == np.inf) & (t.imag == 0.0) & (a.real < 0.0) & (alpha <= 1.0)
        if not (limit | np.isfinite(t)).all():
            raise ValueError(f"the order-{alpha:g} integrated exponential has no limit at "
                             "t = inf unless Re a < 0 and alpha <= 1")
        # e^{a t} -> 0: the order-1 integral converges to -1/a, lower orders to 0
        out = np.where(limit & (alpha == 1.0), -1.0 / np.where(limit, a, 1.0), 0.0)
        out[~limit] = integrated_exponential(a[~limit], alpha, t[~limit])
        return complex(out) if out.ndim == 0 else out
    x = a * t
    if alpha == 0.0:
        return np.exp(x).item() if x.ndim == 0 else np.exp(x)
    ax = np.abs(x)
    if alpha == int(alpha):
        # _phi_far on every entry, unflagged; near zero, Taylor as np.polyval sums it
        m, (radius, coef) = int(alpha), _phi_taylor(int(alpha))
        t, x, near = t.reshape(-1), x.reshape(-1), ax.reshape(-1) <= radius
        with np.errstate(all="ignore"):
            phi = _phi_far(m, x)
        xn = x[near]
        phi[near] = functools.reduce(lambda y, c: y * xn + c, coef, 0.0)
        out = _times_power(t, m, phi)
        return out.item() if ax.ndim == 0 else out.reshape(ax.shape)
    live = t != 0.0
    # t^alpha x^{-alpha}, not a^{-alpha}: the principal powers of a and t
    # need not add up to that of x = a t
    return _by_regime([
        (live & (a == 0.0), lambda a, t, x: _pow(t, alpha) / gamma(alpha + 1.0)),
        (live & (a != 0.0) & (ax <= 12.0),
         lambda a, t, x: _pow(t, alpha) * _series_sum(alpha, x)),
        (live & (ax > 12.0) & (ax <= 45.0),
         lambda a, t, x: (np.exp(x) * _pow(t, alpha) * _pow(x, -alpha)
                          * lower_incomplete_gamma(alpha, x) / gamma(alpha))),
        (live & (ax > 45.0),
         lambda a, t, x: _pow(t, alpha) * (_pow(x, -alpha) * np.exp(x)
                                           - _scaled_upper_u(alpha, x) / gamma(alpha))),
    ], a, t, x)


def family_parts(kind: str, a):
    """[(amp, rate)] with s_a(t) = sum amp * integrated_exponential(rate,
    alpha, t): the eigenvalue itself for a semigroup, and the halves
    e^{+-i sqrt(-a) t} of a cosine."""
    a = np.asarray(a, dtype=complex)
    if kind == "cosine":
        w = 1j * np.sqrt(-a)
        return [(0.5, w), (0.5, -w)]
    return [(1.0, a)]


def family_factor(kind: str, alpha: float, a, t):
    """The scalar factor s_a(t) by which T_alpha(t) acts on an eigenvector
    with eigenvalue a; a and t broadcast against each other."""
    return sum(amp * integrated_exponential(rate, alpha, t)
               for amp, rate in family_parts(kind, a))


@dataclass
class OperatorFamily:
    """An evaluator t -> T_alpha(t) f (or C_alpha(t) f) with its generator,
    of kind "semigroup" or "cosine", integrated alpha times (alpha = 0 is
    the family itself).  has_scalar records, when it is built, whether the
    generator has an eigenbasis: the spectral route, else _matrix_family
    (not for cosines)."""

    kind: str
    alpha: float
    generator: LinearOperator
    has_scalar: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("semigroup", "cosine"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        try:
            spectral_decompose(self.generator)
            self.has_scalar = True
        except (DefectiveOperatorError, np.linalg.LinAlgError) as exc:
            if self.is_cosine:
                raise ValueError("cosine families need a generator with an eigenbasis") from exc
            self.has_scalar = False

    @property
    def is_cosine(self) -> bool:
        return self.kind == "cosine"

    def evaluate(self, t, f) -> np.ndarray:
        """T_alpha(t) f; an array of t gives one row per entry."""
        f = np.asarray(f, dtype=complex).reshape(-1)
        t = np.asarray(t)
        if self.is_cosine and np.isrealobj(t):
            t = np.abs(t)  # cosine families are even in t
        if self.has_scalar:
            eigs = spectral_decompose(self.generator).eigenvalues
            vals = family_factor(self.kind, self.alpha, eigs, t[..., None])
            return spectral_apply(self.generator, f, vals)
        rows = _matrix_family(self.generator.matrix(), self.alpha, t.reshape(-1) + 0j, f)
        return rows[0] if t.ndim == 0 else rows.reshape(t.shape + (-1,))

    def matrix_at(self, t) -> np.ndarray:
        return np.stack([self.evaluate(t, e) for e in np.eye(self.generator.dimension)], axis=1)


def _phi_columns(A: np.ndarray, m: int, t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Rows t_k^m phi_m(t_k A) f, the m-fold integrated semigroup at each
    t_k: for m >= 1 the top n entries of the last column of exp(t_k B), B the
    (n + m)-square [[A, f, 0], [0, 0, I], [0, 0, 0]] (Van Loan, IEEE TAC 23,
    1978; Higham, Functions of Matrices, 10.7.4), with f scaled to unit size."""
    if m == 0:
        return np.einsum("kij,j->ki", _expm(t[:, None, None] * A), f)
    n = A.shape[0]
    scale = float(np.abs(f).max(initial=0.0)) or 1.0
    B = np.zeros((n + m, n + m), dtype=complex)
    B[:n, :n], B[:n, n] = A, f / scale
    B[range(n, n + m - 1), range(n + 1, n + m)] = 1.0
    return scale * _expm(t[:, None, None] * B)[:, :n, -1]


def _matrix_family(A: np.ndarray, beta: float, t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Rows T_beta(t_k) f without an eigenbasis.  With m = floor(beta) and
    mu = beta - m > 0, T_beta(t) f = t^mu / Gamma(mu) int_0^1 v^{mu-1}
    T_m(t (1 - v)) f dv: one graded integral, a lane per t_k, at _MATRIX_TOL."""
    m, mu = math.floor(beta), beta - math.floor(beta)
    if mu == 0.0:
        return _phi_columns(A, m, t, f)

    def g(v, lane):
        return (v ** (mu - 1.0))[:, None] * _phi_columns(A, m, t[lane] * (1.0 - v), f)

    return (t ** mu / gamma(mu))[:, None] * _graded(g, t.size, 1.0, mu - 1.0, _MATRIX_TOL)[0]


def heat_semigroup(A: LinearOperator) -> OperatorFamily:
    """The C0 family t -> exp(tA)."""
    return OperatorFamily("semigroup", 0.0, A)


def cosine_family(A: LinearOperator, allow_nonselfadjoint: bool = False) -> OperatorFamily:
    """t -> cos(t sqrt(-A)); requires self-adjoint A unless overridden, and
    an eigenbasis in any case."""
    if not A.is_hermitian and not allow_nonselfadjoint:
        raise ValueError("cosine_family needs a self-adjoint generator "
                         "(pass allow_nonselfadjoint=True to override)")
    return OperatorFamily("cosine", 0.0, A)


def integrated_cosine(A: LinearOperator, alpha: float,
                      allow_nonselfadjoint: bool = False) -> OperatorFamily:
    base = cosine_family(A, allow_nonselfadjoint)
    return base if alpha == 0.0 else integrate_family(base, alpha)


def integrate_family(base: OperatorFamily, beta: float) -> OperatorFamily:
    """Raise the temperedness order: T_beta(t) f = (1/Gamma(beta-alpha))
    int_0^t (t-s)^{beta-alpha-1} T_alpha(s) f ds, the order-beta family of
    the same generator (either route evaluates T_beta itself)."""
    if beta <= base.alpha:
        raise ValueError("beta must exceed the base order")
    return OperatorFamily(base.kind, beta, base.generator)


def ceil_order_family(family: OperatorFamily) -> OperatorFamily:
    """T_n = W^{-(n-alpha)} T_alpha, n = ceil(alpha); at integer alpha the
    family itself."""
    n = math.ceil(family.alpha)
    return family if n == family.alpha else integrate_family(family, n)


def _expm(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Pade(6) exponential of each matrix of a stack."""
    norm = np.abs(m).sum(axis=-2).max(axis=-1)
    # a nonfinite matrix is left unscaled and comes out nonfinite
    s = np.ceil(np.log2(np.where(np.isfinite(norm) & (norm > 0.5), norm, 0.5) / 0.5))
    a = m / (2.0 ** s)[:, None, None]
    c, num = 1.0, np.broadcast_to(np.eye(m.shape[-1], dtype=complex), a.shape)
    den = apow = num
    for k in range(1, 7):
        c *= (7 - k) / (k * (13 - k))
        apow = apow @ a
        num, den = num + c * apow, den + c * (-1) ** k * apow
    out = np.linalg.solve(den, num)
    for k in range(int(s.max(initial=0.0))):
        live = s > k
        out[live] = out[live] @ out[live]
    return out


def _hermite_row(n: int, x: np.ndarray) -> np.ndarray:
    h0 = np.ones_like(x)
    if n == 0:
        return h0
    h1 = 2.0 * x
    for k in range(1, n):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * k * h0
    return h1


def cosine_to_semigroup(C_alpha: OperatorFamily, z: complex, f,
                        tol: float = 1e-10) -> np.ndarray:
    """Recover the holomorphic semigroup from the cosine family: T(z) f =
    int_0^inf W^alpha g(s) C_alpha(s) f ds, g(s) = e^{-s^2/(4z)} / sqrt(pi z),
    as int (-1)^n g^(n)(s) C_n(s) f ds, n = ceil(alpha): Hermite times g."""
    if not C_alpha.is_cosine:
        raise ValueError("cosine_to_semigroup needs a cosine-type family")
    z = complex(z)
    if z.real <= 0:
        raise ValueError("needs Re z > 0")
    f = np.asarray(f, dtype=complex).reshape(-1)
    C_n = ceil_order_family(C_alpha)
    n = int(C_n.alpha)
    inv4z = 1.0 / (4.0 * z)
    sqz = cmath.sqrt(z)
    norm = 1.0 / cmath.sqrt(math.pi * z)

    def wkernel(s):
        x = s / (2.0 * sqz)
        return norm * (4.0 * z) ** (-0.5 * n) * _hermite_row(n, x) * np.exp(-s * s * inv4z)

    # Gaussian truncation: |exp(-s^2/(4z))| = e^{-80} at s_max
    s_max = math.sqrt(80.0 / max(inv4z.real, 1e-12))

    def integrand(s):
        s = np.atleast_1d(s)
        return np.asarray(wkernel(s))[:, None] * C_n.evaluate(s, f)

    res = integrate_interval(integrand, 0.0, s_max, tol=tol)
    return np.asarray(res.value).reshape(-1)


def verify_resolvent(family: OperatorFamily, lam: complex, f,
                     tol: float = 1e-11) -> float:
    """Relative residual of the Laplace-transform characterization:
    semigroup   (lam - A)^{-1} f = lam^alpha int e^{-lam t} T_alpha(t) f dt,
    cosine    (lam^2 - A)^{-1} f = lam^{alpha-1} int e^{-lam t} C_alpha(t) f dt.
    """
    lam = complex(lam)
    if lam.real <= 0:
        raise ValueError("needs Re lam > 0")
    f = np.asarray(f, dtype=complex).reshape(-1)

    def integrand(t):
        t = np.atleast_1d(t)
        damp = np.exp(-lam.real * t) * np.exp(-1j * lam.imag * t)
        return damp[:, None] * family.evaluate(t, f)

    res = integrate_halfline(integrand, tol=tol)
    if family.is_cosine:
        value = cpow(lam, family.alpha - 1.0) * np.asarray(res.value)
        ref = resolvent_solve(family.generator, lam * lam, f)
    else:
        value = cpow(lam, family.alpha) * np.asarray(res.value)
        ref = resolvent_solve(family.generator, lam, f)
    return float(np.linalg.norm(value - ref) / np.linalg.norm(ref))


def integra_identity_residual(family: OperatorFamily, f, t: float) -> float:
    """Relative residual of T_alpha(t) f - t^alpha/Gamma(alpha+1) f = T_{alpha+1}(t) A f."""
    f = np.asarray(f, dtype=complex).reshape(-1)
    if t == 0.0:
        return 0.0
    lhs = family.evaluate(t, f) - t ** family.alpha / gamma(family.alpha + 1.0) * f
    rhs = integrate_family(family, family.alpha + 1.0).evaluate(t, apply(family.generator, f))
    scale = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)),
                1e-14 * float(np.linalg.norm(f)))
    return float(np.linalg.norm(lhs - rhs) / scale)


@dataclass(frozen=True)
class GrowthProfile:
    nu: float
    tau: float
    constant: float


def measure_growth(A: LinearOperator, grid) -> GrowthProfile:
    """Least-squares fit of ||e^{zA}|| <= C e^{tau Re z} (|z|/Re z)^nu on a sector grid."""
    fam = heat_semigroup(A)
    rows = []
    rhs = []
    for z in grid:
        z = complex(z)
        if z.real <= 0:
            raise ValueError("growth grid must lie in the open right half-plane")
        nrm = float(np.linalg.norm(fam.matrix_at(z), 2))
        rows.append([1.0, z.real, math.log(abs(z) / z.real) if abs(z) > z.real else 0.0])
        rhs.append(math.log(max(nrm, 1e-300)))
    sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
    logc, tau, nu = sol
    return GrowthProfile(nu=max(float(nu), 0.0), tau=max(float(tau), 0.0),
                         constant=float(math.exp(logc)))


def temperedness_profile(family: OperatorFamily, t_grid=None) -> dict:
    """Empirical sup of t^{-alpha} ||T_alpha(t)|| over the grid (reported, not assumed)."""
    if t_grid is None:
        t_grid = np.geomspace(1e-3, 1e3, 25)
    vals = np.array([float(np.linalg.norm(family.matrix_at(float(t)), 2))
                     / float(t) ** family.alpha for t in t_grid])
    return {
        "max": float(np.max(vals)),
        "median": float(np.median(vals)),
        "values": vals,
        "grid": np.asarray(t_grid, dtype=float),
    }
