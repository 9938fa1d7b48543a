"""Semigroup and cosine-family engines with their defining-identity verifiers.

A family T_alpha(t) of temperedness order alpha evaluates t -> T_alpha(t) f.
Diagonalizable generators make spectral families: T_alpha(t) scales each
eigenvector by the factor family_factor(kind, alpha, a, t) (the alpha-fold
integral of e^{a s} has the closed form t^alpha * sum_n
(a t)^n / Gamma(alpha+n+1)), evaluated for all eigenvalues and times at
once; families produced from black-box bases fall back to graded
quadrature of the defining fractional integral.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .operators import LinearOperator, apply, resolvent_solve, spectral_decompose
from .quadrature import DecayHint, _graded_interval, integrate_halfline, integrate_interval
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

_COSINE_KINDS = ("cosine", "integrated_cosine")


def spectral_eigendata(op):
    """(eigenvalues, basis, inverse basis) with numerically-zero eigenvalue
    parts snapped to exact zero.

    Eigensolver noise of order 1e-16 on a zero mode would otherwise turn
    into e^{at} overflow on the huge-t probes of the half-line quadrature.
    """
    dec = spectral_decompose(op)
    eigs = dec.eigenvalues.copy()
    scale = max(float(np.max(np.abs(eigs))), 1.0)
    re = eigs.real.copy()
    im = eigs.imag.copy()
    re[np.abs(re) <= 1e-12 * scale] = 0.0
    im[np.abs(im) <= 1e-12 * scale] = 0.0
    return re + 1j * im, dec.basis, dec.inverse_basis


def spectral_apply(op, f, vals):
    """V diag(vals) V^{-1} f for the eigenbasis V of op.  The eigenvalue axis
    of vals comes last; leading axes give leading axes of the result."""
    _, basis, inv = spectral_eigendata(op)
    coords = inv @ np.asarray(f, dtype=complex).reshape(-1)
    return (vals * coords) @ basis.T


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


def integrated_exponential(a, alpha: float, t):
    """The alpha-fold integral of the scalar exponential:
    (1/Gamma(alpha)) int_0^t (t-s)^{alpha-1} e^{a s} ds.

    Equals t^alpha sum_n (a t)^n / Gamma(alpha+n+1).  At an integer order
    m this is t^m phi_m(a t) with phi_m(x) = (e^x - sum_{k<m} x^k/k!) / x^m,
    evaluated in closed form: a Taylor sum for small |a t|, where the
    subtraction would cancel, and the recurrence from expm1 elsewhere.  A
    fractional order takes the entire series, the incomplete gamma, or its
    scaled asymptotics depending on |a t|.  Valid for complex a and complex
    t off the negative real axis (t^alpha on the principal branch).  a and
    t broadcast against each other, each entry taking its own regime;
    scalar arguments give a complex.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    a, t = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(t, dtype=complex))
    x = a * t
    ax = np.abs(x)
    if alpha == int(alpha):
        m = int(alpha)
        near = ax <= _phi_taylor(m)[0]
        return _by_regime([
            (near, lambda t, x: t ** m * np.polyval(_phi_taylor(m)[1], x)),
            (~near, lambda t, x: t ** m * _phi_far(m, x)),
        ], t, x)
    live = t != 0.0
    return _by_regime([
        (live & (a == 0.0), lambda a, t, x: _pow(t, alpha) / gamma(alpha + 1.0)),
        (live & (a != 0.0) & (ax <= 12.0),
         lambda a, t, x: _pow(t, alpha) * _series_sum(alpha, x)),
        (live & (ax > 12.0) & (ax <= 45.0),
         lambda a, t, x: (np.exp(x) * _pow(a, -alpha) * lower_incomplete_gamma(alpha, x)
                          / gamma(alpha))),
        (live & (ax > 45.0),
         lambda a, t, x: (_pow(a, -alpha) * np.exp(x)
                          - _pow(t, alpha) * _scaled_upper_u(alpha, x) / gamma(alpha))),
    ], a, t, x)


def family_factor(kind: str, alpha: float, a, t):
    """The scalar factor s_a(t) by which T_alpha(t) acts on an eigenvector
    with eigenvalue a; a and t broadcast against each other."""
    a = np.asarray(a, dtype=complex)
    t = np.asarray(t)
    if kind == "semigroup":
        return np.exp(a * t)
    if kind == "integrated_semigroup":
        return integrated_exponential(a, alpha, t)
    w = np.sqrt(-a)
    if kind == "cosine":
        return np.cos(w * t)
    return 0.5 * (integrated_exponential(1j * w, alpha, t)
                  + integrated_exponential(-1j * w, alpha, t))


def scalar_split(kind: str, alpha: float, a):
    """Exact split of the scalar family factor s_a(t), for a rate a != 0,
    into pure exponentials plus a smooth remainder:
    s_a(t) = sum_k amp_k e^{rate_k t} + smooth(t).

    The exponential parts carry all the oscillation (amplitudes constant in
    t); the remainder decays like t^{alpha-1}/|a| without oscillating, which
    is what tail quadratures need for imaginary spectra.  At an integer
    order it is a polynomial of degree alpha - 1.  smooth takes an array of
    t, and is None where the remainder vanishes.
    """
    a = complex(a)
    if kind == "semigroup":
        return [(1.0 + 0.0j, a)], None
    if kind == "integrated_semigroup":
        amp = cpow(a, -alpha)
        if alpha == int(alpha):
            # t^m phi_m(a t) = a^{-m} e^{a t} - sum_{k<m} a^{k-m} t^k / k!
            coef = [-amp * a ** k / math.factorial(k) for k in reversed(range(int(alpha)))]
            return [(amp, a)], lambda t: np.polyval(coef, np.asarray(t, dtype=complex))
        ga = gamma(alpha)

        def smooth(t):
            t = np.asarray(t, dtype=complex)
            x = a * t
            far = np.abs(x) > 45.0
            return _by_regime([
                (far, lambda t, x: -_pow(t, alpha) * _scaled_upper_u(alpha, x) / ga),
                (~far, lambda t, x: integrated_exponential(a, alpha, t) - amp * np.exp(x)),
            ], t, x)

        return [(amp, a)], smooth
    w = cmath.sqrt(-a)
    if kind == "cosine":
        return [(0.5 + 0.0j, 1j * w), (0.5 + 0.0j, -1j * w)], None
    if kind == "integrated_cosine":
        parts1, smooth1 = scalar_split("integrated_semigroup", alpha, 1j * w)
        parts2, smooth2 = scalar_split("integrated_semigroup", alpha, -1j * w)
        parts = [(0.5 * parts1[0][0], parts1[0][1]), (0.5 * parts2[0][0], parts2[0][1])]
        if alpha == 1.0:
            # the halves' remainders -1/(iw) and -1/(-iw) cancel exactly
            return parts, None

        def smooth(t):
            return 0.5 * (smooth1(t) + smooth2(t))

        return parts, smooth
    raise ValueError(f"unknown family kind {kind!r}")


@dataclass
class OperatorFamily:
    """An evaluator t -> T_alpha(t) f (or C_alpha(t) f) with its generator.

    Without a vector evaluator the family is spectral: T_alpha(t) scales
    each eigenvector of the generator by family_factor(kind, alpha, a, t).
    """

    kind: str
    alpha: float
    generator: LinearOperator
    _vector: object = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("semigroup", "integrated_semigroup") + _COSINE_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")

    @property
    def is_cosine(self) -> bool:
        return self.kind in _COSINE_KINDS

    @property
    def has_scalar(self) -> bool:
        return self._vector is None

    def evaluate(self, t, f) -> np.ndarray:
        """T_alpha(t) f; an array of t gives one row per entry."""
        f = np.asarray(f, dtype=complex).reshape(-1)
        t = np.asarray(t)
        if self.is_cosine and np.isrealobj(t):
            t = np.abs(t)  # cosine families are even in t
        if self._vector is None:
            eigs, _, _ = spectral_eigendata(self.generator)
            vals = family_factor(self.kind, self.alpha, eigs, t[..., None])
            return spectral_apply(self.generator, f, vals)
        rows = [np.asarray(self._vector(tk, f), dtype=complex).reshape(-1)
                for tk in t.reshape(-1).tolist()]
        return rows[0] if t.ndim == 0 else np.stack(rows).reshape(t.shape + (-1,))

    def matrix_at(self, t) -> np.ndarray:
        n = self.generator.dimension
        cols = [self.evaluate(t, e) for e in np.eye(n)]
        return np.stack(cols, axis=1)


def heat_semigroup(A: LinearOperator) -> OperatorFamily:
    """The C0 family t -> exp(tA); spectral when A is diagonalizable, with a
    scaling-and-squaring fallback for defective matrices."""
    try:
        spectral_decompose(A)
        return OperatorFamily("semigroup", 0.0, A)
    except Exception:
        def vec(t, f, A=A):
            return _expm(complex(t) * A.matrix()) @ f
        return OperatorFamily("semigroup", 0.0, A, _vector=vec)


def cosine_family(A: LinearOperator, allow_nonselfadjoint: bool = False) -> OperatorFamily:
    """t -> cos(t sqrt(-A)); requires self-adjoint A unless overridden."""
    if not A.is_hermitian and not allow_nonselfadjoint:
        raise ValueError("cosine_family needs a self-adjoint generator "
                         "(pass allow_nonselfadjoint=True to override)")
    return OperatorFamily("cosine", 0.0, A)


def integrated_cosine(A: LinearOperator, alpha: float,
                      allow_nonselfadjoint: bool = False) -> OperatorFamily:
    base = cosine_family(A, allow_nonselfadjoint)
    if alpha == 0.0:
        return base
    return integrate_family(base, alpha)


def integrate_family(base: OperatorFamily, beta: float, spectral: bool | None = None,
                     tol: float = 1e-11) -> OperatorFamily:
    """Raise the temperedness order: T_beta(t) f = (1/Gamma(beta-alpha))
    int_0^t (t-s)^{beta-alpha-1} T_alpha(s) f ds.

    For spectrally decomposable bases the result uses the per-eigenvalue
    closed form (exactly the same operator); spectral=False forces the
    defining graded quadrature at the given tolerance.
    """
    if beta <= base.alpha:
        raise ValueError("beta must exceed the base order")
    kind = "integrated_cosine" if base.is_cosine else "integrated_semigroup"
    use_spectral = base.has_scalar if spectral is None else spectral
    if use_spectral and base.has_scalar:
        # the scalar closed form depends only on the target order
        return OperatorFamily(kind, beta, base.generator)
    mu = beta - base.alpha

    def vec(t, f, base=base, mu=mu):
        t = float(t)
        if t == 0.0:
            return np.zeros_like(np.asarray(f, dtype=complex).reshape(-1))

        def g(d):
            d = np.atleast_1d(d)
            return (d ** (mu - 1.0))[:, None] * base.evaluate(t - d, f) / gamma(mu)

        q = mu - 1.0 if mu < 1.0 else None
        res = _graded_interval(g, 0.0, t, tol, q_left=q)
        return res.value

    return OperatorFamily(kind, beta, base.generator, _vector=vec)


def _expm(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Pade(6) exponential for the defective fallback."""
    norm = float(np.linalg.norm(m, 1))
    s = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    a = m / (2 ** s)
    n = m.shape[0]
    ident = np.eye(n, dtype=complex)
    c = 1.0
    num = ident.copy()
    den = ident.copy()
    apow = ident.copy()
    for k in range(1, 7):
        c *= (7 - k) / (k * (13 - k))
        apow = apow @ a
        num = num + c * apow
        den = den + c * (-1) ** k * apow
    out = np.linalg.solve(den, num)
    for _ in range(s):
        out = out @ out
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
    """Recover the holomorphic semigroup from the cosine family:
    T(z) f = int_0^inf W^alpha( e^{-s^2/(4z)} / sqrt(pi z) ) C_alpha(s) f ds."""
    if not C_alpha.is_cosine:
        raise ValueError("cosine_to_semigroup needs a cosine-type family")
    z = complex(z)
    if z.real <= 0:
        raise ValueError("needs Re z > 0")
    f = np.asarray(f, dtype=complex).reshape(-1)
    alpha = C_alpha.alpha
    inv4z = 1.0 / (4.0 * z)
    sqz = cmath.sqrt(z)
    norm = 1.0 / cmath.sqrt(math.pi * z)

    if alpha == int(alpha):
        n = int(alpha)

        def wkernel(s):
            x = s / (2.0 * sqz)
            return norm * (4.0 * z) ** (-0.5 * n) * _hermite_row(n, x) * np.exp(-s * s * inv4z)
    else:
        from .kernels import _HintedFn, weyl_derivative

        def gauss(s):
            return norm * np.exp(-np.asarray(s) ** 2 * inv4z)

        hinted = _HintedFn(gauss, 0.0, ("exponential", 1.0))

        def wkernel(s):
            return weyl_derivative(hinted, alpha, np.atleast_1d(s), tol=tol)

    # Gaussian truncation: |exp(-s^2/(4z))| drops below tol at s_max
    rate = (inv4z).real
    s_max = math.sqrt(max(80.0, -math.log(1e-18)) / max(rate, 1e-12))

    def integrand(s):
        s = np.atleast_1d(s)
        return np.asarray(wkernel(s))[:, None] * C_alpha.evaluate(s, f)

    res = integrate_interval(integrand, 0.0, s_max, tol=tol)
    return np.asarray(res.value).reshape(-1)


def verify_resolvent(family: OperatorFamily, lam: complex, f,
                     tol: float = 1e-11) -> float:
    """Relative residual of the Laplace-transform characterization:
    semigroup kinds   (lam - A)^{-1} f = lam^alpha int e^{-lam t} T_alpha(t) f dt,
    cosine kinds    (lam^2 - A)^{-1} f = lam^{alpha-1} int e^{-lam t} C_alpha(t) f dt.
    """
    lam = complex(lam)
    if lam.real <= 0:
        raise ValueError("needs Re lam > 0")
    f = np.asarray(f, dtype=complex).reshape(-1)

    def integrand(t):
        t = np.atleast_1d(t)
        damp = np.exp(-lam.real * t) * np.exp(-1j * lam.imag * t)
        return damp[:, None] * family.evaluate(t, f)

    res = integrate_halfline(integrand, [DecayHint("exponential-at-infinity")], tol=tol)
    if family.is_cosine:
        value = cpow(lam, family.alpha - 1.0) * np.asarray(res.value)
        ref = resolvent_solve(family.generator, lam * lam, f)
    else:
        value = cpow(lam, family.alpha) * np.asarray(res.value)
        ref = resolvent_solve(family.generator, lam, f)
    return float(np.linalg.norm(value - ref) / np.linalg.norm(ref))


def integra_identity_residual(family: OperatorFamily, f, t: float,
                              T_next: OperatorFamily | None = None) -> float:
    """Relative residual of T_alpha(t) f - t^alpha/Gamma(alpha+1) f = T_{alpha+1}(t) A f."""
    f = np.asarray(f, dtype=complex).reshape(-1)
    if t == 0.0:
        return 0.0
    lhs = family.evaluate(t, f) - t ** family.alpha / gamma(family.alpha + 1.0) * f
    if T_next is None:
        T_next = integrate_family(family, family.alpha + 1.0)
    rhs = T_next.evaluate(t, apply(family.generator, f))
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
    vals = []
    for t in t_grid:
        nrm = float(np.linalg.norm(family.matrix_at(float(t)), 2))
        vals.append(nrm / float(t) ** family.alpha)
    vals = np.asarray(vals)
    return {
        "max": float(np.max(vals)),
        "median": float(np.median(vals)),
        "values": vals,
        "grid": np.asarray(t_grid, dtype=float),
    }
