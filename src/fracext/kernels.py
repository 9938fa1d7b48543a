"""The scalar kernel family of the extension calculus.

Kernels are analytic functions of t > 0 parametrized by (sigma, z):

    b(t)   = z^{2 sigma} / (4^sigma Gamma(sigma)) * exp(-z^2/(4t)) / t^{1+sigma}
    B(t)   = exp(-z^2/(4t)) / (Gamma(sigma) t^{1-sigma})
    h(t)   = t^{sigma-1} / Gamma(sigma)
    e_eps(t) = exp(-eps t)

together with B - h (evaluated through a stable expm1-style difference)
and products with e_eps.  Every time- and z-derivative has an exact
closed form: the coefficient tables are generated by polynomial
recurrences and feed the Weyl fractional calculus, the Sobolev-algebra
norms, and the half-line convolution implemented here.

Every function of t that the Weyl calculus or the spectral integral sees
speaks one protocol (_KernelExpr): fn(n) gives the n-th time derivative
as a vectorized callable, and metadata() its decay, read back through
zero_exponent() (the algebraic exponent at t -> 0+, None when flat along
the integration ray) and tail() (('exponential', rate) or ('algebraic',
power) at infinity, None when unknown).  Kernel takes both from its
closed form; the expressions (_Expr, _BmhExpr here, extension._CosTerms)
compute them from their own terms; a sampled function (_HintedFn) states
them and differences its samples for derivatives up to order 2.  This
module alone decides what W^alpha phi is and how it decays
(_weyl_kernel_fn).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import DecayHint, _graded_interval, _halfline, integrate_halfline
from .specfun import FracOrder, cexpm1, cpow, gamma

__all__ = [
    "SectorPoint",
    "Kernel",
    "DerivativeCoefficients",
    "eval_kernel",
    "time_derivative",
    "z_derivative",
    "time_derivative_coefficients",
    "z_derivative_coefficients",
    "weyl_integral",
    "weyl_derivative",
    "sobolev_norm",
    "convolve_halfline",
]

MAX_DERIVATIVE_ORDER = 12


@dataclass(frozen=True)
class SectorPoint:
    """A point of the sector S_theta = {|arg z| < theta}.

    closed=True admits the boundary rays |arg z| = theta (used by the
    closed-sector extension formula); the open sector additionally
    guarantees Re(z^2) > 0 whenever theta <= pi/4.
    """

    z: complex
    sector_half_angle: float = math.pi / 4.0
    closed: bool = False

    def __post_init__(self):
        z = complex(self.z)
        theta = float(self.sector_half_angle)
        if not (0.0 < theta <= math.pi / 2.0):
            raise ValueError("sector_half_angle must lie in (0, pi/2]")
        if z == 0:
            raise ValueError("z = 0 is not a sector point")
        ang = abs(cmath.phase(z))
        if self.closed:
            if ang > theta + 1e-12:
                raise ValueError(f"|arg z| = {ang:.6f} outside closed sector {theta:.6f}")
        else:
            if ang >= theta - 1e-15:
                raise ValueError(f"|arg z| = {ang:.6f} not inside open sector {theta:.6f}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "sector_half_angle", theta)


@dataclass(frozen=True)
class DerivativeCoefficients:
    """Coefficient table of an n-th kernel derivative.

    For time derivatives of b the entries are the d_{j,n} with
    d^n/dt^n b = (sum_j d_{j,n} z^{2j} / (4^j t^{j+n})) b, and analogously
    k_{j,n} for B; for z-derivatives the entries are the c_{j,n} with
    d^n/dz^n = (sum_j c_{j,n} z^{2j-n} / t^j) times the kernel.
    """

    order: int
    table: tuple


@lru_cache(maxsize=None)
def _time_poly(mu: complex, n: int) -> tuple:
    # Q_0 = 1, Q_{m+1}(x) = -x Q_m'(x) - (m + mu + x) Q_m(x);
    # d^n/dt^n [t^{-mu} e^{a/t}] = Q_n(a/t) t^{-n} [t^{-mu} e^{a/t}]
    q = [complex(1.0)]
    for m in range(n):
        new = [complex(0.0)] * (len(q) + 1)
        for j, c in enumerate(q):
            new[j] -= (j + m + mu) * c   # -x Q' and -(m+mu) Q
            new[j + 1] -= c              # -x Q
        q = new
    return tuple(q)


@lru_cache(maxsize=None)
def _z_poly(w: complex, n: int) -> tuple:
    # P_0 = 1, P_{m+1}(y) = 2 y P_m'(y) + (w - m - y/2) P_m(y);
    # d^n/dz^n kernel = z^{-n} P_n(z^2/t) kernel   (w = 2 sigma for b, 0 for B)
    p = [complex(1.0)]
    for m in range(n):
        new = [complex(0.0)] * (len(p) + 1)
        for j, c in enumerate(p):
            new[j] += (2 * j + w - m) * c
            new[j + 1] -= 0.5 * c
        p = new
    return tuple(p)


def time_derivative_coefficients(kind: str, n: int, sigma) -> DerivativeCoefficients:
    """d_{j,n} (kind 'b') or k_{j,n} (kind 'B') for the n-th time derivative."""
    s = sigma.sigma if isinstance(sigma, FracOrder) else complex(sigma)
    if kind == "b":
        mu = 1.0 + s
    elif kind == "B":
        mu = 1.0 - s
    else:
        raise ValueError("time-derivative tables exist for kinds 'b' and 'B'")
    q = _time_poly(mu, n)
    # (a/t)^j = (-1)^j (z^2/4)^j / t^j
    table = tuple((-1.0) ** j * q[j] for j in range(len(q)))
    return DerivativeCoefficients(order=n, table=table)


def z_derivative_coefficients(kind: str, n: int, sigma) -> DerivativeCoefficients:
    """c_{j,n} for the n-th z-derivative of kind 'b' or 'B'."""
    s = sigma.sigma if isinstance(sigma, FracOrder) else complex(sigma)
    if kind == "b":
        w = 2.0 * s
    elif kind == "B":
        w = 0.0 + 0.0j
    else:
        raise ValueError("z-derivative tables exist for kinds 'b' and 'B'")
    return DerivativeCoefficients(order=n, table=_z_poly(w, n))


# ---------------------------------------------------------------------------
# internal closed-form function objects


class _KernelExpr:
    """The kernel protocol: fn(n), zero_exponent() and tail().

    Subclasses provide metadata() -> (zero exponent, tail) and either
    derivative() or fn() itself.
    """

    __slots__ = ()

    def fn(self, n: int = 0):
        f = self
        for _ in range(n):
            f = f.derivative()
        return f

    def zero_exponent(self):
        return self.metadata()[0]

    def tail(self):
        return self.metadata()[1]


class _Expr(_KernelExpr):
    """const * (sum_j poly[j] t^{-j}) * t^rho * exp(a/t) * exp(-eps t)."""

    __slots__ = ("const", "rho", "a", "eps", "poly")

    def __init__(self, const, rho, a, eps, poly):
        self.const = complex(const)
        self.rho = complex(rho)
        self.a = complex(a)
        self.eps = float(eps)
        self.poly = tuple(complex(c) for c in poly)

    def __call__(self, t):
        t = np.asarray(t, dtype=complex)
        inv = 1.0 / t
        acc = np.zeros_like(t)
        for c in reversed(self.poly):
            acc = acc * inv + c
        out = self.const * acc * np.exp(self.rho * np.log(t))
        if self.a != 0:
            out = out * np.exp(self.a * inv)
        if self.eps:
            out = out * np.exp(-self.eps * t)
        return out

    def derivative(self):
        new = [0.0 + 0.0j] * (len(self.poly) + 2)
        for j, c in enumerate(self.poly):
            if c == 0:
                continue
            new[j + 1] += c * (self.rho - j)
            if self.a != 0:
                new[j + 2] += -c * self.a
            if self.eps:
                new[j] += -c * self.eps
        while len(new) > 1 and new[-1] == 0:
            new.pop()
        return _Expr(self.const, self.rho, self.a, self.eps, new)

    def metadata(self):
        nz = [j for j, c in enumerate(self.poly) if c != 0]
        if not nz:
            return 0.0, ("exponential", 1.0)  # identically zero
        jmin, jmax = min(nz), max(nz)
        if self.a != 0 and self.a.real <= 0:
            zero = None  # flat; Re a = 0 (sector edge) is integrated on a rotated ray
        else:
            zero = self.rho.real - jmax
        if self.eps > 0:
            tail = ("exponential", self.eps)
        else:
            tail = ("algebraic", -self.rho.real + jmin)
        return zero, tail


class _BmhExpr(_KernelExpr):
    """n-th time derivative of (B - h) e_eps, grouped for stable evaluation.

    The j = 0 block of the B-table collapses onto (B - h) itself, which is
    evaluated through expm1; the j >= 1 remainder multiplies plain B.
    """

    __slots__ = ("sigma", "a", "eps", "n")

    def __init__(self, sigma, a, eps, n=0):
        self.sigma = complex(sigma)
        self.a = complex(a)
        self.eps = float(eps)
        self.n = int(n)

    def __call__(self, t):
        t = np.asarray(t, dtype=complex)
        inv = 1.0 / t
        s = self.sigma
        base = np.exp((s - 1.0) * np.log(t)) / gamma(s)
        stable = np.zeros_like(t)
        rem = np.zeros_like(t)
        z2_4 = -self.a
        for m in range(self.n + 1):
            if self.eps == 0.0 and m != self.n:
                continue
            w = math.comb(self.n, m) * (-self.eps) ** (self.n - m)
            k = time_derivative_coefficients("B", m, s).table
            stable = stable + (w * k[0]) * inv ** m
            for j in range(1, len(k)):
                rem = rem + (w * k[j] * z2_4 ** j) * inv ** (j + m)
        out = base * (stable * cexpm1(self.a * inv) + rem * np.exp(self.a * inv))
        if self.eps:
            out = out * np.exp(-self.eps * t)
        return out

    def derivative(self):
        return _BmhExpr(self.sigma, self.a, self.eps, self.n + 1)

    def metadata(self):
        zero = self.sigma.real - 1.0 - self.n
        if self.eps:
            return zero, ("exponential", self.eps)
        return zero, ("algebraic", 2.0 + self.n - self.sigma.real)


# ---------------------------------------------------------------------------
# public kernel type


_KINDS = ("b", "B", "B_minus_h", "h", "exp_eps")


@dataclass(frozen=True)
class Kernel(_KernelExpr):
    """A member of the kernel family; eps != None multiplies by e_eps.

    Its derivatives and decay are those of its closed form."""

    kind: str
    sigma: FracOrder | None = None
    z: SectorPoint | None = None
    eps: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind in ("b", "B", "B_minus_h"):
            if self.sigma is None or self.z is None:
                raise ValueError(f"kernel {self.kind!r} needs sigma and z")
        elif self.kind == "h":
            if self.sigma is None:
                raise ValueError("kernel 'h' needs sigma")
            if self.z is not None:
                raise ValueError("kernel 'h' carries no z")
        elif self.kind == "exp_eps":
            if self.eps is None:
                raise ValueError("kernel 'exp_eps' needs eps")
        if self.eps is not None and self.eps <= 0:
            raise ValueError("eps must be positive")

    # closed-form function objects -----------------------------------------

    def _fn0(self):
        eps = self.eps or 0.0
        if self.kind == "exp_eps":
            return _Expr(1.0, 0.0, 0.0, eps, (1.0,))
        s = self.sigma.sigma
        if self.kind == "h":
            return _Expr(1.0 / gamma(s), s - 1.0, 0.0, eps, (1.0,))
        z = self.z.z
        a = -z * z / 4.0
        if self.kind == "b":
            const = cpow(z, 2.0 * s) / (cpow(4.0, s) * gamma(s))
            return _Expr(const, -1.0 - s, a, eps, (1.0,))
        if self.kind == "B":
            return _Expr(1.0 / gamma(s), s - 1.0, a, eps, (1.0,))
        return _BmhExpr(s, a, eps)

    def fn(self, n: int = 0):
        """Closed-form n-th time derivative as a vectorized callable."""
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        if n > MAX_DERIVATIVE_ORDER:
            raise ValueError(
                f"derivative order {n} exceeds the supported cap {MAX_DERIVATIVE_ORDER}"
            )
        return self._fn0().fn(n)

    def metadata(self):
        return self._fn0().metadata()


def _at(fn, t, what: str | None = None):
    """fn at t, a complex scalar for scalar t; `what` demands real t > 0."""
    t_arr = np.asarray(t)
    if what and np.any(np.real(t_arr) <= 0) and np.all(np.imag(t_arr) == 0):
        raise ValueError(f"{what} needs t > 0")
    out = fn(t_arr)
    return complex(out) if np.ndim(t) == 0 else out


def eval_kernel(kernel: Kernel, t):
    """Pointwise kernel value at t > 0 (scalar or array)."""
    return _at(kernel.fn(0), t, "kernel evaluation")


def time_derivative(kernel: Kernel, n: int, t):
    """Exact n-th time derivative at t (closed form, no differencing)."""
    return _at(kernel.fn(n), t, "kernel derivative")


def z_derivative_fn(kernel: Kernel, n: int):
    """Closed-form n-th z-derivative of a 'b' or 'B' kernel (callable in t)."""
    if kernel.kind not in ("b", "B"):
        raise ValueError("z-derivatives exist for kinds 'b' and 'B'")
    if n < 1:
        raise ValueError("z-derivative order must be >= 1")
    s = kernel.sigma.sigma
    z = kernel.z.z
    coeffs = z_derivative_coefficients(kernel.kind, n, s).table
    base = kernel._fn0()
    poly = tuple(coeffs[j] * cpow(z, 2 * j - n) if coeffs[j] != 0 else 0.0
                 for j in range(len(coeffs)))
    return _Expr(base.const, base.rho, base.a, base.eps, poly)


def z_derivative(kernel: Kernel, n: int, t):
    """Exact n-th z-derivative value at t."""
    return _at(z_derivative_fn(kernel, n), t)


# ---------------------------------------------------------------------------
# Weyl fractional calculus


_STENCILS = {1: ((1 / 12, -8 / 12, 8 / 12, -1 / 12), (-2, -1, 1, 2)),
             2: ((-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12), (-2, -1, 0, 1, 2))}


class _HintedFn(_KernelExpr):
    """A sampled function of t with stated decay; fn(n), n <= 2, differences
    it by a fourth-order central stencil (a bounded zero stays bounded, an
    algebraic tail gains n)."""

    __slots__ = ("_fn", "_zero", "_tail")

    def __init__(self, fn, zero_exp, tail):
        self._fn = fn
        self._zero = zero_exp
        self._tail = tail

    def __call__(self, t):
        return self._fn(t)

    def fn(self, n: int = 0):
        if n == 0:
            return self
        if n > 2:
            raise ValueError("sampled integrands support derivatives up to order 2")
        w, off = _STENCILS[n]
        base = self._fn

        def fd(t):
            t = np.asarray(t, dtype=float)
            # the step stays large enough that quadrature noise in fn does
            # not dominate
            h = np.maximum(3e-3 * np.abs(t), 1e-5)
            out = sum(c * np.asarray(base(t + k * h)) for c, k in zip(w, off))
            return out / h ** n

        zero, tail = self._zero, self._tail
        if zero is not None:
            zero = zero - n if zero < 0 else 0.0
        if tail is not None and tail[0] == "algebraic":
            tail = ("algebraic", tail[1] + n)
        return _HintedFn(fd, zero, tail)

    def metadata(self):
        return self._zero, self._tail


def _kernel_like(phi) -> _KernelExpr:
    """phi itself, or a bare callable wrapped without decay metadata."""
    if isinstance(phi, _KernelExpr):
        return phi
    if callable(phi):
        return _HintedFn(phi, None, None)
    raise TypeError(f"cannot interpret {phi!r} as a half-line function")


def _require_integrable(phi: _KernelExpr):
    tail = phi.tail()
    if tail is not None and tail[0] == "algebraic" and tail[1] <= 1.0:
        name = getattr(phi, "kind", "expression")
        raise ValueError(
            f"kernel {name!r} is not integrable over (0, inf); multiply by e_eps first"
        )


def _halfline_hints(zero_exp, tail):
    hints = []
    if zero_exp is None:
        hints.append(DecayHint("essential-singularity-at-zero"))
    elif zero_exp < 0.0:
        hints.append(DecayHint("algebraic-singularity-at-zero", exponent=zero_exp))
    if tail is not None:
        kind, par = tail
        if kind == "exponential":
            hints.append(DecayHint("exponential-at-infinity"))
        elif kind == "algebraic":
            hints.append(DecayHint("algebraic-at-infinity", power=par))
    return hints


def _weyl_lanes(fn, zero_exp, tail, beta: float, s, tol: float, name: str):
    """(1/Gamma(beta)) int_0^inf tau^{beta-1} fn(s + tau) dtau at every
    entry of s, as one lane-batched half-line quadrature.

    Each point is a lane with its own panels and its own error target;
    points whose hints differ (the zero exponent of fn adds to the lower
    endpoint's at s = 0) integrate in separate lane groups.  A failing
    lane names its point and the operator name.
    """
    pts = np.asarray(s, dtype=float).reshape(-1)
    gb = gamma(beta)
    q0 = np.full(pts.size, beta - 1.0)
    if zero_exp is not None:
        q0[pts == 0.0] += zero_exp
    if np.any(q0 <= -1.0):
        raise ValueError("Weyl integral diverges at the lower endpoint")
    t_kind, t_par = tail if tail is not None else ("exponential", None)
    if t_kind == "algebraic":
        power = t_par - (beta - 1.0)
        if power <= 1.0:
            raise ValueError("Weyl integral diverges at infinity (tail bound fails)")
    out = np.zeros(pts.size, dtype=complex)
    for q in np.unique(q0):
        ids = np.flatnonzero(q0 == q)
        at = pts[ids]
        if t_kind == "algebraic":
            hints = [DecayHint("algebraic-singularity-at-zero", exponent=min(float(q), 0.0)),
                     DecayHint("algebraic-at-infinity", power=power)]
        else:
            hints = _halfline_hints(min(float(q), 0.0), ("exponential", 1.0))

        def integrand(tau, lane, at=at):
            return tau ** (beta - 1.0) * np.asarray(fn(at[lane] + tau)) / gb

        out[ids] = _halfline(integrand, ids.size, hints, tol,
                             label=lambda k, at=at: f"{name} at s = {float(at[k])!r}")[0]
    return out[0] if np.ndim(s) == 0 else out.reshape(np.shape(s))


def weyl_integral(phi, beta: float, s, tol: float = 1e-12):
    """Weyl fractional integral W^{-beta} phi(s) = (1/Gamma(beta))
    int_s^inf (t-s)^{beta-1} phi(t) dt, for beta > 0, at a point s or at
    every entry of an array s (the result then has the shape of s).

    All points integrate in one lane-batched quadrature, each to its own
    relative accuracy.
    """
    if beta <= 0:
        raise ValueError("weyl_integral needs beta > 0")
    phi = _kernel_like(phi)
    return _weyl_lanes(phi.fn(0), *phi.metadata(), beta, s, tol, f"W^-{beta:g}")


def weyl_derivative(phi, alpha: float, s, tol: float = 1e-12):
    """Weyl fractional derivative W^alpha phi(s) for alpha > 0, at a point s
    or at every entry of an array s (the result then has the shape of s).

    Integer alpha is the exact (-1)^n phi^(n)(s); fractional alpha is
    computed derivative-first as W^{-(n-alpha)} applied to (-1)^n phi^(n)
    with n = ceil(alpha).  That derivative and its decay hints are
    built once per call, and all points go to one lane-batched quadrature
    in which each keeps its own panels and relative accuracy.
    """
    if alpha < 0:
        raise ValueError("use weyl_integral for negative orders")
    n = math.ceil(alpha)
    dn = _kernel_like(phi).fn(n)
    sign = (-1.0) ** n

    def psi(t):
        return sign * np.asarray(dn(t))

    if n == alpha:
        return _at(psi, s)
    return _weyl_lanes(psi, *dn.metadata(), n - alpha, s, tol, f"W^{alpha:g}")


def _weyl_kernel_fn(phi, alpha: float, tol: float) -> _HintedFn:
    """W^alpha phi of an integrable kernel-like phi, with its decay."""
    phi = _kernel_like(phi)
    zero, tail = phi.metadata()
    if tail is None:
        if alpha != 0.0:
            raise ValueError(
                "plain callables need decay metadata for alpha > 0 families; "
                "wrap them in a hinted function"
            )
        tail = ("exponential", 1.0)
    _require_integrable(phi)
    if alpha == int(alpha):
        n = int(alpha)
        base = phi.fn(n)
        sign = (-1.0) ** n

        def wfn(t):
            return sign * np.asarray(base(t))

        w_zero, w_tail = base.metadata()
        return _HintedFn(wfn, w_zero, w_tail or tail)

    def wfn(t):
        return weyl_derivative(phi, alpha, np.atleast_1d(t), tol=max(tol, 1e-12))

    if zero is None:
        w_zero = None
    else:
        w_zero = zero - alpha if zero < 0 else max(zero - alpha, -0.5)
    w_tail = tail if tail[0] == "exponential" else ("algebraic", tail[1] + alpha)
    return _HintedFn(wfn, w_zero, w_tail)


def sobolev_norm(phi, alpha: float, tol: float = 1e-11) -> float:
    """Weighted-L1 norm (1/Gamma(alpha+1)) int_0^inf |W^alpha phi(t)| t^alpha dt."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    w = _weyl_kernel_fn(phi, alpha, tol * 10)
    w_zero, w_tail = w.metadata()
    ga1 = gamma(alpha + 1.0)

    def integrand(t):
        return np.abs(w(t)) * t ** alpha / ga1

    # t^alpha adds alpha to the exponent at zero and takes it from the tail
    if w_tail[0] == "algebraic":
        w_tail = ("algebraic", w_tail[1] - alpha)
    hints = _halfline_hints(None if w_zero is None else min(w_zero + alpha, 0.0), w_tail)
    res = integrate_halfline(integrand, hints, tol=tol)
    return float(np.real(res.value))


def convolve_halfline(phi, psi, s: float, tol: float = 1e-11):
    """(phi * psi)(s) = int_0^s phi(s-t) psi(t) dt with graded endpoints.

    Each half of the interval is integrated in the variable measuring the
    distance to its own endpoint, so endpoint singularities see their
    argument exactly (no cancellation through s - t).
    """
    if s <= 0:
        raise ValueError("convolution needs s > 0")
    s = float(s)
    phi, psi = _kernel_like(phi), _kernel_like(psi)
    fphi, q_phi = phi.fn(0), phi.zero_exponent()
    fpsi, q_psi = psi.fn(0), psi.zero_exponent()
    mid = 0.5 * s

    def left(t):  # t near 0: psi's singularity
        return np.asarray(fphi(s - t)) * np.asarray(fpsi(t))

    def right(d):  # d = s - t near 0: phi's singularity
        return np.asarray(fphi(d)) * np.asarray(fpsi(s - d))

    total = 0.0 + 0.0j
    for g, q in ((left, q_psi), (right, q_phi)):
        ql = q if (q is not None and q < 0) else None
        total += _graded_interval(g, 0.0, mid, tol, q_left=ql).value
    return total
