"""The scalar kernel family of the extension calculus.

Kernels are analytic functions of t > 0 parametrized by (sigma, z):

    b(t)   = z^{2 sigma} / (4^sigma Gamma(sigma)) * exp(-z^2/(4t)) / t^{1+sigma}
    B(t)   = exp(-z^2/(4t)) / (Gamma(sigma) t^{1-sigma})
    h(t)   = t^{sigma-1} / Gamma(sigma)
    e_eps(t) = exp(-eps t)

together with B - h and products with e_eps.  Each of them and each of
their time- and z-derivatives is one closed form, _Expr, whose derivative
rule also yields the coefficient tables; they feed the Weyl fractional
calculus, the Sobolev-algebra norms, and the half-line convolution here.

Every function of t that the Weyl calculus or the spectral integral sees
speaks one protocol (_KernelExpr): fn(n) gives the n-th time derivative
as a vectorized callable, and metadata() its decay, the pair (zero, tail):
zero is the algebraic exponent at t -> 0+ (None when flat along the
integration ray), tail is ('exponential', rate) or ('algebraic', power)
at infinity (None when unknown).  That pair is the only statement of
decay; quadrature turns it into the add-backs at the edges of a
half-line window.  sector() gives the open range (lo, hi) of arg t where
it is analytic and keeps that decay, the room a spectral integral has to
rotate its ray.  An expression's moment(n), int_0^inf w(t) t^n / n! dt
(None when unknown), is that integral's row of an exact zero eigenvalue.
Kernel takes all of them from its closed form, an _Expr; the expressions
(_Expr here, extension._CosTerms) compute them from their own terms; a
sampled function (_HintedFn) states them (its sector is the real axis
alone and its moment unknown unless given) and differences its samples
for derivatives up to order 2.  This module alone decides what W^alpha
phi is and how it decays (_weyl_kernel_fn): at integer order phi^(n), the
only weight pi_alpha uses (funcalc.pi_rows signs it), at a fractional one
a Weyl quadrature per point, for weyl_* and sobolev_norm.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import _graded, _halfline, _route, _unary
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
    """A point of the sector S = {|arg z| < pi/4}, where Re(z^2) > 0.

    closed=True admits the boundary rays |arg z| = pi/4 (used by the
    closed-sector extension formula).
    """

    z: complex
    closed: bool = False

    def __post_init__(self):
        z = complex(self.z)
        theta = math.pi / 4.0
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
    s = complex(sigma)
    rho = {"b": -(1.0 + s), "B": -(1.0 - s)}.get(kind)
    if rho is None:
        raise ValueError("time-derivative tables exist for kinds 'b' and 'B'")
    # with a = -1 the coefficient of t^{-(j+n)} is d_{j,n} (k_{j,n}) itself
    table = _Expr(1.0, rho, -1.0, 0.0, (1.0,)).fn(n).poly[n:]
    return DerivativeCoefficients(order=n, table=table)


def z_derivative_coefficients(kind: str, n: int, sigma) -> DerivativeCoefficients:
    """c_{j,n} for the n-th z-derivative of kind 'b' or 'B'."""
    s = complex(sigma)
    w = {"b": 2.0 * s, "B": 0.0 + 0.0j}.get(kind)
    if w is None:
        raise ValueError("z-derivative tables exist for kinds 'b' and 'B'")
    return DerivativeCoefficients(order=n, table=_z_poly(w, n))


# ---------------------------------------------------------------------------
# internal closed-form function objects


class _KernelExpr:
    """The kernel protocol: fn(n), metadata() and sector().

    Subclasses provide metadata() -> (zero exponent, tail), sector() and
    either derivative() or fn() itself, whose values provide moment(n).
    """

    __slots__ = ()

    def fn(self, n: int = 0):
        f = self
        for _ in range(n):
            f = f.derivative()
        return f


class _Expr(_KernelExpr):
    """const t^rho e^{-eps t} [P(1/t) e^{a/t} + Q(1/t) expm1(a/t)], P and Q
    with coefficients poly and mpoly (d/dt expm1(a/t) = d/dt e^{a/t}, so Q
    feeds P).  Below |t| = _tiny, where (1/t)^top or t^rho may overflow,
    t^-top joins the exponent of t^rho e^{a/t} and P, Q run in t: a finite
    value stays finite and an underflowing one reads 0, never inf * 0."""

    __slots__ = ("const", "rho", "a", "eps", "poly", "mpoly", "_tiny")

    def __init__(self, const, rho, a, eps, poly, mpoly=()):
        self.const = complex(const)
        self.rho = complex(rho)
        self.a = complex(a)
        self.eps = float(eps)
        self.poly = tuple(complex(c) for c in poly)
        self.mpoly = tuple(complex(c) for c in mpoly)
        power = max(len(self.poly), len(self.mpoly)) - 1 - min(self.rho.real, 0.0)
        self._tiny = math.exp(-600.0 / power) if power > 0 else 0.0  # |t|^-power = e^600

    def __call__(self, t):
        t = np.asarray(t, dtype=complex)
        if self._tiny and t.size and np.abs(t).min() < self._tiny:
            tiny = np.abs(t) < self._tiny
            out = np.empty_like(t)
            out[~tiny] = self._eval(t[~tiny], False)
            out[tiny] = self._eval(t[tiny], True)
            return out
        return self._eval(t, False)

    def _eval(self, t, tiny: bool):
        inv, log_t = 1.0 / t, np.log(t)
        out = None
        for poly, expm1 in ((self.poly, False), (self.mpoly, True)):
            if not poly:
                continue
            rho = self.rho
            if tiny:  # P(1/t) = t^-top sum_j poly[j] t^(top-j)
                acc, x, rest = poly[0], t, poly[1:]
                rho = rho - (len(poly) - 1)
            else:
                acc, x, rest = poly[-1], inv, poly[-2::-1]
            for c in rest:
                acc = acc * x + c
            if tiny and not expm1:
                # one exponential: there e^{a/t} underflows where t^rho overflows
                term = self.const * acc * np.exp(rho * log_t + self.a * inv)
            else:
                term = self.const * acc * np.exp(rho * log_t)
                if expm1:
                    term = term * cexpm1(self.a * inv)
                elif self.a != 0:
                    term = term * np.exp(self.a * inv)
            if self.eps:
                term = term * np.exp(-self.eps * t)
            out = term if out is None else out + term
        return np.zeros_like(t) if out is None else out

    def derivative(self):
        size = max(len(self.poly), len(self.mpoly)) + 2
        new_p, new_q = [0.0 + 0.0j] * size, [0.0 + 0.0j] * size
        for poly, new in ((self.poly, new_p), (self.mpoly, new_q)):
            for j, c in enumerate(poly):
                if c == 0:
                    continue
                new[j + 1] += c * (self.rho - j)
                if self.a != 0:
                    new_p[j + 2] += -c * self.a
                if self.eps:
                    new[j] += -c * self.eps
        for new in (new_p, new_q):
            while new and new[-1] == 0:
                new.pop()
        return _Expr(self.const, self.rho, self.a, self.eps, new_p, new_q)

    def moment(self, n):
        # int t^{rho+n-j} e^{a/t} dt = (-a)^{rho+n-j+1} Gamma(j-rho-n-1), Re a < 0;
        # an expm1(a/t) term is its continuation
        if self.eps or self.a == 0:
            return None
        return self.const / gamma(n + 1.0) * sum(
            c * cpow(-self.a, self.rho + n - j + 1.0) * gamma(j - self.rho - n - 1.0)
            for poly in (self.poly, self.mpoly) for j, c in enumerate(poly) if c != 0)

    def metadata(self):
        nz_p = [j for j, c in enumerate(self.poly) if c != 0]
        nz_q = [j for j, c in enumerate(self.mpoly) if c != 0] if self.a != 0 else []
        if not nz_p and not nz_q:
            return 0.0, ("exponential", 1.0)  # identically zero
        rho = self.rho.real
        # e^{a/t} is flat at 0+ for Re a <= 0 (Re a = 0, the sector edge, is
        # integrated on a rotated ray); expm1(a/t) is bounded there, ~ a/t at inf
        zeros = [rho - max(nz_q)] if nz_q else []
        if nz_p and not (self.a != 0 and self.a.real <= 0):
            zeros.append(rho - max(nz_p))
        zero = min(zeros) if zeros else None
        if self.eps > 0:
            return zero, ("exponential", self.eps)
        tails = [-rho + min(nz_p)] if nz_p else []
        if nz_q:
            tails.append(-rho + min(nz_q) + 1)
        return zero, ("algebraic", min(tails))

    def sector(self):
        # e^{a/t} decays at 0+ for |arg t - arg(-a)| < pi/2, e^{-eps t} at inf
        # for |arg t| < pi/2; powers of t are analytic off the negative axis
        lo, hi = -math.pi, math.pi
        if self.a != 0:
            mid = cmath.phase(-self.a)
            lo, hi = mid - 0.5 * math.pi, mid + 0.5 * math.pi
        if self.eps > 0:
            lo, hi = max(lo, -0.5 * math.pi), min(hi, 0.5 * math.pi)
        return lo, hi


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
        return _Expr(1.0 / gamma(s), s - 1.0, a, eps, (), (1.0,))

    def fn(self, n: int = 0):
        """Closed-form n-th time derivative as a vectorized callable."""
        if n < 0:
            raise ValueError("derivative order must be >= 0")
        if n > MAX_DERIVATIVE_ORDER:
            raise ValueError(f"derivative order {n} exceeds the supported cap "
                             f"{MAX_DERIVATIVE_ORDER}")
        return self._fn0().fn(n)

    def metadata(self):
        return self._fn0().metadata()

    def sector(self):
        return self._fn0().sector()


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
    """A sampled function of t with stated decay, sector (the real axis alone
    by default) and moment (a function of n; None unless stated); fn(n),
    n <= 2, differences it by a fourth-order central stencil along the real
    direction, exact to that order at complex t too (a bounded zero stays
    bounded, an algebraic tail gains n; no moment is stated)."""

    __slots__ = ("_fn", "_zero", "_tail", "_sector", "moment")

    def __init__(self, fn, zero_exp, tail, sector=(0.0, 0.0), moment=None):
        self._fn = fn
        self._zero = zero_exp
        self._tail = tail
        self._sector = sector
        self.moment = moment or (lambda n: None)

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
            t = np.asarray(t, dtype=complex if np.iscomplexobj(t) else float)
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
        return _HintedFn(fd, zero, tail, self._sector)

    def metadata(self):
        return self._zero, self._tail

    def sector(self):
        return self._sector


def _kernel_like(phi) -> _KernelExpr:
    """phi itself, or a bare callable wrapped without decay metadata."""
    if isinstance(phi, _KernelExpr):
        return phi
    if callable(phi):
        return _HintedFn(phi, None, None)
    raise TypeError(f"cannot interpret {phi!r} as a half-line function")


def _weyl_lanes(fn, zero_exp, tail, beta: float, s, tol: float, name: str):
    """(1/Gamma(beta)) int_0^inf tau^{beta-1} fn(s + tau) dtau at every
    entry of s, as one lane-batched half-line quadrature; a complex s
    integrates along the horizontal ray s + tau.

    Each point is a lane with its own panels and its own error target;
    points whose exponent at tau = 0 differs (the zero exponent of fn at
    s = 0, 0 elsewhere) integrate in separate lane groups, each on the
    route quadrature._route gives tau^{beta-1} times that decay.  A
    failing lane names its point and the operator name.
    """
    pts = np.asarray(s, dtype=complex if np.iscomplexobj(s) else float).reshape(-1)
    gb = gamma(beta)
    z0 = np.zeros(pts.size)
    if zero_exp is not None:
        z0[pts == 0.0] = zero_exp
    if np.any(z0 + (beta - 1.0) <= -1.0):
        raise ValueError("Weyl integral diverges at the lower endpoint")
    if tail is not None and tail[0] == "algebraic" and tail[1] - (beta - 1.0) <= 1.0:
        raise ValueError("Weyl integral diverges at infinity (tail bound fails)")
    out = np.zeros(pts.size, dtype=complex)
    for zero in np.unique(z0):
        ids = np.flatnonzero(z0 == zero)
        at = pts[ids]

        def integrand(tau, lane, at=at):
            return tau ** (beta - 1.0) * np.asarray(fn(at[lane] + tau)) / gb

        out[ids] = _halfline(integrand, ids.size, *_route(float(zero), tail, beta - 1.0), tol,
                             label=lambda k, at=at: f"{name} at s = {at[k].item()!r}")[0]
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


def _weyl_kernel_fn(phi, alpha: float, tol: float) -> _KernelExpr:
    """W^alpha phi of an integrable kernel-like phi, with its decay and the
    sector of phi (the horizontal Weyl rays from a point of the sector stay
    in it); at integer order n, phi^(n) itself: the sign (-1)^n is the caller's."""
    phi = _kernel_like(phi)
    zero, tail = phi.metadata()
    if tail is None:
        if alpha != 0.0:
            raise ValueError(
                "plain callables need decay metadata for alpha > 0 families; "
                "wrap them in a hinted function"
            )
        phi = _HintedFn(phi, zero, ("exponential", 1.0), phi.sector())
    elif tail[0] == "algebraic" and tail[1] <= 1.0:
        name = getattr(phi, "kind", "expression")
        raise ValueError(
            f"kernel {name!r} is not integrable over (0, inf); multiply by e_eps first"
        )
    if alpha == int(alpha):
        return phi.fn(int(alpha))

    def wfn(t):
        return weyl_derivative(phi, alpha, np.atleast_1d(t), tol=max(tol, 1e-12))

    if zero is None:
        w_zero = None
    else:
        w_zero = zero - alpha if zero < 0 else max(zero - alpha, -0.5)
    w_tail = tail if tail[0] == "exponential" else ("algebraic", tail[1] + alpha)
    return _HintedFn(wfn, w_zero, w_tail, phi.sector())


def sobolev_norm(phi, alpha: float, tol: float = 1e-11) -> float:
    """Weighted-L1 norm (1/Gamma(alpha+1)) int_0^inf |W^alpha phi(t)| t^alpha dt."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    w = _weyl_kernel_fn(phi, alpha, tol * 10)
    ga1 = gamma(alpha + 1.0)

    def integrand(t):
        return np.abs(w(t)) * t ** alpha / ga1

    return float(np.real(_halfline(_unary(integrand), 1, *_route(*w.metadata(), alpha),
                                   tol)[0][0]))


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
    fphi, fpsi = phi.fn(0), psi.fn(0)
    mid = 0.5 * s

    def left(t):  # t near 0: psi's singularity
        return np.asarray(fphi(s - t)) * np.asarray(fpsi(t))

    def right(d):  # d = s - t near 0: phi's singularity
        return np.asarray(fphi(d)) * np.asarray(fpsi(s - d))

    total = 0.0 + 0.0j
    for g, k in ((left, psi), (right, phi)):
        total += _graded(_unary(g), 1, mid, k.metadata()[0], tol)[0][0]
    return total
