"""Extension-problem solvers and Dirichlet-to-Neumann trace extraction.

The degenerate elliptic problem

    u''(z) + (1-2*sigma)/z * u'(z) = -A u(z),   u(0) = f,

is solved by integral representations against the heat family (closed
sector |arg z| <= pi/4) and against the cosine family (right half-plane).
The weighted boundary derivative recovers the fractional power:

    lim z^{1-2 sigma} u'(z) = 2 sigma c_sigma (-A)^sigma f,

extracted here by Richardson extrapolation along rays.

Each mode of a t-integral runs on the ray midway through the kernel's
sector and the half-plane where it decays, so a generator with an
eigenbasis and Re lambda < 0 reaches the sector edge
(funcalc.spectral_integral).  Each weight is the closed form
(-1)^n k^(n) of a kernel k against T_n, n = ceil(alpha) (funcalc.pi_rows).
A generator without an eigenbasis takes the matrix route of families on
real-axis lanes, open sector only; the cosine solvers need an eigenbasis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .families import OperatorFamily, spectral_apply
from .funcalc import balakrishnan_power, pi_rows
from .kernels import Kernel, SectorPoint, _KernelExpr, z_derivative_fn
from .operators import MAX_DIMENSION, LinearOperator, apply, spectral_decompose
from .quadrature import richardson_multi
from .specfun import FracOrder, cexpm1, constants_for, cpow, gamma

__all__ = [
    "SIGMA_BAND",
    "ExtensionEvaluation",
    "TraceEstimate",
    "ExtensionSolver",
    "solve_semigroup_form",
    "solve_regularized",
    "solve_fractional_data",
    "solve_cosine_form",
    "solve_cosine_fractional",
    "boundary_traces",
    "neumann_trace",
    "quotient_trace",
    "trace_grid",
    "pde_residual",
    "rotate_imaginary",
]

# Gamma(-sigma) and Gamma(1/2-sigma) blow up outside this band of Re(sigma),
# where q+1 or p-1 of an algebraic lane nears 0 and its add-back takes over.
SIGMA_BAND = (0.02, 0.98)

_HALF_SQRT2_1PI = complex(math.sqrt(2.0) / 2.0, math.sqrt(2.0) / 2.0)


@dataclass
class ExtensionEvaluation:
    z: complex | np.ndarray  # an array of z: one row of value and one estimate each
    value: np.ndarray
    error_estimate: float | np.ndarray
    formula: str


@dataclass
class TraceEstimate:
    kind: str
    limit: np.ndarray
    diagnostic: float
    samples_used: int
    fractional_power: np.ndarray
    samples: list = None  # [(y, weighted boundary value)] used for the limit
    extrapolants: list = None  # limit of each prefix of samples (>= 3), else the sample


def _sigma_checked(sigma) -> FracOrder:
    order = FracOrder(sigma)
    if not (SIGMA_BAND[0] < order.sigma.real < SIGMA_BAND[1]):
        raise ValueError(
            f"Re(sigma) = {order.sigma.real:g} outside the supported band {SIGMA_BAND}"
        )
    return order


def _points(z) -> np.ndarray:
    return np.asarray(z, dtype=complex).reshape(-1)


def _evaluation(z, values, errs, formula: str) -> ExtensionEvaluation:
    """The rows for the points of z, shaped as z was given."""
    if np.ndim(z) == 0:
        return ExtensionEvaluation(complex(z), values[0], float(errs[0]), formula)
    return ExtensionEvaluation(_points(z), values, np.asarray(errs, dtype=float), formula)


def _semigroup_pi(make, family: OperatorFamily, f, z, tol: float):
    """pi_alpha(k) f and its error estimate for every kernel k of make(point)
    at every point of z, shaped (points, kernels, n) and (points, kernels),
    all in one spectral integral."""
    zs = _points(z)
    if not family.has_scalar and np.any(np.abs(np.angle(zs)) >= math.pi / 4.0 - 1e-12):
        raise ValueError("families without an eigenbasis support only the open sector")
    kernels = [make(SectorPoint(w, closed=True)) for w in zs]
    names = [f"at z = {complex(w)!r}" for w in zs for _ in kernels[0]]
    value, err = pi_rows([k for ks in kernels for k in ks], family, f, tol, names=names)
    return value.reshape(zs.size, len(kernels[0]), -1), err.reshape(zs.size, -1)


# ---------------------------------------------------------------------------
# heat-side solvers; each takes a point z or an array of them


def solve_semigroup_form(family: OperatorFamily, sigma, z, f,
                         tol: float = 1e-11) -> ExtensionEvaluation:
    """u(z) = (z^{2 sigma}/(4^sigma Gamma(sigma)))
    int_0^inf W^alpha(e^{-z^2/(4t)} t^{-1-sigma}) T_alpha(t) f dt."""
    order = _sigma_checked(sigma)
    value, err = _semigroup_pi(lambda zp: [Kernel("b", order, zp)], family, f, z, tol)
    return _evaluation(z, value[:, 0], err[:, 0], "semigroup")


def _power_input(family: OperatorFamily, sigma, f, power_input, tol):
    if power_input is not None:
        return np.asarray(power_input, dtype=complex).reshape(-1)
    return balakrishnan_power(family.generator, sigma, f, tol=tol).value


def solve_regularized(family: OperatorFamily, sigma, z, f, eps_sequence=(1e-2, 1e-3, 1e-4, 1e-5),
                      power_input=None, tol: float = 1e-11) -> ExtensionEvaluation:
    """u(z) = lim_{eps -> 0+} pi_alpha(B^{sigma,z} e_eps) (-A)^sigma f.

    The bias of each member is a power series in eps with integer
    exponents, so the limit is Richardson's over the geometric eps_sequence
    (>= 3 entries; all members at all points are lanes of one integral),
    eliminating eps^1 ... eps^{n-1}.  The error estimate is the last
    Richardson correction plus the largest quadrature error estimate of the
    members.  (-A)^sigma f vanishes on ker A, where u(z) = f: spectral
    families add the projection of f onto the eigenvalues that are exactly
    zero."""
    order = _sigma_checked(sigma)
    zs = _points(z)
    eps_sequence = [float(e) for e in eps_sequence]
    if len(eps_sequence) < 3 or any(b >= a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps_sequence must be strictly decreasing with >= 3 entries")
    g = _power_input(family, order, f, power_input, tol)
    values, quad_err = _semigroup_pi(lambda zp: [Kernel("B", order, zp, eps=eps)
                                                 for eps in eps_sequence], family, g, zs, tol)
    increments = np.max(np.abs(np.diff(values, axis=1)), axis=2)
    if np.any(increments[:, -1] > 2.0 * increments[:, 0] + 10 * tol):
        raise ValueError("regularized sequence is not Cauchy (temperedness breach?)")
    value, diag = map(np.array, zip(*[richardson_multi(list(zip(eps_sequence, v)),
                                                       range(1, len(eps_sequence)))
                                      for v in values]))
    if family.has_scalar:
        eigs = spectral_decompose(family.generator).eigenvalues
        value = value + spectral_apply(family.generator, f, (eigs == 0).astype(float))
    return _evaluation(z, value, diag + quad_err.max(axis=1), "regularized")


def solve_fractional_data(family: OperatorFamily, sigma, z, f, power_input=None,
                          tol: float = 1e-11) -> ExtensionEvaluation:
    """u(z) = f + pi_alpha(B^{sigma,z} - h^sigma) (-A)^sigma f, valid on the
    closed sector |arg z| <= pi/4 (u(0) = f)."""
    order = _sigma_checked(sigma)
    zs = _points(z)
    f = np.asarray(f, dtype=complex).reshape(-1)
    value, err = np.tile(f, (zs.size, 1)), np.zeros(zs.size)
    live = zs != 0
    if live.any():
        g = _power_input(family, order, f, power_input, tol)
        part, e = _semigroup_pi(lambda zp: [Kernel("B_minus_h", order, zp)], family, g,
                                zs[live], tol)
        value[live], err[live] = f + part[:, 0], e[:, 0]
    return _evaluation(z, value, err, "fractional_data")


# ---------------------------------------------------------------------------
# wave-side kernels: poly(t) * (z^2+t^2)^p terms, their stabilized
# differences with t^{m+2p}, and the sigma = 1/2 logarithm


def _clog1p(x):
    # complex log(1+x) without forming 1+x (numpy's complex log1p is naive)
    x = np.asarray(x, dtype=complex)
    re = 0.5 * np.log1p(2.0 * x.real + x.real ** 2 + x.imag ** 2)
    im = np.arctan2(x.imag, 1.0 + x.real)
    return re + 1j * im


def _cpowm1(x, p):
    # (1+x)^p - 1, stable for small |x|; principal branch (the caller uses
    # it for |x| < 1/4 only, where 1+x stays in the right half-plane)
    val = p * _clog1p(x)
    # clip the real part: oversize entries are masked out by the caller
    val = np.where(val.real > 700.0, 700.0 + 1j * val.imag, val)
    return cexpm1(val)


class _CosTerms(_KernelExpr):
    """sum_k c_k * t^{m_k} (z^2+t^2)^{p_k}   ('prod' terms)
       + sum_k c_k * [t^{m_k} (z^2+t^2)^{p_k} - t^{m_k+2 p_k}]   ('diff' terms)
       + c_log * [2 log t - Log(z^2+t^2)],
    closed under d/dt, on principal branches for real or complex t in its
    sector."""

    __slots__ = ("z2", "terms", "log_coef")

    def __init__(self, z2, terms, log_coef=0.0):
        self.z2 = complex(z2)
        self.terms = tuple((complex(c), float(m), complex(p), kind)
                           for c, m, p, kind in terms if c != 0)
        self.log_coef = complex(log_coef)

    def __call__(self, t):
        t = np.asarray(t, dtype=complex if np.iscomplexobj(t) else float)
        lnt = np.log(t)
        ratio, logw = self.z2 / (t * t), np.log(self.z2 + t * t)
        out = np.zeros(t.shape, dtype=complex)
        for c, m, p, kind in self.terms:
            if kind == "prod":
                out = out + c * t ** m * np.exp(p * logw)
            else:
                # stable difference t^m w^p - t^{m+2p}
                small = np.abs(ratio) < 0.25
                power_term = np.exp((m + 2.0 * p) * lnt)
                direct = t ** m * np.exp(p * logw) - power_term
                stable = power_term * _cpowm1(ratio, p)
                out = out + c * np.where(small, stable, direct)
        if self.log_coef != 0:
            # -log(1 + z^2/t^2) where that is small, as 2 log t - logw cancels
            out = out + self.log_coef * np.where(np.abs(ratio) < 0.25, -_clog1p(ratio),
                                                 2.0 * lnt - logw)
        return out

    def derivative(self) -> "_CosTerms":
        new = []
        for c, m, p, kind in self.terms:
            if m != 0:
                new.append((c * m, m - 1.0, p, kind))
            if p != 0:
                new.append((c * 2.0 * p, m + 1.0, p - 1.0, kind))
        if self.log_coef != 0:
            new.append((2.0 * self.log_coef * self.z2, -1.0, -1.0, "prod"))
        return _CosTerms(self.z2, new)

    def moment(self, n):
        # int t^mu (z^2+t^2)^p dt = z^{mu+1+2p} B((mu+1)/2, -p-(mu+1)/2) / 2 with
        # mu = m + n, continued to 'diff' terms; the log term (n = 0) gives -pi z
        total = -math.pi * cmath.sqrt(self.z2) * self.log_coef
        for c, m, p, _ in self.terms:
            h = 0.5 * (m + n + 1.0)
            total += c * cpow(self.z2, h + p) * gamma(h) * gamma(-p - h) / (2.0 * gamma(-p))
        return total / gamma(n + 1.0)

    def metadata(self):
        zeros = []
        decays = []
        for c, m, p, kind in self.terms:
            if kind == "prod":
                zeros.append(m)
                decays.append(-(m + 2.0 * p.real))
            else:
                zeros.append(min(m, m + 2.0 * p.real))
                decays.append(-(m + 2.0 * p.real - 2.0))
        if self.log_coef != 0:
            zeros.append(-0.05)  # sets the log singularity's lower add-back
            decays.append(2.0)
        return min(zeros), ("algebraic", min(decays))

    def sector(self):
        # z^2 + t^2 meets its cut (-inf, 0] on arg t = (arg z^2 -+ pi)/2, and
        # |arg t| < pi/2 keeps t^2 from wrapping round
        phase = cmath.phase(self.z2)
        return max(-0.5 * math.pi, 0.5 * (phase - math.pi)), min(0.5 * math.pi,
                                                                   0.5 * (phase + math.pi))


def _require_cosine(family: OperatorFamily, z) -> np.ndarray:
    zs = _points(z)
    if not family.is_cosine:
        raise ValueError("needs a cosine-type family")
    if np.any(zs.real <= 0):
        raise ValueError("cosine representation needs Re z > 0")
    return zs


def _cosine_pi(family: OperatorFamily, z, f, expr_of, s: complex, tol: float):
    """(int_0^inf W^alpha k(t) C_alpha(t) f dt as row k, error estimates) in
    one spectral integral, k = expr_of(z_k, sigma) for each point z_k."""
    zs = _require_cosine(family, z)
    return pi_rows([expr_of(w, s) for w in zs], family, f, tol,
                   names=[f"at z = {complex(w)!r}" for w in zs])


def solve_cosine_form(family: OperatorFamily, sigma, z, f,
                      tol: float = 1e-10) -> ExtensionEvaluation:
    """u(z) = d_sigma int_0^inf W^alpha(z^{2 sigma} (z^2+t^2)^{-sigma-1/2})
    C_alpha(t) f dt, for Re z > 0."""
    order = _sigma_checked(sigma)
    d_sig = constants_for(order).d_sigma

    def expr_of(w, s):
        return _CosTerms(w * w, [(cpow(w, 2.0 * s), 0.0, -(s + 0.5), "prod")])

    value, err = _cosine_pi(family, z, f, expr_of, order.sigma, tol)
    return _evaluation(z, d_sig * value, abs(d_sig) * err, "cosine")


def solve_cosine_fractional(family: OperatorFamily, sigma, z, f, power_input=None,
                            tol: float = 1e-10) -> ExtensionEvaluation:
    """u(z) = f + kappa_sigma int_0^inf W^alpha((z^2+t^2)^{sigma-1/2} - t^{2 sigma-1})
    C_alpha(t) (-A)^sigma f dt for sigma != 1/2; at sigma = 1/2 the kernel is
    (1/pi) Log(t^2/(z^2+t^2))."""
    order = _sigma_checked(sigma)
    f = np.asarray(f, dtype=complex).reshape(-1)
    half = order.is_half
    pref = 1.0 / math.pi if half else constants_for(order).kappa_sigma
    _require_cosine(family, z)
    g = _power_input(family, order, f, power_input, tol)
    value, err = _cosine_pi(family, z, g, lambda w, s: _CosTerms(
        w * w, [] if half else [(1.0, 0.0, s - 0.5, "diff")], log_coef=float(half)),
        order.sigma, tol)
    return _evaluation(z, f + pref * value, abs(pref) * err, "cosine_fractional")


# ---------------------------------------------------------------------------
# trace extraction, PDE residual, rotation corollary


class ExtensionSolver:
    """Semigroup-representation solver bundling (family, sigma, f).

    value(z) evaluates the solution; derivative(z) evaluates u'(z) through
    the differentiated closed-form kernel (never by differencing values);
    an array of z gives one row per point, all in one spectral integral.
    """

    def __init__(self, family: OperatorFamily, sigma, f, tol: float = 1e-11):
        self.family = family
        self.order = _sigma_checked(sigma)
        self.f = np.asarray(f, dtype=complex).reshape(-1)
        self.tol = tol

    def value(self, z) -> np.ndarray:
        return solve_semigroup_form(self.family, self.order, z, self.f,
                                    tol=self.tol).value

    def derivative(self, z) -> np.ndarray:
        value, err = _semigroup_pi(lambda zp: [z_derivative_fn(Kernel("b", self.order, zp), 1)],
                                   self.family, self.f, z, self.tol)
        return _evaluation(z, value[:, 0], err[:, 0], "semigroup").value


def trace_grid(A: LinearOperator, y0=None, ratio: float = 0.7, count: int = 13) -> list:
    """The geometric trace grid y0 * ratio^k, k < count.  The default
    y0 = min(0.5, 2/sqrt(||A||)) keeps the samples inside the boundary layer
    of the stiffest mode, whose width is 1/sqrt(||A||).  Every point is a
    lane: at most MAX_DIMENSION of them, the last a normal float."""
    if y0 is None:
        y0 = min(0.5, 2.0 / math.sqrt(max(A.norm(), 1e-300)))
    if (not (0 < ratio < 1) or not 3 <= count <= MAX_DIMENSION or not (0 < y0 < math.inf)
            or y0 * ratio ** (count - 1) < np.finfo(float).tiny):
        raise ValueError(f"trace_grid needs finite y0 > 0, 0 < ratio < 1, 3 <= count <= "
                         f"{MAX_DIMENSION} and a normal last point y0 ratio^(count - 1)")
    return [y0 * ratio ** k for k in range(count)]


def boundary_traces(solver: ExtensionSolver, theta: float = 0.0, grid=None,
                    kinds=("neumann", "quotient")) -> dict:
    """{kind: TraceEstimate} along the ray arg z = theta, for kinds among
    "neumann" (lim z^{1-2 sigma} u'(z) = 2 sigma c_sigma (-A)^sigma f) and
    "quotient" (lim (u(z) - f)/z^{2 sigma} = c_sigma (-A)^sigma f), each
    Richardson-extrapolated with its running extrapolants; the samples of
    all kinds at all grid points are lanes of one spectral integral."""
    if abs(theta) >= math.pi / 4.0:
        raise ValueError("trace rays need |theta| < pi/4")
    ys = list(grid) if grid is not None else trace_grid(solver.family.generator)
    zs = cmath.exp(1j * theta) * np.array(ys, dtype=float)
    s, consts = solver.order.sigma, constants_for(solver.order)
    values = _semigroup_pi(lambda zp: [z_derivative_fn(Kernel("b", solver.order, zp), 1)
                                       if kind == "neumann" else Kernel("b", solver.order, zp)
                                       for kind in kinds], solver.family, solver.f, zs,
                           solver.tol)[0]
    out = {}
    for kind, rows in zip(kinds, np.moveaxis(values, 1, 0)):
        neumann = kind == "neumann"
        samples = [(y, cpow(z, 1.0 - 2.0 * s) * u if neumann
                    else (u - solver.f) * cpow(z, -2.0 * s)) for y, z, u in zip(ys, zs, rows)]
        # boundary error exponents from the sqrt(Re z^2) bounds
        fits = [richardson_multi(samples[:k], [2.0 - 2.0 * s, 2.0, 4.0 - 2.0 * s])
                for k in range(3, len(samples) + 1)]
        running = [v for _, v in samples[:2]] + [np.asarray(v).reshape(-1) for v, _ in fits]
        limit, diag = running[-1], fits[-1][1]
        factor = consts.neumann_factor if neumann else consts.c_sigma
        out[kind] = TraceEstimate(kind=kind, limit=limit, diagnostic=diag, samples_used=len(ys),
                                  fractional_power=limit / factor, samples=samples,
                                  extrapolants=running)
    return out


def neumann_trace(solver: ExtensionSolver, theta: float = 0.0, grid=None) -> TraceEstimate:
    """Extrapolated lim z^{1-2 sigma} u'(z) = 2 sigma c_sigma (-A)^sigma f."""
    return boundary_traces(solver, theta, grid, ("neumann",))["neumann"]


def quotient_trace(solver: ExtensionSolver, theta: float = 0.0, grid=None) -> TraceEstimate:
    """Extrapolated lim (u(z) - f)/z^{2 sigma} = c_sigma (-A)^sigma f."""
    return boundary_traces(solver, theta, grid, ("quotient",))["quotient"]


def pde_residual(solver: ExtensionSolver, A: LinearOperator, sigma, z,
                 h: float) -> float:
    """Relative residual of u'' + (1-2 sigma)/z u' + A u at z, by centered
    differences of step h along the radial direction (the three values in
    one call)."""
    order = FracOrder(sigma)
    z = complex(z)
    if h > abs(z) / 10.0:
        raise ValueError("step must satisfy h <= |z|/10")
    d = z / abs(z)
    up, u0, um = solver.value(np.array([z + h * d, z, z - h * d]))
    upp = (up - 2.0 * u0 + um) / (h * h * d * d)
    upr = (up - um) / (2.0 * h * d)
    s = order.sigma
    au = apply(A, u0)
    res = upp + (1.0 - 2.0 * s) / z * upr + au
    return float(np.linalg.norm(res) / np.linalg.norm(au))


def rotate_imaginary(v_solver: ExtensionSolver, y) -> np.ndarray:
    """Solution of the extension problem for i H from the solver for the
    self-adjoint generator H:  u(y) = v((sqrt(2)/2)(1+i) y), u(0) = f; an
    array of y gives one row per entry."""
    ys = np.asarray(y, dtype=float).reshape(-1)
    if np.any(ys < 0):
        raise ValueError("needs y >= 0")
    out = np.tile(v_solver.f, (ys.size, 1))
    if np.any(ys > 0):
        out[ys > 0] = v_solver.value(_HALF_SQRT2_1PI * ys[ys > 0])
    return out[0] if np.ndim(y) == 0 else out
