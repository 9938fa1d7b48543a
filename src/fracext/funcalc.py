"""Functional calculus: the homomorphism pi_alpha and fractional powers.

pi_alpha(phi) f = int_0^inf W^alpha phi(t) T_alpha(t) f dt sends half-line
kernels to bounded operators; plugging in the resolvent kernels, the
power kernels, or the extension kernels yields (eps - A)^{-sigma}, the
Balakrishnan power, and the extension solution respectively.  Every such
integral goes through spectral_integral: a spectral family integrates all
eigenvalues that share a route in one vector quadrature (oscillatory
panel summation per frequency on purely oscillating modes); black-box
families go through vector quadrature of T_alpha(t) f itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .families import (OperatorFamily, family_factor, heat_semigroup, integrate_family,
                       scalar_split, spectral_apply, spectral_eigendata)
from .kernels import Kernel, _KernelExpr, _halfline_hints, _weyl_kernel_fn
from .operators import LinearOperator, apply, resolvent_solve
from .quadrature import (
    DecayHint,
    _graded_interval,
    integrate_halfline,
    integrate_oscillatory_halfline,
)
from .specfun import FracOrder, cpow, gamma

__all__ = [
    "FractionalPowerResult",
    "pi_alpha",
    "cero_residual",
    "balakrishnan_power",
    "integrated_power",
    "shifted_negative_power",
    "msm_limit_residual",
    "spectral_power_oracle",
]


@dataclass
class FractionalPowerResult:
    value: np.ndarray
    method: str
    error_estimate: float

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")


def _sigma_value(sigma) -> complex:
    if isinstance(sigma, FracOrder):
        return sigma.sigma
    return complex(sigma)


def spectral_integral(weight, family: OperatorFamily, f, tol: float,
                      ray: float = 0.0, shift: float = 0.0):
    """int_0^inf w(t) T_alpha(shift + t) f dt and its summed quadrature error
    estimate, for weight = (w, zero exponent, tail) as _weyl_kernel_fn gives.

    A spectral family integrates all eigenvalues that share a route in one
    vector quadrature of w(t)[:, None] * s_a(shift + t): real eigenvalues
    along the ray t = e^{i ray} s when ray != 0 (integer orders only);
    eigenvalues whose factor decays, or all of them under an exponentially
    decaying weight, through the log substitution; the other
    non-oscillating ones with the weight's own hints; and each purely
    oscillating eigenvalue by its own panel summation.  A black-box family
    integrates w(t) T_alpha(shift + t) f directly.
    """
    wfn, w_zero, w_tail = weight
    alpha = family.alpha
    f = np.asarray(f, dtype=complex).reshape(-1)
    prod_zero = None if w_zero is None else w_zero + alpha
    if w_tail[0] == "exponential":
        tail = w_tail
    else:
        # |T_alpha(t)| <= C t^alpha eats alpha powers of the weight's decay
        p_eff = w_tail[1] - alpha
        tail = ("algebraic", p_eff) if p_eff > 1.0 else None
    hints = _halfline_hints(prod_zero, tail)
    if not family.has_scalar:
        def integrand(t):
            return np.asarray(wfn(t))[:, None] * family.evaluate(shift + t, f)

        res = integrate_halfline(integrand, hints, tol=tol)
        return np.asarray(res.value).reshape(-1), res.error_estimate

    eigs = spectral_eigendata(family.generator)[0]
    # s_a(t) oscillates and decays like e^{rate t}
    rate = 1j * np.sqrt(-eigs) if family.is_cosine else eigs
    rotated = (np.abs(eigs.imag) <= 1e-9) & (ray != 0.0)
    decaying = ~rotated & ((w_tail[0] == "exponential") | (np.abs(rate.real) > 1e-9))
    oscillating = ~rotated & ~decaying & (np.abs(rate.imag) > 1e-9)
    still = ~(rotated | decaying | oscillating)
    if rotated.any() and alpha != int(alpha):
        raise ValueError("path rotation supports integer family orders")
    exp_hints = _halfline_hints(prod_zero, ("exponential", 1.0))
    vals = np.zeros(len(eigs), dtype=complex)
    err = 0.0
    for lanes, lane_hints, rot in ((rotated, exp_hints, cmath.exp(1j * ray)),
                                   (decaying, exp_hints, 1.0),
                                   (still, hints, 1.0)):
        if not lanes.any():
            continue
        a = eigs[lanes]

        def integrand(s, a=a, rot=rot):
            t = rot * np.asarray(s)
            fam = family_factor(family.kind, alpha, a, shift + t[:, None])
            return rot * np.asarray(wfn(t))[:, None] * fam

        res = integrate_halfline(integrand, lane_hints, tol=tol)
        vals[lanes] = res.value
        err += res.error_estimate
    for k in np.flatnonzero(oscillating):
        vals[k], e = _oscillating_integral(wfn, prod_zero, w_tail, family, eigs[k],
                                           abs(rate[k].imag), shift, tol)
        err += e
    return spectral_apply(family.generator, f, vals), err


def _oscillating_integral(wfn, prod_zero, w_tail, family: OperatorFamily, a: complex,
                          omega: float, shift: float, tol: float):
    """(int_0^inf w(t) s_a(shift + t) dt, error estimate) for an undamped
    factor oscillating at angular frequency omega, under an algebraic
    weight tail.

    The head is integrated with the full product (the family factor ~
    t^alpha keeps it integrable); past it the family splits into pure
    exponentials (accelerated half-period panels) plus a smooth
    ~ t^{alpha-1} remainder.
    """
    alpha = family.alpha
    parts, smooth = scalar_split(family.kind, alpha, a)
    h = math.pi / omega
    start = h * max(2, int(math.ceil(2.0 / h)))
    q = prod_zero if (prod_zero is not None and prod_zero < 0) else None

    def head(t):
        return np.asarray(wfn(t)) * family_factor(family.kind, alpha, a, shift + t)

    # kernels carry internal scales (|z|^2 etc.) that can sit far below
    # the head span; dyadic seeding keeps them visible
    r = _graded_interval(head, 0.0, start, tol, q_left=q, seeds=44)
    total = complex(np.asarray(r.value).reshape(-1)[0])
    err = r.error_estimate
    amps = np.array([amp for amp, _ in parts])
    rates = np.array([rt for _, rt in parts])

    def tail(t):
        t = np.asarray(t)
        return np.asarray(wfn(t))[:, None] * np.exp(rates * (shift + t[:, None]))

    r = integrate_oscillatory_halfline(tail, omega=omega, tol=tol, start=start)
    total += complex(amps @ np.asarray(r.value))
    err += float(np.max(np.abs(amps))) * r.error_estimate
    if smooth is not None:
        def gs(tau):
            t = start + np.asarray(tau)
            return np.asarray(wfn(t)) * smooth(shift + t)

        p_smooth = w_tail[1] - alpha + 1.0
        r = integrate_halfline(
            gs, _halfline_hints(0.0, ("algebraic", p_smooth) if p_smooth > 1.0 else None),
            tol=tol)
        total += complex(np.asarray(r.value).reshape(-1)[0])
        err += r.error_estimate
    return total, err


def pi_alpha(phi, family: OperatorFamily, f, tol: float = 1e-11) -> np.ndarray:
    """The functional-calculus value int_0^inf W^alpha phi(t) T_alpha(t) f dt."""
    weight = _weyl_kernel_fn(phi, family.alpha, tol)
    return spectral_integral(weight, family, f, tol)[0]


def cero_residual(phi, family: OperatorFamily, f, phi_zero=None,
                  tol: float = 1e-11) -> float:
    """Relative residual of -A pi_alpha(phi) f = pi_alpha(phi') f + phi(0) f."""
    f = np.asarray(f, dtype=complex).reshape(-1)
    if phi_zero is None:
        if isinstance(phi, Kernel) and phi.kind == "exp_eps":
            phi_zero = 1.0
        elif isinstance(phi, Kernel) and phi.kind == "b":
            phi_zero = 0.0
        else:
            raise ValueError("phi(0) is required for this kernel")
    lhs = -apply(family.generator, pi_alpha(phi, family, f, tol=tol))
    if not isinstance(phi, (Kernel, _KernelExpr)):
        raise ValueError("cero_residual needs a Kernel phi")
    rhs = pi_alpha(phi.fn(1), family, f, tol=tol) + complex(phi_zero) * f
    scale = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)


def balakrishnan_power(A: LinearOperator, sigma, f, tol: float = 1e-11) -> FractionalPowerResult:
    """(-A)^sigma f = (sin(pi sigma)/pi) int_0^inf lam^{sigma-1} (lam-A)^{-1} (-A f) dlam.

    The integration variable is scaled by ||A|| (split point of the
    lam^{sigma-1} / lam^{sigma-2} regimes) and run through the exponential
    substitution.
    """
    s = _sigma_value(sigma)
    if not (0.0 < s.real < 1.0):
        raise ValueError("balakrishnan_power needs 0 < Re sigma < 1")
    f = np.asarray(f, dtype=complex).reshape(-1)
    mAf = -apply(A, f)
    scale = max(A.norm(), 1e-12)

    def integrand(u):
        lam = scale * np.atleast_1d(u).astype(float)
        return np.exp((s - 1.0) * np.log(lam))[:, None] * resolvent_solve(A, lam, mAf) * scale

    hints = [DecayHint("algebraic-singularity-at-zero", exponent=s.real - 1.0)]
    res = integrate_halfline(integrand, hints, tol=tol)
    pref = cmath.sin(cmath.pi * s) / math.pi
    value = pref * np.asarray(res.value).reshape(-1)
    return FractionalPowerResult(value=value, method="balakrishnan",
                                 error_estimate=abs(pref) * res.error_estimate)


def integrated_power(family: OperatorFamily, sigma, f, tol: float = 1e-11,
                     T_next: OperatorFamily | None = None) -> FractionalPowerResult:
    """(-A)^sigma f from the integrated family:
    factor * int_0^inf (T_alpha(t) f - t^alpha f / Gamma(alpha+1)) t^{-sigma-alpha-1} dt
    with factor = Gamma(sigma+alpha+1) / (Gamma(-sigma) Gamma(1+sigma)).

    Below t = 1 the integrand is evaluated in the cancellation-free form
    T_{alpha+1}(t) A f t^{-sigma-alpha-1}.
    """
    s = _sigma_value(sigma)
    if not (0.0 < s.real < 1.0):
        raise ValueError("integrated_power needs 0 < Re sigma < 1")
    f = np.asarray(f, dtype=complex).reshape(-1)
    alpha = family.alpha
    if family.is_cosine:
        raise ValueError("integrated_power is a semigroup-side formula")
    A = family.generator
    Af = apply(A, f)
    if T_next is None:
        T_next = integrate_family(family, alpha + 1.0)
    factor = gamma(s + alpha + 1.0) / (gamma(-s) * gamma(1.0 + s))

    # domain probe: the small-t integrand must behave like t^{-Re sigma}
    probe = [float(np.linalg.norm(T_next.evaluate(t, Af))) / t ** (alpha + 1.0)
             for t in (1e-6, 1e-3)]
    if probe[0] > 100.0 * (probe[1] + 1e-300) + 1e6 * np.linalg.norm(Af):
        raise ValueError("slow t->0 decay detected; f is outside the domain scaling")

    def small(t):
        t = np.atleast_1d(t)
        return T_next.evaluate(t, Af) * (t ** (-s - alpha - 1.0))[:, None]

    r_small = _graded_interval(small, 0.0, 1.0, tol, q_left=-s.real)
    # past t = 1, T_alpha(t) f t^{-sigma-alpha-1}; the subtracted
    # t^alpha f / Gamma(alpha+1) term integrates to f / (sigma Gamma(alpha+1))
    weight = (lambda tau: (1.0 + tau) ** (-s - alpha - 1.0), 0.0,
              ("algebraic", 1.0 + s.real + alpha))
    tail, err = spectral_integral(weight, family, f, tol, shift=1.0)
    tail_vec = tail - f / (s * gamma(alpha + 1.0))
    value = factor * (np.asarray(r_small.value).reshape(-1) + tail_vec)
    return FractionalPowerResult(value=value, method="integrated_formula",
                                 error_estimate=abs(factor) * (r_small.error_estimate + err))


def shifted_negative_power(A: LinearOperator, eps: float, sigma, f,
                           family: OperatorFamily | None = None,
                           tol: float = 1e-11) -> np.ndarray:
    """(eps - A)^{-sigma} f realized as pi_alpha(e_eps h^sigma) f."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    s = _sigma_value(sigma)
    if family is None:
        family = heat_semigroup(A)
    phi = Kernel("h", FracOrder(s) if not isinstance(sigma, FracOrder) else sigma,
                 eps=float(eps))
    return pi_alpha(phi, family, f, tol=tol)


def msm_limit_residual(A: LinearOperator, sigma, f, eps_sequence,
                       family: OperatorFamily | None = None,
                       tol: float = 1e-11) -> list:
    """Residuals ||(eps-A)^{-sigma} (-A)^sigma f - f|| / ||f|| along eps -> 0."""
    f = np.asarray(f, dtype=complex).reshape(-1)
    g = balakrishnan_power(A, sigma, f, tol=tol).value
    nrm = float(np.linalg.norm(f))
    out = []
    for eps in eps_sequence:
        v = shifted_negative_power(A, float(eps), sigma, g, family=family, tol=tol)
        out.append(float(np.linalg.norm(v - f)) / nrm)
    return out


def spectral_power_oracle(A: LinearOperator, sigma, f) -> FractionalPowerResult:
    """Ground truth for diagonalizable A: basis diag((-a_k)^sigma) basis^{-1} f."""
    s = _sigma_value(sigma)
    if s.real <= 0:
        raise ValueError("oracle needs Re sigma > 0")
    f = np.asarray(f, dtype=complex).reshape(-1)
    eigs, basis, inv = spectral_eigendata(A)
    vals = np.array([cpow(-a, s) if a != 0 else 0.0 for a in eigs])
    value = basis @ (vals * (inv @ f))
    return FractionalPowerResult(value=value, method="spectral_oracle", error_estimate=0.0)
