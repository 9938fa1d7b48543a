"""Functional calculus: the homomorphism pi_alpha and fractional powers.

pi_alpha(phi) f = int_0^inf W^alpha phi(t) T_alpha(t) f dt sends half-line
kernels to bounded operators; plugging in the resolvent kernels, the
power kernels, or the extension kernels yields (eps - A)^{-sigma}, the
Balakrishnan power, and the extension solution respectively.  pi_rows
takes every order as int (-1)^n phi^(n)(t) T_n(t) f dt, n = ceil(alpha),
through spectral_integral: a spectral family integrates the eigenvalues
of every ray, each mode on a ray turned until it decays, in few
lane-batched quadratures; a generator without an eigenbasis integrates T_n(t) f
itself, from the matrix route of families (one augmented matrix
exponential per node), on one real-axis lane per weight.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .families import (OperatorFamily, ceil_order_family, family_parts, heat_semigroup,
                       integrate_family, integrated_exponential, spectral_apply, spectral_error)
from .kernels import Kernel, _HintedFn, _KernelExpr, _weyl_kernel_fn
from .operators import (DefectiveOperatorError, LinearOperator, apply, resolvent_solve,
                        spectral_decompose)
from .quadrature import _graded, _halfline, _route, integrate_halfline
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


def _rays(sector, rate):
    """arg t of the ray for each rate: the middle of the weight's sector and
    of the half-plane |arg t - arg(-conj(rate))| < pi/2 where e^{rate t}
    decays (Re t > 0 at rate 0); the real axis for a growing rate or an
    empty middle."""
    mid = np.where(rate == 0, 0.0, np.angle(-np.conj(rate)))
    lo = np.maximum(sector[0], mid - 0.5 * math.pi)
    hi = np.minimum(sector[1], mid + 0.5 * math.pi)
    theta = np.where((rate.real <= 0) & (lo <= hi), 0.5 * (lo + hi), 0.0)
    return np.where(np.abs(theta) > 1e-12, theta, 0.0)


def _span(x) -> str:
    lo, hi = f"{x.min():.4g}", f"{x.max():.4g}"  # of a real array
    return lo if lo == hi else f"{lo}..{hi}"


def _eigen_range(e) -> str:
    nonreal = f" + i({_span(e.imag)})" if e.imag.any() else ""
    return f" over eigenvalues {_span(e.real)}{nonreal}"


def spectral_integral(weights, family: OperatorFamily, f, tol: float,
                      shift: float = 0.0, names=None, sign: float = 1.0):
    """Rows sign * int_0^inf w_k(t) T_alpha(shift + t) f dt for the weights
    w_k of a list, each speaking the kernel protocol with a known tail
    (pi_rows passes phi^(n), T_n and (-1)^n), and their quadrature error
    estimates in the scale of f; names[k] names weight k in failure
    messages, which give the range of the failing lane's eigenvalues too.

    A spectral family writes the factor of each eigenvalue as parts amp *
    E(rate, t), E the alpha-fold integrated exponential (family_parts: a
    cosine splits into its halves e^{+-i omega t}).  Under an algebraic
    weight the exact zero rates, E = (shift + t)^alpha / alpha!, take the
    row amp * moment(alpha) of the weight and no lane (the zero-rate lane
    of each part holds that row, and is empty without one); a weight with
    no moment is refused there, as on a mode that decays on no ray of its
    sector.  Every other part runs on the ray t = e^{i theta} s of _rays,
    so every lane decays exponentially.  A lane is a (weight, ray, rates)
    triple with its own panels and stopping target; it is real when its
    ray is unturned and its rates are real, and then samples its factor in
    float64 at real t (the weight keeps its own dtype).  Each lane goes
    straight into the batch of its key (q, width, real): the zero exponent
    quadrature._route takes from the weight's decay, its count of rates and
    whether it is real.  A batch is one lane-batched quadrature, on turned
    rays if any of its lanes turns; the error estimates sum in lane order.
    A family on the matrix route (a generator without an eigenbasis) makes
    one real-axis lane per weight, keyed by its route's tail power too.
    """
    count, alpha = len(weights), family.alpha
    names = names or [f"of weight {k}" for k in range(count)]
    f = np.asarray(f, dtype=complex).reshape(-1)
    fns = [w.fn(0) for w in weights]
    spectral = family.has_scalar
    if spectral:
        eigs = spectral_decompose(family.generator).eigenvalues
    lanes, batches = [], {}  # lane: [weight, ray, amp, eigenvalue ids, rates]
    for k, w in enumerate(weights):
        w_zero, w_tail = w.metadata()
        # |T_alpha(t)| <= C t^alpha eats alpha powers of the weight's decay
        q, p = _route(w_zero, w_tail, alpha)
        if not spectral:
            lanes.append([k, 0.0, sign, np.arange(f.size), None])
            batches.setdefault((q, p, f.size, False), []).append(lanes[-1])
            continue
        damped = w_tail[0] == "exponential"
        for amp, rate in family_parts(family.kind, eigs):
            theta = _rays(w.sector(), rate)
            zero = (rate == 0) & (not damped)
            moment = fns[k].moment(alpha) if zero.any() else 0.0
            if moment is None or not damped and np.any(
                    ((rate * np.exp(1j * theta)).real >= 0) & ~zero):
                raise ValueError(f"spectral integral {names[k]}: no ray in the sector "
                                 f"{w.sector()} of an algebraically decaying weight damps "
                                 "its oscillating or growing modes, or it states no moment")
            lanes.append([k, 0.0, sign * amp, np.flatnonzero(zero), None, moment, 0.0])
            for th in sorted(set(theta[~zero].tolist())):
                ids = np.flatnonzero(~zero & (theta == th))
                lanes.append([k, th, sign * amp, ids, rate[ids]])
                real = th == 0.0 and not rate[ids].imag.any()
                batches.setdefault((q, None, ids.size, real), []).append(lanes[-1])
    for (q, p, _, real), batch in batches.items():
        owner, thetas, _, ids, rates = zip(*batch)
        rotating = any(thetas)
        rots = np.exp(1j * np.array(thetas))
        rates = (np.array(rates).real if real else np.array(rates)) if spectral else None

        def integrand(s, lane):
            t = rots[lane] * s if rotating else s
            if len(owner) == 1:
                w = fns[owner[0]](t)
            else:  # each lane's weight on its own nodes, real ones at real t
                w = np.empty(s.size, dtype=complex)
                for j in np.flatnonzero(np.bincount(lane, minlength=len(owner))):
                    at = lane == j
                    w[at] = fns[owner[j]](t[at] if thetas[j] else s[at])
            w = rots[lane] * w if rotating else np.asarray(w)
            if not spectral:
                return w[:, None] * family.evaluate(shift + t, f)
            return w[:, None] * integrated_exponential(rates[lane], alpha, shift + t[:, None])

        v, e, _ = _halfline(integrand, len(batch), q, p, tol, label=lambda j: (
            f"spectral integral {names[owner[j]]}"
            + (_eigen_range(eigs[ids[j]]) if spectral else "")
            + " on the rotated ray" * bool(thetas[j])))
        for lane, vk, ek in zip(batch, v, e):
            lane += [vk, ek]
    vals = np.zeros((count, eigs.size if spectral else f.size), dtype=complex)
    err = np.zeros(count)
    for k, _, amp, ids, _, vk, ek in lanes:
        vals[k, ids] += amp * vk
        err[k] += abs(amp) * ek
    if not spectral:
        return vals, err
    return spectral_apply(family.generator, f, vals), spectral_error(family.generator, f, err)


def pi_rows(kernels, family: OperatorFamily, f, tol: float, names=None):
    """Rows pi_alpha(k) f of the kernels k and their error estimates, in one
    spectral integral of (-1)^n k^(n) against T_n, n = ceil(alpha): Fubini
    moves W^{-(n-alpha)} of W^alpha = W^{-(n-alpha)} (-1)^n d^n onto T_alpha."""
    fam = ceil_order_family(family)
    return spectral_integral([_weyl_kernel_fn(k, fam.alpha, tol) for k in kernels], fam, f,
                             tol, names=names, sign=(-1.0) ** fam.alpha)


def pi_alpha(phi, family: OperatorFamily, f, tol: float = 1e-11) -> np.ndarray:
    """The functional-calculus value int_0^inf W^alpha phi(t) T_alpha(t) f dt."""
    return pi_rows([phi], family, f, tol)[0][0]


def cero_residual(phi, family: OperatorFamily, f, phi_zero=None,
                  tol: float = 1e-11) -> float:
    """Relative residual of -A pi_alpha(phi) f = pi_alpha(phi') f + phi(0) f."""
    f = np.asarray(f, dtype=complex).reshape(-1)
    if phi_zero is None:
        if not (isinstance(phi, Kernel) and phi.kind in ("exp_eps", "b")):
            raise ValueError("phi(0) is required for this kernel")
        phi_zero = 1.0 if phi.kind == "exp_eps" else 0.0
    lhs = -apply(family.generator, pi_alpha(phi, family, f, tol=tol))
    if not isinstance(phi, _KernelExpr):
        raise ValueError("cero_residual needs a Kernel phi")
    rhs = pi_alpha(phi.fn(1), family, f, tol=tol) + complex(phi_zero) * f
    scale = max(float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)


def _real_if_real(x):
    """x (a number or an array) as float64 when it has no imaginary part."""
    return x if np.any(np.imag(x)) else x.real


def balakrishnan_power(A: LinearOperator, sigma, f, tol: float = 1e-11) -> FractionalPowerResult:
    """(-A)^sigma f = (sin(pi sigma)/pi) int_0^inf lam^{sigma-1} (lam-A)^{-1} (-A f) dlam.

    The integration variable is scaled by ||A|| (split point of the
    lam^{sigma-1} / lam^{sigma-2} regimes) and run through the exponential
    substitution.  A diagonalizable A integrates the scalar factors
    (-a)/(lam - a) of all eigenvalues as one vector and assembles once (the
    error estimate with it), so a zero mode contributes exactly 0; with a
    real sigma and a real spectrum that vector is float64.  A defective A
    solves the resolvent at every node.
    """
    s = complex(sigma)
    if not (0.0 < s.real < 1.0):
        raise ValueError("balakrishnan_power needs 0 < Re sigma < 1")
    f = np.asarray(f, dtype=complex).reshape(-1)
    scale = max(A.norm(), 1e-12)
    try:
        eigs = _real_if_real(spectral_decompose(A).eigenvalues)
    except DefectiveOperatorError:
        eigs = None
        mAf = -apply(A, f)
    power = _real_if_real(s) - 1.0

    def integrand(u):
        lam = scale * np.atleast_1d(u).astype(float)
        w = (np.exp(power * np.log(lam)) * scale)[:, None]
        if eigs is None:
            return w * resolvent_solve(A, lam, mAf)
        return w * (-eigs / (lam[:, None] - eigs))

    res = integrate_halfline(integrand, zero=s.real - 1.0, tail=("algebraic", 2.0 - s.real),
                             tol=tol)
    pref = cmath.sin(cmath.pi * s) / math.pi
    value = pref * np.asarray(res.value).reshape(-1)
    err = abs(pref) * res.error_estimate
    if eigs is not None:
        value, err = spectral_apply(A, f, value), spectral_error(A, f, err)
    return FractionalPowerResult(value=value, method="balakrishnan", error_estimate=err)


def integrated_power(family: OperatorFamily, sigma, f,
                     tol: float = 1e-11) -> FractionalPowerResult:
    """(-A)^sigma f from the integrated family:
    factor * int_0^inf (T_alpha(t) f - t^alpha f / Gamma(alpha+1)) t^{-sigma-alpha-1} dt
    with factor = Gamma(sigma+alpha+1) / (Gamma(-sigma) Gamma(1+sigma)).

    The value does not depend on alpha, so it runs at n = ceil(alpha) of
    the same generator.  Below t = 1 the integrand is evaluated in the
    cancellation-free form T_{n+1}(t) A f t^{-sigma-n-1}; a spectral family
    integrates it per eigenvalue a as a E_{n+1}(a, t) t^{-sigma-n-1}, in
    float64 for real sigma and spectrum, and assembles once with the tail.
    """
    s = complex(sigma)
    if not (0.0 < s.real < 1.0):
        raise ValueError("integrated_power needs 0 < Re sigma < 1")
    f = np.asarray(f, dtype=complex).reshape(-1)
    if family.is_cosine:
        raise ValueError("integrated_power is a semigroup-side formula")
    family = ceil_order_family(family)
    alpha = family.alpha
    A = family.generator
    factor = gamma(s + alpha + 1.0) / (gamma(-s) * gamma(1.0 + s))

    power = -_real_if_real(s) - alpha - 1.0
    if family.has_scalar:  # T_{n+1}(t) A f in eigencoordinates, assembled once
        eigs = _real_if_real(spectral_decompose(A).eigenvalues)
        v, e, _ = _graded(lambda t, lane: eigs * integrated_exponential(
            eigs, alpha + 1.0, t[:, None]) * (t ** power)[:, None], 1, 1.0, -s.real, tol)
        v_small, e_small = spectral_apply(A, f, v[0]), spectral_error(A, f, e[0])
    else:
        T_next, Af = integrate_family(family, alpha + 1.0), apply(A, f)
        v, e, _ = _graded(lambda t, lane: T_next.evaluate(t, Af) * (t ** power)[:, None],
                          1, 1.0, -s.real, tol)
        v_small, e_small = v[0], e[0]
    # past t = 1, T_n(t) f t^{-sigma-n-1}; the subtracted t^n f / Gamma(n+1)
    # term integrates to f / (sigma Gamma(n+1)), as does the weight's moment
    weight = _HintedFn(lambda tau: (1.0 + tau) ** power, 0.0,
                       ("algebraic", 1.0 + s.real + alpha), (-math.pi, math.pi),
                       lambda n: 1.0 / (s * gamma(n + 1.0)))
    tail, err = spectral_integral([weight], family, f, tol, shift=1.0)
    tail_vec = tail[0] - f / (s * gamma(alpha + 1.0))
    value = factor * (v_small + tail_vec)
    return FractionalPowerResult(value=value, method="integrated_formula",
                                 error_estimate=abs(factor) * (e_small + err[0]))


def shifted_negative_power(A: LinearOperator, eps: float, sigma, f,
                           family: OperatorFamily | None = None,
                           tol: float = 1e-11) -> np.ndarray:
    """(eps - A)^{-sigma} f realized as pi_alpha(e_eps h^sigma) f."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if family is None:
        family = heat_semigroup(A)
    phi = Kernel("h", FracOrder(sigma), eps=float(eps))
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
    s = complex(sigma)
    if s.real <= 0:
        raise ValueError("oracle needs Re sigma > 0")
    eigs = spectral_decompose(A).eigenvalues
    vals = np.array([cpow(-a, s) if a != 0 else 0.0 for a in eigs])
    value = spectral_apply(A, f, vals)
    return FractionalPowerResult(value=value, method="spectral_oracle", error_estimate=0.0)
