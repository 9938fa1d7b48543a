"""The paper's identities as one registry of invariants.

Each invariant is one function that takes its inputs (operator, data,
sigma, draws, grids, steps) and returns the measured error, or the measured
sequence for a rate or a monotone decay.  The suites behind `fracext
verify` call them with seeded inputs and report rows (name, passed,
detail); the acceptance tests call them with their own inputs.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import extension, families, funcalc, kernels, operators, quadrature, specfun


def _check(name, err, tol):
    return (name, bool(err <= tol), f"err={err:.3e} tol={tol:.1e}")


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _kernel(kind, s, z=None):
    point = None if z is None else kernels.SectorPoint(z)
    return kernels.Kernel(kind, specfun.FracOrder(s), point)


def heat_family(A, alpha: float):
    """exp(tA) integrated alpha times."""
    fam = families.heat_semigroup(A)
    return fam if alpha == 0.0 else families.integrate_family(fam, alpha)


def decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def normalization_error(draws) -> float:
    """max |int_0^inf b^{sigma,z}(t) dt - 1| over draws (sigma, z)."""
    err = 0.0
    for s, z in draws:
        b = _kernel("b", s, z)
        r = quadrature.integrate_halfline(b.fn(0), *b.metadata(), tol=1e-11)
        err = max(err, abs(r.value - 1.0))
    return err


def kernel_pde_errors(draws):
    """(ODE, Euler) worst residuals over draws (sigma, z, t) for k = b and B:
    |d_z^2 k + (1-2 sigma)/z d_z k - d_t k| / |d_t k| and
    |2t d_t k + z d_z k - c k| / |k|, with c = -2 for b and -2(1-sigma) for B."""
    ode = euler = 0.0
    for s, z, t in draws:
        for kind, coef in (("b", -2.0), ("B", -2.0 * (1 - s))):
            k = _kernel(kind, s, z)
            val, dt = kernels.eval_kernel(k, t), kernels.time_derivative(k, 1, t)
            dz, dzz = kernels.z_derivative(k, 1, t), kernels.z_derivative(k, 2, t)
            ode = max(ode, abs(dzz + (1 - 2 * s) / z * dz - dt) / max(abs(dt), 1e-30))
            euler = max(euler, abs(2 * t * dt + z * dz - coef * val) / max(abs(val), 1e-30))
    return ode, euler


def derB_error(s, z, t) -> float:
    """Relative residual of z^{1-2 sigma} d_z B^sigma = sigma Gamma(-sigma)
    / (2^{2 sigma-1} Gamma(sigma)) b^{1-sigma}."""
    lhs = specfun.cpow(z, 1 - 2 * s) * kernels.z_derivative(_kernel("B", s, z), 1, t)
    rhs = (s * specfun.gamma(-s) / (2 ** (2 * s - 1) * specfun.gamma(s))
           * kernels.eval_kernel(_kernel("b", 1 - s, z), t))
    return abs(lhs - rhs) / abs(rhs)


def convolution_error(draws) -> float:
    """max relative gap of B = h * b over draws (sigma, z) at t = 1/2, 1, 2."""
    err = 0.0
    for s, z in draws:
        for t in (0.5, 1.0, 2.0):
            conv = kernels.convolve_halfline(_kernel("h", s), _kernel("b", s, z), t)
            ref = kernels.eval_kernel(_kernel("B", s, z), t)
            err = max(err, abs(conv - ref) / max(abs(ref), 1e-30))
    return err


def weyl_composition_error(t) -> float:
    """|W^{1/2} W^{1/2} e_1 - W^1 e_1| at t."""
    e1 = kernels.Kernel("exp_eps", eps=1.0)

    def half(u):
        return kernels.weyl_derivative(e1, 0.5, np.atleast_1d(u), tol=1e-13).reshape(np.shape(u))

    comp = kernels.weyl_derivative(kernels._HintedFn(half, 0.0, ("exponential", 1.0)), 0.5, t,
                                   tol=1e-11)
    return abs(comp - kernels.weyl_derivative(e1, 1.0, t))


def laplace_error(A, f, cosine: bool = False) -> float:
    """Worst Laplace-transform residual of T_a or C_a, a in {0, 1, 1.5}, lam in {1/2, 1, 2}."""
    fams = [families.integrated_cosine(A, a) if cosine else heat_family(A, a)
            for a in (0.0, 1.0, 1.5)]
    return max(families.verify_resolvent(fam, lam, f) for fam in fams for lam in (0.5, 1.0, 2.0))


def integration_error(A, f) -> float:
    """Worst residual of T_a(t) f - t^a f / Gamma(a+1) = T_{a+1}(t) A f."""
    return max(families.integra_identity_residual(heat_family(A, a), f, t)
               for a in (0.0, 1.0) for t in (0.5, 1.0))


def cosine_semigroup_error(A, f, t, alpha: float) -> float:
    """Relative gap between exp(tA) f and its recovery from C_alpha."""
    got = families.cosine_to_semigroup(families.integrated_cosine(A, alpha), t, f)
    return _rel(got, families.heat_semigroup(A).evaluate(t, f))


def method_agreement(A, f) -> float:
    """Worst pairwise gap, relative to the oracle, of the routes to (-A)^{1/2} f:
    oracle, Balakrishnan, integrated formula at alpha in {0, 1, 1.5}, the last at order 2."""
    oracle = funcalc.spectral_power_oracle(A, 0.5, f).value
    vals = [oracle, funcalc.balakrishnan_power(A, 0.5, f).value]
    vals += [funcalc.integrated_power(heat_family(A, a), 0.5, f, tol=1e-9).value
             for a in (0.0, 1.0, 1.5)]
    return max(float(np.linalg.norm(u - v) / np.linalg.norm(oracle))
               for i, u in enumerate(vals) for v in vals[i + 1:])


def cero_error(A, f, alpha: float) -> float:
    """Residual of -A pi_alpha(e_eps) f = pi_alpha(e_eps') f + f at eps = 0.7."""
    return funcalc.cero_residual(kernels.Kernel("exp_eps", eps=0.7), heat_family(A, alpha), f)


def unoss_error(A, f) -> float:
    """Relative gap of (1/2 - A)^{-0.3} f against the eigenbasis."""
    dec = operators.spectral_decompose(A)
    ref = dec.basis @ ((0.5 - dec.eigenvalues) ** -0.3 * (dec.inverse_basis @ f))
    return _rel(funcalc.shifted_negative_power(A, 0.5, 0.3, f), ref)


def msm_residuals(A, f) -> list:
    """||(eps-A)^{-1/2} (-A)^{1/2} f - f|| / ||f|| for eps = 1 ... 1e-3."""
    return funcalc.msm_limit_residual(A, 0.5, f, [1.0, 0.1, 0.01, 0.001])


def poisson_error(ys) -> float:
    """max relative gap of u(y) = e^{-y} for A = -1, f = 1, sigma = 1/2."""
    fam = families.heat_semigroup(operators.LinearOperator("diagonal", [-1.0]))
    return max(abs(extension.solve_semigroup_form(fam, 0.5, y, [1.0]).value[0] - math.exp(-y))
               / math.exp(-y) for y in ys)


def trace_errors(A, f, sigma):
    """(Neumann trace vs the oracle, quotient trace vs Neumann), relative."""
    sol = extension.ExtensionSolver(families.heat_semigroup(A), sigma, f)
    tr, qt = (extension.boundary_traces(sol)[k] for k in ("neumann", "quotient"))
    oracle = funcalc.spectral_power_oracle(A, sigma, f).value
    return _rel(tr.fractional_power, oracle), _rel(qt.fractional_power, tr.fractional_power)


def wave_heat_error(A, f, sigmas, ys) -> float:
    """Worst gap, relative to ||f||, of both wave-side solvers (log kernel at
    sigma = 1/2) against the heat-side u(y)."""
    heat, cos = families.heat_semigroup(A), families.cosine_family(A)
    err = 0.0
    for s in sigmas:
        base = extension.solve_semigroup_form(heat, s, ys, f).value
        for solve in (extension.solve_cosine_form, extension.solve_cosine_fractional):
            gaps = np.linalg.norm(solve(cos, s, ys, f).value - base, axis=1)
            err = max(err, float(np.max(gaps)) / np.linalg.norm(f))
    return err


def edge_agreement(A, f, sigma, zs) -> float:
    """Worst relative gap of the semigroup and fractional-data forms, T_0 and T_1, at zs."""
    fams = [heat_family(A, a) for a in (0.0, 1.0)]
    return max(_rel(u, v) for fam in fams
               for u, v in zip(extension.solve_semigroup_form(fam, sigma, zs, f).value,
                               extension.solve_fractional_data(fam, sigma, zs, f).value))


def pde_ratios(A, f, sigma, zs, h) -> list:
    """r(h) / r(h/2) of the PDE residual at each z: 4 for O(h^2)."""
    sol = extension.ExtensionSolver(families.heat_semigroup(A), sigma, f)
    return [extension.pde_residual(sol, A, sigma, z, h)
            / extension.pde_residual(sol, A, sigma, z, h / 2) for z in zs]


def rotation_error(lam, f, sigma, ys) -> float:
    """Worst relative gap between u(y) for iH (alpha = 1, direct solve) and
    v(e^{i pi/4} y) for H = diag(lam)."""
    H = families.heat_semigroup(operators.LinearOperator("diagonal", lam))
    v = extension.ExtensionSolver(H, sigma, f)
    fam = heat_family(operators.LinearOperator("diagonal", 1j * np.asarray(lam)), 1.0)
    direct = extension.solve_semigroup_form(fam, sigma, ys, f).value
    return max(_rel(u, w) for u, w in zip(extension.rotate_imaginary(v, ys), direct))


def run_specfun(seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    err = 0.0
    for _ in range(100):
        x = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        if abs(x.imag) < 1e-2 and x.real <= 0.5:
            continue
        g1 = specfun.gamma(x + 1.0)
        err = max(err, abs(g1 - x * specfun.gamma(x)) / abs(g1))
    out.append(_check("gamma recurrence", err, 1e-12))
    err = 0.0
    for _ in range(100):
        x = complex(rng.uniform(-20, 20), rng.uniform(0.05, 20))
        val = specfun.gamma(x) * specfun.gamma(1.0 - x) * cmath.sin(math.pi * x) / math.pi
        err = max(err, abs(val - 1.0))
    out.append(_check("gamma reflection", err, 1e-12))
    for a in (0.3, 1.7):
        g = specfun.lower_incomplete_gamma(a, 80.0)
        out.append(_check(f"gammainc({a}, x->inf) -> Gamma({a})",
                          abs(g - specfun.gamma(a)) / abs(specfun.gamma(a)), 1e-10))
    c = specfun.constants_for(specfun.FracOrder(0.5))
    out.append(_check("c_(1/2) = -1", abs(c.c_sigma + 1.0), 1e-13))
    out.append(_check("neumann_factor = 2 sigma c_sigma",
                      abs(c.neumann_factor - 2 * 0.5 * c.c_sigma), 0.0))
    return out


def run_quadrature(seed: int = 0):
    out = []
    r = quadrature.integrate_halfline(lambda t: np.exp(-t), tail=("exponential", 1.0))
    out.append(_check("int e^-t = 1", abs(r.value - 1.0), 1e-9))
    r = quadrature.integrate_halfline(lambda t: t ** -0.5 * np.exp(-t), -0.5,
                                      ("exponential", 1.0))
    out.append(_check("int t^-1/2 e^-t = sqrt(pi)",
                      abs(r.value - math.sqrt(math.pi)), 1e-9))
    out.append(_check("int b^{1/2,1} = 1", normalization_error([(0.5, 1.0)]), 1e-9))
    samples = [(0.5 * 0.7 ** k, math.exp(-0.5 * 0.7 ** k)) for k in range(10)]
    L, diag = quadrature.richardson_limit(samples, 1.0)
    out.append(_check("richardson e^-y -> 1", abs(L - 1.0), 1e-10))
    return out


def run_kernels(seed: int = 0):
    rng = np.random.default_rng(seed)
    draws = [(rng.uniform(0.05, 0.95),
              cmath.exp(1j * rng.uniform(-math.pi / 4 * 0.9, math.pi / 4 * 0.9))
              * rng.uniform(0.3, 2.0)) for _ in range(20)]
    out = [_check("normalization int b = 1 (20 draws)", normalization_error(draws), 1e-9)]
    draws = [(rng.uniform(0.05, 0.95),
              rng.uniform(0.4, 1.5) * cmath.exp(1j * rng.uniform(-0.7, 0.7)),
              rng.uniform(0.2, 3.0)) for _ in range(10)]
    ode, euler = kernel_pde_errors(draws)
    out.append(_check("kernel ODE (b and B)", ode, 1e-10))
    out.append(_check("Euler identity (b and B)", euler, 1e-10))
    out.append(_check("derB identity", derB_error(0.25, complex(1.0, 0.2), 0.7), 1e-10))
    out.append(_check("B = h * b (convolution)", convolution_error([(0.3, 1.0)]), 1e-8))
    out.append(_check("W^{1/2} W^{1/2} = W^1 on e_1", weyl_composition_error(0.9), 1e-9))
    base, *norms = [kernels.sobolev_norm(kernels.Kernel("b", specfun.FracOrder(0.4),
                                                        kernels.SectorPoint(1.0), eps=e), 1.0)
                    for e in (None, 1.0, 0.1, 0.01)]
    gaps = [abs(n - base) for n in norms]
    out.append(("||b e_eps - b||_(1) decreasing", decreasing(gaps),
                "gaps " + ", ".join(f"{g:.2e}" for g in gaps)))
    return out


def run_operators(seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    L3 = operators.build_laplacian_1d(3, 1.0)
    eig = np.sort(operators.spectral_decompose(L3).eigenvalues.real)
    ref = np.sort([-2 - math.sqrt(2), -2.0, -2 + math.sqrt(2)])
    out.append(_check("laplacian(3) eigenvalues", float(np.max(np.abs(eig - ref))), 1e-12))
    m = rng.normal(size=(8, 8))
    A = operators.LinearOperator("dense", -(m @ m.T) - 0.1 * np.eye(8))
    dec = operators.spectral_decompose(A)
    recon = dec.basis @ np.diag(dec.eigenvalues) @ dec.inverse_basis
    out.append(_check("hermitian reconstruction",
                      float(np.linalg.norm(recon - A.matrix(), 2)), 1e-10 * A.norm()))
    err = 0.0
    f = rng.normal(size=8)
    for lam in (0.1, 1.0, 10.0):
        x = operators.resolvent_solve(A, lam, f)
        err = max(err, lam * np.linalg.norm(x) / np.linalg.norm(f) - 1.0)
    out.append(_check("||lam (lam-A)^{-1}|| <= 1", max(err, 0.0), 1e-12))
    lam1, lam2 = 0.7, 1.9
    lhs = operators.resolvent_solve(A, lam1, f) - operators.resolvent_solve(A, lam2, f)
    rhs = (lam2 - lam1) * operators.resolvent_solve(A, lam1,
                                                    operators.resolvent_solve(A, lam2, f))
    out.append(_check("resolvent identity",
                      float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)), 1e-10))
    return out


def _corpus(seed: int):
    rng = np.random.default_rng(seed)
    imag = operators.build_fourier_multiplier(lambda xi: 1j * xi ** 3, [-2.0, -1.0, 1.0, 2.0])
    return [("scalar", operators.LinearOperator("diagonal", [-1.0]), np.array([1.0])),
            ("diag-imag", imag, rng.normal(size=4)),
            ("laplacian8", operators.build_laplacian_1d(8, 1.0), rng.normal(size=8))]


def run_families(seed: int = 0):
    corpus = _corpus(seed)
    lap = operators.build_laplacian_1d(8, 1.0)
    f8 = np.random.default_rng(seed).normal(size=8)
    out = [_check("Laplace transform (resolv), corpus x alpha x lam",
                  max(laplace_error(A, f) for _, A, f in corpus), 1e-8),
           _check("Laplace transform (resolcos), alpha x lam",
                  laplace_error(lap, f8, cosine=True), 1e-8),
           _check("integration identity (T_a - t^a/G = T_{a+1} A)",
                  max(integration_error(A, f) for _, A, f in corpus), 1e-8),
           _check("cosine->semigroup alpha=1", cosine_semigroup_error(lap, f8, 1.0, 1.0), 1e-7)]
    worst = 0.0
    for name, A, f in corpus:
        for alpha in (0.0, 1.0):
            prof = families.temperedness_profile(heat_family(A, alpha))
            worst = max(worst, prof["max"] / max(prof["median"], 1e-300))
    out.append(("temperedness sup within 10x median", worst <= 10.0,
                f"max/median = {worst:.3f}"))
    return out


def run_funcalc(seed: int = 0):
    out = []
    for name, A, f in _corpus(seed):
        tol_m = 1e-5 if name == "diag-imag" else 1e-6
        worst = method_agreement(A, f)
        out.append((f"method agreement ({name})", worst <= tol_m,
                    f"worst pairwise {worst:.2e} tol {tol_m:.0e}"))
    A1 = operators.LinearOperator("diagonal", [-1.0])
    for alpha in (0.0, 1.0):
        out.append(_check(f"(cero) alpha={alpha:g}", cero_error(A1, np.array([1.0]), alpha), 1e-8))
    lap = operators.build_laplacian_1d(8, 1.0)
    f8 = np.random.default_rng(seed).normal(size=8)
    out.append(_check("(unoss) vs oracle", unoss_error(lap, f8), 1e-8))
    res = msm_residuals(lap, f8)
    out.append(("(msm) monotone decay", decreasing(res),
                "residuals " + ", ".join(f"{r:.2e}" for r in res)))
    return out


def run_extension(seed: int = 0):
    rng = np.random.default_rng(seed)
    out = [_check("scalar Poisson u(y) = e^-y", poisson_error((0.25, 1.0, 2.0)), 1e-8)]
    lap = operators.build_laplacian_1d(8, 1.0)
    f8 = rng.normal(size=8)
    errs = [trace_errors(lap, f8, s) for s in (0.25, 0.5, 0.75)]
    out.append(_check("neumann trace vs oracle (3 sigmas)", max(e[0] for e in errs), 1e-4))
    out.append(_check("quotient/neumann consistency", max(e[1] for e in errs), 1e-4))
    A1, f1 = operators.LinearOperator("diagonal", [-1.0]), np.array([1.0])
    c0 = families.cosine_family(A1)
    uc = extension.solve_cosine_form(c0, 0.5, 1.0, f1).value[0]
    out.append(_check("cosine Poisson u(1) = e^-1", abs(uc - math.exp(-1)), 1e-8))
    ucl = extension.solve_cosine_fractional(c0, 0.5, 1.0, f1).value[0]
    out.append(_check("cosine log branch (sigma=1/2)", abs(ucl - math.exp(-1)), 1e-6))
    (ratio,) = pde_ratios(lap, f8, 0.3, [0.8], 0.05)
    out.append(("PDE residual O(h^2)", 3.5 <= ratio <= 4.5, f"ratio {ratio:.3f}"))
    lap3 = operators.build_laplacian_1d(3, 1.0)
    f3 = rng.normal(size=3)
    err = max(wave_heat_error(A, f, (0.25, 0.5, 0.75), (0.7, 1.3))
              for A, f in ((A1, f1), (lap3, f3)))
    out.append(_check("wave-side vs heat-side (log branch at sigma=1/2)", err, 1e-6))
    ratios = (pde_ratios(lap, f8, 0.3, [0.8 * cmath.exp(1j * math.pi / 8)], 0.04)
              + pde_ratios(operators.LinearOperator("diagonal", [-1.0, -2.0]),
                           np.array([1.0, 0.5]), complex(0.4, 0.2), [0.6, 0.9], 0.04))
    out.append(("PDE residual O(h^2), off-axis z and complex sigma",
                all(3.5 <= r <= 4.5 for r in ratios),
                "ratios " + ", ".join(f"{r:.3f}" for r in ratios)))
    edge = operators.LinearOperator("diagonal", [-1 + 0.5j, -3 - 2j, -1.0])
    zs, fe = 0.8 * np.exp([0.25j * math.pi, -0.25j * math.pi]), rng.normal(size=3)
    err = max(edge_agreement(edge, fe, s, zs) for s in (0.3, 0.7))
    out.append(_check("semigroup vs fractional data on the sector edge", err, 1e-9))
    err = rotation_error(np.linalg.eigvalsh(lap3.matrix()), f3, 0.3, (0.25, 0.5))
    out.append(_check("rotation u(y) = v(e^{i pi/4} y)", err, 1e-5))
    return out


_RUNNERS = {"specfun": run_specfun, "quadrature": run_quadrature, "kernels": run_kernels,
            "operators": run_operators, "families": run_families, "funcalc": run_funcalc,
            "extension": run_extension}
SUITES = tuple(_RUNNERS)


def run_suite(name: str, seed: int = 0):
    if name != "all" and name not in _RUNNERS:
        raise KeyError(name)
    names = SUITES if name == "all" else (name,)
    return [(suite, *row) for suite in names for row in _RUNNERS[suite](seed)]
