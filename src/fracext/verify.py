"""Named invariant suites, shared by the CLI verify command and the tests.

Each check returns (name, passed, detail); a suite is a list of checks run
with a fixed seed so reports are reproducible.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import extension, families, funcalc, kernels, operators, quadrature, specfun

SUITES = ("specfun", "quadrature", "kernels", "operators", "families",
          "funcalc", "extension")


def _check(name, err, tol, extra=""):
    passed = bool(err <= tol)
    detail = f"err={err:.3e} tol={tol:.1e}" + (f" {extra}" if extra else "")
    return (name, passed, detail)


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
    r = quadrature.integrate_halfline(
        lambda t: np.exp(-t), [quadrature.DecayHint("exponential-at-infinity")])
    out.append(_check("int e^-t = 1", abs(r.value - 1.0), 1e-9))
    r = quadrature.integrate_halfline(
        lambda t: t ** -0.5 * np.exp(-t),
        [quadrature.DecayHint("algebraic-singularity-at-zero", exponent=-0.5),
         quadrature.DecayHint("exponential-at-infinity")])
    out.append(_check("int t^-1/2 e^-t = sqrt(pi)",
                      abs(r.value - math.sqrt(math.pi)), 1e-9))
    kb = kernels.Kernel("b", specfun.FracOrder(0.5), kernels.SectorPoint(1.0))
    r = quadrature.integrate_halfline(
        kb.fn(0), [quadrature.DecayHint("essential-singularity-at-zero"),
                   quadrature.DecayHint("algebraic-at-infinity", power=1.5)])
    out.append(_check("int b^{1/2,1} = 1", abs(r.value - 1.0), 1e-9))
    samples = [(0.5 * 0.7 ** k, math.exp(-0.5 * 0.7 ** k)) for k in range(10)]
    L, diag = quadrature.richardson_limit(samples, 1.0)
    out.append(_check("richardson e^-y -> 1", abs(L - 1.0), 1e-10))
    return out


def run_kernels(seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    err = 0.0
    for _ in range(20):
        s = rng.uniform(0.05, 0.95)
        ang = rng.uniform(-math.pi / 4 * 0.9, math.pi / 4 * 0.9)
        z = rng.uniform(0.3, 2.0) * cmath.exp(1j * ang)
        kb = kernels.Kernel("b", specfun.FracOrder(s), kernels.SectorPoint(z))
        r = quadrature.integrate_halfline(
            kb.fn(0), [quadrature.DecayHint("essential-singularity-at-zero"),
                       quadrature.DecayHint("algebraic-at-infinity", power=1 + s)])
        err = max(err, abs(r.value - 1.0))
    out.append(_check("normalization int b = 1 (20 draws)", err, 1e-9))
    err_ode = 0.0
    err_euler = 0.0
    for _ in range(10):
        s = rng.uniform(0.05, 0.95)
        z = rng.uniform(0.4, 1.5) * cmath.exp(1j * rng.uniform(-0.7, 0.7))
        t = rng.uniform(0.2, 3.0)
        kb = kernels.Kernel("b", specfun.FracOrder(s), kernels.SectorPoint(z))
        kB = kernels.Kernel("B", specfun.FracOrder(s), kernels.SectorPoint(z))
        for k, rhs_coef in ((kb, -2.0), (kB, -2.0 * (1 - s))):
            ode = (kernels.z_derivative(k, 2, t)
                   + (1 - 2 * s) / z * kernels.z_derivative(k, 1, t)
                   - kernels.time_derivative(k, 1, t))
            scale = max(abs(kernels.time_derivative(k, 1, t)), 1e-30)
            err_ode = max(err_ode, abs(ode) / scale)
            euler = (2 * t * kernels.time_derivative(k, 1, t)
                     + z * kernels.z_derivative(k, 1, t)
                     - rhs_coef * kernels.eval_kernel(k, t))
            err_euler = max(err_euler, abs(euler) / max(abs(kernels.eval_kernel(k, t)), 1e-30))
    out.append(_check("kernel ODE (b and B)", err_ode, 1e-10))
    out.append(_check("Euler identity (b and B)", err_euler, 1e-10))
    s, z, t = 0.25, complex(1.0, 0.2), 0.7
    kB = kernels.Kernel("B", specfun.FracOrder(s), kernels.SectorPoint(z))
    lhs = specfun.cpow(z, 1 - 2 * s) * kernels.z_derivative(kB, 1, t)
    b1 = kernels.Kernel("b", specfun.FracOrder(1 - s), kernels.SectorPoint(z))
    rhs = (s * specfun.gamma(-s) / (2 ** (2 * s - 1) * specfun.gamma(s))
           * kernels.eval_kernel(b1, t))
    out.append(_check("derB identity", abs(lhs - rhs) / abs(rhs), 1e-10))
    err = 0.0
    for sv in (0.5, 1.0, 2.0):
        conv = kernels.convolve_halfline(
            kernels.Kernel("h", specfun.FracOrder(0.3)),
            kernels.Kernel("b", specfun.FracOrder(0.3), kernels.SectorPoint(1.0)), sv)
        ref = kernels.eval_kernel(
            kernels.Kernel("B", specfun.FracOrder(0.3), kernels.SectorPoint(1.0)), sv)
        err = max(err, abs(conv - ref) / abs(ref))
    out.append(_check("B = h * b (convolution)", err, 1e-8))
    e1 = kernels.Kernel("exp_eps", eps=1.0)

    def w_half(t):
        return kernels.weyl_derivative(e1, 0.5, t, tol=1e-13)

    comp = kernels.weyl_derivative(kernels._HintedFn(w_half, 0.0, ("exponential", 1.0)),
                                   0.5, 0.9, tol=1e-11)
    once = kernels.weyl_derivative(e1, 1.0, 0.9)
    out.append(_check("W^{1/2} W^{1/2} = W^1 on e_1", abs(comp - once), 1e-9))
    norms = [kernels.sobolev_norm(kernels.Kernel("b", specfun.FracOrder(0.4),
                                                 kernels.SectorPoint(1.0), eps=e), 1.0)
             for e in (1.0, 0.1, 0.01)]
    base = kernels.sobolev_norm(kernels.Kernel("b", specfun.FracOrder(0.4),
                                               kernels.SectorPoint(1.0)), 1.0)
    gaps = [abs(n - base) for n in norms]
    mono = gaps[0] > gaps[1] > gaps[2]
    out.append(("||b e_eps - b||_(1) decreasing", mono,
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
    r1 = operators.resolvent_solve(A, lam1, f)
    r2 = operators.resolvent_solve(A, lam2, f)
    lhs = r1 - r2
    rhs = (lam2 - lam1) * operators.resolvent_solve(A, lam1,
                                                    operators.resolvent_solve(A, lam2, f))
    out.append(_check("resolvent identity",
                      float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)), 1e-10))
    return out


def _corpus(seed: int):
    rng = np.random.default_rng(seed)
    scalar = operators.LinearOperator("diagonal", [-1.0])
    imag = operators.build_fourier_multiplier(lambda xi: 1j * xi ** 3,
                                              [-2.0, -1.0, 1.0, 2.0])
    lap = operators.build_laplacian_1d(8, 1.0)
    return [
        ("scalar", scalar, np.array([1.0])),
        ("diag-imag", imag, rng.normal(size=4)),
        ("laplacian8", lap, rng.normal(size=8)),
    ]


def run_families(seed: int = 0):
    out = []
    err = 0.0
    for name, A, f in _corpus(seed):
        for alpha in (0.0, 1.0, 1.5):
            fam = families.heat_semigroup(A) if alpha == 0.0 else \
                families.integrate_family(families.heat_semigroup(A), alpha)
            for lam in (0.5, 1.0, 2.0):
                err = max(err, families.verify_resolvent(fam, lam, f))
    out.append(_check("Laplace transform (resolv), corpus x alpha x lam", err, 1e-8))
    err = 0.0
    lap = operators.build_laplacian_1d(8, 1.0)
    rng = np.random.default_rng(seed)
    f8 = rng.normal(size=8)
    for alpha in (0.0, 1.0, 1.5):
        fam = families.integrated_cosine(lap, alpha)
        for lam in (0.5, 1.0, 2.0):
            err = max(err, families.verify_resolvent(fam, lam, f8))
    out.append(_check("Laplace transform (resolcos), alpha x lam", err, 1e-8))
    err = 0.0
    for name, A, f in _corpus(seed):
        for alpha in (0.0, 1.0):
            fam = families.heat_semigroup(A) if alpha == 0.0 else \
                families.integrate_family(families.heat_semigroup(A), alpha)
            for t in (0.5, 1.0):
                err = max(err, families.integra_identity_residual(fam, f, t))
    out.append(_check("integration identity (T_a - t^a/G = T_{a+1} A)", err, 1e-8))
    fam = families.cosine_family(lap)
    c1 = families.cosine_to_semigroup(families.integrate_family(fam, 1.0), 1.0, f8)
    ref = families.heat_semigroup(lap).evaluate(1.0, f8)
    out.append(_check("cosine->semigroup alpha=1",
                      float(np.linalg.norm(c1 - ref) / np.linalg.norm(ref)), 1e-7))
    worst = 0.0
    for name, A, f in _corpus(seed):
        for alpha in (0.0, 1.0):
            fam = families.heat_semigroup(A) if alpha == 0.0 else \
                families.integrate_family(families.heat_semigroup(A), alpha)
            prof = families.temperedness_profile(fam)
            worst = max(worst, prof["max"] / max(prof["median"], 1e-300))
    out.append(("temperedness sup within 10x median", worst <= 10.0,
                f"max/median = {worst:.3f}"))
    return out


def run_funcalc(seed: int = 0):
    out = []
    rng = np.random.default_rng(seed)
    err = 0.0
    for name, A, f in _corpus(seed):
        tol_m = 1e-5 if name == "diag-imag" else 1e-6
        oracle = funcalc.spectral_power_oracle(A, 0.5, f).value
        vals = [funcalc.balakrishnan_power(A, 0.5, f).value]
        for alpha in (0.0, 1.0, 1.5):
            fam = families.heat_semigroup(A) if alpha == 0.0 else \
                families.integrate_family(families.heat_semigroup(A), alpha)
            vals.append(funcalc.integrated_power(fam, 0.5, f, tol=1e-9).value)
        vals.append(oracle)
        worst = 0.0
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                worst = max(worst, float(np.linalg.norm(vals[i] - vals[j])
                                         / np.linalg.norm(oracle)))
        passed = worst <= tol_m
        out.append((f"method agreement ({name})", passed,
                    f"worst pairwise {worst:.2e} tol {tol_m:.0e}"))
    A1 = operators.LinearOperator("diagonal", [-1.0])
    f1 = np.array([1.0])
    fam0 = families.heat_semigroup(A1)
    err = funcalc.cero_residual(kernels.Kernel("exp_eps", eps=0.7), fam0, f1)
    out.append(_check("(cero) alpha=0", err, 1e-8))
    fam1 = families.integrate_family(fam0, 1.0)
    err = funcalc.cero_residual(kernels.Kernel("exp_eps", eps=0.7), fam1, f1)
    out.append(_check("(cero) alpha=1", err, 1e-8))
    lap = operators.build_laplacian_1d(8, 1.0)
    f8 = rng.normal(size=8)
    v = funcalc.shifted_negative_power(lap, 0.5, 0.3, f8)
    dec = operators.spectral_decompose(lap)
    ref = dec.basis @ ((0.5 - dec.eigenvalues) ** -0.3 * (dec.inverse_basis @ f8))
    out.append(_check("(unoss) vs oracle",
                      float(np.linalg.norm(v - ref) / np.linalg.norm(ref)), 1e-8))
    res = funcalc.msm_limit_residual(lap, 0.5, f8, [1.0, 0.1, 0.01, 0.001])
    mono = all(a > b for a, b in zip(res, res[1:]))
    out.append(("(msm) monotone decay", mono,
                "residuals " + ", ".join(f"{r:.2e}" for r in res)))
    return out


def run_extension(seed: int = 0):
    out = []
    rng = np.random.default_rng(seed)
    A1 = operators.LinearOperator("diagonal", [-1.0])
    f1 = np.array([1.0])
    fam0 = families.heat_semigroup(A1)
    err = 0.0
    for y in (0.25, 1.0, 2.0):
        u = extension.solve_semigroup_form(fam0, 0.5, y, f1).value[0]
        err = max(err, abs(u - math.exp(-y)) / math.exp(-y))
    out.append(_check("scalar Poisson u(y) = e^-y", err, 1e-8))
    lap = operators.build_laplacian_1d(8, 1.0)
    f8 = rng.normal(size=8)
    famL = families.heat_semigroup(lap)
    err = 0.0
    errq = 0.0
    for s in (0.25, 0.5, 0.75):
        oracle = funcalc.spectral_power_oracle(lap, s, f8).value
        sol = extension.ExtensionSolver(famL, s, f8)
        tr = extension.neumann_trace(sol)
        err = max(err, float(np.linalg.norm(tr.fractional_power - oracle)
                             / np.linalg.norm(oracle)))
        qt = extension.quotient_trace(sol)
        errq = max(errq, float(np.linalg.norm(qt.fractional_power - tr.fractional_power)
                               / np.linalg.norm(tr.fractional_power)))
    out.append(_check("neumann trace vs oracle (3 sigmas)", err, 1e-4))
    out.append(_check("quotient/neumann consistency", errq, 1e-4))
    c0 = families.cosine_family(A1)
    uc = extension.solve_cosine_form(c0, 0.5, 1.0, f1).value[0]
    out.append(_check("cosine Poisson u(1) = e^-1", abs(uc - math.exp(-1)), 1e-8))
    ucl = extension.solve_cosine_fractional(c0, 0.5, 1.0, f1).value[0]
    out.append(_check("cosine log branch (sigma=1/2)", abs(ucl - math.exp(-1)), 1e-6))
    sol = extension.ExtensionSolver(famL, 0.3, f8)
    rh = extension.pde_residual(sol, lap, 0.3, 0.8, 0.05)
    rh2 = extension.pde_residual(sol, lap, 0.3, 0.8, 0.025)
    ratio = rh / rh2
    out.append(("PDE residual O(h^2)", 3.5 <= ratio <= 4.5, f"ratio {ratio:.3f}"))
    return out


def run_suite(name: str, seed: int = 0):
    table = {
        "specfun": run_specfun,
        "quadrature": run_quadrature,
        "kernels": run_kernels,
        "operators": run_operators,
        "families": run_families,
        "funcalc": run_funcalc,
        "extension": run_extension,
    }
    if name == "all":
        out = []
        for suite in SUITES:
            out.extend((suite, *row) for row in table[suite](seed))
        return out
    if name not in table:
        raise KeyError(name)
    return [(name, *row) for row in table[name](seed)]
