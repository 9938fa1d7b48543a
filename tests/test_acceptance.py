"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report including timings.
"""

import cmath
import math
import time

import numpy as np
import pytest

from fracext.extension import (
    ExtensionSolver,
    neumann_trace,
    pde_residual,
    quotient_trace,
    rotate_imaginary,
    solve_cosine_form,
    solve_cosine_fractional,
    solve_semigroup_form,
)
from fracext.families import (
    cosine_family,
    cosine_to_semigroup,
    heat_semigroup,
    integra_identity_residual,
    integrate_family,
    integrated_cosine,
    verify_resolvent,
)
from fracext.funcalc import (
    balakrishnan_power,
    cero_residual,
    integrated_power,
    msm_limit_residual,
    shifted_negative_power,
    spectral_power_oracle,
)
from fracext.kernels import (
    Kernel,
    SectorPoint,
    _HintedFn,
    convolve_halfline,
    eval_kernel,
    time_derivative,
    weyl_derivative,
    z_derivative,
)
from fracext.operators import (
    LinearOperator,
    build_fourier_multiplier,
    build_laplacian_1d,
    spectral_decompose,
)
from fracext.quadrature import DecayHint, integrate_halfline
from fracext.specfun import FracOrder, cpow, gamma


def _report(name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{name}: {status} ({elapsed:.2f}s / {budget:.0f}s budget) {detail}")
    assert ok, f"{name} failed: {detail}"
    assert elapsed < budget, f"{name} exceeded the runtime budget"


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(20240814)
    scalar = LinearOperator("diagonal", [-1.0])
    lap8 = build_laplacian_1d(8, 1.0, "dirichlet")
    imag = build_fourier_multiplier(lambda xi: 1j * xi ** 3, [-2.0, -1.0, 1.0, 2.0])
    return {
        "scalar": (scalar, np.array([1.0])),
        "laplacian8": (lap8, rng.normal(size=8)),
        "imag": (imag, rng.normal(size=4)),
        "rng": rng,
    }


def test_ac1_scalar_poisson_identity(corpus):
    t0 = time.time()
    A, f = corpus["scalar"]
    fam = heat_semigroup(A)
    worst = 0.0
    for y in (0.25, 1.0, 2.0):
        u = solve_semigroup_form(fam, 0.5, y, f).value[0]
        worst = max(worst, abs(u - math.exp(-y)) / math.exp(-y))
    _report("AC1 scalar Poisson identity", worst <= 1e-8, time.time() - t0, 1.0,
            f"max rel err {worst:.2e}")


def test_ac2_trace_characterization(corpus):
    A, f = corpus["laplacian8"]
    fam = heat_semigroup(A)
    for sigma in (0.25, 0.5, 0.75):
        t0 = time.time()
        oracle = spectral_power_oracle(A, sigma, f).value
        sol = ExtensionSolver(fam, sigma, f)
        tr = neumann_trace(sol)
        rel = float(np.linalg.norm(tr.fractional_power - oracle)
                    / np.linalg.norm(oracle))
        qt = quotient_trace(sol)
        relq = float(np.linalg.norm(qt.fractional_power - tr.fractional_power)
                     / np.linalg.norm(tr.fractional_power))
        ok = rel <= 1e-4 and relq <= 1e-4
        _report(f"AC2 trace characterization (sigma={sigma})", ok,
                time.time() - t0, 10.0,
                f"neumann vs oracle {rel:.2e}, quotient vs neumann {relq:.2e}")


def test_ac3_method_agreement(corpus):
    t0 = time.time()
    worst_sa = 0.0
    for name in ("scalar", "laplacian8"):
        A, f = corpus[name]
        oracle = spectral_power_oracle(A, 0.5, f).value
        vals = [balakrishnan_power(A, 0.5, f).value, oracle]
        for alpha in (0.0, 1.0, 1.5):
            fam = heat_semigroup(A) if alpha == 0.0 else \
                integrate_family(heat_semigroup(A), alpha)
            vals.append(integrated_power(fam, 0.5, f, tol=1e-9).value)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                worst_sa = max(worst_sa, float(np.linalg.norm(vals[i] - vals[j])
                                               / np.linalg.norm(oracle)))
    A, f = corpus["imag"]
    oracle = spectral_power_oracle(A, 0.5, f).value
    vals = [balakrishnan_power(A, 0.5, f).value, oracle]
    for alpha in (0.0, 1.0, 1.5):
        fam = heat_semigroup(A) if alpha == 0.0 else \
            integrate_family(heat_semigroup(A), alpha)
        vals.append(integrated_power(fam, 0.5, f, tol=1e-9).value)
    worst_im = 0.0
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            worst_im = max(worst_im, float(np.linalg.norm(vals[i] - vals[j])
                                           / np.linalg.norm(oracle)))
    ok = worst_sa <= 1e-6 and worst_im <= 1e-5
    _report("AC3 fractional-power method agreement", ok, time.time() - t0, 30.0,
            f"self-adjoint {worst_sa:.2e} (tol 1e-6), imaginary {worst_im:.2e} (tol 1e-5)")


def test_ac4_kernel_identity_suite(corpus):
    t0 = time.time()
    rng = np.random.default_rng(11)
    details = []
    # normalization int b = 1 at 1e-9
    worst = 0.0
    for _ in range(20):
        s = rng.uniform(0.05, 0.95)
        z = rng.uniform(0.3, 2.0) * cmath.exp(1j * rng.uniform(-0.9, 0.9) * math.pi / 4)
        k = Kernel("b", FracOrder(s), SectorPoint(z))
        r = integrate_halfline(k.fn(0),
                               [DecayHint("essential-singularity-at-zero"),
                                DecayHint("algebraic-at-infinity", power=1 + s)],
                               tol=1e-11)
        worst = max(worst, abs(r.value - 1.0))
    ok = worst <= 1e-9
    details.append(f"int b = 1: {worst:.2e}")
    # B = h * b at 3 points x 20 draws at 1e-8
    worst_c = 0.0
    for _ in range(20):
        s = rng.uniform(0.08, 0.92)
        z = rng.uniform(0.5, 1.6) * cmath.exp(1j * rng.uniform(-0.6, 0.6))
        for sv in (0.5, 1.0, 2.0):
            conv = convolve_halfline(Kernel("h", FracOrder(s)),
                                     Kernel("b", FracOrder(s), SectorPoint(z)), sv)
            ref = eval_kernel(Kernel("B", FracOrder(s), SectorPoint(z)), sv)
            worst_c = max(worst_c, abs(conv - ref) / max(abs(ref), 1e-30))
    ok = ok and worst_c <= 1e-8
    details.append(f"B = h*b: {worst_c:.2e}")
    # derB at 1e-10
    s, z, t = 0.25, complex(1.0, 0.2), 0.7
    kB = Kernel("B", FracOrder(s), SectorPoint(z))
    lhs = cpow(z, 1 - 2 * s) * z_derivative(kB, 1, t)
    rhs = (s * gamma(-s) / (2 ** (2 * s - 1) * gamma(s))
           * eval_kernel(Kernel("b", FracOrder(1 - s), SectorPoint(z)), t))
    err_derB = abs(lhs - rhs) / abs(rhs)
    ok = ok and err_derB <= 1e-10
    details.append(f"derB: {err_derB:.2e}")
    # kernel ODEs pointwise at 1e-10 relative
    worst_ode = 0.0
    for _ in range(15):
        s = rng.uniform(0.05, 0.95)
        z = rng.uniform(0.4, 1.5) * cmath.exp(1j * rng.uniform(-0.7, 0.7))
        t = rng.uniform(0.2, 3.0)
        for kind in ("b", "B"):
            k = Kernel(kind, FracOrder(s), SectorPoint(z))
            res = (z_derivative(k, 2, t) + (1 - 2 * s) / z * z_derivative(k, 1, t)
                   - time_derivative(k, 1, t))
            scale = max(abs(z_derivative(k, 2, t)), abs(time_derivative(k, 1, t)))
            worst_ode = max(worst_ode, abs(res) / scale)
    ok = ok and worst_ode <= 1e-10
    details.append(f"kernel ODEs: {worst_ode:.2e}")
    # Weyl composition on e_1 at 1e-9
    e1 = Kernel("exp_eps", eps=1.0)

    def half(u):
        return weyl_derivative(e1, 0.5, np.atleast_1d(u), tol=1e-13).reshape(np.shape(u))

    comp = weyl_derivative(_HintedFn(half, 0.0, ("exponential", 1.0)), 0.5, 0.9,
                           tol=1e-11)
    err_w = abs(comp - weyl_derivative(e1, 1.0, 0.9))
    ok = ok and err_w <= 1e-9
    details.append(f"W composition: {err_w:.2e}")
    _report("AC4 kernel identity suite", ok, time.time() - t0, 20.0,
            "; ".join(details))


def test_ac5_family_identity_suite(corpus):
    t0 = time.time()
    details = []
    worst = 0.0
    for name in ("scalar", "imag", "laplacian8"):
        A, f = corpus[name]
        for alpha in (0.0, 1.0, 1.5):
            fam = heat_semigroup(A) if alpha == 0.0 else \
                integrate_family(heat_semigroup(A), alpha)
            for lam in (0.5, 1.0, 2.0):
                worst = max(worst, verify_resolvent(fam, lam, f))
    A8, f8 = corpus["laplacian8"]
    for alpha in (0.0, 1.0, 1.5):
        fam = integrated_cosine(A8, alpha)
        for lam in (0.5, 1.0, 2.0):
            worst = max(worst, verify_resolvent(fam, lam, f8))
    ok = worst <= 1e-8
    details.append(f"(resolv)/(resolcos): {worst:.2e}")
    worst_i = 0.0
    for name in ("scalar", "imag", "laplacian8"):
        A, f = corpus[name]
        for alpha in (0.0, 1.0):
            fam = heat_semigroup(A) if alpha == 0.0 else \
                integrate_family(heat_semigroup(A), alpha)
            for t in (0.5, 1.0):
                worst_i = max(worst_i, integra_identity_residual(fam, f, t))
    ok = ok and worst_i <= 1e-8
    details.append(f"(integra): {worst_i:.2e}")
    worst_c = 0.0
    for name in ("scalar", "laplacian8"):
        A, f = corpus[name]
        for alpha in (0.0, 1.0):
            fam = heat_semigroup(A) if alpha == 0.0 else \
                integrate_family(heat_semigroup(A), alpha)
            worst_c = max(worst_c, cero_residual(Kernel("exp_eps", eps=0.7), fam, f))
    ok = ok and worst_c <= 1e-8
    details.append(f"(cero): {worst_c:.2e}")
    worst_u = 0.0
    for name in ("scalar", "laplacian8"):
        A, f = corpus[name]
        dec = spectral_decompose(A)
        ref = dec.basis @ ((0.5 - dec.eigenvalues) ** -0.3 * (dec.inverse_basis @ f))
        v = shifted_negative_power(A, 0.5, 0.3, f)
        worst_u = max(worst_u, float(np.linalg.norm(v - ref) / np.linalg.norm(ref)))
    ok = ok and worst_u <= 1e-8
    details.append(f"(unoss): {worst_u:.2e}")
    mono_ok = True
    for name in ("scalar", "laplacian8"):
        A, f = corpus[name]
        res = msm_limit_residual(A, 0.5, f, [1.0, 0.1, 0.01, 0.001])
        mono_ok = mono_ok and all(a > b for a, b in zip(res, res[1:]))
    ok = ok and mono_ok
    details.append(f"(msm) monotone: {mono_ok}")
    _report("AC5 family identity suite", ok, time.time() - t0, 60.0,
            "; ".join(details))


def test_ac6_cosine_representation(corpus):
    t0 = time.time()
    details = []
    # cosine_to_semigroup reproduces exp(tA) at 1e-7
    worst = 0.0
    lap3 = build_laplacian_1d(3, 1.0)
    rng = np.random.default_rng(3)
    f3 = rng.normal(size=3)
    cases = [(LinearOperator("diagonal", [-1.0]), np.array([1.0]), 1.0, 0.0),
             (LinearOperator("diagonal", [-4.0]), np.array([1.0]), 0.5, 0.0),
             (lap3, f3, 1.0, 1.0)]
    for A, f, z, alpha in cases:
        fam = cosine_family(A) if alpha == 0.0 else integrated_cosine(A, alpha)
        got = cosine_to_semigroup(fam, z, f)
        ref = heat_semigroup(A).evaluate(z, f)
        worst = max(worst, float(np.linalg.norm(got - ref) / np.linalg.norm(ref)))
    ok = worst <= 1e-7
    details.append(f"cosine->semigroup: {worst:.2e}")
    # wave-side solvers vs heat-side solver at 1e-6 (including sigma = 1/2 log)
    worst_u = 0.0
    for A, f in (corpus["scalar"], (lap3, f3)):
        fam = heat_semigroup(A)
        c0 = cosine_family(A)
        for s in (0.25, 0.5, 0.75):
            for y in (0.7, 1.3):
                base = solve_semigroup_form(fam, s, y, f).value
                uc = solve_cosine_form(c0, s, y, f).value
                ucf = solve_cosine_fractional(c0, s, y, f).value
                scale = np.linalg.norm(f)
                worst_u = max(worst_u,
                              float(np.linalg.norm(uc - base) / scale),
                              float(np.linalg.norm(ucf - base) / scale))
    ok = ok and worst_u <= 1e-6
    details.append(f"wave-side vs heat-side: {worst_u:.2e}")
    _report("AC6 cosine-representation equivalence", ok, time.time() - t0, 30.0,
            "; ".join(details))


def test_ac7_pde_residual_decay(corpus):
    t0 = time.time()
    A, f = corpus["laplacian8"]
    fam = heat_semigroup(A)
    ratios = []
    sol = ExtensionSolver(fam, 0.3, f)
    for z in (0.5, 0.8, 1.2, 0.8 * cmath.exp(1j * math.pi / 8), 1.5):
        r_h = pde_residual(sol, A, 0.3, z, 0.04)
        r_h2 = pde_residual(sol, A, 0.3, z, 0.02)
        ratios.append(r_h / r_h2)
    Ad = LinearOperator("diagonal", [-1.0, -2.0])
    fd = np.array([1.0, 0.5])
    scx = complex(0.4, 0.2)
    solc = ExtensionSolver(heat_semigroup(Ad), scx, fd)
    for z in (0.6, 0.9):
        r_h = pde_residual(solc, Ad, scx, z, 0.04)
        r_h2 = pde_residual(solc, Ad, scx, z, 0.02)
        ratios.append(r_h / r_h2)
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    _report("AC7 PDE residual O(h^2) decay", ok, time.time() - t0, 10.0,
            "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_ac8_rotation_corollary(corpus):
    t0 = time.time()
    lap3 = build_laplacian_1d(3, 1.0)
    lam = np.sort(np.linalg.eigvalsh(lap3.matrix()))
    H = LinearOperator("diagonal", lam)
    iH = LinearOperator("diagonal", 1j * lam)
    rng = np.random.default_rng(5)
    f = rng.normal(size=3)
    vH = ExtensionSolver(heat_semigroup(H), 0.3, f)
    fam_iH = integrate_family(heat_semigroup(iH), 1.0)
    worst = 0.0
    for y in (0.25, 0.5):
        u_rot = rotate_imaginary(vH, y)
        u_dir = solve_semigroup_form(fam_iH, 0.3, y, f).value
        worst = max(worst, float(np.linalg.norm(u_rot - u_dir)
                                 / np.linalg.norm(u_dir)))
    _report("AC8 rotation corollary", worst <= 1e-5, time.time() - t0, 10.0,
            f"rotation vs direct solve {worst:.2e}")
