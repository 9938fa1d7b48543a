"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The invariants are computed by `fracext.verify`, as for `fracext verify`;
a test holds only its inputs, the aggregation and the report.  Run with
`pytest tests/test_acceptance.py -v -s` to see the report with timings.
"""

import cmath
import math
import time

import numpy as np
import pytest

from fracext import verify
from fracext.operators import LinearOperator, build_fourier_multiplier, build_laplacian_1d


def _report(name, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{name}: {status} ({elapsed:.2f}s / {budget:.0f}s budget) {detail}")
    assert ok, f"{name} failed: {detail}"
    assert elapsed < budget, f"{name} exceeded the runtime budget"


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(20240814)
    imag = build_fourier_multiplier(lambda xi: 1j * xi ** 3, [-2.0, -1.0, 1.0, 2.0])
    return {"scalar": (LinearOperator("diagonal", [-1.0]), np.array([1.0])),
            "laplacian8": (build_laplacian_1d(8, 1.0, "dirichlet"), rng.normal(size=8)),
            "imag": (imag, rng.normal(size=4))}


def test_ac1_scalar_poisson_identity(corpus):
    t0 = time.time()
    worst = verify.poisson_error((0.25, 1.0, 2.0))
    _report("AC1 scalar Poisson identity", worst <= 1e-8, time.time() - t0, 1.0,
            f"max rel err {worst:.2e}")


def test_ac2_trace_characterization(corpus):
    A, f = corpus["laplacian8"]
    for sigma in (0.25, 0.5, 0.75):
        t0 = time.time()
        rel, relq = verify.trace_errors(A, f, sigma)
        _report(f"AC2 trace characterization (sigma={sigma})", rel <= 1e-4 and relq <= 1e-4,
                time.time() - t0, 10.0,
                f"neumann vs oracle {rel:.2e}, quotient vs neumann {relq:.2e}")


def test_ac3_method_agreement(corpus):
    t0 = time.time()
    worst_sa = max(verify.method_agreement(*corpus[name]) for name in ("scalar", "laplacian8"))
    worst_im = verify.method_agreement(*corpus["imag"])
    ok = worst_sa <= 1e-6 and worst_im <= 1e-5
    _report("AC3 fractional-power method agreement", ok, time.time() - t0, 30.0,
            f"self-adjoint {worst_sa:.2e} (tol 1e-6), imaginary {worst_im:.2e} (tol 1e-5)")


def test_ac4_kernel_identity_suite(corpus):
    t0 = time.time()
    rng = np.random.default_rng(11)
    # draws in the order (sigma, |z|, arg z[, t]) of one seeded stream
    norm = verify.normalization_error(
        [(rng.uniform(0.05, 0.95),
          rng.uniform(0.3, 2.0) * cmath.exp(1j * rng.uniform(-0.9, 0.9) * math.pi / 4))
         for _ in range(20)])
    conv = verify.convolution_error(
        [(rng.uniform(0.08, 0.92), rng.uniform(0.5, 1.6) * cmath.exp(1j * rng.uniform(-0.6, 0.6)))
         for _ in range(20)])
    derb = verify.derB_error(0.25, complex(1.0, 0.2), 0.7)
    ode, _ = verify.kernel_pde_errors(
        [(rng.uniform(0.05, 0.95), rng.uniform(0.4, 1.5) * cmath.exp(1j * rng.uniform(-0.7, 0.7)),
          rng.uniform(0.2, 3.0)) for _ in range(15)])
    weyl = verify.weyl_composition_error(0.9)
    ok = norm <= 1e-9 and conv <= 1e-8 and derb <= 1e-10 and ode <= 1e-10 and weyl <= 1e-9
    _report("AC4 kernel identity suite", ok, time.time() - t0, 20.0,
            f"int b = 1: {norm:.2e}; B = h*b: {conv:.2e}; derB: {derb:.2e}; "
            f"kernel ODEs: {ode:.2e}; W composition: {weyl:.2e}")


def test_ac5_family_identity_suite(corpus):
    t0 = time.time()
    every, real = ("scalar", "imag", "laplacian8"), ("scalar", "laplacian8")
    resolv = max([verify.laplace_error(*corpus[name]) for name in every]
                 + [verify.laplace_error(*corpus["laplacian8"], cosine=True)])
    integra = max(verify.integration_error(*corpus[name]) for name in every)
    cero = max(verify.cero_error(*corpus[name], alpha) for name in real for alpha in (0.0, 1.0))
    unoss = max(verify.unoss_error(*corpus[name]) for name in real)
    mono = all([verify.decreasing(verify.msm_residuals(*corpus[name])) for name in real])
    ok = resolv <= 1e-8 and integra <= 1e-8 and cero <= 1e-8 and unoss <= 1e-8 and mono
    _report("AC5 family identity suite", ok, time.time() - t0, 60.0,
            f"(resolv)/(resolcos): {resolv:.2e}; (integra): {integra:.2e}; (cero): {cero:.2e}; "
            f"(unoss): {unoss:.2e}; (msm) monotone: {mono}")


def test_ac6_cosine_representation(corpus):
    t0 = time.time()
    lap3 = build_laplacian_1d(3, 1.0)
    f3 = np.random.default_rng(3).normal(size=3)
    # (A, f, t, alpha): cosine_to_semigroup reproduces exp(tA) f
    cases = [(LinearOperator("diagonal", [-1.0]), np.array([1.0]), 1.0, 0.0),
             (LinearOperator("diagonal", [-4.0]), np.array([1.0]), 0.5, 0.0),
             (lap3, f3, 1.0, 1.0)]
    worst = max(verify.cosine_semigroup_error(*case) for case in cases)
    worst_u = max(verify.wave_heat_error(A, f, (0.25, 0.5, 0.75), (0.7, 1.3))
                  for A, f in (corpus["scalar"], (lap3, f3)))
    _report("AC6 cosine-representation equivalence", worst <= 1e-7 and worst_u <= 1e-6,
            time.time() - t0, 30.0,
            f"cosine->semigroup: {worst:.2e}; wave-side vs heat-side: {worst_u:.2e}")


def test_ac7_pde_residual_decay(corpus):
    t0 = time.time()
    A, f = corpus["laplacian8"]
    zs = (0.5, 0.8, 1.2, 0.8 * cmath.exp(1j * math.pi / 8), 1.5)
    ratios = verify.pde_ratios(A, f, 0.3, zs, 0.04)
    ratios += verify.pde_ratios(LinearOperator("diagonal", [-1.0, -2.0]), np.array([1.0, 0.5]),
                                complex(0.4, 0.2), (0.6, 0.9), 0.04)
    _report("AC7 PDE residual O(h^2) decay", all(3.5 <= r <= 4.5 for r in ratios),
            time.time() - t0, 10.0, "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_ac8_rotation_corollary(corpus):
    t0 = time.time()
    lam = np.sort(np.linalg.eigvalsh(build_laplacian_1d(3, 1.0).matrix()))
    f = np.random.default_rng(5).normal(size=3)
    worst = verify.rotation_error(lam, f, 0.3, (0.25, 0.5))
    _report("AC8 rotation corollary", worst <= 1e-5, time.time() - t0, 10.0,
            f"rotation vs direct solve {worst:.2e}")


@pytest.mark.parametrize("suite", verify.SUITES)
def test_verify_suite_rows_pass(suite):
    failed = [row for row in verify.run_suite(suite) if not row[2]]
    assert not failed, failed
