import cmath
import math

import numpy as np
import pytest

from fracext.families import heat_semigroup, integrate_family
from fracext.funcalc import (
    balakrishnan_power,
    cero_residual,
    integrated_power,
    msm_limit_residual,
    pi_alpha,
    shifted_negative_power,
    spectral_integral,
    spectral_power_oracle,
)
from fracext.extension import solve_semigroup_form
from fracext.kernels import Kernel, SectorPoint, _Expr, _HintedFn, _weyl_kernel_fn
from fracext.operators import LinearOperator, apply, spectral_decompose
from fracext.specfun import FracOrder
from tests.conftest import JORDAN, bessel_k_solution, simpson_log

SQRT_PI = math.sqrt(math.pi)


def test_pi_alpha_resolvent_kernel(scalar_op):
    # pi_0(e_eps) = (eps - A)^{-1}
    fam = heat_semigroup(scalar_op)
    v = pi_alpha(Kernel("exp_eps", eps=0.5), fam, [1.0])
    assert abs(v[0] - 1.0 / 1.5) < 1e-11


def test_pi_alpha_b_kernel_is_extension_value(scalar_op):
    fam = heat_semigroup(scalar_op)
    k = Kernel("b", FracOrder(0.5), SectorPoint(1.0))
    v = pi_alpha(k, fam, [1.0])
    assert abs(v[0] - math.exp(-1.0)) < 1e-10


def test_pi_alpha_order_independence(laplacian8, f8):
    # the homomorphism value does not depend on the family order
    k = Kernel("b", FracOrder(0.3), SectorPoint(0.7))
    v0 = pi_alpha(k, heat_semigroup(laplacian8), f8)
    v1 = pi_alpha(k, integrate_family(heat_semigroup(laplacian8), 1.0), f8)
    assert np.linalg.norm(v1 - v0) <= 1e-9 * np.linalg.norm(v0)


def test_unoss_shifted_power(scalar_op, laplacian8, f8):
    v = shifted_negative_power(scalar_op, 1.0, 0.5, [1.0])
    assert abs(v[0] - 2.0 ** -0.5) < 1e-11
    dec = spectral_decompose(laplacian8)
    ref = dec.basis @ ((0.5 - dec.eigenvalues) ** -0.3 * (dec.inverse_basis @ f8))
    v = shifted_negative_power(laplacian8, 0.5, 0.3, f8)
    assert np.linalg.norm(v - ref) <= 1e-8 * np.linalg.norm(ref)


def test_unoss_on_integrated_family(laplacian8, f8):
    fam1 = integrate_family(heat_semigroup(laplacian8), 1.0)
    dec = spectral_decompose(laplacian8)
    ref = dec.basis @ ((1.0 - dec.eigenvalues) ** -0.45 * (dec.inverse_basis @ f8))
    v = shifted_negative_power(laplacian8, 1.0, 0.45, f8, family=fam1)
    assert np.linalg.norm(v - ref) <= 1e-8 * np.linalg.norm(ref)


def test_cero_resolvent_algebra(scalar_op):
    fam = heat_semigroup(scalar_op)
    assert cero_residual(Kernel("exp_eps", eps=0.7), fam, [1.0]) < 1e-10


def test_cero_integrated_family(scalar_op):
    fam1 = integrate_family(heat_semigroup(scalar_op), 1.0)
    assert cero_residual(Kernel("exp_eps", eps=0.7), fam1, [1.0]) <= 1e-8


def test_cero_phi_vanishing_at_zero(scalar_op):
    # phi = t e^{-t}: phi(0) = 0, so -A pi(phi) f = pi(phi') f
    fam = heat_semigroup(scalar_op)
    phi = _Expr(1.0, 1.0, 0.0, 1.0, (1.0,))
    assert cero_residual(phi, fam, [1.0], phi_zero=0.0) < 1e-10


def test_balakrishnan_scalar_values():
    A = LinearOperator("diagonal", [-4.0])
    r = balakrishnan_power(A, 0.5, [1.0])
    assert abs(r.value[0] - 2.0) < 1e-8
    assert r.method == "balakrishnan"


def test_balakrishnan_defective_fallback():
    # the Jordan block -1 + N (N^2 = 0) has no eigenbasis and goes through
    # the resolvent solves; (1 - N)^sigma = 1 - sigma N
    f = np.array([0.3, -1.2])
    v = balakrishnan_power(LinearOperator("dense", [[-1.0, 1.0], [0.0, -1.0]]), 0.4, f).value
    assert np.max(np.abs(v - (f - 0.4 * np.array([f[1], 0.0])))) <= 1e-9


def test_balakrishnan_beta_integral_grid():
    # (sin(pi s)/pi) int lam^{s-1} mu/(lam+mu) dlam = mu^s; brute-force check
    # of one cell plus the full grid against the closed form
    mu, s = 0.5, 0.25
    brute = simpson_log(lambda lam: lam ** (s - 1.0) * mu / (lam + mu), -160, 60)
    brute *= math.sin(math.pi * s) / math.pi
    assert abs(brute - mu ** s) < 1e-10
    for mu in (0.5, 1.0, 4.0):
        for s in (0.25, 0.5, 0.75):
            r = balakrishnan_power(LinearOperator("diagonal", [-mu]), s, [1.0])
            assert abs(r.value[0] - mu ** s) <= 1e-8 * mu ** s


@pytest.mark.parametrize("sigma", [0.97, 0.975, 0.979])
def test_balakrishnan_near_sigma_one(sigma):
    # the lam^{sigma-2} tail decays like e^{-(1-sigma) u} in u = log lam, so
    # the window walk ends at u = 690 above its cut: the tail beyond is
    # added back, and the estimate bounds the error
    A, f = LinearOperator("diagonal", [-1.0, -40.0, -1e4]), np.array([1.0, -0.5, 0.3])
    ref = spectral_power_oracle(A, sigma, f).value
    got = balakrishnan_power(A, sigma, f)
    err = np.max(np.abs(got.value - ref))
    assert err <= 1e-12 * np.max(np.abs(ref))
    assert err <= got.error_estimate


def test_balakrishnan_composition(laplacian8, f8):
    half = balakrishnan_power(laplacian8, 0.5, f8).value
    again = balakrishnan_power(laplacian8, 0.5, half).value
    ref = -apply(laplacian8, f8)
    assert np.linalg.norm(again - ref) <= 1e-6 * np.linalg.norm(ref)


def test_moment_identity():
    # int_0^inf (e^{-t} - 1) t^{-3/2} dt = Gamma(-1/2) = -2 sqrt(pi)
    from fracext.quadrature import integrate_halfline
    r = integrate_halfline(lambda t: np.expm1(-t) * t ** -1.5, -0.5, ("algebraic", 1.5),
                           tol=1e-11)
    assert abs(r.value + 2.0 * SQRT_PI) < 1e-9


def test_integrated_power_alpha0_scalar(scalar_op):
    r = integrated_power(heat_semigroup(scalar_op), 0.5, [1.0])
    assert abs(r.value[0] - 1.0) < 1e-10
    assert r.method == "integrated_formula"


def test_integrated_power_alpha1_scalar(scalar_op):
    fam1 = integrate_family(heat_semigroup(scalar_op), 1.0)
    r = integrated_power(fam1, 0.5, [1.0])
    assert abs(r.value[0] - 1.0) <= 1e-8


def test_integrated_power_jordan_block():
    # (-A)^sigma = (I - N)^sigma = I - sigma N on the Jordan block A = -I + N,
    # through the matrix route's T_1 and T_2
    A, f = LinearOperator("dense", JORDAN), np.array([1.0, 0.5])
    r = integrated_power(integrate_family(heat_semigroup(A), 1.0), 0.4, f, tol=1e-9)
    err = np.max(np.abs(r.value - (f - 0.4 * np.array([0.5, 0.0]))))
    assert err <= 1e-10
    assert err <= r.error_estimate


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_integrated_power_jordan_block_runs_at_integer_order(alpha, monkeypatch):
    # the formula's value does not depend on alpha, so a fractional order
    # runs at ceil(alpha): the matrix route never integrates T_alpha itself
    import fracext.families as families

    orders, matrix_family = [], families._matrix_family

    def counted(A, beta, t, f):
        orders.append(beta)
        assert beta == int(beta), f"matrix route at the fractional order {beta}"
        return matrix_family(A, beta, t, f)

    monkeypatch.setattr(families, "_matrix_family", counted)
    A, f = LinearOperator("dense", JORDAN), np.array([1.0, 0.5])
    r = integrated_power(integrate_family(heat_semigroup(A), alpha), 0.4, f, tol=1e-9)
    err = np.max(np.abs(r.value - (f - 0.4 * np.array([0.5, 0.0]))))
    assert orders and all(b == int(b) for b in orders)
    assert err <= 1e-10
    assert err <= r.error_estimate


@pytest.mark.parametrize("case", ["real z", "sector edge", "i xi^3"])
def test_spectral_factor_dtype_follows_the_data(case, laplacian8, imag_multiplier, monkeypatch):
    # a real spectrum on the unturned ray samples the family factor in
    # float64; a turned ray or an imaginary spectrum samples it in complex128
    import fracext.funcalc as funcalc

    dtypes, factor = set(), funcalc.integrated_exponential

    def recorded(a, alpha, t):
        dtypes.update((np.asarray(a).dtype, np.asarray(t).dtype))
        return factor(a, alpha, t)

    monkeypatch.setattr(funcalc, "integrated_exponential", recorded)
    A = imag_multiplier if case == "i xi^3" else laplacian8
    z = 0.6 * cmath.exp(0.25j * math.pi) if case == "sector edge" else 0.6
    f = np.linspace(1.0, -0.5, A.dimension)
    solve_semigroup_form(integrate_family(heat_semigroup(A), 1.0), 0.4, z, f)
    assert dtypes == {np.dtype(float) if case == "real z" else np.dtype(complex)}


def test_integrated_power_alpha15_laplacian(laplacian3, f3):
    fam = integrate_family(heat_semigroup(laplacian3), 1.5)
    r = integrated_power(fam, 0.3, f3, tol=1e-9)
    oracle = spectral_power_oracle(laplacian3, 0.3, f3).value
    assert np.linalg.norm(r.value - oracle) <= 1e-6 * np.linalg.norm(oracle)


@pytest.mark.parametrize("operator", ["diagonal", "periodic"])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("sigma", [0.021, 0.05])
def test_integrated_power_on_a_zero_mode(operator, alpha, sigma):
    # the zero mode's row of the shifted tail integral is the weight's
    # stated moment 1/(sigma n!), which cancels the subtracted f/(sigma n!)
    # instead of a lane whose (1 + tau)^{-sigma-n-1} underflows before its
    # product with (1 + tau)^n / n! falls below the cut
    from fracext.operators import build_laplacian_1d

    if operator == "diagonal":
        A = LinearOperator("diagonal", [0.0, -1.0, -40.0, -1e4])
        f = np.array([1.0, -0.5, 0.3, 0.8])
    else:
        A, f = build_laplacian_1d(16, 0.5, "periodic"), np.random.default_rng(3).normal(size=16)
    r = integrated_power(integrate_family(heat_semigroup(A), alpha), sigma, f, tol=1e-9)
    oracle = spectral_power_oracle(A, sigma, f).value
    err = np.max(np.abs(r.value - oracle))
    assert err <= 1e-11 * np.max(np.abs(oracle))
    assert err <= r.error_estimate


def test_method_agreement_self_adjoint(scalar_op, laplacian8, f8):
    corpus = [(scalar_op, np.array([1.0])), (laplacian8, f8)]
    for A, f in corpus:
        oracle = spectral_power_oracle(A, 0.5, f).value
        vals = [balakrishnan_power(A, 0.5, f).value, oracle]
        for alpha in (0.0, 1.0, 1.5):
            fam = heat_semigroup(A) if alpha == 0.0 else \
                integrate_family(heat_semigroup(A), alpha)
            vals.append(integrated_power(fam, 0.5, f, tol=1e-9).value)
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert np.linalg.norm(vals[i] - vals[j]) <= 1e-6 * np.linalg.norm(oracle)


def test_method_agreement_imaginary(imag_multiplier, f4):
    oracle = spectral_power_oracle(imag_multiplier, 0.5, f4).value
    vals = [balakrishnan_power(imag_multiplier, 0.5, f4).value, oracle]
    for alpha in (0.0, 1.0, 1.5):
        fam = heat_semigroup(imag_multiplier) if alpha == 0.0 else \
            integrate_family(heat_semigroup(imag_multiplier), alpha)
        vals.append(integrated_power(fam, 0.5, f4, tol=1e-9).value)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert np.linalg.norm(vals[i] - vals[j]) <= 1e-5 * np.linalg.norm(oracle)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_pi_alpha_b_kernel_on_i_xi3_vs_bessel_k(alpha):
    # pi_alpha(b^{sigma,z}) is the extension value, every mode of i xi^3 on
    # its own turned ray; the cero identity holds through the b' weight
    eigs = [1j * xi ** 3 for xi in (-2.0, -1.0, 1.0, 2.0)]
    A, f = LinearOperator("diagonal", eigs), np.array([1.0, -0.5 + 0.2j, 0.3, 0.8])
    fam = heat_semigroup(A) if alpha == 0 else integrate_family(heat_semigroup(A), alpha)
    for sigma, z in ((0.3, 0.7), (complex(0.4, 0.2), 0.6 * cmath.exp(-0.6j))):
        k = Kernel("b", FracOrder(sigma), SectorPoint(z))
        ref = bessel_k_solution(eigs, f, sigma, z)
        assert np.max(np.abs(pi_alpha(k, fam, f) - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert cero_residual(k, fam, f) <= 1e-9


@pytest.mark.parametrize("eigs", [[-1.0, -2.5], [1j, -2j, 0.5j]], ids=["real", "imaginary"])
def test_pi_alpha_fractional_matches_weyl_weight_against_t_alpha(eigs):
    # pi_alpha at fractional alpha integrates -phi' against T_1; the
    # defining integral, W^alpha phi (a Weyl quadrature per node) against
    # T_alpha, is the reference
    A = LinearOperator("diagonal", eigs)
    fam = integrate_family(heat_semigroup(A), 0.5)
    f = np.linspace(1.0, 0.4, len(eigs)) + 0.3j
    k = Kernel("b", FracOrder(0.3), SectorPoint(0.7))
    ref = spectral_integral([_weyl_kernel_fn(k, 0.5, 1e-11)], fam, f, 1e-11)[0][0]
    assert np.max(np.abs(pi_alpha(k, fam, f) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_sampled_weight_needs_sector_on_oscillating_modes():
    # a sampled algebraic weight has the real axis alone unless given a
    # sector: on purely oscillating modes it names itself instead of
    # integrating an undamped tail; given its sector, the modes turn onto
    # decaying rays
    mpmath = pytest.importorskip("mpmath")
    fam = heat_semigroup(LinearOperator("diagonal", [1j, -2j]))

    def weight(t):
        return (1.0 + np.asarray(t)) ** -2.0

    with pytest.raises(ValueError, match=r"of weight 0: no ray in the sector \(0\.0, 0\.0\)"):
        pi_alpha(_HintedFn(weight, 0.0, ("algebraic", 2.0)), fam, np.ones(2))
    got = pi_alpha(_HintedFn(weight, 0.0, ("algebraic", 2.0), (-math.pi, math.pi)), fam,
                   np.ones(2))
    for k, c in enumerate((1.0, -2.0)):
        ref = complex(mpmath.quadosc(lambda t: (1 + t) ** -2 * mpmath.expj(c * t),
                                     [0, mpmath.inf], omega=abs(c)))
        assert abs(got[k] - ref) <= 1e-10 * abs(ref)


def test_homomorphism_property(laplacian8, f8):
    # pi(phi * psi) = pi(phi) pi(psi) for convolution pairs on the corpus
    fam = integrate_family(heat_semigroup(laplacian8), 1.0)
    p_half = pi_alpha(Kernel("exp_eps", eps=0.5), fam, f8)
    p_comp = pi_alpha(Kernel("exp_eps", eps=1.0), fam, p_half)
    conv = _HintedFn(
        lambda t: (np.exp(-0.5 * np.asarray(t)) - np.exp(-np.asarray(t))) / 0.5,
        0.0, ("exponential", 0.5))
    p_conv = pi_alpha(conv, fam, f8)
    assert np.linalg.norm(p_conv - p_comp) <= 1e-7 * np.linalg.norm(f8)


def test_homomorphism_with_power_kernels(scalar_op):
    # (e_1 h^{1/2}) * (e_1 h^{1/2}) = e_1 h^1 = e_1; both sides through pi_0
    fam = heat_semigroup(scalar_op)
    f = np.array([1.0])
    k = Kernel("h", FracOrder(0.5), eps=1.0)
    twice = pi_alpha(k, fam, pi_alpha(k, fam, f))
    direct = pi_alpha(Kernel("exp_eps", eps=1.0), fam, f)
    assert np.linalg.norm(twice - direct) <= 1e-7


def test_homomorphism_b_kernels(scalar_op):
    # b^{s,z1} * b^{s,z2} = b^{s,z1+z2} (subordination semigroup property)
    fam = heat_semigroup(scalar_op)
    f = np.array([1.0])
    s = FracOrder(0.5)
    k1 = Kernel("b", s, SectorPoint(0.6))
    k2 = Kernel("b", s, SectorPoint(0.9))
    comp = pi_alpha(k1, fam, pi_alpha(k2, fam, f))
    direct = pi_alpha(Kernel("b", s, SectorPoint(1.5)), fam, f)
    assert np.linalg.norm(comp - direct) <= 1e-7


def test_positivity_on_eigenvectors(laplacian8):
    dec = spectral_decompose(laplacian8)
    k = 3
    v = dec.basis[:, k].real
    lam = -dec.eigenvalues[k].real
    out = balakrishnan_power(laplacian8, 0.4, v).value
    assert np.linalg.norm(out - lam ** 0.4 * v) <= 1e-9 * lam ** 0.4


def test_msm_scalar_closed_form(scalar_op):
    # (eps - A)^{-sigma} (-A)^sigma f = (1+eps)^{-1/2} f at sigma = 1/2, a = -1
    residuals = msm_limit_residual(scalar_op, 0.5, [1.0], [1.0, 0.1, 0.01, 0.001])
    expect = [abs((1.0 + e) ** -0.5 - 1.0) for e in (1.0, 0.1, 0.01, 0.001)]
    assert np.allclose(residuals, expect, rtol=1e-6)
    assert all(a > b for a, b in zip(residuals, residuals[1:]))


def test_msm_monotone_laplacian(laplacian8, f8):
    residuals = msm_limit_residual(laplacian8, 0.5, f8, [1.0, 0.1, 0.01, 0.001])
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    assert residuals[-1] < 5e-3


def test_oracle_examples():
    A = LinearOperator("diagonal", [-1.0, -4.0])
    r = spectral_power_oracle(A, 0.5, [1.0, 1.0])
    assert np.allclose(r.value, [1.0, 2.0])
    assert r.error_estimate == 0.0


def test_oracle_sigma_one_endpoint(laplacian3, f3):
    r = spectral_power_oracle(laplacian3, 1.0, f3)
    assert np.linalg.norm(r.value + apply(laplacian3, f3)) < 1e-12


def test_oracle_imaginary_branch():
    A = LinearOperator("diagonal", [-1j])
    r = spectral_power_oracle(A, 0.5, [1.0])
    assert abs(r.value[0] - np.exp(1j * math.pi / 4)) < 1e-14
    # cross-check against the Balakrishnan integral
    b = balakrishnan_power(A, 0.5, [1.0])
    assert abs(b.value[0] - r.value[0]) < 1e-8


def test_sigma_validation(scalar_op):
    with pytest.raises(ValueError):
        balakrishnan_power(scalar_op, 1.2, [1.0])
    with pytest.raises(ValueError):
        integrated_power(heat_semigroup(scalar_op), 0.0, [1.0])


def test_bad_sigma_raises_everywhere(scalar_op):
    # a FracOrder and a plain number are read alike; an order outside the
    # strip (or outside the extension band) is a ValueError on every route
    from fracext.extension import ExtensionSolver, pde_residual, solve_semigroup_form
    from fracext.kernels import time_derivative_coefficients, z_derivative_coefficients

    fam = heat_semigroup(scalar_op)
    solver = ExtensionSolver(fam, FracOrder(0.5), [1.0])
    assert pde_residual(solver, scalar_op, FracOrder(0.5), 0.8, 1e-3) < 1e-5
    assert time_derivative_coefficients("b", 2, FracOrder(0.3)) == \
        time_derivative_coefficients("b", 2, 0.3)
    calls = [
        lambda s: solve_semigroup_form(fam, s, 1.0, [1.0]),
        lambda s: ExtensionSolver(fam, s, [1.0]),
        lambda s: pde_residual(solver, scalar_op, s, 0.8, 1e-3),
        lambda s: shifted_negative_power(scalar_op, 0.5, s, [1.0]),
        lambda s: balakrishnan_power(scalar_op, s, [1.0]),
        lambda s: integrated_power(fam, s, [1.0]),
    ]
    for call in calls:
        for bad in (1.2, -0.3, complex(1.1, 0.2)):
            with pytest.raises(ValueError):
                call(bad)
    with pytest.raises(ValueError):
        spectral_power_oracle(scalar_op, -0.5, [1.0])
    for table in (time_derivative_coefficients, z_derivative_coefficients):
        with pytest.raises(ValueError):
            table("b", 2, "half")
