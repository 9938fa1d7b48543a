import cmath
import math

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
    solve_fractional_data,
    solve_regularized,
    solve_semigroup_form,
)
from fracext.families import cosine_family, heat_semigroup, integrate_family, integrated_cosine
from fracext.funcalc import balakrishnan_power, spectral_power_oracle
from fracext.operators import LinearOperator, build_fourier_multiplier, spectral_decompose
from fracext.specfun import FracOrder, constants_for
from tests.conftest import JORDAN, bessel_k_solution, jordan_solution, simpson_log

# frozen values of the scalar extension (brute-force subordination quadrature,
# cross-checked against the closed Bessel-type form)
SCALAR_U = {
    (0.25, 0.5): 0.37458314746083743,
    (0.25, 1.0): 0.1998050211742967,
    (0.30, 0.5): 0.4306988530399082,
    (0.30, 1.0): 0.23625832779735154,
    (0.75, 0.5): 0.7453832258093597,
    (0.75, 1.0): 0.5005347618457846,
}


def _subordination_oracle(sigma, y, lam=1.0):
    def f(t):
        return np.exp(-y * y / (4.0 * t)) * np.exp(-lam * t) * t ** (-1.0 - sigma)

    v = simpson_log(f, -40, 20)
    return (y ** (2 * sigma) / (4 ** sigma * math.gamma(sigma)) * v).real


def test_scalar_poisson_identity(scalar_op):
    fam = heat_semigroup(scalar_op)
    for y in (0.25, 1.0, 2.0):
        ref = math.exp(-y)
        assert abs(_subordination_oracle(0.5, y) - ref) < 1e-12  # oracle sanity
        u = solve_semigroup_form(fam, 0.5, y, [1.0]).value[0]
        assert abs(u - ref) / ref < 1e-8


@pytest.mark.parametrize("sigma,y", sorted(SCALAR_U))
def test_scalar_general_sigma_frozen(scalar_op, sigma, y):
    fam = heat_semigroup(scalar_op)
    u = solve_semigroup_form(fam, sigma, y, [1.0]).value[0]
    assert abs(u - SCALAR_U[(sigma, y)]) < 1e-9


def test_boundary_datum_recovered(scalar_op, laplacian3, f3):
    # ||u(z) - f|| -> 0 along rays in the subsector, monotone at the tail
    fam = heat_semigroup(laplacian3)
    devs = []
    for y in (0.05, 0.02, 0.008, 0.001):
        u = solve_semigroup_form(fam, 0.4, y, f3).value
        devs.append(np.linalg.norm(u - f3))
    # deviation is O(y^{2 sigma}); at y = 1e-3 that is ~ 4e-3 here
    assert devs[-1] < 1e-2 * np.linalg.norm(f3)
    assert devs[0] > devs[1] > devs[2] > devs[3]
    u = solve_semigroup_form(heat_semigroup(scalar_op), 0.5, 1e-3, [1.0]).value[0]
    assert abs(u - 1.0) <= 1e-2


def test_uniform_sector_bound(laplacian3, f3):
    # sup over sampled S_{pi/8} of ||u|| / ||f|| stays under the measured
    # L1-norm bound of the kernel times the family contraction constant
    from fracext.kernels import Kernel, SectorPoint, sobolev_norm
    fam = heat_semigroup(laplacian3)
    worst = 0.0
    bound = 0.0
    for r in (0.1, 0.5, 1.5):
        for ang in (-math.pi / 8, 0.0, math.pi / 8):
            z = r * cmath.exp(1j * ang)
            u = solve_semigroup_form(fam, 0.35, z, f3).value
            worst = max(worst, np.linalg.norm(u) / np.linalg.norm(f3))
            bound = max(bound, sobolev_norm(
                Kernel("b", FracOrder(0.35), SectorPoint(z)), 0.0))
    assert worst <= 1.001 * bound  # semigroup contraction constant is 1


def test_semigroup_alpha_paths_agree(scalar_op):
    fam0 = heat_semigroup(scalar_op)
    fam1 = integrate_family(fam0, 1.0)
    u0 = solve_semigroup_form(fam0, 0.3, 0.7, [1.0]).value[0]
    u1 = solve_semigroup_form(fam1, 0.3, 0.7, [1.0]).value[0]
    assert abs(u0 - u1) < 1e-10


def test_regularized_scalar_and_rate(scalar_op):
    fam = heat_semigroup(scalar_op)
    ev = solve_regularized(fam, 0.5, 1.0, [1.0], (1.0, 0.1, 0.01, 0.001, 1e-4, 1e-5))
    assert abs(ev.value[0] - math.exp(-1.0)) < 1e-4
    assert ev.error_estimate < 1e-3
    # the Richardson estimate bounds the true error
    assert ev.error_estimate >= abs(ev.value[0] - math.exp(-1.0))


def test_regularized_agreement_laplacian(laplacian8, f8):
    fam = heat_semigroup(laplacian8)
    u_semi = solve_semigroup_form(fam, 0.3, 0.7, f8).value
    u_reg = solve_regularized(fam, 0.3, 0.7, f8,
                              (0.1, 0.01, 0.001, 1e-4, 1e-5, 1e-6, 1e-7)).value
    assert np.linalg.norm(u_reg - u_semi) <= 1e-6 * np.linalg.norm(u_semi)


def test_regularized_richardson_vs_semigroup(laplacian8, f8):
    # Richardson over the eps ladder removes the integer-power eps bias, and
    # its estimate bounds the error left
    fam = integrate_family(heat_semigroup(laplacian8), 1.0)
    for sigma in (0.2, complex(0.5, 0.3), 0.8):
        power = spectral_power_oracle(laplacian8, sigma, f8).value
        for z in (0.3, 1.2):
            ev = solve_regularized(fam, sigma, z, f8, (1e-2, 1e-3, 1e-4, 1e-5),
                                   power_input=power, tol=1e-10)
            ref = solve_semigroup_form(fam, sigma, z, f8).value
            assert np.linalg.norm(ev.value - ref) <= 1e-10 * np.linalg.norm(ref)
            assert ev.error_estimate >= np.max(np.abs(ev.value - ref))


def test_fractional_data_scalar(scalar_op):
    fam = heat_semigroup(scalar_op)
    u = solve_fractional_data(fam, 0.5, 1.0, [1.0]).value[0]
    assert abs(u - math.exp(-1.0)) < 1e-9
    ev = solve_fractional_data(fam, 0.5, 0.0, [1.0])
    assert ev.value[0] == 1.0  # z = 0 gives exactly f


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("sigma", [0.15, 0.2])
@pytest.mark.parametrize("spectrum", ["diagonal", "i_xi3"])
def test_fractional_data_small_sigma_vs_semigroup(spectrum, sigma, alpha):
    # the quadrature samples the derivatives of B - h near t = 1e-160, where
    # (1/t)^k overflows while e^{-z^2/(4t)} underflows
    if spectrum == "diagonal":
        A, f = LinearOperator("diagonal", [-1.0, -2.5]), [1.0, -0.6]
    else:
        A = build_fourier_multiplier(lambda xi: 1j * xi ** 3, [1.18, 1.69, 0.84, 1.41])
        f = [1.0, -0.5, 0.3, 0.8]
    fam = integrate_family(heat_semigroup(A), alpha)
    got = solve_fractional_data(fam, sigma, 0.688, f).value
    ref = solve_semigroup_form(fam, sigma, 0.688, f).value
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_fractional_data_boundary_ray(scalar_op):
    # closed-sector value vs the regularized formula approached from inside
    fam = heat_semigroup(scalar_op)
    zb = 0.7 * cmath.exp(1j * math.pi / 4)
    ub = solve_fractional_data(fam, 0.4, zb, [1.0]).value[0]
    z_in = 0.7 * cmath.exp(1j * (math.pi / 4 - 1e-3))
    u_in = solve_regularized(fam, 0.4, z_in, [1.0],
                             (0.1, 0.01, 0.001, 1e-4, 1e-5)).value[0]
    assert abs(ub - u_in) < 1e-3  # interior point sits 1e-3 radians away
    # and against the semigroup form evaluated on the boundary by rotation
    u_rot = solve_semigroup_form(fam, 0.4, zb, [1.0]).value[0]
    assert abs(ub - u_rot) < 1e-9


def test_cosine_form_poisson(scalar_op):
    c0 = cosine_family(scalar_op)
    for y in (0.5, 1.0, 2.0):
        u = solve_cosine_form(c0, 0.5, y, [1.0]).value[0]
        assert abs(u - math.exp(-y)) < 1e-9


def test_cosine_form_integrated_orders(scalar_op):
    # at alpha = 1 the smooth remainders of the two exponential halves of
    # the integrated cosine cancel exactly, leaving no remainder integral
    for alpha in (1.0, 2.0):
        u = solve_cosine_form(integrated_cosine(scalar_op, alpha), 0.5, 0.9, [1.0]).value[0]
        assert abs(u - math.exp(-0.9)) < 1e-12


def test_cosine_form_vs_semigroup_quarter(scalar_op):
    c0 = cosine_family(scalar_op)
    fam = heat_semigroup(scalar_op)
    uc = solve_cosine_form(c0, 0.25, 1.0, [1.0]).value[0]
    us = solve_semigroup_form(fam, 0.25, 1.0, [1.0]).value[0]
    assert abs(uc - us) < 1e-7


def test_cosine_fractional_values(scalar_op):
    c0 = cosine_family(scalar_op)
    fam = heat_semigroup(scalar_op)
    for s in (0.25, 0.75):
        ucf = solve_cosine_fractional(c0, s, 1.0, [1.0]).value[0]
        us = solve_semigroup_form(fam, s, 1.0, [1.0]).value[0]
        assert abs(ucf - us) < 1e-6
    # sigma = 1/2 dispatches to the logarithm kernel
    ucl = solve_cosine_fractional(c0, 0.5, 1.0, [1.0]).value[0]
    assert abs(ucl - math.exp(-1.0)) < 1e-6


def test_cosine_fractional_small_z(scalar_op):
    c0 = cosine_family(scalar_op)
    u = solve_cosine_fractional(c0, 0.25, 1e-3, [1.0]).value[0]
    # u - f ~ c_sigma z^{2 sigma} (-A)^sigma f ~ 0.03 at z = 1e-3, sigma = 1/4
    assert abs(u - 1.0) < 5e-2
    u = solve_cosine_fractional(c0, 0.25, 1e-5, [1.0]).value[0]
    assert abs(u - 1.0) < 5e-3


def test_cosine_kernel_tail_expansion():
    # (1+t^2)^{sigma-1/2} - t^{2 sigma-1} ~ (sigma-1/2) t^{2 sigma-3} at infinity
    from fracext.extension import _CosTerms
    s = 0.25
    expr = _CosTerms(1.0, [(1.0, 0.0, s - 0.5, "diff")])
    t = np.array([1e4, 1e5])
    lead = (s - 0.5) * t ** (2 * s - 3.0)
    assert np.allclose(expr(t).real / lead, 1.0, rtol=1e-4)


def test_cosine_solvers_complex_z(scalar_op):
    # holomorphic in the right half-plane; conjugation branch included
    c0 = cosine_family(scalar_op)
    for ang in (math.pi / 8, -math.pi / 8):
        z = 0.9 * cmath.exp(1j * ang)
        u = solve_cosine_form(c0, 0.5, z, [1.0]).value[0]
        assert abs(u - cmath.exp(-z)) < 1e-8


def test_cosine_solvers_below_real_axis_vs_semigroup(laplacian3):
    # below the real axis a cosine kernel is the conjugate of its value at
    # conj z and conj sigma: complex sigma, and complex data with a given
    # (-A)^sigma f, must agree with the heat side there too
    f = np.array([1.0, -0.5 + 0.3j, 0.8j])
    c0, heat = cosine_family(laplacian3), heat_semigroup(laplacian3)
    zs = 0.9 * np.exp(1j * np.array([math.pi / 8, -math.pi / 8]))
    for s in (0.3, complex(0.4, 0.2)):
        ref = solve_semigroup_form(heat, s, zs, f).value
        power = spectral_power_oracle(laplacian3, s, f).value
        for got in (solve_cosine_form(c0, s, zs, f), solve_cosine_fractional(c0, s, zs, f),
                    solve_cosine_fractional(c0, s, zs, f, power_input=power)):
            assert np.max(np.abs(got.value - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_cross_formula_agreement(laplacian3, f3, rng):
    fam = heat_semigroup(laplacian3)
    c0 = cosine_family(laplacian3)
    draws = 0
    rng2 = np.random.default_rng(7)
    while draws < 10:
        s = rng2.uniform(0.1, 0.9)
        if abs(s - 0.5) < 1e-3:
            continue
        draws += 1
        y = rng2.uniform(0.3, 1.5)
        power = balakrishnan_power(laplacian3, s, f3, tol=1e-11).value
        vals = [
            solve_semigroup_form(fam, s, y, f3).value,
            solve_regularized(fam, s, y, f3, (0.01, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7),
                              power_input=power).value,
            solve_fractional_data(fam, s, y, f3, power_input=power).value,
            solve_cosine_form(c0, s, y, f3).value,
            solve_cosine_fractional(c0, s, y, f3, power_input=power).value,
        ]
        scale = np.linalg.norm(f3)  # u is bounded by the data norm
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert np.linalg.norm(vals[i] - vals[j]) <= 1e-6 * scale, (s, y, i, j)


def test_linearity_in_data(laplacian3, rng):
    fam = heat_semigroup(laplacian3)
    f = rng.normal(size=3)
    g = rng.normal(size=3)
    a, b = 1.7, -0.4
    u_ab = solve_semigroup_form(fam, 0.45, 0.8, a * f + b * g).value
    u_f = solve_semigroup_form(fam, 0.45, 0.8, f).value
    u_g = solve_semigroup_form(fam, 0.45, 0.8, g).value
    assert np.linalg.norm(u_ab - a * u_f - b * u_g) < 1e-9


def test_neumann_trace_scalar(scalar_op):
    sol = ExtensionSolver(heat_semigroup(scalar_op), 0.5, [1.0])
    tr = neumann_trace(sol)
    assert abs(tr.limit[0] + 1.0) < 1e-6
    assert abs(tr.fractional_power[0] - 1.0) < 1e-6
    assert tr.samples_used == 13


def test_trace_records_running_extrapolants(scalar_op):
    # one extrapolant per sample: the sample itself below three, then the
    # Richardson limit of that prefix, ending at the reported limit
    sol = ExtensionSolver(heat_semigroup(scalar_op), 0.5, [1.0])
    tr = quotient_trace(sol)
    assert len(tr.extrapolants) == len(tr.samples) == 13
    for (_, raw), running in zip(tr.samples[:2], tr.extrapolants):
        assert np.array_equal(running, np.asarray(raw).reshape(-1))
    assert np.array_equal(tr.extrapolants[-1], tr.limit)
    assert abs(tr.extrapolants[6][0] + 1.0) < abs(tr.extrapolants[1][0] + 1.0)


def test_quotient_trace_scalar(scalar_op):
    sol = ExtensionSolver(heat_semigroup(scalar_op), 0.5, [1.0])
    qt = quotient_trace(sol)
    assert abs(qt.limit[0] + 1.0) < 1e-6  # c_{1/2} (-A)^{1/2} f = -1
    assert abs(qt.fractional_power[0] - 1.0) < 1e-6


@pytest.mark.parametrize("sigma", [0.25, 0.5, 0.75])
def test_traces_recover_oracle(laplacian8, f8, sigma):
    fam = heat_semigroup(laplacian8)
    oracle = spectral_power_oracle(laplacian8, sigma, f8).value
    sol = ExtensionSolver(fam, sigma, f8)
    tr = neumann_trace(sol)
    assert (np.linalg.norm(tr.fractional_power - oracle)
            <= 1e-4 * np.linalg.norm(oracle))
    qt = quotient_trace(sol)
    assert (np.linalg.norm(qt.fractional_power - tr.fractional_power)
            <= 1e-4 * np.linalg.norm(tr.fractional_power))
    # full chain: quotient = neumann/(2 sigma), both against c_sigma * oracle
    consts = constants_for(FracOrder(sigma))
    assert (np.linalg.norm(qt.limit - tr.limit / (2 * sigma))
            <= 10.0 * max(qt.diagnostic, tr.diagnostic / abs(2 * sigma)))
    assert (np.linalg.norm(qt.limit - consts.c_sigma * oracle)
            <= 1e-4 * np.linalg.norm(oracle))


def test_trace_off_axis_ray(scalar_op):
    sol = ExtensionSolver(heat_semigroup(scalar_op), 0.5, [1.0])
    tr0 = neumann_trace(sol)
    tr8 = neumann_trace(sol, theta=math.pi / 8)
    tol = 10.0 * max(tr0.diagnostic, tr8.diagnostic)
    assert abs(tr8.limit[0] - tr0.limit[0]) <= tol


def test_quotient_trace_eigenvector(laplacian3):
    dec = spectral_decompose(laplacian3)
    k = 0
    v = dec.basis[:, k].real
    lam = -dec.eigenvalues[k].real
    s = 0.4
    sol = ExtensionSolver(heat_semigroup(laplacian3), s, v)
    qt = quotient_trace(sol)
    c_sig = constants_for(FracOrder(s)).c_sigma
    assert np.linalg.norm(qt.limit - c_sig * lam ** s * v) <= 1e-6 * lam ** s


def test_pde_residual_scalar(scalar_op):
    sol = ExtensionSolver(heat_semigroup(scalar_op), 0.5, [1.0])
    # centered-difference floor is h^2/12 ~ 8.3e-8 (see decisions ledger)
    assert pde_residual(sol, scalar_op, 0.5, 1.0, 1e-3) < 2e-7
    r_h = pde_residual(sol, scalar_op, 0.5, 1.0, 0.05)
    r_h2 = pde_residual(sol, scalar_op, 0.5, 1.0, 0.025)
    assert 3.5 <= r_h / r_h2 <= 4.5


def test_pde_residual_matrix_and_ray(laplacian8, f8):
    sol = ExtensionSolver(heat_semigroup(laplacian8), 0.3, f8)
    r_h = pde_residual(sol, laplacian8, 0.3, 0.8, 0.05)
    r_h2 = pde_residual(sol, laplacian8, 0.3, 0.8, 0.025)
    assert 3.5 <= r_h / r_h2 <= 4.5
    z = 0.8 * cmath.exp(1j * math.pi / 8)
    r_ray = pde_residual(sol, laplacian8, 0.3, z, 0.05)
    assert r_ray < 10.0 * max(r_h, 1e-12)


def test_complex_sigma_support():
    s = complex(0.4, 0.2)
    A = LinearOperator("diagonal", [-1.0, -2.0])
    f = np.array([1.0, 0.5])
    fam = heat_semigroup(A)
    sol = ExtensionSolver(fam, s, f)
    r_h = pde_residual(sol, A, s, 0.8, 0.05)
    r_h2 = pde_residual(sol, A, s, 0.8, 0.025)
    assert 3.5 <= r_h / r_h2 <= 4.5
    # with tight quadrature the residual at h = 1e-3 sits at the h^2/12 floor
    sol_tight = ExtensionSolver(fam, s, f, tol=1e-13)
    assert pde_residual(sol_tight, A, s, 0.8, 1e-3) <= 1e-6
    tr = neumann_trace(sol)
    oracle = spectral_power_oracle(A, s, f).value
    assert np.linalg.norm(tr.fractional_power - oracle) <= 1e-4 * np.linalg.norm(oracle)


def test_rotate_imaginary_scalar(scalar_op):
    sol = ExtensionSolver(heat_semigroup(scalar_op), 0.5, [1.0])
    c = complex(math.sqrt(2) / 2, math.sqrt(2) / 2)
    u = rotate_imaginary(sol, 1.0)
    assert abs(u[0] - cmath.exp(-c)) < 1e-10
    assert abs(abs(u[0]) - math.exp(-math.sqrt(2) / 2)) < 1e-10
    assert np.allclose(rotate_imaginary(sol, 0.0), [1.0])


def test_rotate_imaginary_vs_direct(laplacian3, f3):
    lam = np.sort(np.linalg.eigvalsh(laplacian3.matrix()))
    H = LinearOperator("diagonal", lam)
    iH = LinearOperator("diagonal", 1j * lam)
    vH = ExtensionSolver(heat_semigroup(H), 0.3, f3)
    fam_iH = integrate_family(heat_semigroup(iH), 1.0)
    for y in (0.25, 0.5):
        u_rot = rotate_imaginary(vH, y)
        u_dir = solve_semigroup_form(fam_iH, 0.3, y, f3).value
        assert np.linalg.norm(u_rot - u_dir) <= 1e-5 * np.linalg.norm(u_dir)


def test_rotated_solution_satisfies_imaginary_pde(scalar_op):
    # u(y) = v(c y) solves u'' + (1-2s)/y u' = -iH u for H = -1
    sol = ExtensionSolver(heat_semigroup(scalar_op), 0.35, [1.0])
    y, h = 0.8, 0.05
    c = complex(math.sqrt(2) / 2, math.sqrt(2) / 2)
    u = lambda yy: rotate_imaginary(sol, yy)[0]
    upp = (u(y + h) - 2 * u(y) + u(y - h)) / h ** 2
    upr = (u(y + h) - u(y - h)) / (2 * h)
    s = 0.35
    resid = upp + (1 - 2 * s) / y * upr - (-1j * (-1.0)) * u(y)
    assert abs(resid) < 1e-2 * abs(u(y))
    # O(h^2): halving h shrinks the residual by ~4
    h2 = h / 2
    upp2 = (u(y + h2) - 2 * u(y) + u(y - h2)) / h2 ** 2
    upr2 = (u(y + h2) - u(y - h2)) / (2 * h2)
    resid2 = upp2 + (1 - 2 * s) / y * upr2 - (-1j * (-1.0)) * u(y)
    assert 3.0 <= abs(resid) / abs(resid2) <= 5.0


def test_sector_and_band_validation(scalar_op, imag_multiplier, f4):
    fam = heat_semigroup(scalar_op)
    with pytest.raises(ValueError):
        solve_semigroup_form(fam, 0.5, cmath.exp(1j * 1.0), [1.0])  # outside sector
    with pytest.raises(ValueError):
        solve_semigroup_form(fam, 0.01, 1.0, [1.0])  # outside band
    with pytest.raises(ValueError):
        solve_semigroup_form(fam, 0.99, 1.0, [1.0])
    c0 = cosine_family(scalar_op)
    with pytest.raises(ValueError):
        solve_cosine_form(c0, 0.5, -1.0, [1.0])
    # boundary + imaginary spectrum: the modes of the wrong sign decay on
    # no ray of the kernel's sector
    fam_i = integrate_family(heat_semigroup(imag_multiplier), 1.0)
    with pytest.raises(ValueError):
        solve_semigroup_form(fam_i, 0.5, 0.7 * cmath.exp(1j * math.pi / 4), f4)


def test_trace_grid_validation(scalar_op):
    sol = ExtensionSolver(heat_semigroup(scalar_op), 0.5, [1.0])
    with pytest.raises(ValueError):
        neumann_trace(sol, theta=math.pi / 3)
    with pytest.raises(ValueError):
        pde_residual(sol, scalar_op, 0.5, 1.0, 0.5)  # h > |z|/10


def test_periodic_laplacian_zero_mode(rng):
    # zero eigenvalues are admitted in the solve; the oracle value on the
    # kernel mode is 0, so comparisons there are absolute
    from fracext.operators import build_laplacian_1d
    P = build_laplacian_1d(4, 1.0, "periodic")
    f = rng.normal(size=4)
    fam = heat_semigroup(P)
    u = solve_semigroup_form(fam, 0.5, 0.5, f).value
    assert np.all(np.isfinite(u))
    power = balakrishnan_power(P, 0.5, f).value
    oracle = spectral_power_oracle(P, 0.5, f).value
    assert np.linalg.norm(power - oracle) <= 1e-8 * max(np.linalg.norm(f), 1.0)
    # the constant vector spans the kernel: u(z) transports it unchanged
    ones = np.ones(4)
    u1 = solve_semigroup_form(fam, 0.5, 0.8, ones).value
    assert np.linalg.norm(u1 - ones) <= 1e-9


def test_sigma_band_edges(scalar_op):
    # solvers stay accurate at the edges of the admissible sigma band;
    # reference from the brute-force subordination quadrature
    fam = heat_semigroup(scalar_op)
    for s in (0.021, 0.979):
        ref = _subordination_oracle(s, 1.0)
        u = solve_semigroup_form(fam, s, 1.0, [1.0]).value[0]
        assert abs(u - ref) < 1e-8


def test_regularized_sequence_validation(scalar_op):
    fam = heat_semigroup(scalar_op)
    with pytest.raises(ValueError):
        solve_regularized(fam, 0.5, 1.0, [1.0], (0.01, 0.1))  # increasing
    with pytest.raises(ValueError):
        solve_regularized(fam, 0.5, 1.0, [1.0], (0.1,))  # too short


def test_black_box_family_route():
    # a Jordan block has no eigenbasis, so its families take the matrix
    # route (augmented matrix exponentials at integer order); the solve is
    # exact to roundoff and the estimate bounds the error
    A, f = LinearOperator("dense", JORDAN), np.array([1.0, 0.5])
    ref = jordan_solution(f, 0.4, 0.8)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        fam = heat_semigroup(A) if alpha == 0 else integrate_family(heat_semigroup(A), alpha)
        assert not fam.has_scalar
        got = solve_semigroup_form(fam, 0.4, 0.8, f, tol=1e-9)
        err = np.max(np.abs(got.value - ref))
        assert err <= 1e-12 * np.max(np.abs(ref))
        assert err <= got.error_estimate


def test_matrix_route_matches_spectral_route(monkeypatch, laplacian3, f3):
    # the same generator on both routes: refusing its eigenbasis while the
    # family is built sends it through the matrix route
    import fracext.families as families
    from fracext.operators import DefectiveOperatorError

    def refuse(op):
        raise DefectiveOperatorError("eigenbasis withheld")

    ts = np.array([0.3, 2.0, 9.0])
    for beta in (0.0, 0.5, 1.0, 2.0):
        fam_sp = heat_semigroup(laplacian3) if beta == 0 else \
            integrate_family(heat_semigroup(laplacian3), beta)
        with monkeypatch.context() as m:
            m.setattr(families, "spectral_decompose", refuse)
            fam_mx = families.OperatorFamily(fam_sp.kind, beta, laplacian3)
        assert fam_sp.has_scalar and not fam_mx.has_scalar
        ref = fam_sp.evaluate(ts, f3)
        assert np.max(np.abs(fam_mx.evaluate(ts, f3) - ref)) <= 1e-12 * np.max(np.abs(ref))
        u_mx = solve_semigroup_form(fam_mx, 0.4, 0.8, f3, tol=1e-9).value
        u_sp = solve_semigroup_form(fam_sp, 0.4, 0.8, f3).value
        assert np.linalg.norm(u_mx - u_sp) <= 1e-12 * np.linalg.norm(u_sp)


def test_semigroup_form_mixed_spectrum_vs_bessel_k():
    # zero mode, decaying real eigenvalues and a complex pair: every route
    # group of the spectral integral, for the heat semigroup and its
    # once-integrated family
    sigma = 0.35
    eigs = [0.0, -0.5, -3.0, -40.0, -1.0 + 2.0j, -1.0 - 2.0j]
    f = np.array([1.0, -0.5, 2.0, 0.3, 1.0 + 0.5j, 0.7])
    real = 4  # the zero mode and the real eigenvalues come first
    cases = [(eigs, f, 0.8), (eigs[:real], f[:real], 0.6 * cmath.exp(1j * math.pi / 4))]
    for ev, fv, z in cases:
        A = LinearOperator("diagonal", ev)
        ref = bessel_k_solution(ev, fv, sigma, z)
        for fam in (heat_semigroup(A), integrate_family(heat_semigroup(A), 1.0)):
            got = solve_semigroup_form(fam, sigma, z, fv)
            assert np.linalg.norm(got.value - ref) <= 1e-9 * np.linalg.norm(ref)
            assert 0.0 < got.error_estimate < 1e-6


def test_semigroup_form_fractional_alpha_vs_bessel_k():
    # fractional-order integrated families integrate the ceil(alpha)-th
    # derivative of b against the ceil(alpha)-times integrated family
    sigma, z = 0.35, 0.8
    A = LinearOperator("diagonal", [-2.0])
    f = np.array([1.0])
    ref = bessel_k_solution([-2.0], f, sigma, z)
    for alpha in (0.5, 1.5):
        got = solve_semigroup_form(integrate_family(heat_semigroup(A), alpha), sigma, z, f)
        assert np.linalg.norm(got.value - ref) <= 1e-9 * np.linalg.norm(ref)
        assert 0.0 < got.error_estimate < 1e-6


def test_semigroup_form_fractional_alpha_rotated_vs_bessel_k():
    # off the real axis a fractional-order family rotates its real modes
    # too: the derivative of b and the integrated exponential at complex t
    z = 0.6 * cmath.exp(1j * math.pi / 8)
    A, f = LinearOperator("diagonal", [-1.0, -2.5]), np.array([1.0, -0.6])
    got = solve_semigroup_form(integrate_family(heat_semigroup(A), 0.5), 0.35, z, f)
    ref = bessel_k_solution([-1.0, -2.5], f, 0.35, z)
    assert np.max(np.abs(got.value - ref)) <= min(got.error_estimate, 1e-11 * np.max(np.abs(ref)))


_I_XI3 = [1j * xi ** 3 for xi in (-2.0, -1.0, 1.0, 2.0)]
_I_XI = [1j * xi for xi in (-2.0, -1.0, 1.0, 2.0)]
_ABOVE, _BELOW = 0.8 * cmath.exp(0.5j), 0.6 * cmath.exp(-0.6j)


def _assert_oracle(got, ref, tol):
    # within tol of the oracle, relative to its largest entry, and the
    # reported estimate bounds the true error
    err = np.max(np.abs(got.value - ref))
    assert err <= tol * np.max(np.abs(ref))
    assert err <= got.error_estimate


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 0.5])
@pytest.mark.parametrize("spectrum", ["i_xi3", "i_xi"])
def test_oscillating_heat_side_vs_bessel_k(spectrum, alpha):
    # purely imaginary spectra under the heat family: each mode on a ray
    # turned until e^{a t} decays, for complex sigma and z on both sides of
    # the axis (one case of each at the slow fractional order)
    eigs = _I_XI3 if spectrum == "i_xi3" else _I_XI
    A, f = LinearOperator("diagonal", eigs), np.array([1.0, -0.5 + 0.2j, 0.3, 0.8])
    fam = heat_semigroup(A) if alpha == 0 else integrate_family(heat_semigroup(A), alpha)
    cases = [(s, z) for s in (0.3, complex(0.4, 0.2)) for z in (0.7, _ABOVE, _BELOW)]
    if alpha == 0.5:
        cases = [(complex(0.4, 0.2), _ABOVE)] if spectrum == "i_xi3" else [(0.3, _BELOW)]
    for sigma, z in cases:
        got = solve_semigroup_form(fam, sigma, z, f)
        _assert_oracle(got, bessel_k_solution(eigs, f, sigma, z), 1e-10)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 0.5])
def test_cosine_side_vs_bessel_k(alpha):
    # the halves e^{+-i omega t} of every cosine mode on rays of opposite
    # sign, for |arg z| up to 1.2 on both sides of the axis; sigma = 1/2 is
    # the logarithmic kernel of the fractional-data form
    eigs = [-0.5, -2.0, -7.0]
    A, f = LinearOperator("diagonal", eigs), np.array([1.0, -0.4, 0.7])
    fam = cosine_family(A) if alpha == 0 else integrated_cosine(A, alpha)
    zs = [0.6, 0.7 * cmath.exp(1.2j), 0.9 * cmath.exp(-1.2j), 0.5 * cmath.exp(-0.4j)]
    cases = [(s, z) for s in (0.5, 0.3) for z in zs]
    if alpha == 0.5:
        cases = [(0.5, zs[2])]
    for sigma, z in cases:
        ref = bessel_k_solution(eigs, f, sigma, z)
        _assert_oracle(solve_cosine_form(fam, sigma, z, f), ref, 1e-9)
        power = spectral_power_oracle(A, sigma, f).value
        _assert_oracle(solve_cosine_fractional(fam, sigma, z, f, power_input=power), ref, 1e-9)


@pytest.mark.parametrize("route, sigma", [
    ("semigroup", 0.021), ("semigroup", 0.03), ("fractional_data", 0.979),
    ("cosine_form", 0.021), ("cosine_form", 0.03),
    ("cosine_fractional", 0.5), ("cosine_fractional", 0.979),
    ("semigroup_alpha1", 0.021), ("semigroup_alpha1", 0.03), ("semigroup_alpha1", 0.05),
    ("semigroup_alpha2", 0.021), ("semigroup_alpha2", 0.03), ("semigroup_alpha2", 0.05),
    ("semigroup_alpha2", 0.1),
    ("fractional_data_alpha1", 0.979), ("fractional_data_alpha2", 0.97),
    ("fractional_data_alpha2", 0.979),
])
def test_zero_mode_at_the_band_edges_vs_bessel_k(route, sigma):
    # a zero mode runs no lane under these algebraic weights: it takes the
    # weight's closed-form moment, the unit mass of b and of the cosine
    # kernel, so near sigma = 0 (where its tail t^{alpha-1-sigma} b^(alpha)
    # decays slowest) and near sigma = 1 every route stays within 1e-12 of
    # the oracle, the estimate bounding the error, for integrated families
    # too and on the rotated ray of a complex z
    route, _, alpha = route.partition("_alpha")
    eigs = [0.0, -1.0, -40.0, -1e4]
    A, f = LinearOperator("diagonal", eigs), np.array([1.0, -0.5, 0.3, 0.8])
    fam = cosine_family(A) if route.startswith("cosine") else heat_semigroup(A)
    if alpha:
        fam = integrate_family(fam, float(alpha))
    solve = {"semigroup": solve_semigroup_form, "fractional_data": solve_fractional_data,
             "cosine_form": solve_cosine_form, "cosine_fractional": solve_cosine_fractional}[route]
    zs = {"fractional_data": (0.05, 0.6), "cosine_fractional": (0.05, 0.6 * cmath.exp(0.5j))}
    for z in zs.get(route, (0.05, 0.5) if alpha else (0.1, 0.5)):
        _assert_oracle(solve(fam, sigma, z, f), bessel_k_solution(eigs, f, sigma, z), 1e-12)


def test_zero_mode_moment_is_the_unit_mass_of_the_cosine_kernel():
    # d_sigma z^{2 sigma} (z^2 + t^2)^{-sigma-1/2} has unit mass, and its
    # n-th derivative the moment (-1)^n, for complex sigma and z too
    from fracext.extension import _CosTerms
    from fracext.specfun import cpow

    for sigma in (0.021, 0.3, 0.979, complex(0.4, 0.2)):
        d_sig = constants_for(FracOrder(sigma)).d_sigma
        for z in (0.05, 1.2, 0.8 * cmath.exp(0.7j)):
            expr = _CosTerms(z * z, [(cpow(z, 2.0 * sigma), 0.0, -(sigma + 0.5), "prod")])
            for n in range(3):
                assert abs(d_sig * expr.fn(n).moment(n) - (-1) ** n) <= 1e-14


@pytest.mark.parametrize("spectrum", ["i_xi3", "diagonal"])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_exact_zero_rule_is_scale_free(spectrum, alpha):
    # only an exact zero of the snapped spectrum takes the closed-form
    # moment: A c at z / sqrt(c) is A at z, whether c shrinks every mode
    # toward 0 (no mode but the true zero is taken for one) or grows it
    def solve(c):
        if spectrum == "i_xi3":
            A = build_fourier_multiplier(lambda xi: 1j * c * xi ** 3, [-2.0, -1.0, 1.0, 2.0])
        else:
            A = LinearOperator("diagonal", [0.0, -c, -40.0 * c, -1e4 * c])
        fam = integrate_family(heat_semigroup(A), alpha) if alpha else heat_semigroup(A)
        return solve_semigroup_form(fam, 0.4, 0.6 / math.sqrt(c), f).value

    f = np.array([1.0, -0.5 + 0.2j, 0.3, 0.8])
    ref = solve(1.0)
    for c in (1e-12,) if spectrum == "i_xi3" else (1e-12, 1e12):
        assert np.max(np.abs(solve(c) - ref)) <= 1e-13


def test_error_estimates_scale_with_f(laplacian8, f8):
    # the spectral routes integrate unit-coordinate factors and carry the
    # quadrature error through the assembly, so the estimate scales with f
    fam = integrate_family(heat_semigroup(laplacian8), 1.0)
    routes = (lambda g: solve_semigroup_form(fam, 0.4, 0.8, g),
              lambda g: solve_fractional_data(fam, 0.4, 0.8, g),
              lambda g: solve_cosine_form(cosine_family(laplacian8), 0.4, 0.8, g),
              lambda g: balakrishnan_power(laplacian8, 0.4, g))
    for route in routes:
        base = route(f8).error_estimate
        assert base > 0.0
        for c in (1e-6, 1e6):
            assert abs(route(c * f8).error_estimate - c * base) <= 1e-9 * c * base


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_error_estimates_bound_scaled_errors(scale):
    # the Bessel-K and regularized-route cases, with f scaled by 1e-6 and 1e6
    sigma = 0.35
    eigs = [0.0, -0.5, -3.0, -40.0, -1.0 + 2.0j, -1.0 - 2.0j]
    f = scale * np.array([1.0, -0.5, 2.0, 0.3, 1.0 + 0.5j, 0.7])
    A = LinearOperator("diagonal", eigs)
    for fam in (heat_semigroup(A), integrate_family(heat_semigroup(A), 1.0)):
        got = solve_semigroup_form(fam, sigma, 0.8, f)
        assert got.error_estimate >= np.max(np.abs(got.value - bessel_k_solution(eigs, f,
                                                                                  sigma, 0.8)))
    A1, f1 = LinearOperator("diagonal", [-2.0]), np.array([scale])
    ref = bessel_k_solution([-2.0], f1, sigma, 0.8)
    for alpha in (0.5, 1.5):
        got = solve_semigroup_form(integrate_family(heat_semigroup(A1), alpha), sigma, 0.8, f1)
        assert got.error_estimate >= np.max(np.abs(got.value - ref))
    lap = LinearOperator("diagonal", [-0.5, -1.2, -2.0])
    g = scale * np.array([1.0, -0.4, 0.7])
    fam = integrate_family(heat_semigroup(lap), 1.0)
    power = spectral_power_oracle(lap, 0.5, g).value
    ev = solve_regularized(fam, 0.5, 0.6, g, (1e-2, 1e-3, 1e-4, 1e-5), power_input=power,
                           tol=1e-10)
    ref = bessel_k_solution([-0.5, -1.2, -2.0], g, 0.5, 0.6)
    assert ev.error_estimate >= np.max(np.abs(ev.value - ref))


def _edge_sweep_cases():
    # (lam, sigma, z, solve, diverges, tol) over both edges |arg z| = pi/4;
    # the narrow-wedge modes (-0.2 + 5i and -0.05 + 8i below the axis) also
    # at tol 1e-11 and 1e-12, where the estimate must still bound the error
    lams = [complex(-1, 0.5), complex(-1, 3), complex(-0.2, 5), complex(-3, -2),
            complex(-0.05, 8), 2j, -2j, -1.0]
    for lam in lams:
        for sigma in (0.3, 0.5, 0.8, complex(0.4, 0.2)):
            for z in (0.9 * cmath.exp(0.25j * math.pi), 0.9 * cmath.exp(-0.25j * math.pi)):
                wedge = lam in (complex(-0.2, 5), complex(-0.05, 8)) and z.imag < 0
                for solve in (solve_semigroup_form, solve_fractional_data):
                    for tol in (1e-10, 1e-11, 1e-12) if wedge else (1e-10,):
                        yield lam, sigma, z, solve, lam.real == 0 and lam.imag * z.imag < 0, tol


def test_closed_sector_edge_sweep_vs_bessel_k():
    # z on both edges |arg z| = pi/4: each mode runs on the ray midway
    # through the kernel's sector and the half-plane where it decays.  An
    # imaginary mode whose half-plane misses the sector (2i below the axis,
    # -2i above it), where the representation diverges, is refused by name
    f = np.array([1.0])
    solved = refused = 0
    for lam, sigma, z, solve, diverges, tol in _edge_sweep_cases():
        fam = heat_semigroup(LinearOperator("diagonal", [lam]))
        if diverges:
            with pytest.raises(ValueError, match="no ray"):
                solve(fam, sigma, z, f, tol=tol)
            refused += 1
        else:
            got = solve(fam, sigma, z, f, tol=tol)
            _assert_oracle(got, bessel_k_solution([lam], f, sigma, z), tol)
            solved += 1
    assert (solved, refused) == (144, 16)


def test_closed_sector_edge_sweep_integrated_family():
    # the sweep on the once-integrated family, whose weight is b'.  Below the
    # axis, -0.2 + 5i and -0.05 + 8i decay only within 0.04 and 0.006 rad of
    # the kernel's sector: on that ray neither factor damps the other, and
    # the error (4.7e-10 at worst at tol 1e-10) misses tol but stays below
    # the estimate, at the tighter tols too
    f = np.array([1.0])
    narrow = 0
    for lam, sigma, z, solve, diverges, tol in _edge_sweep_cases():
        fam = integrate_family(heat_semigroup(LinearOperator("diagonal", [lam])), 1.0)
        if diverges:
            with pytest.raises(ValueError, match="no ray"):
                solve(fam, sigma, z, f, tol=tol)
            continue
        wedge = lam in (complex(-0.2, 5), complex(-0.05, 8)) and z.imag < 0
        narrow += wedge
        got, ref = solve(fam, sigma, z, f, tol=tol), bessel_k_solution([lam], f, sigma, z)
        if tol == 1e-10:
            _assert_oracle(got, ref, 1e-9 if wedge else 1e-10)
        else:
            assert np.max(np.abs(got.value - ref)) <= got.error_estimate
    assert narrow == 48


@pytest.mark.parametrize("theta", [math.pi / 4 - 1e-3, -(math.pi / 4 - 1e-3)])
def test_traces_near_sector_edge_complex_spectrum(theta):
    # trace rays within 1e-3 of the sector edge: each complex mode leaves the
    # real axis for its own ray (on the real axis, where e^{-z^2/4t} barely
    # decays, a grid point exceeded the refinement cap); the three
    # Richardson exponents of boundary_traces limit both traces to ~1e-8
    from fracext.extension import boundary_traces

    A = LinearOperator("diagonal", [complex(-1, 0.5), complex(-3, -2), complex(-0.2, 5), -1.0])
    f = np.array([1.0, -0.4, 0.7, 0.3])
    oracle = spectral_power_oracle(A, 0.4, f).value
    traces = boundary_traces(ExtensionSolver(heat_semigroup(A), 0.4, f), theta=theta)
    for est in traces.values():
        assert np.linalg.norm(est.fractional_power - oracle) <= 1e-7 * np.linalg.norm(oracle)


@pytest.mark.parametrize("lam", [complex(0.5, 1), complex(1e-3, 2)])
def test_growing_modes_are_refused(lam):
    # e^{lam t} grows on the real axis, and a turned ray would integrate an
    # analytic continuation of the divergent integral: the algebraic kernels
    # refuse by name, and the regularized route fails its quadrature
    from fracext.quadrature import QuadratureError

    A, f = LinearOperator("diagonal", [lam]), [1.0]
    for fam in (heat_semigroup(A), integrate_family(heat_semigroup(A), 1.0)):
        for z in (0.7, 0.7 * cmath.exp(0.7j)):
            for solve in (solve_semigroup_form, solve_fractional_data):
                with pytest.raises(ValueError, match="no ray .* growing modes"):
                    solve(fam, 0.4, z, f)
            with pytest.raises((ValueError, QuadratureError)):
                solve_regularized(fam, 0.4, z, f)


def test_regularized_default_sequence():
    # the default eps sequence 1e-2 ... 1e-5 leaves a Richardson bias below
    # the quadrature's, with and without an eigenbasis, and the estimate
    # bounds the error
    f = np.array([1.0, 0.5])
    cases = [(LinearOperator("dense", JORDAN), jordan_solution(f, 0.4, 0.8)),
             (LinearOperator("diagonal", [-1.0, -1.0]),
              bessel_k_solution([-1.0, -1.0], f, 0.4, 0.8))]
    for A, ref in cases:
        ev = solve_regularized(integrate_family(heat_semigroup(A), 1.0), 0.4, 0.8, f)
        err = np.max(np.abs(ev.value - ref))
        assert err <= 1e-12
        assert ev.error_estimate >= err


def test_regularized_zero_mode_vs_semigroup():
    # (-A)^sigma f vanishes on the constant mode of the periodic Laplacian,
    # where u(z) = f
    from fracext.operators import build_laplacian_1d

    A = build_laplacian_1d(8, 1.0, "periodic")
    fam = heat_semigroup(A)
    for f in (np.ones(8), np.random.default_rng(5).normal(size=8)):
        ev = solve_regularized(fam, 0.4, 0.7, f, (1e-2, 1e-3, 1e-4, 1e-5), tol=1e-10)
        ref = solve_semigroup_form(fam, 0.4, 0.7, f, tol=1e-10).value
        assert np.max(np.abs(ev.value - ref)) <= 1e-8 * np.max(np.abs(ref))


def _lane_case(case):
    """(family, sigma, f, points) for the lane-equivalence cases."""
    from fracext.extension import trace_grid
    from fracext.operators import build_laplacian_1d

    lap = build_laplacian_1d(8, 1.0)
    f = np.random.default_rng(11).normal(size=8)
    edge = cmath.exp(1j * math.pi / 4)
    if case == "trace_grid":
        return integrate_family(heat_semigroup(lap), 1.0), 0.3, f, trace_grid(lap)
    if case in ("sector_edge", "regularized"):
        return heat_semigroup(lap), 0.4, f, [0.5, 0.7 * cmath.exp(1j * math.pi / 8), 0.6 * edge,
                                            0.9 / edge, 1.1]
    if case == "complex_sigma":
        return (integrate_family(heat_semigroup(lap), 1.0), complex(0.4, 0.2), f,
                [0.3, 0.8 * cmath.exp(-1j * math.pi / 8), 0.6 * edge])
    if case == "periodic":
        return (heat_semigroup(build_laplacian_1d(8, 1.0, "periodic")), 0.5, f,
                [0.2, 0.7, 0.5 * cmath.exp(1j * math.pi / 6)])
    if case == "complex_spectrum":
        A = LinearOperator("diagonal", [-1.0 + 0.5j, -3.0 - 2.0j, -1.0, -0.2 + 5.0j])
        return (integrate_family(heat_semigroup(A), 1.0), 0.4, f[:4],
                [0.5, 0.8 * cmath.exp(1j * math.pi / 8), 0.6 * edge, 0.9 / edge])
    if case == "cosine_periodic":  # the zero mode's two half-lanes
        return (cosine_family(build_laplacian_1d(8, 1.0, "periodic")), 0.4, f,
                [0.3, 0.7 * cmath.exp(1j * math.pi / 8), 1.1 * cmath.exp(-1j * math.pi / 3)])
    # fractional alpha: every lane carries its own derivative weight (real z only)
    A = LinearOperator("diagonal", [-1.0, -2.5])
    return integrate_family(heat_semigroup(A), 0.5), 0.35, np.array([1.0, -0.6]), [0.4, 1.3]


@pytest.mark.parametrize("case", ["trace_grid", "sector_edge", "complex_sigma", "periodic",
                                  "alpha_half", "regularized", "complex_spectrum",
                                  "cosine_periodic"])
def test_spectral_lanes_match_per_z(case):
    # an array of z runs every point as lanes of one spectral integral; each
    # lane keeps its own panels, stopping target and ray, so every row and
    # error estimate equals the one-point call
    fam, sigma, f, zs = _lane_case(case)
    if case == "regularized":
        power = spectral_power_oracle(fam.generator, sigma, f).value
        solvers = [lambda z: solve_regularized(fam, sigma, z, f, (1e-2, 1e-3, 1e-4, 1e-5),
                                               power_input=power, tol=1e-10)]
    elif fam.is_cosine:
        solvers = [lambda z: solve_cosine_form(fam, sigma, z, f),
                   lambda z: solve_cosine_fractional(fam, sigma, z, f)]
    else:
        solvers = [lambda z: solve_semigroup_form(fam, sigma, z, f)]
    if case not in ("regularized", "alpha_half", "cosine_periodic"):
        solvers.append(lambda z: solve_fractional_data(fam, sigma, z, f))
    for solve in solvers:
        whole = solve(np.array(zs))
        assert whole.value.shape == (len(zs), len(f))
        for k, z in enumerate(zs):
            alone = solve(z)
            assert np.max(np.abs(whole.value[k] - alone.value)) <= 1e-15 * np.max(
                np.abs(alone.value))
            assert abs(whole.error_estimate[k] - alone.error_estimate) <= (
                1e-15 * alone.error_estimate)
    if fam.is_cosine:
        return  # ExtensionSolver is heat-side
    sol = ExtensionSolver(fam, sigma, f)
    rows = sol.derivative(np.array(zs))
    for k, z in enumerate(zs):
        alone = sol.derivative(z)
        assert np.max(np.abs(rows[k] - alone)) <= 1e-15 * np.max(np.abs(alone))


@pytest.mark.parametrize("route", ["log substitution", "rotated ray", "zero mode",
                                   "oscillating lane"])
def test_lane_failure_names_its_z(monkeypatch, route):
    # a NaN in one z lane fails the call with a message naming that z, the
    # range of the lane's eigenvalues and its route; the oscillating lanes
    # are the modes of i xi^3, turned onto decaying rays.  A zero mode runs
    # no lane: under the algebraic cosine_fractional weight, the periodic
    # Laplacian's zero mode needs the weight's moment, which a sampled
    # weight does not state, so the call is refused naming that z
    import fracext.funcalc as funcalc
    from fracext.kernels import _HintedFn
    from fracext.operators import build_laplacian_1d
    from fracext.quadrature import QuadratureError

    zero_mode, rotated = route == "zero mode", route in ("rotated ray", "oscillating lane")
    z = 0.35 * cmath.exp(1j * math.pi / 8) if route == "rotated ray" else 0.35
    real = funcalc._weyl_kernel_fn

    def poisoned(kernel, alpha, tol):
        w = real(kernel, alpha, tol)
        if (kernel.z2 == z * z) if zero_mode else (kernel.z.z == z):
            return _HintedFn(lambda t: np.full(np.shape(t), np.nan), *w.metadata(), w.sector())
        return w

    monkeypatch.setattr(funcalc, "_weyl_kernel_fn", poisoned)
    if route == "oscillating lane":
        A = build_fourier_multiplier(lambda xi: 1j * xi ** 3, [-2.0, -1.0, 1.0, 2.0])
    else:
        A = build_laplacian_1d(4, 1.0, "periodic" if zero_mode else "dirichlet")
    f, zs = np.array([1.0, -0.5, 0.3, 0.8]), np.array([0.2, z, 0.5])
    if zero_mode:
        with pytest.raises(ValueError) as info:
            solve_cosine_fractional(cosine_family(A), 0.3, zs, f)
        assert str(info.value).startswith(f"spectral integral at z = {complex(z)!r}: no ray")
        assert str(info.value).endswith("or it states no moment")
        return
    with pytest.raises(QuadratureError) as info:
        ExtensionSolver(heat_semigroup(A), 0.4, f).value(zs)
    where = " on the rotated ray" * rotated + " (log substitution)"
    # the failing group's eigenvalues: all four Dirichlet ones, or the
    # modes of i xi^3 on the ray below the axis
    span = {"oscillating lane": "0 + i(-8..-1)"}.get(route, "-3.618..-0.382")
    assert str(info.value) == (f"spectral integral at z = {complex(z)!r} over eigenvalues "
                               f"{span}{where}: NaN/Inf sample detected")
