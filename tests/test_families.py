import math

import numpy as np
import pytest

from fracext.families import (
    cosine_family,
    cosine_to_semigroup,
    heat_semigroup,
    integra_identity_residual,
    integrate_family,
    integrated_cosine,
    integrated_exponential,
    measure_growth,
    scalar_split,
    temperedness_profile,
    verify_resolvent,
)
from fracext.operators import LinearOperator, apply
from tests.conftest import simpson


def test_heat_semigroup_scalar(scalar_op):
    fam = heat_semigroup(scalar_op)
    assert abs(fam.evaluate(1.0, [1.0])[0] - math.exp(-1.0)) < 1e-15


def test_semigroup_law(rng):
    m = rng.normal(size=(8, 8))
    A = LinearOperator("dense", -(m @ m.T) - 0.5 * np.eye(8))
    fam = heat_semigroup(A)
    f = rng.normal(size=8)
    lhs = fam.evaluate(0.3, fam.evaluate(0.7, f))
    rhs = fam.evaluate(1.0, f)
    assert np.linalg.norm(lhs - rhs) <= 1e-11 * np.linalg.norm(rhs)


def test_heat_matches_eigen_formula(laplacian3, f3):
    from fracext.operators import spectral_decompose
    fam = heat_semigroup(laplacian3)
    dec = spectral_decompose(laplacian3)
    t = 0.5
    ref = sum(math.exp(dec.eigenvalues[k].real * t)
              * (dec.inverse_basis @ f3)[k] * dec.basis[:, k] for k in range(3))
    assert np.linalg.norm(fam.evaluate(t, f3) - ref) < 1e-12


def test_integrate_family_closed_forms(scalar_op):
    fam0 = heat_semigroup(scalar_op)
    f = np.array([1.0])
    fam1 = integrate_family(fam0, 1.0)
    assert abs(fam1.evaluate(1.0, f)[0] - (1.0 - math.exp(-1.0))) < 1e-12
    fam2 = integrate_family(fam0, 2.0)
    assert abs(fam2.evaluate(1.0, f)[0] - math.exp(-1.0)) < 1e-12  # t - 1 + e^{-t} at 1


def test_integrate_family_order_additivity(scalar_op):
    # brute-force double integral: two successive black-box integrations
    fam0 = heat_semigroup(scalar_op)
    f = np.array([1.0])
    half = integrate_family(fam0, 0.5, spectral=False, tol=1e-10)
    full = integrate_family(half, 1.0, spectral=False, tol=1e-9)
    direct = integrate_family(fam0, 1.0, spectral=False, tol=1e-10)
    assert abs(full.evaluate(1.0, f)[0] - direct.evaluate(1.0, f)[0]) < 1e-8


def test_integrated_exponential_examples():
    assert abs(integrated_exponential(-1.0, 1.0, 1.0) - (1.0 - math.exp(-1.0))) < 1e-14
    assert abs(integrated_exponential(1j, 1.0, math.pi) - 2j) < 1e-13
    # a = 0 limit
    v = integrated_exponential(0.0, 1.5, 2.0)
    assert abs(v - 2.0 ** 1.5 / math.gamma(2.5)) < 1e-14


def test_integrated_exponential_matches_quadrature(scalar_op):
    fam = integrate_family(heat_semigroup(scalar_op), 1.5, spectral=False, tol=1e-11)
    got = fam.evaluate(1.0, np.array([1.0]))[0]
    closed = integrated_exponential(-1.0, 1.5, 1.0)
    assert abs(got - closed) < 1e-9


def test_integrated_exponential_regimes_vs_simpson():
    # brute-force oracle for (1/Gamma(a)) int_0^t (t-s)^{a-1} e^{as} ds in the
    # distance variable d = t - s.  The d^{alpha-1} endpoint factor is handled
    # by subtracting a 4-term Taylor expansion of e^{-a d} (integrated in
    # closed form), which leaves a d^{alpha+3} remainder Simpson can take.
    for a, alpha, t in ((-1.0, 1.5, 30.0), (2j, 1.5, 50.0), (-0.5 + 0j, 0.7, 8.0)):
        coef = [1.0, -a, a * a / 2.0, -a ** 3 / 6.0]

        def residual(d):
            taylor = sum(c * d ** k for k, c in enumerate(coef))
            return d ** (alpha - 1.0) * (np.exp(-a * d) - taylor)

        closed = sum(c * t ** (alpha + k) / (alpha + k) for k, c in enumerate(coef))
        ref = (np.exp(a * t) * (simpson(residual, 1e-300, t, n=800001) + closed)
               / math.gamma(alpha))
        got = integrated_exponential(a, alpha, t)
        assert abs(got - ref) < 5e-9 * max(1.0, abs(ref))


def test_integrated_exponential_extreme_argument():
    # scaled asymptotic regime; T_1(t) = 1 - e^{-t}
    assert abs(integrated_exponential(-1.0, 1.0, 1000.0) - 1.0) < 1e-12


def test_cosine_family_values():
    A = LinearOperator("diagonal", [-4.0])
    cf = cosine_family(A)
    assert abs(cf.evaluate(math.pi / 2, [1.0])[0] - math.cos(math.pi)) < 1e-14


def test_cosine_family_evenness(laplacian3, f3):
    cf = cosine_family(laplacian3)
    assert np.allclose(cf.evaluate(-1.3, f3), cf.evaluate(1.3, f3))


def test_cosine_wave_equation_residual(laplacian3, f3):
    cf = cosine_family(laplacian3)
    t, h = 0.8, 1e-3
    ww = (cf.evaluate(t + h, f3) - 2 * cf.evaluate(t, f3) + cf.evaluate(t - h, f3)) / h ** 2
    res = np.linalg.norm(ww - apply(laplacian3, cf.evaluate(t, f3)))
    assert res < 10.0 * h ** 2 * np.linalg.norm(f3) * laplacian3.norm() ** 2


def test_cosine_requires_self_adjoint():
    A = LinearOperator("diagonal", [-1j])
    with pytest.raises(ValueError):
        cosine_family(A)
    cosine_family(A, allow_nonselfadjoint=True)


def test_cosine_to_semigroup_scalar():
    A = LinearOperator("diagonal", [-1.0])
    v = cosine_to_semigroup(cosine_family(A), 1.0, [1.0])
    assert abs(v[0] - math.exp(-1.0)) < 1e-12
    A4 = LinearOperator("diagonal", [-4.0])
    v = cosine_to_semigroup(cosine_family(A4), 0.5, [1.0])
    assert abs(v[0] - math.exp(-2.0)) < 1e-12


def test_cosine_to_semigroup_integrated(laplacian3, f3):
    fam = integrate_family(cosine_family(laplacian3), 1.0)
    v = cosine_to_semigroup(fam, 1.0, f3)
    ref = heat_semigroup(laplacian3).evaluate(1.0, f3)
    assert np.linalg.norm(v - ref) <= 1e-7 * np.linalg.norm(ref)


def test_verify_resolvent_scalar_examples(scalar_op):
    f = np.array([1.0])
    assert verify_resolvent(heat_semigroup(scalar_op), 1.0, f) < 1e-10
    fam1 = integrate_family(heat_semigroup(scalar_op), 1.0)
    assert verify_resolvent(fam1, 1.0, f) < 1e-10
    assert verify_resolvent(cosine_family(scalar_op), 1.0, f) < 1e-9


def test_resolvent_identity_full_corpus(scalar_op, imag_multiplier, laplacian8,
                                        f4, f8):
    corpus = [(scalar_op, np.array([1.0])), (imag_multiplier, f4), (laplacian8, f8)]
    worst = 0.0
    for A, f in corpus:
        for alpha in (0.0, 1.0, 1.5):
            fam = heat_semigroup(A) if alpha == 0.0 else \
                integrate_family(heat_semigroup(A), alpha)
            for lam in (0.5, 1.0, 2.0):
                worst = max(worst, verify_resolvent(fam, lam, f))
    assert worst <= 1e-8


def test_resolvent_identity_cosine_grid(laplacian8, f8):
    worst = 0.0
    for alpha in (0.0, 1.0, 1.5):
        fam = integrated_cosine(laplacian8, alpha)
        for lam in (0.5, 1.0, 2.0):
            worst = max(worst, verify_resolvent(fam, lam, f8))
    assert worst <= 1e-8


def test_integrate_family_preserves_generator(laplacian8, f8):
    fam = integrate_family(heat_semigroup(laplacian8), 1.0, spectral=False, tol=1e-10)
    assert verify_resolvent(fam, 1.0, f8, tol=1e-10) <= 1e-8


def test_integra_identity(scalar_op, laplacian3, f3):
    f = np.array([1.0])
    assert integra_identity_residual(heat_semigroup(scalar_op), f, 1.0) < 1e-10
    fam1 = integrate_family(heat_semigroup(laplacian3), 1.0)
    assert integra_identity_residual(fam1, f3, 0.5) <= 1e-8
    assert integra_identity_residual(fam1, f3, 0.0) == 0.0


def test_measure_growth_self_adjoint(rng):
    m = rng.normal(size=(6, 6))
    A = LinearOperator("dense", -(m @ m.T) - 0.2 * np.eye(6))
    grid = [0.1, 0.3, 1.0, 0.5 + 0.3j, 1.0 + 0.8j, 2.0 + 0.5j]
    prof = measure_growth(A, grid)
    assert prof.nu < 0.05
    assert prof.tau < 0.05
    assert prof.constant <= 1.05


def test_scalar_contraction_growth(scalar_op):
    prof = measure_growth(scalar_op, [0.2, 1.0, 1.0 + 1.0j, 3.0])
    assert prof.constant <= 1.0 + 1e-9
    assert prof.tau < 1e-9


def test_temperedness_profiles(scalar_op, imag_multiplier, laplacian8):
    # t^{-alpha} ||T_alpha(t)|| stays within 10x of its median on [1e-3, 1e3]
    for A in (scalar_op, imag_multiplier, laplacian8):
        for alpha in (0.0, 1.0):
            fam = heat_semigroup(A) if alpha == 0.0 else \
                integrate_family(heat_semigroup(A), alpha)
            prof = temperedness_profile(fam)
            assert np.isfinite(prof["max"])
            assert prof["max"] <= 10.0 * prof["median"]


def test_imaginary_integrated_group_tempered():
    H = LinearOperator("diagonal", [-1.0, -2.0])
    iH = LinearOperator("diagonal", [-1j, -2j])
    fam = integrate_family(heat_semigroup(iH), 1.0)
    prof = temperedness_profile(fam)
    assert prof["max"] < 10.0  # sup_t t^{-1} ||T_1(it)|| finite


def test_integrate_family_validation(scalar_op):
    fam1 = integrate_family(heat_semigroup(scalar_op), 1.0)
    with pytest.raises(ValueError):
        integrate_family(fam1, 0.5)


def test_pure_imaginary_mode_resolvent():
    # symbol i*xi at mode pi: (lam - i pi)^{-1} against the alpha = 1
    # integrated family's Laplace transform
    from fracext.operators import build_fourier_multiplier
    op = build_fourier_multiplier(lambda xi: 1j * xi, [math.pi])
    assert op.data[0] == pytest.approx(1j * math.pi)
    fam = integrate_family(heat_semigroup(op), 1.0)
    assert verify_resolvent(fam, 1.0, [1.0]) <= 1e-8


def test_cosine_to_semigroup_fractional_order():
    # derivative-first Weyl of the Gaussian for a non-integer order
    A = LinearOperator("diagonal", [-1.0, -2.5])
    f = np.array([1.0, 0.7])
    fam = integrate_family(cosine_family(A), 0.5)
    got = cosine_to_semigroup(fam, 1.0, f, tol=1e-8)
    ref = heat_semigroup(A).evaluate(1.0, f)
    assert np.linalg.norm(got - ref) <= 1e-7 * np.linalg.norm(ref)


def test_integrated_exponential_array_regimes_vs_hyp1f1():
    mpmath = pytest.importorskip("mpmath")
    # x = a t in every fractional-order regime: the series (|x| <= 12); the
    # incomplete gamma (12 < |x| <= 45) away from the negative real axis
    # (continued fraction) and near it (direct series, and its asymptotic
    # tail past |x| = 40); the scaled asymptotics (|x| > 45) on both sides
    # of arg x = 3 pi / 4.  Integer orders take the Taylor sum within
    # |x| <= max(1, m - 2) and the expm1 recurrence outside, including at
    # the zero 2 pi i of e^x - 1 and far down the negative real axis.
    x = np.array([-0.3, 2j, -7.0 + 5.0j, 11.5, 20j, -20.0 + 25.0j,
                  -25.0 + 1.0j, -38.0 - 0.5j, -42.0 + 1.0j,
                  60j, -60.0 + 40.0j, -200.0,
                  -2e-5, 3e-7j, -0.999, 1.001j, 0.7 - 0.7j,
                  -1.001, 1.0 + 0.01j, 0.02 - 0.99j, 2j * math.pi, -1e3])
    t = np.linspace(0.5, 3.0, x.size)
    a = x / t
    for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
        got = integrated_exponential(a, alpha, t)
        assert got.shape == x.shape
        for k in range(x.size):
            with mpmath.workdps(30):
                ref = complex(mpmath.mpf(t[k]) ** alpha / mpmath.gamma(alpha + 1)
                              * mpmath.hyp1f1(1, alpha + 1, mpmath.mpc(x[k])))
            assert abs(got[k] - ref) <= 1e-12 * max(1.0, abs(ref))
            assert got[k] == integrated_exponential(a[k], alpha, t[k])


def test_integrated_exponential_at_zero_time():
    # T_m(0) is the identity at m = 0 and exactly zero at m >= 1
    a = np.array([0.0, -2.0, 3j, -1e3 + 5.0j])
    for m in range(4):
        got = integrated_exponential(a, float(m), np.zeros(a.size))
        assert np.all(got == (1.0 if m == 0 else 0.0))
        assert integrated_exponential(-2.0, float(m), 0.0) == (1.0 if m == 0 else 0.0)


def test_integer_split_remainder_vs_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # s_a(t) - a^{-m} e^{a t} on both sides of |a t| = 45, for real-negative
    # and imaginary rates
    t = np.array([0.5, 3.0, 20.0, 90.0])
    for a in (-0.8, -3.0, 0.7j, -2.5j):
        for m in (1, 2, 3):
            parts, smooth = scalar_split("integrated_semigroup", float(m), a)
            assert [rate for _, rate in parts] == [a]
            got = smooth(t)
            for k in range(t.size):
                with mpmath.workdps(40):
                    tk, ak = mpmath.mpf(t[k]), mpmath.mpc(a)
                    ref = complex(tk ** m / mpmath.factorial(m) * mpmath.hyp1f1(1, m + 1, ak * tk)
                                  - ak ** (-m) * mpmath.exp(ak * tk))
                assert abs(got[k] - ref) <= 1e-12 * max(1.0, abs(ref))
