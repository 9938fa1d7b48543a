import cmath
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
    temperedness_profile,
    verify_resolvent,
)
from fracext.operators import LinearOperator, apply
from tests.conftest import JORDAN, jordan_family, simpson


def test_heat_semigroup_scalar(scalar_op):
    fam = heat_semigroup(scalar_op)
    assert abs(fam.evaluate(1.0, [1.0])[0] - math.exp(-1.0)) < 1e-15


def test_heat_semigroup_defective_fallback():
    # a Jordan block has no eigenbasis, so exp(tA) comes from the matrix route
    fam = heat_semigroup(LinearOperator("dense", [[-1.0, 1.0], [0.0, -1.0]]))
    assert not fam.has_scalar
    for t in (0.0, 0.3, 1.0, 2.5, 7.5):
        ref = math.exp(-t) * np.array([[1.0, t], [0.0, 1.0]])
        assert np.max(np.abs(fam.matrix_at(t) - ref)) <= 1e-13


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


def test_integrate_family_order_additivity():
    # half-order integration of the matrix route's T_{1/2} by brute force
    # gives its T_1: s = t sin^2(theta) makes (t-s)^{-1/2} T_{1/2}(s) ds
    # analytic in theta
    A, f, t = LinearOperator("dense", JORDAN), np.array([1.0, 0.5]), 1.0
    half = integrate_family(heat_semigroup(A), 0.5)
    full = integrate_family(half, 1.0)

    def integrand(theta, k):
        s = t * np.sin(theta) ** 2
        return 2.0 * math.sqrt(t) * np.sin(theta) * half.evaluate(s, f)[:, k] / math.gamma(0.5)

    brute = np.array([simpson(lambda th: integrand(th, k), 0.0, math.pi / 2, 401)
                      for k in range(2)])
    assert np.max(np.abs(full.evaluate(t, f) - brute)) < 1e-12
    assert np.max(np.abs(full.evaluate(t, f) - jordan_family(1.0, t, f))) < 1e-14


def test_integrated_exponential_examples():
    assert abs(integrated_exponential(-1.0, 1.0, 1.0) - (1.0 - math.exp(-1.0))) < 1e-14
    assert abs(integrated_exponential(1j, 1.0, math.pi) - 2j) < 1e-13
    # a = 0 limit
    v = integrated_exponential(0.0, 1.5, 2.0)
    assert abs(v - 2.0 ** 1.5 / math.gamma(2.5)) < 1e-14


def test_integrated_exponential_matches_quadrature():
    # the matrix route's one graded integral at a fractional order against
    # the closed form of the Jordan block
    A, f = LinearOperator("dense", JORDAN), np.array([1.0, 0.5])
    fam = integrate_family(heat_semigroup(A), 1.5)
    for t in (0.3, 1.0, 4.0):
        assert np.max(np.abs(fam.evaluate(t, f) - jordan_family(1.5, t, f))) < 1e-12


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


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("a", [-1.0, -2.5 + 1j])
@pytest.mark.parametrize("t", [1e160, 1e300])
def test_integrated_exponential_huge_t_integer_order(m, a, t):
    # t^m overflows before phi_m(a t) ~ 1/t^(m-1) scales it back: finite
    # values must stay accurate and overflowing parts must be inf, not NaN
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpc(a) * t
        ref = ((mpmath.exp(x) - sum(x ** k / mpmath.factorial(k) for k in range(m)))
               / mpmath.mpc(a) ** m)
    got = integrated_exponential(a, float(m), t)
    assert not (math.isnan(got.real) or math.isnan(got.imag))
    big = 1.7976931348623157e308
    if abs(ref) < big:
        assert abs(got - complex(ref)) <= 1e-12 * float(abs(ref))
        return
    for part, exact in ((got.real, ref.real), (got.imag, ref.imag)):
        if abs(exact) > big:
            assert part == math.copysign(math.inf, float(mpmath.sign(exact)))
        else:
            assert abs(part - float(exact)) <= 1e-12 * abs(float(exact))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_integrated_exponential_real_inputs_give_float64(m):
    # real a and t at an integer order: float64 by the same formulas as the
    # complex call, in the Taylor regime (|a t| <= 1), the expm1 one, and
    # past t = 1e150, where t^m overflows
    for a, t in ((np.array([-0.3, 0.9, -2.0, 1.5, -40.0, -1e3]),
                  np.array([0.5, 1.0, 1.0, 2.0, 3.0, 0.7])),
                 (np.array([-1.0, -2.5, -1.0, -2.5]), np.array([1e160, 1e160, 1e300, 1e300]))):
        got = integrated_exponential(a, float(m), t)
        ref = integrated_exponential(a + 0j, float(m), t)
        assert got.dtype == np.float64 and ref.dtype == np.complex128
        big = np.isinf(ref.real)  # t^m phi_m overflows at m = 3
        assert np.all(got[big] == ref.real[big])
        gap = np.abs(got[~big] - ref[~big]).max(initial=0.0)
        assert gap <= 1e-15 * np.abs(ref[~big]).max(initial=0.0)
        assert isinstance(integrated_exponential(a[0], float(m), t[0]), float)
    # fractional order, complex input and t = inf stay complex128
    assert isinstance(integrated_exponential(-1.0, 1.5, 2.0), complex)
    assert integrated_exponential(-1.0, float(m), np.array([2.0 + 0j])).dtype == np.complex128
    assert integrated_exponential(-1.0, min(m, 1), np.array([2.0, np.inf])).dtype == np.complex128


@pytest.mark.parametrize("a", [-2.0, -1e-3, -1e6, -1.0 + 3.0j, -0.5 - 40.0j])
def test_integrated_exponential_order_one_limit_at_infinity(a):
    # int_0^t e^{a s} ds = expm1(a t)/a tends to -1/a for Re a < 0; mpmath
    # evaluates it at t = 1e9, where e^{a t} is below 1e-400
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = complex(mpmath.expm1(mpmath.mpc(a) * mpmath.mpf(10) ** 9) / mpmath.mpc(a))
    got = integrated_exponential(a, 1.0, math.inf)
    assert isinstance(got, complex)
    assert abs(got - ref) <= 1e-15 * abs(ref)
    # mixed with finite times, each entry takes its own regime
    both = integrated_exponential(a, 1.0, np.array([math.inf, 0.5]))
    assert both[0] == got
    assert both[1] == integrated_exponential(a, 1.0, 0.5)


def test_integrated_exponential_limits_at_infinity():
    # e^{a t} -> 0 for Re a < 0: the limit is 0 below order 1 and -1/a at
    # order 1; above order 1, or without decay, there is no limit to return
    for alpha in (0.0, 0.3, 0.5, 0.9):
        for a in (-2.0, -1e-3, -1.0 + 3.0j):
            assert integrated_exponential(a, alpha, math.inf) == 0.0
    got = integrated_exponential(np.array([-4.0, -0.5 - 2.0j]), 1.0, math.inf)
    assert np.all(got == [0.25, -1.0 / (-0.5 - 2.0j)])
    for alpha, a in ((1.5, -1.0), (2.0, -3.0 + 1.0j), (1.0, 2j), (1.0, 0.0), (0.5, 0.5),
                     (0.0, 1j)):
        with pytest.raises(ValueError, match="no limit at t = inf"):
            integrated_exponential(a, alpha, math.inf)
    with pytest.raises(ValueError, match="no limit"):
        integrated_exponential(-1.0, 2.0, np.array([1.0, math.inf]))


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


def test_integrate_family_preserves_generator():
    # the Laplace transform of the matrix route's T_1 is the resolvent of
    # the Jordan block it was built from
    A, f = LinearOperator("dense", JORDAN), np.array([1.0, 0.5])
    fam = integrate_family(heat_semigroup(A), 1.0)
    assert fam.generator is A
    assert verify_resolvent(fam, 1.0, f, tol=1e-10) <= 1e-8


def test_cosine_family_needs_an_eigenbasis():
    # cosine kinds have no matrix route: a Jordan block is refused when the
    # family is built, not when it is evaluated
    A = LinearOperator("dense", JORDAN)
    with pytest.raises(ValueError, match="eigenbasis"):
        cosine_family(A, allow_nonselfadjoint=True)
    with pytest.raises(ValueError, match="eigenbasis"):
        integrated_cosine(A, 1.5, allow_nonselfadjoint=True)


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
    # a non-integer order integrates the Hermite form of the Gaussian's
    # ceil(alpha)-th derivative against C_ceil(alpha)
    A = LinearOperator("diagonal", [-1.0, -2.5])
    f = np.array([1.0, 0.7])
    ref = heat_semigroup(A).evaluate(1.0, f)
    for alpha in (0.5, 1.5):
        fam = integrate_family(cosine_family(A), alpha)
        got = cosine_to_semigroup(fam, 1.0, f, tol=1e-8)
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
    # Complex t sits on both sides of arg a + arg t = pi, where the
    # principal arg of x = a t wraps round, in the incomplete-gamma and the
    # asymptotic regimes.
    x = np.array([-0.3, 2j, -7.0 + 5.0j, 11.5, 20j, -20.0 + 25.0j,
                  -25.0 + 1.0j, -38.0 - 0.5j, -42.0 + 1.0j,
                  60j, -60.0 + 40.0j, -200.0,
                  -2e-5, 3e-7j, -0.999, 1.001j, 0.7 - 0.7j,
                  -1.001, 1.0 + 0.01j, 0.02 - 0.99j, 2j * math.pi, -1e3])
    t = np.linspace(0.5, 3.0, x.size)
    a = x / t
    wrap = [(-1.0, 20.0, 0.4), (-1.0, 20.0, -0.4), (cmath.exp(2.9j), 30.0, 0.4),
            (cmath.exp(2.6j), 30.0, 0.4), (1j, 15.0, 1.7), (-1j, 15.0, -1.7),
            (-1.0, 5.0, 0.4), (-1.0, 60.0, 1.5), (-1.0, 60.0, -1.5),
            (cmath.exp(3.0j), 50.0, 1.6)]
    a = np.concatenate([a, [rate for rate, _, _ in wrap]])
    t = np.concatenate([t, [r * cmath.exp(1j * phase) for _, r, phase in wrap]])
    x = a * t
    for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
        got = integrated_exponential(a, alpha, t)
        assert got.shape == x.shape
        for k in range(x.size):
            with mpmath.workdps(30):
                ref = complex(mpmath.mpc(t[k]) ** alpha / mpmath.gamma(alpha + 1)
                              * mpmath.hyp1f1(1, alpha + 1, mpmath.mpc(a[k]) * mpmath.mpc(t[k])))
            assert abs(got[k] - ref) <= 1e-12 * max(1.0, abs(ref))
            assert got[k] == integrated_exponential(a[k], alpha, t[k])


def test_integrated_exponential_at_zero_time():
    # T_m(0) is the identity at m = 0 and exactly zero at m >= 1
    a = np.array([0.0, -2.0, 3j, -1e3 + 5.0j])
    for m in range(4):
        got = integrated_exponential(a, float(m), np.zeros(a.size))
        assert np.all(got == (1.0 if m == 0 else 0.0))
        assert integrated_exponential(-2.0, float(m), 0.0) == (1.0 if m == 0 else 0.0)


def test_spectral_apply_matches_matmul(rng):
    # the einsum assembly against the matrix products it replaced, on a
    # closed-form Laplacian basis and on a non-normal eigenbasis
    from fracext.families import spectral_apply
    from fracext.operators import build_laplacian_1d, spectral_decompose

    m = rng.normal(size=(12, 12))
    ops = [build_laplacian_1d(64, 0.5, "periodic"),
           LinearOperator("dense", -(m @ m.T) - np.triu(m, 1) - np.eye(12))]
    for op in ops:
        n = op.dimension
        dec = spectral_decompose(op)
        basis, inv = dec.basis, dec.inverse_basis
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        for shape in ((n,), (30, n), (3, 5, n)):
            vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            ref = (vals * (inv @ f)) @ basis.T
            got = spectral_apply(op, f, vals)
            assert got.shape == shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
