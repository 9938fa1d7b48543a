import cmath
import math
from functools import lru_cache

import numpy as np
import pytest

from fracext.kernels import (
    Kernel,
    SectorPoint,
    _HintedFn,
    convolve_halfline,
    eval_kernel,
    sobolev_norm,
    time_derivative,
    time_derivative_coefficients,
    weyl_derivative,
    weyl_integral,
    z_derivative,
    z_derivative_coefficients,
    z_derivative_fn,
)
from fracext.quadrature import QuadratureError, integrate_halfline
from fracext.specfun import FracOrder, cpow, gamma

SQRT_PI = math.sqrt(math.pi)


def _b(sigma, z):
    return Kernel("b", FracOrder(sigma), SectorPoint(z))


def _B(sigma, z):
    return Kernel("B", FracOrder(sigma), SectorPoint(z))


def test_sector_point_validation():
    SectorPoint(1.0)
    SectorPoint(cmath.exp(1j * math.pi / 8))
    with pytest.raises(ValueError):
        SectorPoint(cmath.exp(1j * math.pi / 3))  # outside pi/4
    with pytest.raises(ValueError):
        SectorPoint(0.0)
    # boundary admitted only for closed sectors
    zb = cmath.exp(1j * math.pi / 4)
    with pytest.raises(ValueError):
        SectorPoint(zb)
    SectorPoint(zb, closed=True)
    with pytest.raises(ValueError):
        SectorPoint(1j, closed=True)  # outside the closed sector


def test_eval_b_frozen_value():
    # direct substitution: (1/(2 sqrt(pi))) e^{-1} (1/4)^{-3/2} = (4/sqrt(pi)) e^{-1}
    v = eval_kernel(_b(0.5, 1.0), 0.25)
    assert abs(v - 4.0 / SQRT_PI * math.exp(-1.0)) < 1e-15


def test_eval_h():
    v = eval_kernel(Kernel("h", FracOrder(0.5)), 4.0)
    assert abs(v - 1.0 / (SQRT_PI * 2.0)) < 1e-15


def test_eval_B_minus_h_leading_order():
    # (e^{-z^2/(4t)} - 1)/(Gamma(s) t^{1-s}) ~ -z^2/(4 Gamma(s) t^{2-s})
    s = 0.3
    k = Kernel("B_minus_h", FracOrder(s), SectorPoint(1.0))
    t = 1e9
    lead = -1.0 / (4.0 * gamma(s) * t ** (2.0 - s))
    assert abs(eval_kernel(k, t) / lead - 1.0) < 1e-7


def test_eval_domain_error():
    with pytest.raises(ValueError):
        eval_kernel(_b(0.5, 1.0), -1.0)


def test_time_derivative_printed_forms():
    s, z, t = 0.37, complex(0.9, 0.3), 0.83
    kb, kB = _b(s, z), _B(s, z)
    assert abs(time_derivative(kb, 1, t)
               - (z * z / (4 * t * t) - (1 + s) / t) * eval_kernel(kb, t)) < 1e-15
    assert abs(time_derivative(kB, 1, t)
               - (z * z / (4 * t * t) - (1 - s) / t) * eval_kernel(kB, t)) < 1e-15


def test_z_derivative_printed_forms():
    s, z, t = 0.37, complex(0.9, 0.3), 0.83
    kb, kB = _b(s, z), _B(s, z)
    assert abs(z_derivative(kb, 1, t)
               - (2 * s / z - z / (2 * t)) * eval_kernel(kb, t)) < 1e-15
    assert abs(z_derivative(kb, 2, t)
               - (2 * s * (2 * s - 1) / z ** 2 - (4 * s + 1) / (2 * t)
                  + z ** 2 / (4 * t ** 2)) * eval_kernel(kb, t)) < 1e-15
    assert abs(z_derivative(kB, 1, t) + z / (2 * t) * eval_kernel(kB, t)) < 1e-16
    assert abs(z_derivative(kB, 2, t)
               - (z ** 2 / (4 * t ** 2) - 1 / (2 * t)) * eval_kernel(kB, t)) < 1e-16


def test_coefficient_tables_reproduce_printed_z_forms():
    # symbolic check of the generated tables against the printed n=1,2 rows
    s = 0.41
    c1 = z_derivative_coefficients("b", 1, s).table
    assert c1[0] == pytest.approx(2 * s) and c1[1] == pytest.approx(-0.5)
    c2 = z_derivative_coefficients("b", 2, s).table
    assert c2[0] == pytest.approx(2 * s * (2 * s - 1))
    assert c2[1] == pytest.approx(-(4 * s + 1) / 2)
    assert c2[2] == pytest.approx(0.25)
    cB1 = z_derivative_coefficients("B", 1, s).table
    assert cB1[0] == 0 and cB1[1] == pytest.approx(-0.5)
    cB2 = z_derivative_coefficients("B", 2, s).table
    assert cB2[0] == 0 and cB2[1] == pytest.approx(-0.5) and cB2[2] == pytest.approx(0.25)


def test_k0n_exact_product():
    s = 0.3
    for n in (1, 2, 4, 7):
        tab = time_derivative_coefficients("B", n, s).table
        expect = 1.0
        for i in range(1, n + 1):
            expect *= s - i
        assert abs(tab[0] - expect) < 1e-12 * abs(expect)


@pytest.mark.parametrize("kind", ["b", "B"])
@pytest.mark.parametrize("sigma", [0.3, 0.5, complex(0.4, 0.2)])
def test_higher_time_derivatives_vs_finite_differences(kind, sigma):
    k = Kernel(kind, FracOrder(sigma), SectorPoint(complex(1.0, 0.2)))
    t0, h = 0.7, 1e-5
    for n in (2, 3, 5):
        fd = (k.fn(n - 1)(np.array([t0 + h]))[0]
              - k.fn(n - 1)(np.array([t0 - h]))[0]) / (2 * h)
        dn = time_derivative(k, n, t0)
        assert abs(dn - fd) / max(abs(dn), 1e-30) < 1e-6


def test_b_minus_h_derivative_vs_finite_differences():
    k = Kernel("B_minus_h", FracOrder(0.3), SectorPoint(1.0))
    h = 1e-5
    fd = (k.fn(0)(np.array([5.0 + h]))[0] - k.fn(0)(np.array([5.0 - h]))[0]) / (2 * h)
    assert abs(k.fn(1)(np.array([5.0]))[0] - fd) < 1e-12


_WIDE_T = 10.0 ** np.arange(-300, 301)
_WIDE_Z = {  # name: (z, sigma, closed sector)
    "real": (0.688, 0.15, False),
    "complex": (complex(0.8, 0.3), complex(0.4, 0.2), False),
    "edge": (complex(0.6, 0.6), 0.15, True),  # z^2 = 0.72i exactly
}


def _lah(n, k):
    return math.comb(n - 1, k - 1) * math.factorial(n) // math.factorial(k)


@lru_cache(maxsize=None)
def _wide_reference(zname):
    """{(kind, eps): (values, ~log10 |values|)}, rows n = 0..3 over _WIDE_T.

    Leibniz's rule in mpmath on const t^rho g(t) e^{-eps t}, with
    d^j e^{a/t} = (-1)^j e^{a/t} sum_k L(j, k) a^k t^{-j-k} (Lah numbers)
    and g = expm1(a/t) for B - h: independent of the kernels' recurrence.
    """
    mp = pytest.importorskip("mpmath")
    z, s, _ = _WIDE_Z[zname]
    out = {}
    with mp.workdps(24):
        z, s = mp.mpc(z), mp.mpc(s)
        a = -z * z / 4
        forms = {"b": (mp.power(z, 2 * s) / (mp.power(4, s) * mp.gamma(s)), -1 - s),
                 "B": (1 / mp.gamma(s), s - 1), "B_minus_h": (1 / mp.gamma(s), s - 1)}
        # C(m, i) times the falling factorial rho (rho - 1) ... (rho - i + 1)
        leib = {kind: [[math.comb(m, i) * mp.fprod(rho - k for k in range(i))
                        for i in range(m + 1)] for m in range(4)]
                for kind, (_, rho) in forms.items()}
        rows = {(kind, eps): [] for kind in forms for eps in (None, 0.7)}
        for t in map(mp.mpf, _WIDE_T):
            ea, e = mp.exp(a / t), mp.exp(-0.7 * t)
            g = [ea] + [(-1) ** j * ea * sum(_lah(j, k) * a ** k / t ** (j + k)
                                             for k in range(1, j + 1)) for j in (1, 2, 3)]
            for kind, (const, rho) in forms.items():
                gk = [mp.expm1(a / t)] + g[1:] if kind == "B_minus_h" else g
                d = [const * t ** rho * sum(c / t ** i * gk[m - i]
                                            for i, c in enumerate(leib[kind][m]))
                     for m in range(4)]
                rows[kind, None].append(d)
                rows[kind, 0.7].append([e * sum(math.comb(n, l) * (-0.7) ** l * d[n - l]
                                                for l in range(n + 1)) for n in range(4)])
        for key, per_t in rows.items():
            # |v| <= 2^mag(v) < 4 |v|
            mags = np.array([[mp.mag(v) * math.log10(2.0) for v in r] for r in per_t]).T
            vals = np.array([[complex(v) if -330 < m < 300 else 0j for v, m in zip(r, mr)]
                             for r, mr in zip(per_t, mags.T)]).T
            out[key] = (vals, mags)
    return out


@pytest.mark.parametrize("zname", sorted(_WIDE_Z))
@pytest.mark.parametrize("eps", [None, 0.7])
@pytest.mark.parametrize("kind", ["b", "B", "B_minus_h"])
def test_time_derivatives_across_double_range_vs_mpmath(kind, eps, zname):
    # t = 1e-300 .. 1e300: where (1/t)^k overflows and e^{a/t} underflows
    # the value is never inf * 0; RuntimeWarnings are errors in this suite
    z, s, closed = _WIDE_Z[zname]
    k = Kernel(kind, FracOrder(s), SectorPoint(z, closed=closed), eps)
    vals, mags = _wide_reference(zname)[kind, eps]
    # a double a/t is off by ~1e-16 |a/t| in absolute terms, and so is the
    # phase of exp(a/t), whatever evaluates it
    tol = 1e-12 + 1e-15 * abs(z * z / 4) / _WIDE_T
    for n in range(4):
        live = mags[n] <= 290  # above it the true value may not be a double
        got = k.fn(n)(_WIDE_T[live])
        ref, mag = vals[n][live], mags[n][live]
        assert np.all(np.isfinite(got))
        assert np.all(got[mag < -330] == 0)
        ok = mag >= -290
        assert ok.any()
        assert np.all(np.abs(got[ok] - ref[ok]) / np.abs(ref[ok]) <= tol[live][ok])


def test_derivative_order_cap():
    with pytest.raises(ValueError):
        _b(0.5, 1.0).fn(13)


def test_derB_identity():
    # z^{1-2s} dz B^{s,z} = s Gamma(-s)/(2^{2s-1} Gamma(s)) b^{1-s,z}
    s, z, t = 0.25, complex(1.0, 0.2), 0.7
    lhs = cpow(z, 1 - 2 * s) * z_derivative(_B(s, z), 1, t)
    rhs = (s * gamma(-s) / (2 ** (2 * s - 1) * gamma(s))
           * eval_kernel(_b(1 - s, z), t))
    assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_kernel_ode_and_euler_identities():
    rng = np.random.default_rng(5)
    for _ in range(12):
        s = rng.uniform(0.05, 0.95)
        z = rng.uniform(0.4, 1.6) * cmath.exp(1j * rng.uniform(-0.7, 0.7))
        t = rng.uniform(0.2, 3.0)
        for kind, euler_rhs in (("b", -2.0), ("B", -2.0 * (1 - s))):
            k = Kernel(kind, FracOrder(s), SectorPoint(z))
            dt1 = time_derivative(k, 1, t)
            ode = (z_derivative(k, 2, t) + (1 - 2 * s) / z * z_derivative(k, 1, t)
                   - dt1)
            terms = max(abs(z_derivative(k, 2, t)), abs(dt1), 1e-300)
            assert abs(ode) <= 1e-10 * terms
            euler = (2 * t * dt1 + z * z_derivative(k, 1, t)
                     - euler_rhs * eval_kernel(k, t))
            assert abs(euler) <= 1e-10 * max(abs(eval_kernel(k, t)), 1e-300)


def test_b_normalization_random_draws():
    rng = np.random.default_rng(6)
    for _ in range(20):
        s = rng.uniform(0.05, 0.95)
        z = rng.uniform(0.3, 2.0) * cmath.exp(1j * rng.uniform(-math.pi / 4 * 0.92,
                                                               math.pi / 4 * 0.92))
        k = _b(s, z)
        r = integrate_halfline(k.fn(0), None, ("algebraic", 1 + s), tol=1e-11)
        assert abs(r.value - 1.0) < 1e-9


@pytest.mark.parametrize("sigma", [0.021, 0.05, 0.3, 0.9, 0.979, complex(0.4, 0.2)])
def test_moments_of_b_are_its_unit_mass(sigma):
    # int b dt = 1 at every z of the closed sector, so the moment
    # int b^(n)(t) t^n / n! dt is (-1)^n and that of d/dz b is 0: the rows
    # an exact zero eigenvalue takes in the spectral integral
    for z in (0.05, 1.2, 0.8 * cmath.exp(1j * math.pi / 4)):
        k = Kernel("b", FracOrder(sigma), SectorPoint(z, closed=True))
        for n in range(4):
            assert abs(k.fn(n).moment(n) - (-1) ** n) <= 1e-13
        assert abs(z_derivative_fn(k, 1).moment(0)) <= 1e-13
    assert Kernel("B", FracOrder(sigma), SectorPoint(1.2), eps=0.5).fn(0).moment(0) is None
    assert _HintedFn(np.exp, 0.0, ("exponential", 1.0)).moment(0) is None


def test_b_vanishing_boundary():
    k = _b(0.4, 1.0)
    # at t = 1e-6 the e^{-z^2/(4t)} factor underflows every double
    assert abs(eval_kernel(k, 1e-6)) <= 1e-300
    t_big = 1e6
    big = abs(eval_kernel(k, t_big))
    bound = abs(cpow(1.0, 0.8)) / (4 ** 0.4 * abs(gamma(0.4))) * t_big ** (-1.4)
    assert big <= 1.0000001 * bound


def test_eps_approximation_monotone():
    k0 = _b(0.4, 1.0)
    base = sobolev_norm(k0, 1.0)
    gaps = []
    for eps in (1.0, 0.1, 0.01):
        ke = Kernel("b", FracOrder(0.4), SectorPoint(1.0), eps=eps)
        gaps.append(abs(sobolev_norm(ke, 1.0) - base))
    assert gaps[0] > gaps[1] > gaps[2]


def test_weyl_exponential_eigenfunction():
    e = Kernel("exp_eps", eps=0.7)
    for alpha in (0.5, 1.0, 1.7):
        v = weyl_derivative(e, alpha, 1.1)
        assert abs(v - 0.7 ** alpha * math.exp(-0.7 * 1.1)) < 1e-11
    v = weyl_integral(e, 0.8, 1.1)
    assert abs(v - 0.7 ** -0.8 * math.exp(-0.7 * 1.1)) < 1e-11


def test_weyl_integral_of_e1_at_zero():
    # (1/Gamma(1/2)) int_0^inf t^{-1/2} e^{-t} dt = 1; the spec's phi row
    # (h^{1/2} e_1) would diverge -- see the decisions ledger
    v = weyl_integral(Kernel("exp_eps", eps=1.0), 0.5, 0.0)
    assert abs(v - 1.0) < 1e-11


def test_weyl_minus_one_of_b_is_normalization():
    k = _b(0.35, 1.0)
    v = weyl_integral(k, 1.0, 0.0)
    assert abs(v - 1.0) < 1e-9


def test_weyl_integer_order_is_time_derivative():
    k = _b(0.3, 1.0)
    assert abs(weyl_derivative(k, 2.0, 0.8) - time_derivative(k, 2, 0.8)) == 0.0


def test_weyl_derivative_array_matches_scalar():
    # each point of the array call is a lane of one batched quadrature with
    # its own panels and error target, so each entry keeps its own relative
    # accuracy although the values span 1e-9..5e1; exp_eps takes the log
    # route, whose probe sees only zeros at s = 1e5
    cases = [(Kernel("b", FracOrder(0.35), SectorPoint(0.8)), np.geomspace(1e-3, 1e3, 13)),
             (Kernel("exp_eps", eps=0.7), np.array([1e-3, 0.5, 4.0, 1e5]))]
    for k, ts in cases:
        for alpha in (0.5, 1.5, 2.0):
            got = weyl_derivative(k, alpha, ts, tol=1e-11)
            assert got.shape == ts.shape
            for t, g in zip(ts, got):
                ref = weyl_derivative(k, alpha, float(t), tol=1e-11)
                assert abs(g - ref) <= 1e-11 * abs(ref)
    # s = 0 adds the kernel's zero exponent to the endpoint's (a lane group
    # of its own for h, whose exponent is -0.4)
    pts = [0.0, 0.3, 2.0]
    for k in (Kernel("exp_eps", eps=1.0), Kernel("h", FracOrder(0.6), eps=1.0)):
        got = weyl_integral(k, 0.5, pts)
        for t, g in zip(pts, got):
            ref = weyl_integral(k, 0.5, t)
            assert abs(g - ref) <= 1e-11 * abs(ref)


def test_weyl_failure_names_its_point():
    k = Kernel("b", FracOrder(0.35), SectorPoint(0.8))
    with np.errstate(invalid="ignore"), \
            pytest.raises(QuadratureError, match=r"W\^0\.5 at s = nan"):
        weyl_derivative(k, 0.5, np.array([0.5, np.nan, 2.0]))


def test_weyl_composition_half_half():
    e1 = Kernel("exp_eps", eps=1.0)

    def half(t):
        return weyl_derivative(e1, 0.5, np.atleast_1d(t), tol=1e-13).reshape(np.shape(t))

    inner = _HintedFn(half, 0.0, ("exponential", 1.0))
    comp = weyl_derivative(inner, 0.5, 0.9, tol=1e-11)
    once = weyl_derivative(e1, 1.0, 0.9)
    assert abs(comp - once) < 1e-9


def test_sobolev_norm_examples():
    assert abs(sobolev_norm(Kernel("exp_eps", eps=1.0), 0.0) - 1.0) < 1e-10
    # ||e_eps||_(alpha) = 1/eps for every alpha (the spec example's
    # "1 for all eps" is off; see the decisions ledger)
    assert abs(sobolev_norm(Kernel("exp_eps", eps=0.5), 1.0) - 2.0) < 1e-9
    assert abs(sobolev_norm(Kernel("exp_eps", eps=1.0), 1.0) - 1.0) < 1e-9


def test_sobolev_norm_b_bound():
    # ||b||_(N) <= C (|z|^2/Re z^2)^{N+sigma}; the z-independent constant is
    # measured at z = 1 and must cover an off-axis z
    s, N = 0.3, 1.0
    base = sobolev_norm(_b(s, 1.0), N)
    z = 1.2 * cmath.exp(1j * math.pi / 6)
    ratio = abs(z) ** 2 / (z * z).real
    val = sobolev_norm(_b(s, z), N)
    assert val <= 1.05 * base * ratio ** (N + s)


def test_h_alone_not_integrable_guarded():
    h = Kernel("h", FracOrder(0.5))
    with pytest.raises(ValueError):
        sobolev_norm(h, 0.0)
    from fracext.funcalc import pi_alpha
    from fracext.families import heat_semigroup
    from fracext.operators import LinearOperator
    fam = heat_semigroup(LinearOperator("diagonal", [-1.0]))
    with pytest.raises(ValueError):
        pi_alpha(h, fam, np.array([1.0]))


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_weyl_derivative_of_e1_at_zero(alpha):
    # W^alpha e_1 = e_1 for every alpha; at s = 0 the derivative-first
    # integrand keeps e_1's bounded zero exponent
    assert abs(weyl_derivative(Kernel("exp_eps", eps=1.0), alpha, 0.0) - 1.0) < 1e-12


def test_weyl_derivative_of_sampled_gaussian_at_zero():
    # W^{1/2} exp(-t^2) (0) = (2/sqrt(pi)) int_0^inf tau^{1/2} e^{-tau^2} dtau
    gauss = _HintedFn(lambda t: np.exp(-np.asarray(t) ** 2), 0.0, ("exponential", 1.0))
    assert abs(weyl_derivative(gauss, 0.5, 0.0) - gamma(0.75) / SQRT_PI) < 1e-9


@pytest.mark.parametrize("s", [0.5, 1.0, 4.0])
def test_weyl_integral_of_h_converges_below_one_minus_sigma(s):
    # W^{-beta} h^sigma = Gamma(1-sigma-beta) / (Gamma(1-sigma) Gamma(sigma))
    # s^{sigma+beta-1}, convergent for beta < 1 - sigma
    ref = gamma(0.2) / (gamma(0.7) * gamma(0.3)) * s ** -0.2
    got = weyl_integral(Kernel("h", FracOrder(0.3)), 0.5, s)
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.5])
def test_weyl_integral_of_bounded_algebraic_function(beta):
    # W^{-beta} (1+t)^-4 = Gamma(4-beta)/Gamma(4) (1+s)^{beta-4}: an
    # integrand bounded at tau = 0 with an algebraic tail, so only its
    # upper window edge adds back a tail
    phi = _HintedFn(lambda t: (1.0 + np.asarray(t)) ** -4, 0.0, ("algebraic", 4.0))
    s = np.array([0.0, 0.5, 2.0, 10.0])
    ref = gamma(4.0 - beta) / gamma(4.0) * (1.0 + s) ** (beta - 4.0)
    got = weyl_integral(phi, beta, s)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13


def test_convolution_h_b_equals_B():
    s = 0.3
    for sv in (0.5, 1.0, 2.0):
        conv = convolve_halfline(Kernel("h", FracOrder(s)), _b(s, 1.0), sv)
        ref = eval_kernel(_B(s, 1.0), sv)
        assert abs(conv - ref) / abs(ref) < 1e-8


def test_convolution_half_heaviside():
    # h^{1/2} * h^{1/2} = h^1 = 1
    c = convolve_halfline(Kernel("h", FracOrder(0.5)), Kernel("h", FracOrder(0.5)), 1.7)
    assert abs(c - 1.0) < 1e-10


def test_convolution_exponentials():
    c = convolve_halfline(Kernel("exp_eps", eps=1.0), Kernel("exp_eps", eps=1.0), 2.0)
    assert abs(c - 2.0 * math.exp(-2.0)) < 1e-11


def test_norm_continuity_in_z():
    # analyticity itself is not operationalized; norm continuity on a grid is
    s = 0.45
    zs = [1.0, 1.0 + 0.05j, 1.0 + 0.1j]
    norms = [sobolev_norm(_b(s, z), 1.0) for z in zs]
    assert abs(norms[1] - norms[0]) < 0.1
    assert abs(norms[2] - norms[1]) < 0.1


def test_kernel_validation():
    with pytest.raises(ValueError):
        Kernel("b", FracOrder(0.5), None)
    with pytest.raises(ValueError):
        Kernel("h", FracOrder(0.5), SectorPoint(1.0))
    with pytest.raises(ValueError):
        Kernel("exp_eps")
    with pytest.raises(ValueError):
        Kernel("exp_eps", eps=-1.0)
    with pytest.raises(ValueError):
        Kernel("nope")


def test_b_minus_h_norm_bound():
    # ||B - h||_(N) <= C |z|^{2N} / (Re z^2)^{N - sigma}: measure the
    # constant on the axis and check an off-axis z stays under it
    s, N = 0.4, 1.0
    base = sobolev_norm(Kernel("B_minus_h", FracOrder(s), SectorPoint(1.0)), N)
    z = 1.3 * cmath.exp(1j * math.pi / 6)
    bound_ratio = abs(z) ** (2 * N) / ((z * z).real ** (N - s))
    val = sobolev_norm(Kernel("B_minus_h", FracOrder(s), SectorPoint(z)), N)
    assert val <= 1.05 * base * bound_ratio
