import cmath
import math

import numpy as np
import pytest

from fracext.specfun import (
    FracOrder,
    PoleError,
    cexpm1,
    constants_for,
    cpow,
    gamma,
    lower_incomplete_gamma,
)

SQRT_PI = math.sqrt(math.pi)


def test_gamma_known_values():
    assert abs(gamma(0.5) - SQRT_PI) < 1e-14
    assert abs(gamma(1.0) - 1.0) < 1e-14
    # reflection-derived value, cross-checked by the recurrence below
    assert abs(gamma(-0.5) + 2.0 * SQRT_PI) < 1e-13
    assert abs(-0.5 * gamma(-0.5) - gamma(0.5)) < 1e-13


def test_gamma_pole_errors():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            gamma(x)


def test_gamma_recurrence_strip():
    rng = np.random.default_rng(1)
    worst = 0.0
    count = 0
    while count < 100:
        x = complex(rng.uniform(-45, 45), rng.uniform(-45, 45))
        if abs(x) > 49 or (abs(x.imag) < 1e-2 and x.real < 0.5):
            continue
        count += 1
        lhs = gamma(x + 1.0)
        worst = max(worst, abs(lhs - x * gamma(x)) / abs(lhs))
    assert worst < 1e-12


def test_gamma_reflection():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        x = complex(rng.uniform(-20, 20), rng.uniform(0.05, 20))
        val = gamma(x) * gamma(1.0 - x) * cmath.sin(math.pi * x) / math.pi
        worst = max(worst, abs(val - 1.0))
    assert worst < 1e-12


def test_lower_incomplete_gamma_exponential_case():
    # gamma(1, x) = 1 - e^{-x}
    v = lower_incomplete_gamma(1.0, 2.0)
    assert abs(v - (1.0 - math.exp(-2.0))) < 1e-13


def test_lower_incomplete_gamma_half_at_one():
    # frozen from the brute-force oracle 2 int_0^1 e^{-s^2} ds
    assert abs(lower_incomplete_gamma(0.5, 1.0) - 1.493648265624853) < 1e-12


def test_lower_incomplete_gamma_imaginary_argument():
    # closed-form antiderivative: gamma(1, i pi) = 1 - e^{-i pi} = 2
    v = lower_incomplete_gamma(1.0, 1j * math.pi)
    assert abs(v - 2.0) < 1e-12


def test_lower_incomplete_gamma_limit_is_gamma():
    for a in (0.3, 1.7):
        v = lower_incomplete_gamma(a, 80.0)
        assert abs(v - gamma(a)) / abs(gamma(a)) < 1e-10


@pytest.mark.parametrize("a", [0.4, 1.3, complex(0.8, 0.4)])
@pytest.mark.parametrize("x", [5.0, 25j, -9.0 + 0.5j, -60.0 + 0j, 70.0])
def test_lower_incomplete_gamma_regimes_vs_ray_quadrature(a, x):
    # independent oracle: gamma(a, x) = x^a int_0^1 s^{a-1} e^{-x s} ds along
    # the straight ray; s = e^{-v} turns it into a smooth decaying integral
    from tests.conftest import simpson

    a = complex(a)
    x = complex(x)
    v_max = 40.0 / a.real

    def integrand(v):
        s = np.exp(-v)
        return np.exp(-a * v) * np.exp(-x * s)

    ref = cpow(x, a) * simpson(integrand, 0.0, v_max, n=800001)
    got = lower_incomplete_gamma(a, x)
    assert abs(got - ref) / abs(ref) < 1e-9


def test_lower_incomplete_gamma_domain():
    with pytest.raises(ValueError):
        lower_incomplete_gamma(-0.5, 1.0)


def test_frac_order_validation():
    FracOrder(0.5)
    FracOrder(complex(0.4, 0.2))
    for bad in (0.0, 1.0, -0.3, 1.7, complex(1.2, 0.1)):
        with pytest.raises(ValueError):
            FracOrder(bad)


@pytest.mark.parametrize("s", [0.5, complex(0.4, 0.2)])
def test_frac_order_reads_itself_and_complex(s):
    assert FracOrder(FracOrder(s)) == FracOrder(s)
    assert complex(FracOrder(s)) == s


def test_constants_at_half():
    c = constants_for(FracOrder(0.5))
    # 4^{-1/2} Gamma(-1/2)/Gamma(1/2) = (1/2)(-2 sqrt(pi))/sqrt(pi) = -1
    assert abs(c.c_sigma + 1.0) < 1e-13
    # 2 Gamma(1)/(sqrt(pi) Gamma(1/2)) = 2/pi
    assert abs(c.d_sigma - 2.0 / math.pi) < 1e-14
    assert c.kappa_sigma is None
    assert c.neumann_factor == 2.0 * 0.5 * c.c_sigma


def test_constants_quarter_kappa():
    c = constants_for(FracOrder(0.25))
    # 2 Gamma(1/4)/(4^{1/4} sqrt(pi) Gamma(1/4)) = sqrt(2/pi)
    assert abs(c.kappa_sigma - math.sqrt(2.0 / math.pi)) < 1e-13


def test_c_sigma_negative_for_real_sigma():
    for s in np.linspace(0.05, 0.95, 19):
        c = constants_for(FracOrder(float(s)))
        assert c.c_sigma.imag == pytest.approx(0.0, abs=1e-14)
        assert c.c_sigma.real < 0.0
        assert c.neumann_factor == 2.0 * complex(s) * c.c_sigma


def test_cpow_branches():
    z = -1.0 + 0j
    assert abs(cpow(z, 0.5) - 1j) < 1e-15                      # arg = +pi
    w = complex(1.0, -1e-12)  # just below the positive axis
    assert abs(cpow(w, 0.5) - 1.0) < 1e-9


def test_cexpm1_stability():
    w = complex(1e-12, 1e-12)
    v = cexpm1(w)
    assert abs(v - w) / abs(w) < 1e-10
    arr = cexpm1(np.array([0.0 + 0j, 1.0 + 1j]))
    assert abs(arr[1] - (cmath.exp(1 + 1j) - 1.0)) < 1e-14
