import math

import numpy as np
import pytest

from fracext.quadrature import (
    QuadratureError,
    integrate_halfline,
    integrate_interval,
    richardson_limit,
    richardson_multi,
)

EXP_TAIL = ("exponential", 1.0)


def test_interval_linear():
    r = integrate_interval(lambda s: s, 0.0, 1.0)
    assert abs(r.value - 0.5) < 1e-14
    assert r.evaluations > 0


def test_interval_beta_endpoint():
    # int_0^1 (1-s)^{-1/2} ds = 2, integrated in the distance variable
    r = integrate_interval(lambda d: d ** -0.5, 1e-300, 1.0, tol=1e-9)
    assert abs(r.value - 2.0) < 2e-4  # raw adaptive on the singular integrand
    from fracext.quadrature import _graded
    vals, _, _ = _graded(lambda d, lane: d ** -0.5, 1, 1.0, -0.5, 1e-11)
    assert abs(vals[0] - 2.0) < 1e-10
    with pytest.raises(ValueError):
        _graded(lambda d, lane: d ** -1.5, 1, 1.0, -1.5, 1e-11)


def test_interval_complex_oscillation():
    r = integrate_interval(lambda s: np.exp(1j * s), 0.0, math.pi)
    assert abs(r.value - 2j) < 1e-12


def test_halfline_exponential():
    r = integrate_halfline(lambda t: np.exp(-t), tail=EXP_TAIL)
    assert abs(r.value - 1.0) < 1e-9


def test_halfline_gamma_half():
    r = integrate_halfline(
        lambda t: t ** -0.5 * np.exp(-t),
        -0.5, EXP_TAIL)
    assert abs(r.value - math.sqrt(math.pi)) < 1e-9


def test_halfline_kernel_normalization():
    def b(t):
        return np.exp(-1.0 / (4.0 * t)) * t ** -1.5 / (2.0 * math.sqrt(math.pi))

    r = integrate_halfline(b, None, ("algebraic", 1.5))
    assert abs(r.value - 1.0) < 1e-9


def test_halfline_linearity():
    f = lambda t: np.exp(-t)
    g = lambda t: t * np.exp(-2.0 * t)
    a, b = 2.3, -0.7
    lhs = integrate_halfline(lambda t: a * f(t) + b * g(t), tail=EXP_TAIL)
    rhs_f = integrate_halfline(f, tail=EXP_TAIL)
    rhs_g = integrate_halfline(g, tail=EXP_TAIL)
    bound = rhs_f.error_estimate + rhs_g.error_estimate + lhs.error_estimate + 1e-12
    assert abs(lhs.value - (a * rhs_f.value + b * rhs_g.value)) < bound


def test_halfline_substitution_invariance():
    # int f(t) dt = int f(1/s)/s^2 ds for the kernel corpus
    def f(t):
        return np.exp(-1.0 / (4.0 * t)) * t ** -1.3 * np.exp(-0.2 * t)

    r1 = integrate_halfline(f, None, EXP_TAIL, tol=1e-11)

    def g(s):
        return f(1.0 / s) / s ** 2

    r2 = integrate_halfline(g, None, EXP_TAIL, tol=1e-11)
    assert abs(r1.value - r2.value) / abs(r1.value) < 1e-9


def test_halfline_zero_integrand():
    r = integrate_halfline(lambda t: np.zeros_like(t), tail=EXP_TAIL)
    assert r.value == 0.0
    assert r.error_estimate == 0.0


def test_interval_sees_mass_between_first_nodes():
    # a narrow hat between the 15 nodes of the only panel: the interior
    # probe finds it, so the panel is refined instead of read as zero
    def hat(x):
        return np.maximum(0.0, 1.0 - np.abs(x - 0.125) / 0.05)

    r = integrate_interval(hat, -1.0, 1.0)
    assert abs(r.value - 0.05) < 1e-10


def test_halfline_nan_detection():
    def f(t):
        return np.where(t > 10.0, np.nan, np.exp(-t))

    with pytest.raises(QuadratureError):
        integrate_halfline(f, tail=EXP_TAIL)


def test_halfline_decay_validation():
    def f(t):
        return np.exp(-t)

    with pytest.raises(ValueError):
        integrate_halfline(f, zero=-1.5)
    with pytest.raises(ValueError):
        integrate_halfline(f, tail=("algebraic", 0.9))
    with pytest.raises(ValueError):
        integrate_halfline(f, tail=("no-such-kind", 1.0))


def test_richardson_linear_exact():
    samples = [(0.5 * 0.7 ** k, 2.0 + 0.5 * 0.7 ** k) for k in range(6)]
    L, diag = richardson_limit(samples, 1.0)
    assert abs(L - 2.0) < 1e-13
    assert diag < 1e-12


def test_richardson_polynomial_in_y_p():
    # exact polynomial in y^p recovers L to machine precision
    p = 0.6
    samples = [(0.8 * 0.65 ** k,
                3.0 + 2.0 * (0.8 * 0.65 ** k) ** p - 1.5 * (0.8 * 0.65 ** k) ** (2 * p))
               for k in range(8)]
    L, _ = richardson_limit(samples, p)
    assert abs(L - 3.0) < 1e-12


def test_richardson_exponential():
    samples = [(0.5 * 0.7 ** k, math.exp(-0.5 * 0.7 ** k)) for k in range(10)]
    L, diag = richardson_limit(samples, 1.0)
    assert abs(L - 1.0) < 1e-12


def test_richardson_scalar_extension_derivative():
    # y^0 u'(y) for u(y) = e^{-y} extrapolates to -1
    samples = [(0.5 * 0.7 ** k, -math.exp(-0.5 * 0.7 ** k)) for k in range(10)]
    L, _ = richardson_limit(samples, 1.0)
    assert abs(L + 1.0) < 1e-12


def test_richardson_drop_stability():
    samples = [(0.5 * 0.7 ** k, 1.0 + (0.5 * 0.7 ** k) ** 1.3) for k in range(9)]
    L_full, diag = richardson_limit(samples, 1.3)
    L_drop, _ = richardson_limit(samples[1:], 1.3)
    assert abs(L_full - L_drop) <= 10.0 * max(diag, 1e-14)


def test_richardson_errors():
    with pytest.raises(ValueError):
        richardson_limit([(1.0, 1.0), (0.5, 1.0)], 1.0)
    with pytest.raises(ValueError):
        richardson_limit([(1.0, 1.0), (0.5, 1.0), (0.3, 1.0)], 1.0)  # not geometric


def test_richardson_multi_mixed_exponents():
    ys = [0.5 * 0.7 ** k for k in range(10)]
    samples = [(y, 1.0 + 0.7 * y ** 0.5 + 0.2 * y ** 2) for y in ys]
    L, _ = richardson_multi(samples, [0.5, 2.0, 2.5])
    assert abs(L - 1.0) < 1e-12


def test_richardson_vector_values():
    ys = [0.5 * 0.7 ** k for k in range(8)]
    samples = [(y, np.array([2.0 + y, -1.0 + 3.0 * y])) for y in ys]
    L, _ = richardson_limit(samples, 1.0)
    assert np.allclose(L, [2.0, -1.0], atol=1e-12)


@pytest.mark.parametrize("case", ["gamma_half", "kernel_b"])
def test_halfline_routeless_kinds_change_nothing(case):
    # only an algebraic zero and an algebraic tail choose a route: stating
    # a flat (None) or bounded zero, or an exponential tail, instead of
    # nothing leaves the value bitwise and the evaluation count unchanged
    if case == "gamma_half":
        def f(t):
            return t ** -0.5 * np.exp(-t)

        algebraic = {"zero": -0.5}
        routeless = [{"tail": EXP_TAIL}]
    else:
        def f(t):
            return np.exp(-1.0 / (4.0 * t)) * t ** -1.5 / (2.0 * math.sqrt(math.pi))

        algebraic = {"tail": ("algebraic", 1.5)}
        routeless = [{"zero": None}, {"zero": 0.0}]
    bare = integrate_halfline(f, **algebraic, tol=1e-11)
    for extra in routeless:
        r = integrate_halfline(f, **extra, **algebraic, tol=1e-11)
        assert r.value == bare.value
        assert r.evaluations == bare.evaluations
        assert r.error_estimate == bare.error_estimate


@pytest.mark.parametrize("q", [None, -0.5, 0.3])
def test_graded_lanes_equal_their_one_lane_calls(q):
    from fracext.quadrature import _graded

    rates = np.array([0.5, 1.0, 2.0])

    def f(t, lane):
        return t ** -0.5 * np.exp(-rates[lane] * t) if q == -0.5 else np.cos(rates[lane] * t)

    together = _graded(f, rates.size, 2.0, q, 1e-12)
    for k in range(rates.size):
        alone = _graded(lambda t, lane, k=k: f(t, np.full(t.shape, k)), 1, 2.0, q, 1e-12)
        assert [r[k] for r in together] == [r[0] for r in alone]


def test_interval_is_the_ungraded_lane():
    from fracext.quadrature import _graded

    def f(t):
        return np.exp(1j * t) / (1.0 + t * t)

    r = integrate_interval(f, 0.0, 3.0, tol=1e-12)
    vals, errs, evals = _graded(lambda t, lane: f(t), 1, 3.0, None, 1e-12)
    assert (r.value, r.error_estimate, r.evaluations) == (vals[0], errs[0], evals[0])
    # a left end a != 0 is the same lane in the offset t - a
    shifted = integrate_interval(lambda t: f(t - 1.0), 1.0, 4.0, tol=1e-12)
    assert abs(shifted.value - r.value) < 1e-13
    for a, b in ((1.0, 1.0), (2.0, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            integrate_interval(f, a, b)


def _counting(f, lanes):
    # f in the lane convention, with the nodes each lane was given counted
    seen = np.zeros(lanes, dtype=int)

    def g(t, lane):
        seen[:] += np.bincount(lane, minlength=lanes)
        return f(t, lane)

    return g, seen


@pytest.mark.parametrize("route", ["both add-backs", "log", "log add-back"])
@pytest.mark.parametrize("lanes", [1, 3])
def test_evaluations_count_every_sample(route, lanes):
    # evaluations is the number of nodes the integrand saw: that takes in
    # the probe, the wide probe of a quiet lane, every walk sample and the
    # add-back samples; the last of three lanes is zero
    from fracext.quadrature import _halfline

    q, p = {"both add-backs": (-0.5, 2.5), "log": (None, None),
            "log add-back": (-0.5, None)}[route]
    rates = np.array([1.0, 3.0, 0.0])[:lanes]

    def f(t, lane):
        if route == "both add-backs":
            return rates[lane] * t ** -0.5 / (1.0 + t) ** 3
        return rates[lane] * t ** (0.5 if q is None else q) * np.exp(-rates[lane] * t)

    g, seen = _counting(f, lanes)
    _, _, evals = _halfline(g, lanes, q, p, 1e-10)
    assert list(evals) == list(seen)
    if lanes == 1:
        tail = ("algebraic", p) if p else None
        g, seen = _counting(f, 1)
        r = integrate_halfline(lambda t: g(t, np.zeros(t.shape, dtype=int)), q, tail, tol=1e-10)
        assert r.evaluations == seen[0]


@pytest.mark.parametrize("bad", ["nan", "overflow"])
def test_walk_overshoot_is_dropped(bad):
    # the window walk samples past its stop; an integrand that is NaN, or
    # overflows with a RuntimeWarning, only there integrates cleanly, and
    # the smallest t sampled shows the bad region was reached.  The lower
    # edge stops at u = -36 (t = 2.3e-16); the probe's call samples on to
    # u = -42 (t = 5.7e-19), so both bad regions lie in that overshoot
    smallest = [np.inf]

    def f(t):
        smallest[0] = min(smallest[0], float(np.min(t)))
        if bad == "nan":
            return np.where(t < 1e-16, np.nan, np.exp(-t))
        return np.exp(-t) / np.exp(np.where(t < 1e-17, 1e3, 0.0))  # overflows below t = 1e-17

    r = integrate_halfline(f, tail=EXP_TAIL, tol=1e-10)
    assert abs(r.value - 1.0) < 1e-9
    assert smallest[0] < (1e-16 if bad == "nan" else 1e-17)


def test_nonfinite_inside_window_names_its_lane():
    from fracext.quadrature import _halfline

    def f(t, lane):
        return np.where((lane == 1) & (t < 1e-8), np.nan, np.exp(-t))

    with pytest.raises(QuadratureError) as info:
        _halfline(f, 3, None, None, 1e-10, label=lambda k: f"lane {k}")
    assert str(info.value) == "lane 1 (log substitution): NaN/Inf sample detected"


def test_panel_cap_is_per_lane():
    # a jump at 1/pi cannot reach tol 1e-15 in 30 panels: the failure names
    # that lane, and no lane ever held more than 30 panels
    from fracext.quadrature import _graded

    def f(t, lane):
        return np.where(lane == 1, (t > 1.0 / math.pi).astype(float), np.cos(t))

    g, seen = _counting(f, 2)
    with pytest.raises(QuadratureError) as info:
        _graded(g, 2, 2.0, None, 1e-15, max_panels=30, label=lambda k: f"lane {k}")
    assert str(info.value).startswith("lane 1: refinement cap exceeded")
    held = 8 + (seen // 15 - 8) // 2  # eight panels, then two sampled per bisection
    assert held.max() == 30


def test_split_rounds_keep_lanes_independent():
    # 64 lanes bisect more than 52 panels a round, so a round is sampled
    # in several calls of at most 780 nodes; each lane still equals its
    # one-lane call bitwise
    from fracext.quadrature import _graded

    rates = np.linspace(0.5, 40.0, 64)
    sizes = []

    def f(t, lane):
        sizes.append(t.size)
        return t ** -0.5 * np.cos(rates[lane] * t)

    together = _graded(f, rates.size, 2.0, -0.5, 1e-12)
    assert max(sizes) == 780
    for k in range(rates.size):
        alone = _graded(lambda t, lane, k=k: f(t, np.full(t.shape, k)), 1, 2.0, -0.5, 1e-12)
        assert [r[k] for r in together] == [r[0] for r in alone]


def test_interval_second_look_between_start_panel_nodes():
    # a narrow hat between the Kronrod nodes of the start panel [0, 1/4]:
    # every node of every start panel reads zero, and the second look half
    # way between that panel's centre and right end finds it
    def hat(x):
        return np.maximum(0.0, 1.0 - np.abs(x - 0.1875) / 0.01)

    r = integrate_interval(hat, -1.0, 1.0)
    assert abs(r.value - 0.01) < 1e-12


def _reference_window(g, tol):
    # the plain window walk: the probe (widened when it reads zero), then
    # steps of 3 outward from each probe end until three samples in a row
    # fall below the cut, never past |u| = 690.  Returns the window and the
    # grid points each edge needed, or None for a lane that reads zero
    scale, half = np.abs(g(np.linspace(-6.0, 6.0, 25))).max(), 6.0
    if scale == 0.0:
        wide = np.concatenate([np.linspace(-120, -6, 20), np.linspace(6, 120, 20)])
        scale, half = np.abs(g(wide)).max(), 120.0
    if scale == 0.0:
        return None
    cut = max(scale * tol * 1e-2, 1e-290)
    window, needed = [], []
    for way in (-1.0, 1.0):
        u = way * (half + 3.0 * np.arange(np.ceil((690.0 - half) / 3.0)))
        below = np.abs(g(u)) < cut
        three = np.flatnonzero(below[:-2] & below[1:-1] & below[2:])
        j = three[0] + 2 if three.size else u.size
        window.append(u[j] if three.size else way * (half + 3.0 * u.size))
        needed.append(j + 1 if three.size else u.size)
    return window, needed, half == 120.0


def test_walk_windows_match_the_plain_walk(monkeypatch):
    # every window _adaptive receives is bitwise the plain step-3 walk's,
    # on random lanes t^a e^{-r t}: quiet ones (r large, zero on the probe),
    # windows ending inside and beyond the probe call's walk steps
    # (|u| <= 42), and lower edges that reach |u| = 690 (a + 1 small).  The
    # probe's call holds the first 13 samples of each edge and each later
    # call twice the last, so the calls before _adaptive are set by the edge
    # that needed the most samples
    from fracext import quadrature

    seen = {}

    def capture(f, lanes, edges, tol, atol, max_panels, label=None):
        # each row of start edges runs from the window's lower edge to its
        # upper one, NaN-padded after it
        seen["window"] = (lanes.copy(), edges[:, 0], np.nanmax(edges, axis=1))
        seen["calls"] = calls[0]
        return np.zeros(lanes.size), np.zeros(lanes.size), np.ones(lanes.size, dtype=int)

    monkeypatch.setattr(quadrature, "_adaptive", capture)
    rng = np.random.default_rng(20120)
    kinds = set()
    for _ in range(120):
        n = rng.integers(1, 5)
        power = 10 ** rng.uniform(-2.0, 0.0, n) - 1.0
        rate = 10 ** rng.uniform(-8.0, 8.0, n)
        amp = 10 ** rng.uniform(-5.0, 5.0, n) * (rng.uniform(size=n) > 0.1)
        amp[0] = max(amp[0], 1.0)
        tol = rng.choice([1e-6, 1e-10, 1e-13])
        calls = [0]

        def f(t, lane):
            calls[0] += 1
            return amp[lane] * t ** power[lane] * np.exp(-rate[lane] * t)

        quadrature._halfline(f, n, None, None, tol)
        ref = []
        with np.errstate(all="ignore"):
            for k in range(n):
                ref.append(_reference_window(
                    lambda u, k=k: f(np.exp(u), np.full(u.shape, k)) * np.exp(u), tol))
        live = [k for k in range(n) if ref[k] is not None]
        lanes, a, b = seen["window"]
        assert list(lanes) == live
        assert list(a) == [ref[k][0][0] for k in live]
        assert list(b) == [ref[k][0][1] for k in live]
        first = 13
        walks = max(int(np.ceil(np.log2(m / first + 1.0))) - 1
                    for k in live for m in ref[k][1])
        quiet = any(r is None or r[2] for r in ref)  # a lane reading zero widened its probe
        assert seen["calls"] == 1 + quiet + walks
        for k in live:
            kinds.add("quiet" if ref[k][2] else "probed")
            for edge in ref[k][0]:
                kinds.add("690" if abs(edge) == 690.0
                          else "first stride" if abs(edge) <= 42.0 else "beyond")
    assert kinds == {"quiet", "probed", "690", "first stride", "beyond"}


def test_start_edges_follow_the_probe():
    # unit panels over the probe |u| <= 6, widths doubling outward from 4.5,
    # cut at the walked window; a quiet lane (probe widened to |u| <= 120)
    # takes 20-wide panels over its probe and doubles outward from its ends.
    # t^0.3 e^{-1e9 t} reads 0 on the probe, and its lane meets tol on that
    # grid beside a probed one
    from fracext.quadrature import _halfline, _start_edges

    rows = _start_edges(np.array([-12.0, -126.0]), np.array([9.0, 690.0]),
                        np.array([6.0, 120.0]))
    probed, quiet = (row[~np.isnan(row)].tolist() for row in rows)
    assert probed == [-12.0, -10.5] + list(np.arange(-6.0, 7.0)) + [9.0]
    assert quiet == ([-126.0, -124.5] + list(np.arange(-120.0, 121.0, 20.0))
                     + [124.5, 133.5, 151.5, 187.5, 259.5, 403.5, 690.0])
    rates = np.array([1e9, 1.0])
    vals, errs, _ = _halfline(lambda t, lane: t ** 0.3 * np.exp(-rates[lane] * t), 2,
                              None, None, 1e-10)
    exact = math.gamma(1.3) / rates ** 1.3
    assert np.all(np.abs(vals - exact) <= np.minimum(1e-10 * exact, errs))


def test_pinned_integrand_calls():
    # one log-route integral: one probe call (its walk included) and one
    # call for the start panels laid out from the probe, which need no
    # bisection; three lanes with add-back: the add-back reads the walk's
    # sample at each lower edge
    from fracext.quadrature import _halfline

    calls = [0]

    def f(t):
        calls[0] += 1
        return t ** 0.5 * np.exp(-t)

    r = integrate_halfline(f, tol=1e-10)
    assert abs(r.value - math.gamma(1.5)) < 1e-10
    assert calls[0] == 2
    rates, calls[0] = np.array([0.5, 1.0, 2.0]), 0

    def g(t, lane):
        calls[0] += 1
        return t ** -0.5 * np.exp(-rates[lane] * t)

    vals, _, _ = _halfline(g, 3, -0.5, None, 1e-10)
    assert np.abs(vals - np.sqrt(np.pi / rates)).max() < 1e-12
    assert calls[0] == 4


def test_add_back_at_the_walk_end():
    # t^-0.99 e^-t decays too slowly in u for the lower edge to stop before
    # |u| = 690, and (1 - e^-t) t^-1.01 for the upper edge: where the walk
    # has no sample, the add-back takes one more
    from fracext.quadrature import _halfline

    cases = [(lambda t, lane: t ** -0.99 * np.exp(-t), -0.99, None, math.gamma(0.01)),
             (lambda t, lane: -np.expm1(-t) * t ** -1.01, None, 1.01, math.gamma(0.99) / 0.01)]
    for f, q, p, exact in cases:
        g, seen = _counting(f, 1)
        vals, _, evals = _halfline(g, 1, q, p, 1e-10)
        assert abs(vals[0] - exact) < 1e-12 * exact
        assert evals[0] == seen[0]


def test_nonfinite_probe_sample_fails_at_once():
    # a NaN inside the probe range t in [e^-6, e^6] fails its lane by name
    # from the probe's call, without walking the window first
    from fracext.quadrature import _halfline

    calls = [0]

    def f(t, lane):
        calls[0] += 1
        return np.where((lane == 2) & (t > 0.5) & (t < 2.0), np.nan, np.exp(-t))

    with pytest.raises(QuadratureError) as info:
        _halfline(f, 3, None, None, 1e-10, label=lambda k: f"lane {k}")
    assert str(info.value) == "lane 2 (log substitution): NaN/Inf sample detected"
    assert calls[0] == 1
