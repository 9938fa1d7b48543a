"""Improper-integral evaluation on (0, inf) and finite intervals, plus limit extrapolation.

The half-line driver picks a variable substitution from decay hints:
t = e^u for essential singularities at zero and/or exponential or
algebraic tails (the probe finds the truncation window), power grading
t = s^{1/(1+q)} for algebraic endpoint singularities, and inversion
t = 1/s for algebraic tails.  Oscillatory tails are summed over
half-period panels with Wynn-epsilon acceleration of the partial sums.

Integrands are vectorized: f(t: ndarray) -> ndarray whose leading axis
matches t; trailing axes (vector values) are carried through.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureResult",
    "DecayHint",
    "QuadratureError",
    "integrate_interval",
    "integrate_halfline",
    "integrate_oscillatory_halfline",
    "richardson_limit",
]

DEFAULT_TOL = 1e-10


class QuadratureError(RuntimeError):
    """Refinement cap exceeded, or a NaN/Inf sample was drawn."""


@dataclass
class QuadratureResult:
    value: object  # complex scalar or ndarray
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be nonnegative")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")


_HINT_KINDS = (
    "exponential-at-infinity",
    "algebraic-at-infinity",
    "essential-singularity-at-zero",
    "algebraic-singularity-at-zero",
)


@dataclass(frozen=True)
class DecayHint:
    """Asymptotic behaviour of an integrand at one end of (0, inf).

    kind "algebraic-at-infinity" carries power p (|f| ~ t^-p, p > 1);
    kind "algebraic-singularity-at-zero" carries exponent q (|f| ~ t^q,
    q > -1 for integrability).  The other two kinds carry no parameter.
    """

    kind: str
    power: float | None = None
    exponent: float | None = None

    def __post_init__(self):
        if self.kind not in _HINT_KINDS:
            raise ValueError(f"unknown hint kind {self.kind!r}")
        if self.kind == "algebraic-singularity-at-zero":
            if self.exponent is None or self.exponent <= -1.0:
                raise ValueError("algebraic singularity needs exponent q > -1")
        if self.kind == "algebraic-at-infinity":
            if self.power is None or self.power <= 1.0:
                raise ValueError("algebraic tail needs power p > 1")


# 15-point Kronrod nodes (positive half, descending) and weights, with the
# embedded 7-point Gauss weights; standard double-precision values.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-node layout, ascending
_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])
_WK_FULL = np.concatenate([_WGK[:7], _WGK[::-1]])
# Gauss nodes sit at Kronrod indices 1,3,5,...,13
_GAUSS_IDX = np.arange(1, 15, 2)
_WG_FULL = np.concatenate([_WG[:3], _WG[::-1]])


def _as_values(raw, n):
    vals = np.asarray(raw)
    if vals.ndim == 0 or vals.shape[0] != n:
        raise QuadratureError("integrand must return one value per node")
    if not np.all(np.isfinite(vals)):
        raise QuadratureError("NaN/Inf sample detected")
    return vals


def _panels(f, los, his):
    """[(Kronrod value, |Kronrod - Gauss|), ...] of the panels [lo, hi],
    all sampled in one call of f."""
    lo = np.asarray(los, dtype=float)
    hi = np.asarray(his, dtype=float)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = (c[:, None] + h[:, None] * _NODES).reshape(-1)
    vals = _as_values(f(x), x.size)
    vals = vals.reshape((lo.size, 15) + vals.shape[1:])
    h = h.reshape((lo.size,) + (1,) * (vals.ndim - 2))
    ik = h * np.tensordot(vals, _WK_FULL, axes=(1, 0))
    ig = h * np.tensordot(vals[:, _GAUSS_IDX], _WG_FULL, axes=(1, 0))
    err = np.max(np.abs(ik - ig).reshape(lo.size, -1), axis=1)
    return [(ik[k], float(err[k])) for k in range(lo.size)]


def _panel(f, a, b):
    return _panels(f, [a], [b])[0]


def _maxabs(v):
    return float(np.max(np.abs(v)))


def integrate_interval(f, a, b, tol: float = DEFAULT_TOL, max_panels: int = 4000,
                       atol: float = 0.0, dyadic_from_left: int = 0) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of f over [a, b].

    Globally adaptive: the panel with the worst embedded error estimate is
    bisected until the summed estimate falls below max(tol*|I|, atol).
    dyadic_from_left seeds that many geometric panels toward a, so features
    living on scales far below (b - a) cannot hide between the nodes of a
    single wide panel.
    """
    if not (a < b):
        raise ValueError("integrate_interval needs a < b")
    if dyadic_from_left > 0:
        cuts = [a + (b - a) * 2.0 ** (-k) for k in range(dyadic_from_left, 0, -1)]
        edges = [a] + [c for c in cuts if a < c < b] + [b]
        spans = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]
        results = _panels(f, [lo for lo, _ in spans], [hi for _, hi in spans])
        heap = [(-e, k, lo, hi, v, e)
                for k, ((lo, hi), (v, e)) in enumerate(zip(spans, results))]
        heapq.heapify(heap)
        evals = 15 * len(spans)
        counter = len(spans)
    else:
        val, err = _panel(f, a, b)
        if np.all(np.asarray(val) == 0) and err == 0.0:
            probe = _as_values(f(np.linspace(a, b, 17)[1:-1]), 15)
            if np.all(probe == 0):
                return QuadratureResult(val, 0.0, 30)
        heap = [(-err, 0, a, b, val, err)]
        counter = 1
        evals = 15

    def _target(total, abssum):
        # the roundoff floor keeps cancellation-dominated integrals
        # (|I| << sum of |panel| masses) from refining forever
        return max(tol * _maxabs(total), atol, 1e-15 * abssum)

    for _ in range(max_panels):
        total = sum(item[4] for item in heap)
        errsum = sum(item[5] for item in heap)
        abssum = sum(_maxabs(item[4]) for item in heap)
        if errsum <= _target(total, abssum):
            return QuadratureResult(total, errsum, evals)
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval exhausted at machine resolution; keep its estimate
            v, e = _panel(f, lo, hi)
            heapq.heappush(heap, (0.0, counter, lo, hi, v, e))
            counter += 1
            continue
        (v1, e1), (v2, e2) = _panels(f, [lo, mid], [mid, hi])
        evals += 30
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2))
        counter += 2
    total = sum(item[4] for item in heap)
    errsum = sum(item[5] for item in heap)
    abssum = sum(_maxabs(item[4]) for item in heap)
    if errsum > 10.0 * max(_target(total, abssum), 1e-300):
        raise QuadratureError(
            f"refinement cap exceeded: error {errsum:.3e} vs target "
            f"{_target(total, abssum):.3e}"
        )
    return QuadratureResult(total, errsum, evals)


def _graded_interval(f, a, b, tol, q_left=None, q_right=None, seeds: int = 0, **kw):
    """Integrate over [a, b] with algebraic endpoint singularities graded out.

    q_left / q_right are the exponents of |f| ~ (t-a)^q resp. (b-t)^q near
    the endpoints (q > -1).  Grading substitutes the exact power that
    removes the singularity.  seeds > 0 plants that many dyadic panels
    toward the left endpoint (for integrands with internal scales far below
    the span, which a single wide panel would never sample).
    """
    if q_left is not None and q_left <= -1.0:
        raise ValueError("left exponent must be > -1")
    if q_right is not None and q_right <= -1.0:
        raise ValueError("right exponent must be > -1")
    def _with_jacobian(vals, jac):
        vals = np.asarray(vals)
        return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - 1))

    mid = 0.5 * (a + b)
    spans = []
    if q_left is not None and q_left < 0.0:
        m = 1.0 / (1.0 + q_left)
        w_hi = (mid - a) ** (1.0 / m)

        def g_left(s, m=m, a=a):
            return _with_jacobian(f(a + s ** m), m * s ** (m - 1.0))

        spans.append((g_left, 0.0, w_hi, seeds))
    else:
        spans.append((f, a, mid, seeds))
    if q_right is not None and q_right < 0.0:
        m = 1.0 / (1.0 + q_right)
        w_hi = (b - mid) ** (1.0 / m)

        def g_right(s, m=m, b=b):
            return _with_jacobian(f(b - s ** m), m * s ** (m - 1.0))

        spans.append((g_right, 0.0, w_hi, seeds))
    else:
        spans.append((f, mid, b, 0))
    total = None
    err = 0.0
    evals = 0
    for g, lo, hi, seeds in spans:
        r = integrate_interval(g, lo, hi, tol=tol, dyadic_from_left=seeds, **kw)
        total = r.value if total is None else total + r.value
        err += r.error_estimate
        evals += r.evaluations
    return QuadratureResult(total, err, evals)


def _parse_hints(hints):
    zero_kind, q = None, None
    inf_kind, p = None, None
    for h in hints or ():
        if h.kind == "essential-singularity-at-zero":
            zero_kind = "essential"
        elif h.kind == "algebraic-singularity-at-zero":
            zero_kind, q = "algebraic", h.exponent
        elif h.kind == "exponential-at-infinity":
            inf_kind = "exponential"
        elif h.kind == "algebraic-at-infinity":
            inf_kind, p = "algebraic", h.power
    return zero_kind, q, inf_kind, p


def _log_substituted(f, tol, max_panels):
    """t = e^u route: probe the window where the integrand matters, then
    integrate g(u) = f(e^u) e^u adaptively."""

    def g(u):
        t = np.exp(u)
        vals = np.asarray(f(t))
        return vals * t.reshape(t.shape + (1,) * (vals.ndim - 1))

    probe_u = np.linspace(-6.0, 6.0, 25)
    mags = np.max(np.abs(np.asarray(g(probe_u)).reshape(25, -1)), axis=1)
    scale = float(np.max(mags))
    lo, hi = -6.0, 6.0
    step = 3.0
    if scale == 0.0:
        # expand the probe before concluding the integrand vanishes
        wide = np.concatenate([np.linspace(-120, -6, 20), np.linspace(6, 120, 20)])
        wmags = np.max(np.abs(np.asarray(g(wide)).reshape(40, -1)), axis=1)
        if float(np.max(wmags)) == 0.0:
            return QuadratureResult(np.asarray(f(np.array([1.0])))[0] * 0.0, 0.0, 65)
        scale = float(np.max(wmags))
        lo, hi = -120.0, 120.0
    cut = max(scale * tol * 1e-2, 1e-290)
    consec = 0
    while lo > -690.0:
        mag = float(np.max(np.abs(np.asarray(g(np.array([lo]))))))
        consec = consec + 1 if mag < cut else 0
        if consec >= 3:
            break
        lo -= step
    consec = 0
    while hi < 690.0:
        mag = float(np.max(np.abs(np.asarray(g(np.array([hi]))))))
        consec = consec + 1 if mag < cut else 0
        if consec >= 3:
            break
        hi += step
    return integrate_interval(g, lo, hi, tol=tol, max_panels=max_panels,
                              atol=cut * (hi - lo))


def integrate_halfline(f, hints=(), tol: float = DEFAULT_TOL,
                       max_panels: int = 6000) -> QuadratureResult:
    """Integrate f over (0, inf), choosing the substitution from the hints."""
    zero_kind, q, inf_kind, p = _parse_hints(hints)
    if zero_kind == "algebraic" and inf_kind == "algebraic":
        # power grading on [0,1], inversion + grading on [1,inf)
        m = 1.0 / (1.0 + q) if q < 0.0 else 1.0

        def g0(s):
            t = s ** m
            vals = np.asarray(f(t))
            jac = m * s ** (m - 1.0)
            return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - 1))

        r0 = integrate_interval(g0, 0.0, 1.0, tol=tol, max_panels=max_panels)

        def ginv(s):
            t = 1.0 / s
            vals = np.asarray(f(t))
            jac = 1.0 / s ** 2
            return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - 1))

        # ginv ~ s^{p-2} near 0; grade if p < 3
        qinv = p - 2.0
        if qinv < 0.0:
            mi = 1.0 / (1.0 + qinv)

            def g1(w):
                s = w ** mi
                vals = np.asarray(ginv(s))
                jac = mi * w ** (mi - 1.0)
                return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - 1))

            r1 = integrate_interval(g1, 0.0, 1.0, tol=tol, max_panels=max_panels)
        else:
            r1 = integrate_interval(ginv, 0.0, 1.0, tol=tol, max_panels=max_panels)
        return QuadratureResult(r0.value + r1.value,
                                r0.error_estimate + r1.error_estimate,
                                r0.evaluations + r1.evaluations)
    return _log_substituted(f, tol, max_panels)


def _wynn_epsilon(partials):
    """Wynn epsilon table on a sequence of (complex) partial sums.

    Returns (best_estimate, error_indicator).  A near-zero difference in an
    even column means the raw sums already plateaued, so that plateau value
    is returned directly instead of dividing by it.
    """
    scale = max(max(abs(s) for s in partials), 1e-300)
    cur = list(partials)  # even column
    aux_prev = [0.0 + 0.0j] * (len(partials) + 1)  # odd column below
    best = cur[-1]
    indicator = abs(cur[-1] - cur[-2]) if len(cur) > 1 else abs(cur[-1])
    while len(cur) >= 3:
        aux = []
        plateau = None
        for i in range(len(cur) - 1):
            diff = cur[i + 1] - cur[i]
            if abs(diff) <= 1e-15 * scale:
                plateau = (cur[i + 1], abs(diff))
                break
            aux.append(aux_prev[i + 1] + 1.0 / diff)
        if plateau is not None:
            return plateau
        new = []
        for i in range(len(aux) - 1):
            diff = aux[i + 1] - aux[i]
            if abs(diff) <= 1e-290:
                return best, indicator
            new.append(cur[i + 1] + 1.0 / diff)
        aux_prev, cur = aux, new
        cand_ind = abs(cur[-1] - best)
        if cand_ind <= indicator:
            indicator = cand_ind
            best = cur[-1]
        else:
            # table started to deteriorate; keep the best seen
            break
    return best, indicator


def integrate_oscillatory_halfline(f, omega, tol: float = DEFAULT_TOL,
                                   zero_exponent: float | None = None,
                                   head: float | None = None,
                                   start: float | None = None,
                                   max_panels: int = 3000) -> QuadratureResult:
    """Integrate f over (0, inf) when f oscillates with angular frequency omega.

    Half-period panels past a head region are summed pairwise and the
    partial sums are accelerated with the Wynn epsilon algorithm.  The head
    region [0, t1] (default one period) is integrated adaptively, with an
    optional algebraic grading at zero.  With start given, the head is the
    caller's business and only the tail from start onward is summed.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    h = math.pi / omega
    if start is not None:
        t1 = float(start)
        r_head = QuadratureResult(0.0 + 0.0j, 0.0, 1)
    else:
        t1 = h * max(2, int(math.ceil((head if head is not None else 2 * h) / h)))
        if zero_exponent is not None and zero_exponent < 0.0:
            r_head = _graded_interval(f, 0.0, t1, tol, q_left=zero_exponent)
        else:
            r_head = integrate_interval(f, 0.0, t1, tol=tol)
    evals = r_head.evaluations
    err = r_head.error_estimate

    partials = []
    total = r_head.value
    scale = max(_maxabs(total), 1e-30)
    best = total
    diag = math.inf
    consec_ok = 0
    a = t1
    for k in range(max_panels):
        v, e = _panel(f, a, a + h)
        evals += 15
        err += e
        a += h
        total = total + v
        partials.append(total)
        if len(partials) >= 6:
            flat = [np.asarray(s).reshape(-1) for s in partials[-40:]]
            dim = flat[0].shape[0]
            acc = np.empty(dim, dtype=complex)
            change = 0.0
            for j in range(dim):
                seq = [s[j] for s in flat]
                acc[j], ch = _wynn_epsilon(seq)
                change = max(change, ch)
            best = acc.reshape(np.asarray(total).shape)
            if np.asarray(total).shape == ():
                best = complex(best)
            diag = change
            scale = max(scale, _maxabs(best))
            consec_ok = consec_ok + 1 if change <= tol * scale else 0
            if consec_ok >= 2:
                return QuadratureResult(best, err + change, evals)
    raise QuadratureError(
        f"oscillatory tail did not converge after {max_panels} panels "
        f"(last change {diag:.3e})"
    )


def _check_geometric(ys):
    if len(ys) < 3:
        raise ValueError("richardson_limit needs at least 3 samples")
    r = ys[1] / ys[0]
    if not (0.0 < r < 1.0):
        raise ValueError("samples must decrease geometrically in y")
    for k in range(1, len(ys) - 1):
        rk = ys[k + 1] / ys[k]
        if abs(rk - r) > 1e-8 * r:
            raise ValueError("non-geometric grid")
    return r


def richardson_multi(samples, exponents):
    """Neville table eliminating the given error exponents in order.

    samples: list of (y, value) with y on a decreasing geometric grid;
    exponents may be complex (complex fractional orders).  Returns
    (limit, diagnostic) where diagnostic is the magnitude of the last
    correction applied.
    """
    ys = [float(y) for y, _ in samples]
    vals = [np.asarray(v, dtype=complex) for _, v in samples]
    r = _check_geometric(ys)
    table = vals
    last_corr = math.inf
    for j, p in enumerate(exponents):
        if len(table) < 2:
            break
        fac = complex(r) ** complex(p)
        new = []
        for k in range(len(table) - 1):
            new.append((table[k + 1] - fac * table[k]) / (1.0 - fac))
        last_corr = float(np.max(np.abs(new[-1] - table[-1])))
        table = new
    limit = table[-1]
    if limit.shape == ():
        limit = complex(limit)
    return limit, last_corr


def richardson_limit(samples, p: float):
    """Extrapolate value(y) = L + c y^p + o(y^p) on a geometric grid to y=0.

    Eliminates y^p, y^{2p}, y^{3p}, ... pairwise; the diagnostic is the
    magnitude of the last correction.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    n = len(samples)
    exponents = [p * (j + 1) for j in range(n - 1)]
    return richardson_multi(samples, exponents)
