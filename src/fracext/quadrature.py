"""Improper-integral evaluation on (0, inf) and finite intervals, plus limit extrapolation.

Every half-line integral takes one route, the log substitution t = e^u,
whose probe finds the truncation window: one integrand call samples the
probe and the first steps of the walk to the window's edges, and later
calls go on in doubling strides.  The mass outside the window is added
back at both edges from two numbers: the algebraic exponent q at zero
(|f| ~ t^q) and the algebraic tail power p (|f| ~ t^-p), each None when
absent (nothing is added back), which _route alone derives from the
kernel protocol's decay pair (zero, tail).  Oscillating integrands are
the caller's to turn into decaying ones (funcalc rotates them onto rays
in the complex plane), so every lane integrates an integrand that decays.

Integrands are vectorized: f(t: ndarray) -> ndarray whose leading axis
matches t; trailing axes (vector values) are carried through.

One adaptive Gauss-Kronrod driver (_adaptive) does all the bisection, for
independent lanes at once: each lane has its own start panels, panels and
stopping test.  Each round every unconverged lane bisects all the worst
panels that hold its excess error, and the halves of all lanes are sampled
together in calls f(t, lane) of at most 52 panels, lane[i] naming the lane
of node t[i]; so the rounds grow with the log of how much finer than its
start panels a lane must be.
_graded is the one finite-interval entry, [0, b] under the grading of an
algebraic zero, from 8 equal panels; integrate_interval is its one-lane
ungraded call.  _halfline takes lanes through the half-line route, each
lane starting on the grid its probe sampled, so a Weyl derivative at many
points, or a spectral integral over a z grid, a trace's y grid or an eps
ladder, costs the integrand calls of one integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureResult",
    "QuadratureError",
    "integrate_interval",
    "integrate_halfline",
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
# Gauss nodes sit at Kronrod indices 1,3,5,...,13; the others weigh 0
_WG_FULL = np.zeros(15)
_WG_FULL[1::2] = np.concatenate([_WG[:3], _WG[::-1]])


def _rowmax(v):
    """max |v[i, ...]| for every leading index i."""
    return np.abs(v.reshape(v.shape[0], -1)).max(axis=1)


def _lane_total(v):
    # per-lane sum over the panel axis in slot order: np.sum groups a row
    # pairwise by its padded width, which differs between a lane alone and
    # the same lane in company
    return v.cumsum(axis=1)[:, -1]


def _with_jacobian(vals, jac):
    vals = np.asarray(vals)
    return vals * jac.reshape(jac.shape + (1,) * (vals.ndim - 1))


def _unary(f):
    # a one-lane integrand f(t) in the lane calling convention f(t, lane)
    return lambda t, lane: f(t)


def _failure(label, lane, msg):
    return QuadratureError(msg if label is None else f"{label(lane)}: {msg}")


def _sample(f, x, owner, label=None):
    """f at the nodes x (owner[i] is the lane of x[i]): one finite value each."""
    vals = np.asarray(f(x, owner))
    if vals.ndim == 0 or vals.shape[0] != x.size:
        raise QuadratureError("integrand must return one value per node")
    if not np.isfinite(vals).all():
        bad = ~np.isfinite(vals.reshape(x.size, -1)).all(axis=1)
        raise _failure(label, owner[np.argmax(bad)], "NaN/Inf sample detected")
    return vals


# the most panels (of 15 nodes) one call of f samples: bigger calls save
# little Python time and grow the integrand's temporaries
_CALL_PANELS = 52
# the equal panels every lane of _graded starts from: fewer rounds than one
# panel, where nothing is known of the integrand before its first samples
_START_PANELS = 8


def _panels(f, lo, hi, lane, label=None):
    """Kronrod values and |Kronrod - Gauss| estimates of the panels
    [lo[i], hi[i]] of the lanes lane[i], sampled _CALL_PANELS a call of f."""
    if lo.size > _CALL_PANELS:
        parts = [_panels(f, lo[i:i + _CALL_PANELS], hi[i:i + _CALL_PANELS],
                         lane[i:i + _CALL_PANELS], label)
                 for i in range(0, lo.size, _CALL_PANELS)]
        return tuple(np.concatenate(v) for v in zip(*parts))
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = (c[:, None] + h[:, None] * _NODES).reshape(-1)
    vals = _sample(f, x, np.repeat(lane, 15), label)
    shape, nodes = (lo.size,) + vals.shape[1:], vals.reshape(lo.size, 15, -1)
    h = h.reshape((lo.size,) + (1,) * (vals.ndim - 1))
    # one small product per panel: one gemv over every panel's rows would
    # reach a threaded BLAS, whose idle workers keep spinning after it returns
    ik = h * (_WK_FULL @ nodes).reshape(shape)
    ig = h * (_WG_FULL @ nodes).reshape(shape)
    return ik, _rowmax(ik - ig)


def _adaptive(f, lanes, edges, tol, atol, max_panels, label=None):
    """Globally adaptive Gauss-Kronrod quadrature of independent lanes.

    Lane lanes[k] integrates f(., lanes[k]) from the start panels between
    the ascending edges of row edges[k] (NaN-padded), until its summed
    error estimate falls below target = max(tol*|I_k|, atol[k], 1e-15 *
    the sum of its |panel|); that roundoff floor keeps cancellation-
    dominated integrals from refining forever.  Each round, every lane
    still above its target ranks its panels by error and bisects the
    shortest worst-first prefix whose errors sum to at least its error sum
    - target/8 (the rule of scipy's quad_vec), never holding more than
    max_panels panels; the halves of all lanes are sampled together, in
    calls f(x, lane) of at most 52 panels, lane[i] the lane of node x[i].
    So rounds grow with the log of how much finer than its start panels a
    lane ends.  A lane's choices depend on its own samples only, so it
    refines exactly the panels it would refine alone.  A failure names its
    lane through label(lane).  Returns (values, error estimates, evaluations)
    per lane.
    """
    start = ~np.isnan(edges[:, 1:])  # panel j of a lane spans its edges j and j + 1
    (own, slot), n, L = np.nonzero(start), start.sum(axis=1), lanes.size
    plo, phi = edges[:, :-1][start], edges[:, 1:][start]
    ik, e = _panels(f, plo, phi, lanes[own], label)
    lo, hi, err, mag = (np.zeros((L, 2 * start.shape[1])) for _ in range(4))
    val = np.zeros((L, 2 * start.shape[1]) + ik.shape[1:], dtype=ik.dtype)
    lo[own, slot], hi[own, slot], val[own, slot] = plo, phi, ik
    err[own, slot], mag[own, slot] = e, _rowmax(ik)
    count, evals = n.copy(), 15 * n
    # a lane whose nodes all read zero gets a second look half way between
    # each panel's centre and ends; mass seen in a panel becomes its error,
    # so it is bisected
    z = (~mag.any(axis=1) & ~err.any(axis=1))[own]
    if z.any():
        c, h = 0.5 * (plo[z] + phi[z]), 0.5 * (phi[z] - plo[z])
        x = (c[:, None] + h[:, None] * np.array([-0.5, 0.5])).reshape(-1)
        seen = _rowmax(_sample(f, x, lanes[np.repeat(own[z], 2)], label))
        err[own[z], slot[z]] = seen.reshape(-1, 2).max(axis=1) * (2.0 * h)
        evals += 2 * np.bincount(own[z], minlength=L)
    evals -= 30 * count  # each bisection adds one panel and 30 evaluations
    pick = err.copy()  # bisection priority; 0 marks a panel never to split
    r = np.arange(L)
    while True:
        w = count[r].max()  # the slots in use; those past a lane's count are 0
        errsum = _lane_total(err[r, :w])
        target = np.fmax(np.fmax(tol * _rowmax(_lane_total(val[r, :w])), atol[r]),
                         1e-15 * _lane_total(mag[r, :w]))
        go = errsum > target
        if not go.all():
            r, errsum, target = r[go], errsum[go], target[go]
            if not r.size:
                break
        # rank the panels worst first (minus their priority, ascending) and
        # take the fewest that leave at most target/8 of the error behind
        key = -pick[r, :w]
        order = key.argsort(axis=1, kind="stable")
        key.sort(axis=1)
        short = (key.cumsum(axis=1) > (target / 8.0 - errsum)[:, None]).sum(axis=1) + 1
        take = np.minimum(np.minimum(short, (key < 0.0).sum(axis=1)), max_panels - count[r])
        # at the cap, or with nothing left to bisect, accept within 10x
        stuck = take <= 0
        if stuck.any():
            fail = np.flatnonzero(stuck & (errsum > 10.0 * np.fmax(target, 1e-300)))
            if fail.size:
                k = fail[0]
                raise _failure(label, lanes[r[k]], f"refinement cap exceeded: error "
                               f"{errsum[k]:.3e} vs target {target[k]:.3e}")
            r, order, take = r[~stuck], order[~stuck], take[~stuck]
            if not r.size:
                break
        s = np.repeat(r, take)
        at = order[np.arange(order.shape[1]) < take[:, None]]
        plo, phi = lo[s, at], hi[s, at]
        mid = 0.5 * (plo + phi)
        split = (mid > plo) & (mid < phi)
        if not split.all():
            # interval exhausted at machine resolution: keep its estimate
            pick[s[~split], at[~split]] = 0.0
            s, at, plo, phi, mid = (v[split] for v in (s, at, plo, phi, mid))
            if not s.size:
                continue
        # right halves take the lane's next free slots, in rank order
        new = count[s] + np.arange(s.size) - np.searchsorted(s, s)
        while new.max() >= lo.shape[1]:
            lo, hi, err, pick, mag, val = (np.concatenate([v, np.zeros_like(v)], axis=1)
                                           for v in (lo, hi, err, pick, mag, val))
        ss, at = np.concatenate([s, s]), np.concatenate([at, new])
        los, his = np.concatenate([plo, mid]), np.concatenate([mid, phi])
        ik, e = _panels(f, los, his, lanes[ss], label)
        lo[ss, at], hi[ss, at] = los, his
        val[ss, at], err[ss, at], pick[ss, at], mag[ss, at] = ik, e, e, _rowmax(ik)
        count += np.bincount(s, minlength=L)
    return _lane_total(val), _lane_total(err), evals + 30 * count


def _graded(f, lanes, b, q, tol, max_panels=4000, label=None):
    """Lane k of lanes integrates f(., k) over [0, b] under t = s^m,
    m = 1/(1+q): an algebraic zero |f| ~ t^q with -1 < q < 0 becomes an
    integrand smooth in s; q None or >= 0 integrates in t itself.
    Returns (values, error estimates, evaluations) per lane."""
    if not b > 0:
        raise ValueError(f"integration needs a < b (interval length {b!r})")
    g, top = f, b
    if q is not None and q < 0.0:
        if q <= -1.0:
            raise ValueError(f"an algebraic zero t^{q:g} is not integrable")
        m = 1.0 / (1.0 + q)
        top = b ** (1.0 / m)

        def g(s, lane):
            return _with_jacobian(f(s ** m, lane), m * s ** (m - 1.0))

    n = min(_START_PANELS, max_panels)
    return _adaptive(g, np.arange(lanes), np.tile(top * (np.arange(n + 1) / n), (lanes, 1)),
                     tol, np.zeros(lanes), max_panels, label)


def integrate_interval(f, a, b, tol: float = DEFAULT_TOL,
                       max_panels: int = 4000) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of f over [a, b]: the one-lane,
    ungraded call of _graded in the offset t - a.

    Each round bisects the fewest panels, worst embedded error estimate
    first, that leave at most tol*|I|/8 of the summed estimate unbisected,
    until the summed estimate falls below tol*|I|; max_panels caps the
    panels held.
    """
    vals, errs, evals = _graded(lambda t, lane: f(a + t), 1, b - a, None, tol, max_panels)
    return QuadratureResult(vals[0], float(errs[0]), int(evals[0]))


_PROBE_U = np.linspace(-6.0, 6.0, 25)
_WIDE_U = np.concatenate([np.linspace(-120, -6, 20), np.linspace(6, 120, 20)])
# walk steps beyond either end of a probe that the probe's own call samples
_PROBE_STEPS = 12


def _route(zero, tail, power=0.0):
    """The route (q, p) of _halfline for w(t) t^power, w of decay (zero, tail):
    q = zero + power if negative, p = the algebraic tail power - power if
    above 1, each else None (a bounded or flat zero, an exponential tail,
    where no add-back is needed)."""
    q = None if zero is None or zero + power >= 0.0 else zero + power
    algebraic = tail is not None and tail[0] == "algebraic" and tail[1] - power > 1.0
    return q, tail[1] - power if algebraic else None


def _start_edges(lo, hi, half):
    """Rows of start edges, NaN-padded, for the windows [lo, hi] walked from
    probes over |u| <= half: 12 equal panels over the probe (unit panels,
    every other point of _PROBE_U), then widths doubling outward from 4.5
    to beyond |u| = 690, cut at the window's ends."""
    h, out = half[:, None], 4.5 * (2.0 ** np.arange(1, 9) - 1.0)
    rows = np.concatenate([-h - out[::-1], np.arange(-6.0, 7.0) * (h / 6.0), h + out], axis=1)
    rows[~((rows > lo[:, None]) & (rows < hi[:, None]))] = np.nan
    return np.sort(np.concatenate([lo[:, None], rows, hi[:, None]], axis=1), axis=1)


def _halfline(f, lanes, q, p, tol, max_panels=6000, label=None):
    """Lane-batched integrate_halfline: lane k integrates f(., k) over
    (0, inf) on the route (q, p) of _route, the algebraic exponent at 0
    and the algebraic tail power, each None when absent; returns (values,
    error estimates, evaluations) per lane.

    Every lane takes t = e^u: it probes the window where its integrand
    matters, then all lanes integrate g(u) = f(e^u) e^u adaptively.  The
    probe's call also samples the first _PROBE_STEPS steps of the window
    walk beyond either probe end, whose own sample is the walk's first; the
    walk goes on in doubling strides.  A lane starts on the grid its probe
    saw (_start_edges): 12 equal panels over the probe's range, then panels
    doubling outward from width 4.5, cut at the walk's edges, so it needs
    few bisection rounds where its probe already resolved its scale.
    Under an algebraic zero |f| ~ t^q, g ~ e^{(q+1) u} leaves g(lo) / (q+1) below the window, and under an
    algebraic tail |f| ~ t^-p, g ~ e^{-(p-1) u} leaves g(hi) / (p-1) above
    it; each is added back from the walk's sample at that edge (one more
    sample only for an edge that reached |u| = 690, where none sits).
    """
    named = label and (lambda k: f"{label(k)} (log substitution)")

    def g(u, lane):
        t = np.exp(u)
        return _with_jacobian(f(t, lane), t)

    evals = np.zeros(lanes, dtype=int)

    def probe(ids, grid):
        # one call: the grid of every lane in ids and the walk's first steps
        # beyond its ends.  Returns the grid's largest |g| per lane (a
        # non-finite sample fails its lane) and g outward from each grid
        # end, lower edges first; warnings are off for the walk's overshoot
        k = _PROBE_STEPS
        out = grid[-1] + 3.0 * np.arange(1, k + 1)
        u = np.concatenate([-out[::-1], grid, out])
        with np.errstate(all="ignore"):
            vals = np.asarray(g(np.tile(u, ids.size), np.repeat(ids, u.size)))
        evals[ids] += u.size
        mags = _rowmax(vals).reshape(ids.size, u.size)[:, k:-k]
        bad = ~np.isfinite(mags).all(axis=1)
        if bad.any():
            raise _failure(named, ids[bad.argmax()], "NaN/Inf sample detected")
        vals = vals.reshape((ids.size, u.size) + vals.shape[1:])
        return mags.max(axis=1), np.concatenate([vals[:, k::-1], vals[:, -k - 1:]])

    scale, first = probe(np.arange(lanes), _PROBE_U)
    half = np.full(lanes, 6.0)
    quiet = np.flatnonzero(scale == 0.0)
    if quiet.size:
        # expand the probe before concluding the integrand vanishes
        scale[quiet], wide = probe(quiet, _WIDE_U)
        half[quiet] = 120.0
        first[np.concatenate([quiet, quiet + lanes])] = wide
    cut = np.maximum(scale * tol * 1e-2, 1e-290)
    live = np.flatnonzero(scale != 0.0)
    # walk both window edges of every live lane outward in steps of 3
    # until three consecutive samples fall below the cut, never past
    # |u| = 690; after the probe's call, each call samples twice as many
    # steps of every edge still walking as the last.  Samples past the stop
    # are dropped, so they are taken with floating point warnings off (a
    # kernel may overflow far outside its window); a non-finite sample at
    # or before the stop fails the lane
    owner = np.concatenate([live, live])
    way = np.repeat([-1.0, 1.0], live.size)
    edge = way * half[owner]
    last2 = np.zeros((owner.size, 2), dtype=bool)  # were the last two below?
    at_edge = np.zeros((owner.size,) + first.shape[2:], dtype=first.dtype)
    w, vals = np.arange(owner.size), first[np.concatenate([live, live + lanes])]
    while w.size:
        steps = vals.shape[1]
        u = edge[w, None] + way[w, None] * (3.0 * np.arange(steps))
        inside = way[w, None] * u < 690.0
        mags = _rowmax(vals.reshape((-1,) + vals.shape[2:])).reshape(u.shape)
        seq = np.concatenate([last2[w], mags < cut[owner[w], None]], axis=1)
        three = seq[:, :-2] & seq[:, 1:-1] & seq[:, 2:]
        hit = three.any(axis=1)
        stop = np.where(hit, three.argmax(axis=1), inside.sum(axis=1))
        bad = inside & ~np.isfinite(mags) & (np.arange(steps) <= stop[:, None])
        if bad.any():
            raise _failure(named, owner[w[bad.any(axis=1).argmax()]], "NaN/Inf sample detected")
        at_edge[w[hit]] = vals[hit, stop[hit]]
        last2[w] = seq[:, -2:]
        edge[w] += 3.0 * way[w] * stop
        w = w[~hit & (way[w] * edge[w] < 690.0)]
        if w.size:
            u = edge[w, None] + way[w, None] * (3.0 * np.arange(2 * steps))
            inside = way[w, None] * u < 690.0
            who = np.broadcast_to(owner[w, None], u.shape)[inside]
            vals = np.full(u.shape + first.shape[2:], np.nan, dtype=first.dtype)
            with np.errstate(all="ignore"):
                vals[inside] = g(u[inside], who)
            evals += np.bincount(who, minlength=lanes)
    out = np.zeros((lanes,) + first.shape[2:], dtype=first.dtype)
    errs = np.zeros(lanes)
    if live.size:
        lo, hi = edge[:live.size], edge[live.size:]
        out[live], errs[live], used = _adaptive(
            g, live, _start_edges(lo, hi, half[live]), tol, cut[live] * (hi - lo),
            max_panels, label=named)
        evals[live] += used
        # the algebraic mass beyond each edge, lower edges first
        for side, rate in enumerate((None if q is None else q + 1.0,
                                     None if p is None else p - 1.0)):
            if rate is None:
                continue
            ends = side * live.size + np.arange(live.size)
            far = ends[np.abs(edge[ends]) >= 690.0]  # walked to the end: no sample there
            if far.size:
                at_edge[far] = _sample(g, edge[far], owner[far], named)
                evals[owner[far]] += 1
            out[live] += at_edge[ends] / rate
    return out, errs, evals


def integrate_halfline(f, zero=None, tail=None, tol: float = DEFAULT_TOL,
                       max_panels: int = 6000) -> QuadratureResult:
    """Integrate f over (0, inf) in t = e^u, adding back the mass beyond
    the window at each edge on the route _route takes from its decay,
    stated as in the kernel protocol: zero the algebraic exponent at 0+
    (|f| ~ t^zero, zero > -1; None when flat), tail ("exponential", rate)
    or ("algebraic", power) with power > 1 (None when unknown)."""
    if zero is not None and zero <= -1.0:
        raise ValueError(f"an algebraic zero t^{zero:g} is not integrable")
    if tail is not None and tail[0] not in ("exponential", "algebraic"):
        raise ValueError(f"unknown tail kind {tail[0]!r}")
    if tail is not None and tail[0] == "algebraic" and tail[1] <= 1.0:
        raise ValueError(f"an algebraic tail t^-{tail[1]:g} is not integrable")
    vals, errs, evals = _halfline(_unary(f), 1, *_route(zero, tail), tol, max_panels)
    return QuadratureResult(vals[0], float(errs[0]), int(evals[0]))


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
        new = [(table[k + 1] - fac * table[k]) / (1.0 - fac) for k in range(len(table) - 1)]
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
