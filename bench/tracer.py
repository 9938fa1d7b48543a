"""Out-of-process layer tracing for the benchmark worker.

The tracer wraps public (and a few named internal) functions of the
fracext modules from outside: it rebinds each wrapped name in every
fracext module that holds it (``from .x import y`` copies included) and
patches ``__call__`` on the kernel expression classes.  Nothing inside
the library is edited and no object is proxied, so the library's own
field reads and ``isinstance`` checks see the real objects.

Each wrapped call opens a frame.  Structural calls (commands, routes,
adaptive integrals, Weyl derivatives, ...) are kept as spans
``(id, parent, name, start, end, request, thread)`` in memory and written
out when the run ends; high-frequency leaves (special functions,
expression and integrand calls) only add to per-name counters, and the
scalar memo is counted without being timed.
Self time is a frame's duration minus the time of its direct children,
so quadrature nested inside an integrand is charged to the inner
integral, never twice.  Frames opened in the CLI's pool threads become
children of the main thread's innermost open frame; their intervals are
subtracted from that parent as a union, so concurrent children cannot
drive a self time negative.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

_clock = time.perf_counter

# (module, attribute, metric name, stored as span?)
_FUNCTIONS = [
    ("cli", "main", "cli.main", True),
    ("cli", "cmd_fracpow", "cli.fracpow", True),
    ("cli", "cmd_extend", "cli.extend", True),
    ("cli", "cmd_trace", "cli.trace", True),
    ("extension", "solve_semigroup_form", "extension.semigroup", True),
    ("extension", "solve_regularized", "extension.regularized", True),
    ("extension", "solve_fractional_data", "extension.fractional_data", True),
    ("extension", "solve_cosine_form", "extension.cosine", True),
    ("extension", "solve_cosine_fractional", "extension.cosine_fractional", True),
    ("extension", "neumann_trace", "extension.trace", True),
    ("extension", "quotient_trace", "extension.trace", True),
    ("funcalc", "balakrishnan_power", "funcalc.balakrishnan", True),
    ("funcalc", "integrated_power", "funcalc.integrated_power", True),
    ("funcalc", "pi_alpha", "funcalc.pi_alpha", True),
    ("funcalc", "spectral_power_oracle", "funcalc.spectral_oracle", True),
    ("funcalc", "_SCALAR_CACHE", "funcalc.scalar_memo", False),
    ("quadrature", "integrate_interval", "quadrature.interval", True),
    ("quadrature", "integrate_halfline", "quadrature.halfline", True),
    ("quadrature", "_graded_interval", "quadrature.graded", True),
    ("quadrature", "integrate_oscillatory_halfline", "quadrature.oscillatory", True),
    ("quadrature", "_wynn_epsilon", "quadrature.wynn", False),
    ("quadrature", "richardson_multi", "quadrature.richardson", False),
    ("quadrature", "richardson_limit", "quadrature.richardson", False),
    ("kernels", "weyl_derivative", "kernels.weyl", True),
    ("families", "integrated_exponential", "families.integrated_exponential", False),
    ("specfun", "gamma", "specfun.gamma", False),
    ("specfun", "lower_incomplete_gamma", "specfun.incgamma", False),
    ("specfun", "_scaled_upper_u", "specfun.incgamma", False),
    ("operators", "spectral_decompose", "operators.decompose", False),
    ("operators", "resolvent_solve", "operators.resolvent", False),
]

# (module, class, method, metric name)
_METHODS = [
    ("kernels", "_Expr", "__call__", "kernels.expr"),
    ("kernels", "_BmhExpr", "__call__", "kernels.expr"),
    ("extension", "_CosTerms", "__call__", "kernels.expr"),
    ("families", "OperatorFamily", "evaluate", "families.evaluate"),
]

_QUAD_ENTRIES = {"quadrature.interval", "quadrature.halfline", "quadrature.graded",
                 "quadrature.oscillatory"}


class _Stats:
    """Per-thread counters; merged once the run ends (no shared mutation)."""

    def __init__(self):
        self.calls = {}
        self.incl = {}      # duration of outermost calls of each name
        self.self_s = {}
        self.counts = {}    # extra counters (evals, hits, failures, ...)
        self.self_kind = {}  # quadrature self time by kind of the outermost integral

    def add(self, table, key, value):
        table[key] = table.get(key, 0) + value


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (stats, spans) per thread
        self._next_id = 0
        self.request = -1
        self._main_ident = threading.get_ident()
        self._main_stack = None
        self._memo = None
        self.installed = []

    # -- per-thread state -------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            stats, spans = _Stats(), []
            st = ([], stats, spans, {})  # stack, stats, spans, open-name depth
            self._local.state = st
            with self._lock:
                self._threads.append((stats, spans))
            if threading.get_ident() == self._main_ident:
                self._main_stack = st[0]
        return st

    def _new_id(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    # -- frames -------------------------------------------------------------
    # frame: [name, start, child_time, span_id, parent_id, qkind, stored, anchor]
    # qkind: "plain" or "osc" for quadrature frames (the kind of the outermost
    # integral they belong to), None otherwise.  anchor: id of the nearest
    # stored frame at or above this one, the parent of spans opened below it.

    def _enter(self, name, stored):
        stack, _, _, depth = self._state()
        if stack:
            parent = stack[-1]
            parent_id = parent[7]
            qkind = parent[5] if (name in _QUAD_ENTRIES and parent[5]) else None
        else:
            main = self._main_stack
            parent_id = main[-1][7] if (main and main is not stack) else 0
            qkind = None
            stored = True  # thread roots are kept so their parent can subtract them
        if name in _QUAD_ENTRIES and qkind is None:
            qkind = "osc" if name == "quadrature.oscillatory" else "plain"
        span_id = self._new_id() if stored else 0
        frame = [name, 0.0, 0.0, span_id, parent_id, qkind, stored,
                 span_id if stored else parent_id]
        depth[name] = depth.get(name, 0) + 1
        stack.append(frame)
        frame[1] = _clock()
        return frame

    def _exit(self, frame):
        end = _clock()
        stack, stats, spans, depth = self._state()
        stack.pop()
        name = frame[0]
        dur = end - frame[1]
        stats.add(stats.calls, name, 1)
        stats.add(stats.self_s, name, dur - frame[2])
        if frame[5]:
            stats.add(stats.self_kind, f"{name}|{frame[5]}", dur - frame[2])
        depth[name] -= 1
        if depth[name] == 0:
            stats.add(stats.incl, name, dur)
        if stack:
            stack[-1][2] += dur
        if frame[6]:
            spans.append((frame[3], frame[4], name, frame[1], end, self.request,
                          threading.get_ident()))

    def _outermost_quad(self):
        stack = self._state()[0]
        return len(stack) < 2 or stack[-2][0] not in _QUAD_ENTRIES

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, stored):
        tracer = self
        if name in _QUAD_ENTRIES:
            from fracext.quadrature import QuadratureError

            @functools.wraps(fn)
            def quad(f, *args, **kwargs):
                frame = tracer._enter(name, stored)
                outer = tracer._outermost_quad()
                try:
                    if outer:
                        f = tracer._counted_integrand(f, frame[5])
                    return fn(f, *args, **kwargs)
                except QuadratureError:
                    if outer:
                        st = tracer._state()[1]
                        st.add(st.counts, "quadrature.failures", 1)
                    raise
                finally:
                    if outer:
                        st = tracer._state()[1]
                        key = "osc_integrals" if frame[5] == "osc" else "integrals"
                        st.add(st.counts, "quadrature." + key, 1)
                    tracer._exit(frame)
            return quad

        memo = (fn.__defaults__ or (None,))[-1]
        if name == "funcalc.scalar_memo" and isinstance(memo, dict):
            # counted, not timed: a frame per call would cost more than the lookup
            tracer._memo = memo

            @functools.wraps(fn)
            def memo_call(kind, alpha, a, t, *rest):
                st = tracer._state()[1]
                st.add(st.calls, name, 1)
                if (kind, alpha, a, t) in memo:
                    st.add(st.counts, "funcalc.scalar_memo_hits", 1)
                return fn(kind, alpha, a, t, *rest)
            return memo_call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, stored)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
        return wrapper

    def _wrap_method(self, name, fn):
        tracer = self
        count_nodes = name == "kernels.expr"

        @functools.wraps(fn)
        def method(obj, *args, **kwargs):
            frame = tracer._enter(name, False)
            try:
                if count_nodes and args:
                    st = tracer._state()[1]
                    st.add(st.counts, "kernels.expr_nodes", _size(args[0]))
                return fn(obj, *args, **kwargs)
            finally:
                tracer._exit(frame)
        return method

    def _counted_integrand(self, f, qkind):
        tracer = self
        prefix = "quadrature.osc_" if qkind == "osc" else "quadrature."

        def integrand(t, *args, **kwargs):
            frame = tracer._enter("quadrature.integrand", False)
            try:
                out = f(t, *args, **kwargs)
            finally:
                tracer._exit(frame)
            st = tracer._state()[1]
            st.add(st.counts, prefix + "integrand_calls", 1)
            st.add(st.counts, prefix + "evals", _size(t))
            st.add(st.counts, prefix + "values", _size(out))
            return out
        return integrand

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every listed name wherever a fracext module holds it."""
        import fracext  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "fracext" or k.startswith("fracext.")]
        for modname, attr, name, stored in _FUNCTIONS:
            home = sys.modules.get("fracext." + modname)
            orig = getattr(home, attr, None)
            if orig is None:
                continue  # renamed or removed by a later version: metric reads 0
            wrapped = self._wrap(name, orig, stored)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self.installed.append(f"{mod.__name__}.{key}")
        for modname, clsname, meth, name in _METHODS:
            cls = getattr(sys.modules.get("fracext." + modname), clsname, None)
            orig = getattr(cls, meth, None) if cls is not None else None
            if orig is None:
                continue
            setattr(cls, meth, self._wrap_method(name, orig))
            self.installed.append(f"fracext.{modname}.{clsname}.{meth}")

    # -- results ------------------------------------------------------------

    def finish(self):
        """(per-name totals, all spans) with cross-thread children subtracted."""
        calls, incl, self_s, counts, self_kind = {}, {}, {}, {}, {}
        spans = []
        with self._lock:
            threads = list(self._threads)
        for stats, tspans in threads:
            for src, dst in ((stats.calls, calls), (stats.incl, incl),
                             (stats.self_s, self_s), (stats.counts, counts),
                             (stats.self_kind, self_kind)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
            spans.extend(tspans)
        by_id = {s[0]: s for s in spans}
        foreign = {}
        for s in spans:
            parent = by_id.get(s[1])
            if parent is not None and parent[6] != s[6]:
                foreign.setdefault(parent[0], []).append((s[3], s[4]))
        for pid, intervals in foreign.items():
            p = by_id[pid]
            covered = _union_length(intervals, p[3], p[4])
            self_s[p[2]] = self_s.get(p[2], 0.0) - covered
        if self._memo is not None:
            counts["funcalc.scalar_memo_entries"] = len(self._memo)
        return {"calls": calls, "incl": incl, "self": self_s, "counts": counts,
                "self_by_kind": self_kind}, spans

    def write_spans(self, spans, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "request",
                                  "thread"], "spans": spans}, fh)


def _size(x):
    try:
        return int(getattr(x, "size", None) or len(x))
    except TypeError:
        return 1


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
