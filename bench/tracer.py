"""Outside-in tracer: spans and counts recorded around the library's
public functions without touching its source.

``from x import f`` binds ``f`` separately in every importing module, so
the tracer replaces each binding of each traced function, in every
``subharnack`` module. It also replaces the ``quad`` binding of the
modules that integrate, and counts calls and integrand evaluations per
integrand ``__qualname__``: that tells the Zolotarev density integral,
the outer integral against the subordinator law, the inner Gaussian
expectation and the entropy integrals apart. Memo counts are
``cache_info()`` deltas.

Spans are aggregated as they close: per name the calls, total time and
self time (total minus the time covered by child spans), and per
(parent, child) edge the calls and total time.
"""

import inspect
import sys
import time
from collections import defaultdict
from functools import wraps

PACKAGE = "subharnack"
TRACED_MODULES = ("specfun", "subordinator", "semigroup", "bounds", "verify")
QUAD_MODULES = ("subordinator", "semigroup", "verify")


def _size(value):
    """Number of draws in what ``sample`` returned: an array or a scalar."""
    return int(getattr(value, "size", 1))


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, child_time]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, child): calls, total
        self.quad = defaultdict(lambda: [0, 0])  # (module, qualname): calls, evals
        self.counts = defaultdict(int)  # series terms, draws
        self._patches = []
        self._memos = {}

    def _module(self, short):
        return sys.modules[f"{PACKAGE}.{short}"]

    # --- spans ----------------------------------------------------------

    def _wrap(self, name, fn, on_return=None):
        stack, spans, edges = self.stack, self.spans, self.edges
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stat = spans[name]
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                edge = edges[(parent[0] if parent else None, name)]
                edge[0] += 1
                edge[1] += dur
            if on_return is not None:
                on_return(result)
            return result
        return traced

    def _wrap_quad(self, module_name, quad):
        stats = self.quad

        @wraps(quad)
        def traced_quad(func, a, b, *args, **kwargs):
            stat = stats[(module_name, func.__qualname__)]
            stat[0] += 1

            def counted(x, *xs):
                stat[1] += 1
                return func(x, *xs)
            return quad(counted, a, b, *args, **kwargs)
        return traced_quad

    def _count_terms(self, res):
        self.counts["series_terms"] += res.terms_used

    def _count_draws(self, res):
        self.counts["draws"] += _size(res)

    def _targets(self):
        """(span name, original object, on_return) for every traced function."""
        hooks = {"subordinator.exp_moment": self._count_terms,
                 "subordinator.sample": self._count_draws}
        targets = []
        for short in TRACED_MODULES:
            mod = self._module(short)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    targets.append((name, obj, hooks.get(name)))
        # the density memo is private, but it is where density evaluations
        # and their cache hits happen
        sub = self._module("subordinator")
        targets.append(("subordinator._standard_density",
                        sub._standard_density, None))
        return targets

    # --- install / remove --------------------------------------------------

    def install(self):
        sub, sem = self._module("subordinator"), self._module("semigroup")
        self._memos = {"density": sub._standard_density,
                       "gauss": sem._gauss_quad_memo}
        self.memo_start = {k: m.cache_info() for k, m in self._memos.items()}
        replacement = {id(obj): self._wrap(name, obj, hook)
                       for name, obj, hook in self._targets()}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                new = replacement.get(id(obj))
                if new is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, new)
        for short in QUAD_MODULES:
            mod = self._module(short)
            self._patches.append((mod, "quad", mod.quad))
            mod.quad = self._wrap_quad(short, mod.quad)

    def remove(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()
        self.memo_end = {k: m.cache_info() for k, m in self._memos.items()}

    # --- readout ------------------------------------------------------------

    def memo_delta(self, key):
        """(hits, misses) between install and remove."""
        a, b = self.memo_start[key], self.memo_end[key]
        return b.hits - a.hits, b.misses - a.misses

    def span(self, name):
        """(calls, total seconds, self seconds) of one span name."""
        return tuple(self.spans.get(name, (0, 0.0, 0.0)))

    def quad_counts(self, module, *qualnames):
        calls = evals = 0
        for (mod, qn), (c, e) in self.quad.items():
            if mod == module and (not qualnames or qn in qualnames):
                calls += c
                evals += e
        return calls, evals

    def dump(self):
        """Plain-JSON view of everything recorded."""
        return {
            "spans": {n: {"calls": c, "total_s": t, "self_s": s}
                      for n, (c, t, s) in sorted(self.spans.items())},
            "edges": [{"parent": p, "child": c, "calls": n, "total_s": t}
                      for (p, c), (n, t) in sorted(
                          self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "quad": [{"module": m, "integrand": q, "calls": c, "evals": e}
                     for (m, q), (c, e) in sorted(self.quad.items())],
            "counts": dict(self.counts),
            "memo": {k: dict(zip(("hits", "misses"), self.memo_delta(k)))
                     for k in self._memos},
        }
