"""Per-layer metrics, read off a Tracer after a traced cold pass.

Each metric names the end-to-end metric and workload it should move;
``bench/README.md`` keeps that table. Counts repeat exactly for a given
seed. ``*_share`` are times as a share of the traced cold pass:
``self_share`` is span time minus child spans, ``total_share`` all span
time. Shares cancel the host's speed, and a layer a workload never calls
reads 0 as a count of work, not as a time; the seconds behind them are in
the trace dump.
"""

# verify.KNOWN_CHECKS, spelled out: run.py reads this module without the library
CHECKS = ("base_harnack", "subordinated_harnack", "prop13", "log_harnack",
          "ondiag_rate", "entropy_kernel", "entropy_cost", "laplace_mc")

ZOLOTAREV = ("_standard_density.<locals>.integrand",)
OUTER = ("integrate_against.<locals>.g", "integrate_against.<locals>.g_tail")
INNER_GAUSS = ("_gauss_expectation_quad.<locals>.integrand",)

# (name, unit) in the order BENCHMARK.json lists them
METRICS = [
    ("specfun.log_gamma.calls", "count"),
    ("subordinator.density.evals", "count"),
    ("subordinator.density.quad_calls", "count"),
    ("subordinator.density.integrand_calls", "count"),
    ("subordinator.density.hit_ratio", "ratio"),
    ("subordinator.density.self_share", "ratio"),
    ("subordinator.integrate_against.calls", "count"),
    ("subordinator.integrate_against.self_share", "ratio"),
    ("subordinator.integrate_against.quad_calls", "count"),
    ("subordinator.integrate_against.integrand_calls", "count"),
    ("subordinator.exp_moment.calls", "count"),
    ("subordinator.exp_moment.self_share", "ratio"),
    ("subordinator.exp_moment.total_share", "ratio"),
    ("subordinator.exp_moment.series_terms", "count"),
    ("subordinator.sample.self_share", "ratio"),
    ("subordinator.sample.draws", "count"),
    ("semigroup.apply.calls", "count"),
    ("semigroup.apply.self_share", "ratio"),
    ("semigroup.apply.quad_calls", "count"),
    ("semigroup.apply.integrand_calls", "count"),
    ("semigroup.gauss_memo.hit_ratio", "ratio"),
    ("semigroup.subordinated_apply.calls", "count"),
    ("semigroup.subordinated_apply.self_share", "ratio"),
    ("semigroup.subordinated_density.calls", "count"),
    ("semigroup.subordinated_density.self_share", "ratio"),
    ("bounds.factors.calls", "count"),
    ("bounds.factors.self_share", "ratio"),
    *[(f"verify.{c}.{field}", unit) for c in CHECKS
      for field, unit in (("calls", "count"), ("self_share", "ratio"),
                         ("failed", "count"))],
    ("verify.run_sweep.self_share", "ratio"),
    ("verify.quad.calls", "count"),
    ("verify.quad.integrand_calls", "count"),
    ("trace.overhead_s", "s"),
]


def _ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(tr, failed_by_check, pass_s):
    """Every per-layer metric except trace.overhead_s, which needs the
    untraced run to compare against. ``pass_s`` is the traced cold pass's
    wall time."""
    def self_share(*names):
        return sum(tr.span(n)[2] for n in names) / pass_s

    m = {}
    m["specfun.log_gamma.calls"] = tr.span("specfun.log_gamma")[0]

    hits, misses = tr.memo_delta("density")
    m["subordinator.density.evals"] = misses
    qc, qe = tr.quad_counts("subordinator", *ZOLOTAREV)
    m["subordinator.density.quad_calls"] = qc
    m["subordinator.density.integrand_calls"] = qe
    m["subordinator.density.hit_ratio"] = _ratio(hits, misses)
    m["subordinator.density.self_share"] = self_share(
        "subordinator.density", "subordinator._standard_density")

    qc, qe = tr.quad_counts("subordinator", *OUTER)
    m["subordinator.integrate_against.calls"] = tr.span("subordinator.integrate_against")[0]
    m["subordinator.integrate_against.self_share"] = self_share(
        "subordinator.integrate_against")
    m["subordinator.integrate_against.quad_calls"] = qc
    m["subordinator.integrate_against.integrand_calls"] = qe

    calls, total, _ = tr.span("subordinator.exp_moment")
    m["subordinator.exp_moment.calls"] = calls
    m["subordinator.exp_moment.self_share"] = self_share("subordinator.exp_moment")
    m["subordinator.exp_moment.total_share"] = total / pass_s
    m["subordinator.exp_moment.series_terms"] = tr.counts["series_terms"]

    m["subordinator.sample.self_share"] = self_share("subordinator.sample")
    m["subordinator.sample.draws"] = tr.counts["draws"]

    qc, qe = tr.quad_counts("semigroup", *INNER_GAUSS)
    m["semigroup.apply.calls"] = tr.span("semigroup.apply")[0]
    m["semigroup.apply.self_share"] = self_share("semigroup.apply")
    m["semigroup.apply.quad_calls"] = qc
    m["semigroup.apply.integrand_calls"] = qe
    m["semigroup.gauss_memo.hit_ratio"] = _ratio(*tr.memo_delta("gauss"))
    for fn in ("subordinated_apply", "subordinated_density"):
        m[f"semigroup.{fn}.calls"] = tr.span(f"semigroup.{fn}")[0]
        m[f"semigroup.{fn}.self_share"] = self_share(f"semigroup.{fn}")

    # closed-form factors: calls entering bounds from outside it, and all
    # time spent inside it
    m["bounds.factors.calls"] = sum(
        n for (parent, child), (n, _) in tr.edges.items()
        if child.startswith("bounds.")
        and not (parent or "").startswith("bounds."))
    m["bounds.factors.self_share"] = self_share(
        *[name for name in tr.spans if name.startswith("bounds.")])

    for c in CHECKS:
        m[f"verify.{c}.calls"] = tr.span(f"verify.check_{c}")[0]
        m[f"verify.{c}.self_share"] = self_share(f"verify.check_{c}")
        m[f"verify.{c}.failed"] = failed_by_check[c]
    m["verify.run_sweep.self_share"] = self_share("verify.run_sweep")
    qc, qe = tr.quad_counts("verify")
    m["verify.quad.calls"] = qc
    m["verify.quad.integrand_calls"] = qe
    return m
