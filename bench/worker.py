"""One benchmark worker: a fresh single-threaded process that imports the
library from the checkout, builds one workload's inputs, prints READY,
then runs a cold pass (memo caches empty) and an identical warm pass.

The last line of its standard output is a JSON object with the pass
times, per-operation times, the failed operations (including those whose
warm result differs from the cold one), a digest of the cold results and,
with --trace, the per-layer metrics of the traced cold pass.

Run by ``bench/run.py``; by hand:
    python3 bench/worker.py --workload harnack_grid --seed 1 [--trace]
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import subharnack  # noqa: E402

if not os.path.abspath(subharnack.__file__).startswith(SRC + os.sep):
    sys.exit(f"subharnack imported from {subharnack.__file__}, not from {SRC}")

import numpy  # noqa: E402
import scipy  # noqa: E402
from subharnack import semigroup, subordinator, verify  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from pace import Pace  # noqa: E402
from tracer import Tracer  # noqa: E402

CHECKS = layers.CHECKS


def _digest(texts):
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


# --- passes -------------------------------------------------------------------

def summarize_pass(wall, times, pace):
    """Raw and pace-scaled times of one pass (see pace.py)."""
    scales = pace.scales(len(times))
    scaled = [t * k for t, k in zip(times, scales)]
    outside = wall - sum(times)  # loop and sweep bookkeeping between ops
    return {"raw_s": wall, "scaled_s": sum(scaled) + outside * pace.scale(),
            "op_times": scaled, "pace_samples": len(pace.samples)}


def run_ops(ops):
    """Run every op once in order; returns the pass summary and the
    results, where a raising op's result is ``("raised", type, message)``."""
    clock = time.perf_counter
    pace = Pace()
    times, results = [], []
    start = clock()
    for i, op in enumerate(ops):
        pace.before(i)
        t0 = clock()
        try:
            res = op.run()
        except Exception as exc:  # an op that raises is a counted failure
            res = ("raised", type(exc).__name__, str(exc))
        times.append(clock() - t0)
        results.append(res)
    pace.before(len(ops), force=True)
    wall = clock() - start - pace.spent
    return summarize_pass(wall, times, pace), results


def judge_ops(ops, results):
    outcomes = []
    for op, res in zip(ops, results):
        if isinstance(res, tuple) and res[:1] == ("raised",):
            outcomes.append(workloads.Outcome(False, f"{res[1]}: {res[2]}"))
        else:
            outcomes.append(op.judge(res))
    return outcomes


class EntryTimer:
    """Times each top-level check call that run_sweep makes, and takes the
    pace samples between them, by rebinding the eight check functions in
    ``verify`` for the duration of a pass."""

    def __init__(self, pace):
        self.pace = pace
        self.times = []
        self._saved = {}

    def __enter__(self):
        clock = time.perf_counter
        depth = [0]
        times, pace = self.times, self.pace

        def timed(fn):
            def call(*args, **kwargs):
                if depth[0] == 0:
                    pace.before(len(times))
                depth[0] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
                    if depth[0] == 0:
                        times.append(clock() - t0)
            return call
        for name in CHECKS:
            attr = f"check_{name}"
            self._saved[attr] = getattr(verify, attr)
            setattr(verify, attr, timed(self._saved[attr]))
        return self

    def __exit__(self, *exc):
        for attr, fn in self._saved.items():
            setattr(verify, attr, fn)


def run_sweep_pass(config):
    pace = Pace()
    with EntryTimer(pace) as timer:
        start = time.perf_counter()
        report = verify.run_sweep(config)
    pace.before(len(timer.times), force=True)
    wall = time.perf_counter() - start - pace.spent
    return summarize_pass(wall, timer.times, pace), report


def sweep_text(report):
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


# --- main --------------------------------------------------------------------

def _memos_empty():
    return (subordinator._standard_density.cache_info().currsize == 0
            and semigroup._gauss_quad_memo.cache_info().currsize == 0)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["default_sweep", *workloads.OP_WORKLOADS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sweep = args.workload == "default_sweep"
    if sweep:
        config = workloads.default_sweep_config()
    else:
        ops = workloads.OP_WORKLOADS[args.workload](args.seed)
    if not _memos_empty():
        sys.exit("memo caches are not empty before the cold pass")
    print("READY", flush=True)
    if args.setup_only:
        return

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        if sweep:
            cold, cold_report = run_sweep_pass(config)
        else:
            cold, cold_results = run_ops(ops)
    finally:
        if tracer:
            tracer.remove()
    if sweep:
        warm, warm_report = run_sweep_pass(config)
        entries, warm_entries = cold_report.entries, warm_report.entries
        kinds = [e.params["check"] for e in entries]
        rel_tol = config.quadrature.rel_tol
        judge = workloads.banded(rel_tol)
        outcomes = [judge(e) for e in entries]
        cold_fp = [repr(e) for e in entries]
        warm_fp = [repr(e) for e in warm_entries]
        cold_text, warm_text = sweep_text(cold_report), sweep_text(warm_report)
        extra = {
            "summary": cold_report.summary,
            "entries": len(entries),
            "reports_identical": cold_text == warm_text,
            "summary_pinned": (cold_report.summary == workloads.DEFAULT_SWEEP_SUMMARY
                               and len(entries) == workloads.DEFAULT_SWEEP_ENTRIES),
        }
        digest = hashlib.sha256(cold_text.encode()).hexdigest()
    else:
        warm, warm_results = run_ops(ops)
        kinds = [op.kind for op in ops]
        outcomes = judge_ops(ops, cold_results)
        cold_fp = [repr(r) for r in cold_results]
        warm_fp = [repr(r) for r in warm_results]
        extra = {}
        digest = _digest(cold_fp)

    failures = []
    for i, (kind, out, a, b) in enumerate(zip(kinds, outcomes, cold_fp, warm_fp)):
        raised = a.startswith("('raised',")
        if not out.ok:
            failures.append({"op": i, "kind": kind, "raised": raised,
                             "reason": out.reason})
        elif a != b:
            failures.append({"op": i, "kind": kind, "raised": False,
                             "reason": "warm result differs from cold result"})
    digits = [o.digits for o in outcomes if o.digits is not None]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(tracer),
        "ops": len(kinds),
        "cold": cold,
        "warm": warm,
        "failures": failures,
        "oracle_checked": len(digits),
        "oracle_digits": min(digits) if digits else None,
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "nproc": os.cpu_count()},
        **extra,
    }
    if tracer:
        failed_by_check = {c: 0 for c in CHECKS}
        for f in failures:
            if f["kind"] in failed_by_check:
                failed_by_check[f["kind"]] += 1
        result["layers"] = layers.layer_metrics(tracer, failed_by_check,
                                                cold["raw_s"])
        result["trace"] = tracer.dump()
    print(json.dumps(result, allow_nan=False))


if __name__ == "__main__":
    main()
