"""subharnack benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for about S seconds as one closed-loop caller: cycle
after cycle it spawns a fresh single-threaded worker (bench/worker.py),
which imports the library from ``src/``, builds the seeded inputs, runs
a cold pass with empty memo caches and an identical warm pass. Each
operation's outcome is checked against its oracle and its warm result
against its cold one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced worker with
--trace 1. The line before it holds the details (versions, sample counts,
per-cycle values, failure reasons, the trace's spans and edges).
See bench/README.md for what each metric means and should move.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

import numpy
from scipy.special import betainc

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("default_sweep", "harnack_grid", "oracle_queries")

MIN_CYCLES = 2  # cold/warm samples per run, whatever --seconds says
MIN_TRACED = 1  # traced cycles in a --trace 1 run
# Wall seconds of one cycle, set-up included, on the host of the baseline in
# bench/README.md: an untraced worker, and an untraced plus a traced one. A
# run makes as many cycles as --seconds holds at that pace, so the count
# does not depend on the clock and `attempted` and `failed` are the same in
# every run of one seed; on a slower host a run takes longer instead.
CYCLE_S = {"default_sweep": 5.0, "harnack_grid": 14.0, "oracle_queries": 8.0}
TRACED_CYCLE_S = {"default_sweep": 9.0, "harnack_grid": 42.0,
                  "oracle_queries": 16.0}
MIN_SETUPS = 5  # set-up samples per run; extra workers stop after READY
WORKER_TIMEOUT_S = 150.0
SINGLE_THREAD_ENV = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS")}


# Set-up is scaled by the start-up of a fresh interpreter that imports the
# third-party modules the library imports, and nothing from this
# repository: start-up is file reads, page faults and module code, which
# do not track the compute reference of pace.py.
STARTUP_REFERENCE = ("import numpy, scipy.integrate, scipy.special; "
                     "print('READY', flush=True)")
STARTUP_REFERENCE_S = 0.65  # its time to READY on the nominal host


class WorkerError(RuntimeError):
    pass


def _run(cmd):
    """Run ``cmd`` to its end; returns the seconds until it printed READY
    and the rest of its standard output."""
    env = {**os.environ, **SINGLE_THREAD_ENV}
    env.pop("PYTHONPATH", None)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"{' '.join(cmd[1:])} exited with {proc.returncode}: "
                          f"{(ready + err).strip()[-2000:]}")
    return ready_s, out


def spawn(workload, seed, trace=False, setup_only=False):
    """Run one worker; returns its set-up sample and its JSON result (None
    with ``setup_only``).

    Set-up runs from spawning the worker until it prints READY: the
    interpreter, ``import subharnack`` and building the inputs. The sample
    is that time and the start-up reference's, timed just before; a
    traced worker takes no sample.
    """
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    ref_s = None if trace else _run([sys.executable, "-c", STARTUP_REFERENCE])[0]
    setup_s, out = _run(cmd)
    sample = None if trace else (setup_s, ref_s)
    return sample, None if setup_only else json.loads(out.strip().splitlines()[-1])


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile, p in (0, 1): the mean of
    all order statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.
    A single order statistic jumps where the sorted values have a gap, as
    harnack_grid's latencies do at p95 (about 13 ms, then 19-24 ms)."""
    x = sorted(values)
    n = len(x)
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), numpy.arange(n + 1) / n)
    return float(numpy.dot(numpy.diff(cdf), x))


def n_cycles(workload, seconds, trace):
    if trace:
        return max(MIN_TRACED, int(seconds // TRACED_CYCLE_S[workload]))
    return max(MIN_CYCLES, int(seconds // CYCLE_S[workload]))


def run(workload, seed, seconds, trace):
    setups, cycles, traced = [], [], []
    for _ in range(n_cycles(workload, seconds, trace)):
        setup, res = spawn(workload, seed)
        setups.append(setup)
        cycles.append(res)
        if trace:
            traced.append(spawn(workload, seed, trace=True)[1])
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, setup_only=True)[0])
    return setups, cycles, traced


def summarize(workload, seed, setups, cycles, traced):
    first = cycles[0]
    n_ops = first["ops"]
    # per operation, its cold time in each cycle; the cold pass is the same
    # sequence in every fresh worker
    per_op = list(zip(*(c["cold"]["op_times"] for c in cycles)))
    op_med = [median(ts) for ts in per_op]
    problems = []
    digests = {c["digest"] for c in cycles} | {t["digest"] for t in traced}
    if len(digests) != 1:
        problems.append("results differ between workers (traced or not)")
    if workload == "default_sweep":
        for c in cycles:
            if not c["summary_pinned"]:
                problems.append(f"sweep summary {c['summary']} over "
                                f"{c['entries']} entries is not the pinned one")
            if not c["reports_identical"]:
                problems.append("warm sweep report is not byte-identical to cold")
    failed = sum(len(c["failures"]) for c in cycles)
    wrong = [f for c in cycles for f in c["failures"] if not f["raised"]]
    # an op that raises is a failure; a wrong answer makes the run incorrect
    if wrong:
        problems.append(f"{len(wrong)} wrong results, e.g. {wrong[:3]}")
    end_to_end = {
        "setup_s": (median(s * STARTUP_REFERENCE_S / r for s, r in setups), "s"),
        "cold_s": (median(c["cold"]["scaled_s"] for c in cycles), "s"),
        "warm_s": (median(c["warm"]["scaled_s"] for c in cycles), "s"),
        "op_p50_ms": (1e3 * quantile(op_med, 0.50), "ms"),
        "op_p95_ms": (1e3 * quantile(op_med, 0.95), "ms"),
        "peak_rss_mb": (median(c["peak_rss_mb"] for c in cycles), "MB"),
    }
    details = {
        "workload": workload, "seed": seed, "env": first["env"],
        "closed_loop_callers": 1, "cycles": len(cycles),
        "traced_cycles": len(traced), "ops_per_pass": n_ops,
        "setup_raw_s_samples": [s for s, _ in setups],
        "startup_reference_s_samples": [r for _, r in setups],
        "cold_s_samples": [c["cold"]["scaled_s"] for c in cycles],
        "cold_raw_s_samples": [c["cold"]["raw_s"] for c in cycles],
        "warm_s_samples": [c["warm"]["scaled_s"] for c in cycles],
        "warm_raw_s_samples": [c["warm"]["raw_s"] for c in cycles],
        "op_latency_samples": n_ops,
        "fail_ratio": failed / (n_ops * len(cycles)),
        "failures": first["failures"][:40],
        "oracle_checked": first["oracle_checked"],
        "oracle_digits": first["oracle_digits"],
        "problems": problems,
    }
    for key in ("summary", "entries"):
        if key in first:
            details[key] = first[key]
    return end_to_end, details, failed


def layer_summary(cycles, traced):
    """Per-layer metrics: counts from the traced workers (identical in
    each), shares as medians over them."""
    problems = []
    out = {}
    for name, unit in layers.METRICS:
        if name == "trace.overhead_s":
            value = (median(t["cold"]["scaled_s"] for t in traced)
                     - median(c["cold"]["scaled_s"] for c in cycles))
        else:
            values = [t["layers"][name] for t in traced]
            if unit == "count":
                value = values[0]
                if any(v != value for v in values):
                    problems.append(f"{name} differs between traced runs: {values}")
            else:
                value = median(values)
        out[name] = (value, unit)
    return out, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "subharnack", "__init__.py")):
        sys.exit(f"no library source under {os.path.join(ROOT, 'src')}")

    setups, cycles, traced = run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    metrics, details, failed = summarize(args.workload, args.seed,
                                         setups, cycles, traced)
    if args.trace:
        metrics, problems = layer_summary(cycles, traced)
        details["problems"] += problems
        details["trace"] = traced[0]["trace"]
    print(json.dumps(details, allow_nan=False))
    print(json.dumps({
        "correct": not details["problems"],
        "attempted": details["ops_per_pass"] * len(cycles),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, allow_nan=False))


if __name__ == "__main__":
    main()
