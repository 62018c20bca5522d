"""Command-line front end.

Subcommands: density, moment, expmoment, bound, kernel, verify, sweep.
Exit codes: 0 success, 1 domain/validation error, 2 numerical
non-convergence, 3 sweep with violations. Floats are printed with 17
significant digits; an exponential moment past float range from its log.
``verify`` ends each entry's line with its status (holds, violated,
out_of_domain, non_converged), and ``sweep --format csv`` has a status
column.
"""

import argparse
import csv
import io
import json
import math
import sys

from .bounds import (
    HarnackProfile,
    base_harnack_exponent,
    log_harnack_term,
    log_thm11_factor,
    log_thm11_intermediate_factor,
    prop13_factor,
)
from .semigroup import BaseKernel, subordinated_density
from .specfun import _exp_or_inf
from .subordinator import (
    QuadratureSpec,
    StableSubordinator,
    density,
    exp_moment,
    fractional_moment,
)
from .verify import KNOWN_CHECKS, SweepConfig, run_sweep

__all__ = ["main", "parse_and_dispatch"]


def _fmt(v):
    return f"{v:.17g}"


def _fmt_log(log_v):
    """exp(log_v) past float range, with the digits the float log_v carries."""
    digits = max(1, int(-math.log10(math.ulp(log_v))))
    exponent, frac = divmod(log_v / math.log(10.0), 1.0)
    m, e = f"{10.0 ** frac:.{digits - 1}e}".split("e")  # e: +01 if it rounds to 10
    return f"{m}e{int(exponent) + int(e):+d}"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="subharnack",
        description="Stable-subordinated semigroups: densities, moments, "
                    "Harnack bound factors and inequality sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="subordinator density at a point")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--s", type=float, required=True)

    p = sub.add_parser("moment", help="negative-power moment of the subordinator")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--r", type=float, required=True)

    p = sub.add_parser("expmoment", help="exponential moment series")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-10,
                   help="relative tolerance of the series")

    p = sub.add_parser("bound", help="closed-form Harnack bound factors")
    p.add_argument("--kind", required=True,
                   choices=["base-exponent", "simplified", "intermediate",
                            "prop13", "log-harnack"])
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--alpha", type=float, default=0.75)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--H", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--K", type=float, default=0.0,
                   help="curvature bound K in Ric >= K: 0 for the heat "
                        "kernel, +1 for the Ornstein-Uhlenbeck base")
    p.add_argument("--rho-sq", dest="rho_sq", type=float, default=1.0)

    p = sub.add_parser("kernel", help="time-changed transition density")
    p.add_argument("--base", choices=["gauss_heat", "ou1d"], default="gauss_heat")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--y", type=float, nargs="+", required=True)

    p = sub.add_parser("verify", help="run one inequality check")
    p.add_argument("--check", required=True, choices=list(KNOWN_CHECKS))
    p.add_argument("--config", required=True,
                   help="JSON sweep config restricted to this check")

    p = sub.add_parser("sweep", help="run the full verification sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the config's seed, which seeds the "
                        "laplace_mc Monte Carlo streams")
    return parser


_CSV_COLUMNS = ["check", "alpha", "kappa", "p", "t", "d", "x", "y", "f", "mode",
                "lhs", "rhs", "slack", "valid_domain", "status", "method"]


def _report_to_csv(report):
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(_CSV_COLUMNS)
    for e in report.entries:
        row = {**(e.params or {}), "lhs": e.lhs, "rhs": e.rhs, "slack": e.slack,
               "valid_domain": str(e.valid_domain).lower(),
               "status": e.status, "method": e.method}
        w.writerow([_fmt(v) if isinstance(v, float) else str(v)
                    for v in (row.get(col, "") for col in _CSV_COLUMNS)])
    return out.getvalue()


def _report_to_json(report):
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_density(args):
    sub_ = StableSubordinator(args.alpha, args.t)
    print(_fmt(density(sub_, args.s)))
    return 0


def _cmd_moment(args):
    sub_ = StableSubordinator(args.alpha, args.t)
    print(_fmt(fractional_moment(sub_, args.r)))
    return 0


def _cmd_expmoment(args):
    sub_ = StableSubordinator(args.alpha, args.t)
    res = exp_moment(sub_, args.delta, args.kappa,
                     QuadratureSpec(rel_tol=args.rel_tol))
    if not res.converged:
        print(res.divergence_reason, file=sys.stderr)
        return 2
    past_range = res.value == math.inf and math.isfinite(res.log_value)
    print(_fmt_log(res.log_value) if past_range else _fmt(res.value))
    return 0


def _cmd_bound(args):
    if args.kind == "base-exponent":
        print(_fmt(base_harnack_exponent(args.p, args.K, args.t, args.rho_sq)))
        return 0
    if args.kind == "prop13":
        valid, factor, q = prop13_factor(args.p, args.kappa, args.H, args.t)
        print(f"valid_domain={str(valid).lower()} factor={_fmt(factor)} "
              f"exact_ratio={_fmt(q)}")
        return 0
    if args.kind == "log-harnack":
        print(_fmt(log_harnack_term(args.alpha, args.kappa, args.eps,
                                    args.H, args.t)))
        return 0
    profile = HarnackProfile(kappa=args.kappa, epsilon=args.eps, H_value=args.H)
    fn = log_thm11_factor if args.kind == "simplified" else log_thm11_intermediate_factor
    print(_fmt(_exp_or_inf(fn(args.p, profile, args.alpha, args.t))))
    return 0


def _cmd_kernel(args):
    base = BaseKernel(args.base, args.d)
    sub_ = StableSubordinator(args.alpha, args.t)
    print(_fmt(subordinated_density(base, sub_, args.x, args.y)))
    return 0


def _load_config(path, seed=None, checks=None):
    with open(path) as fh:
        d = json.load(fh)
    if seed is not None:
        d["seed"] = seed
    if checks is not None:
        d["checks"] = list(checks)
    return SweepConfig.from_dict(d)


def _cmd_verify(args):
    config = _load_config(args.config, checks=[args.check])
    report = run_sweep(config)
    for e in report.entries:
        print(f"{(e.params or {}).get('check', '?')}: lhs={_fmt(e.lhs)} "
              f"rhs={_fmt(e.rhs)} {e.status}")
    print(f"summary: {report.summary}")
    return 3 if report.violated > 0 else 0


def _cmd_sweep(args):
    config = _load_config(args.config, seed=args.seed)
    report = run_sweep(config)
    text = _report_to_csv(report) if args.format == "csv" else _report_to_json(report)
    _emit(text, args.output)
    if report.violated > 0:
        print(f"sweep: {report.violated} violation(s)", file=sys.stderr)
        return 3
    return 0


_DISPATCH = {
    "density": _cmd_density,
    "moment": _cmd_moment,
    "expmoment": _cmd_expmoment,
    "bound": _cmd_bound,
    "kernel": _cmd_kernel,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def parse_and_dispatch(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
