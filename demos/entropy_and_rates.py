"""Log-Harnack consequences for the time-changed Ornstein-Uhlenbeck
semigroup: relative entropy between transition kernels from two starting
points is controlled by the squared distance times an explicit constant,
and a shifted initial law pays at most the quadratic transport cost,
m^2/4 in closed form for a shift m. Both entropies are summed by one
fixed Gauss-Legendre rule in z, with the time-changed kernel taken at
all its nodes at once. Also prints the on-diagonal decay of the
time-changed heat kernel, whose log-log slope matches -d/(2*alpha).

Run: python3 demos/entropy_and_rates.py
"""

import math

from subharnack import (
    QuadratureSpec,
    StableSubordinator,
    check_entropy_cost,
    check_entropy_kernel,
    gauss_heat,
    ondiag,
    ou1d,
)

spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12)
base = ou1d()

print("entropy between kernels (OU, x=0.3 vs y=-0.2):")
for alpha in (0.5, 0.75, 1.0):
    for t in (0.5, 1.0):
        rep = check_entropy_kernel(base, StableSubordinator(alpha, t),
                                   [0.3], [-0.2], spec)
        print(f"  alpha={alpha:.2f} t={t:.1f}  "
              f"entropy={rep.lhs:.6f} <= bound={rep.rhs:.6f}")
        assert rep.lhs <= rep.rhs * (1 + 1e-8)

print("\nentropy cost of a shifted start (OU, shift=0.5):")
for alpha in (0.5, 1.0):
    rep = check_entropy_cost(base, StableSubordinator(alpha, 1.0), 0.5, spec)
    print(f"  alpha={alpha:.2f}  entropy={rep.lhs:.6f} <= cost bound={rep.rhs:.6f}")
    assert rep.lhs <= rep.rhs * (1 + 1e-8)

print("\non-diagonal decay of the time-changed heat kernel (d=1):")
heat = gauss_heat(1)
for alpha in (0.5, 0.7, 1.0):
    ts = (0.1, 1.0, 10.0)
    vals = [ondiag(heat, StableSubordinator(alpha, t), [0.0])
            for t in ts]
    slope = (math.log(vals[-1]) - math.log(vals[0])) / (
        math.log(ts[-1]) - math.log(ts[0]))
    print(f"  alpha={alpha:.2f}  log-log slope={slope:+.4f} "
          f"(expected {-1 / (2 * alpha):+.4f})")
