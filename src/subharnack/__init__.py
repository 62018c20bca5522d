"""Harnack, log-Harnack and heat-kernel inequalities for stable-subordinated
Markov semigroups, with every explicit constant computed and every bound
checked against quadrature and closed-form oracles."""

from .specfun import StirlingBracket, log_gamma, stirling_bracket
from .subordinator import (
    MCSpec,
    QuadratureSpec,
    SeriesEval,
    StableSubordinator,
    density,
    exp_moment,
    fractional_moment,
    integrate_against,
    laplace,
    sample,
)
from .bounds import (
    BoundReport,
    C_pka,
    HarnackProfile,
    base_harnack_exponent,
    constant_c,
    jensen_series_bound,
    log_harnack_term,
    log_thm11_factor,
    log_thm11_intermediate_factor,
    prop13_factor,
    series_factor,
    transfer_factor_numeric,
)
from .semigroup import (
    BaseKernel,
    Constant,
    ExpAffine,
    GaussBump,
    Indicator,
    ShiftedForLog,
    TestFunction,
    apply,
    cauchy_closed_form,
    gauss_heat,
    kernel_density,
    ondiag,
    ou1d,
    subordinated_apply,
    subordinated_density,
)
from .verify import (
    SweepConfig,
    SweepReport,
    check_base_harnack,
    check_entropy_cost,
    check_entropy_kernel,
    check_laplace_mc,
    check_log_harnack,
    check_ondiag_rate,
    check_prop13,
    check_subordinated_harnack,
    log_profile,
    power_profile,
    run_sweep,
)

__version__ = "0.1.0"
