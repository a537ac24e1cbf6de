"""Verification engine for local fractional calculus inequalities.

The package computes both sides of the Hermite-Hadamard, Hoelder, Ostrowski
and s-convex Ostrowski-type inequalities on the fractal line of order
``alpha``, reports slack and violations, and measures the internal
consistency residuals of the term-wise fractional calculus itself.
"""

from .alphanum import (
    AlphaContext,
    AlphaReal,
    GammaDomainError,
    MittagLefflerError,
    alpha_add,
    alpha_mul,
    alpha_pow_signed,
    gamma,
    mittag_leffler,
)
from .convexity import ConvexityVerdict, check_generalized_convex, check_s_convex_second
from .harness import (
    INEQUALITY_IDS,
    FunctionSpec,
    SpecSyntaxError,
    SweepConfig,
    Tolerances,
    emit_report,
    expected_row_count,
    falsify,
    load_report,
    parse_function_spec,
    run_sweep,
)
from .inequalities import (
    COROLLARY_VARIANTS,
    INEQUALITIES,
    IneqReport,
    OstrowskiConstants,
    eval_corollary,
    eval_ghh,
    eval_holder,
    eval_ostrowski_classic,
    eval_shh,
    eval_thm1,
    eval_thm2,
    eval_thm3,
    identity_residual,
    ostrowski_constants,
    sup_abs,
)
from .quadrature import (
    MomentFunctional,
    QuadratureError,
    alpha_binomial_series,
    composed_moment,
    fractal_integral_numeric,
)
from .series import (
    AlphaSeries,
    GammaPoleError,
    byparts_residual,
    lf_derivative,
    lf_derivative_n,
    lf_integral,
    series_add,
    series_eval,
    series_mul,
    series_scale,
)

__version__ = "0.1.0"
