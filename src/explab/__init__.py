"""explab: error exponents of fixed-composition codes over DMCs.

Primal TRC/expurgated exponent optimizers for ML and MMI decoding metrics,
the Lagrange-dual sandwich bounds that certify their equality, and an exact
small-blocklength simulator.
"""

from .prob import (
    Channel,
    CondDist,
    Dist,
    Joint2,
    ProbError,
    conditional_entropy,
    coupling_grid,
    empirical_joint,
    entropy,
    kl_divergence,
    mutual_information,
)
from .exponents import (
    ML,
    MMI,
    DecodingMetric,
    ExponentCurve,
    ExponentResult,
    OptimizerOptions,
    RatePoint,
    a_threshold,
    expurgated_exponent,
    gamma,
    random_coding_exponent,
    sweep,
    trc_exponent,
)
from .duals import (
    BoundReport,
    certify_theorem1,
    lambda_bound,
    log_g_aux,
    ml_upper_bound,
    mmi_lower_bound,
    phi_bound,
    psi,
    theta,
)
from .simulate import (
    Codebook,
    ErrorProfile,
    GldConfig,
    TrialSummary,
    empirical_trc,
    exact_error_profile,
    exact_error_profile_gld,
    expurgate_worst_half,
    sample_codebook,
)

__version__ = "0.1.0"

__all__ = [
    "Channel", "CondDist", "Dist", "Joint2", "ProbError",
    "conditional_entropy", "coupling_grid", "empirical_joint", "entropy",
    "kl_divergence", "mutual_information",
    "ML", "MMI", "DecodingMetric", "ExponentCurve", "ExponentResult",
    "OptimizerOptions", "RatePoint", "a_threshold",
    "expurgated_exponent", "gamma", "random_coding_exponent",
    "sweep", "trc_exponent",
    "BoundReport", "certify_theorem1", "lambda_bound", "log_g_aux",
    "ml_upper_bound", "mmi_lower_bound", "phi_bound", "psi", "theta",
    "Codebook", "ErrorProfile", "GldConfig", "TrialSummary",
    "empirical_trc", "exact_error_profile", "exact_error_profile_gld",
    "expurgate_worst_half", "sample_codebook",
]
