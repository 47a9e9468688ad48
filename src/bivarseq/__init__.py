"""Curtailed sequential testing for two correlated binary side effects.

Design a pooled two-margin stopping rule, evaluate its exact and asymptotic
operating characteristics, run it over observation streams, and draw
post-detection inferences.
"""

from .errors import (
    BivarseqError,
    DegenerateCovarianceError,
    InfeasibleCorrelationError,
    MonitorStateError,
    SequencingError,
    StreamExhaustedError,
)
from .special_functions import (
    BivariateNormalParams,
    bvn_cdf,
    bvn_rect,
    norm_cdf,
    norm_pdf,
    norm_quantile,
    reg_inc_beta,
)
from .params import JointBernoulliParams, condition_a_bounds, make_params, rho_from_p11
from .design import (
    BivariateDesign,
    LatticeCounts,
    MarginalDesign,
    StoppingPmf,
    combine,
    critical_value_for_n,
    design_marginal,
)
from .exact_engine import (
    asn_bounds,
    asn_exact,
    estimator_expectation_exact,
    lattice_forward_dp,
    non_rejection_prob,
    power_exact,
    stopping_pmf_exact,
    variance_cv,
)
from .asymptotic_engine import (
    boundary_hit_probs,
    estimator_expectation_asymptotic,
    gut_params,
    power_asymptotic,
    stopping_pmf_asymptotic,
    terminal_count_law,
)
from .inference import (
    ConfidenceRegion,
    PostTestEstimate,
    RelativeRiskEstimate,
    confidence_region,
    ellipse_points,
    inverse_relative_risk,
    post_test_estimate,
    relative_risk,
)
from .simulator import (
    Event,
    MonteCarloSummary,
    TestOutcome,
    monte_carlo,
    replicate_outcomes,
    run_test,
    sample_stream,
)

__version__ = "0.1.0"
