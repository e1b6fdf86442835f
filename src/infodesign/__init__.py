"""Worst-case-optimal decisions over partially identified state distributions.

The package solves the decision maker's maxmin problem against the set of
priors consistent with an experiment's message distribution, decides which
actions some experiment can make worst-case optimal, constructs maximally
informative implementing experiments, and instantiates the treatment-choice
application with inverse-propensity-weighted payoffs.
"""

from .causal import (
    MarginalReport,
    MarginalSpec,
    OutcomeMarginalPrior,
    TreatmentModel,
    add_irrelevant_signal,
    build_treatment_problem,
    check_marginal_not_maximal,
    counterfactual_mean,
    implement_treatment,
    marginal_structure,
    motivating_example,
    motivating_worst_case_prior,
    outcome_marginals_for_targets,
    prior_from_marginals,
)
from .design import (
    InformativenessOrder,
    KernelSpec,
    ResearcherOptimum,
    boundary_adjust,
    extremal_reach,
    implementing_structure,
    is_maximally_informative,
    kernel_to_experiment,
    researcher_optimum,
    robustly_more_informative,
)
from .errors import (
    AssignmentMismatch,
    AssumptionViolation,
    DigitLimitExceeded,
    DimensionMismatch,
    DocumentError,
    EmptyOrFullVariableSet,
    InfoDesignError,
    InteriorSupportViolation,
    NoIrrelevantCovariate,
    NotImplementableError,
    NotImplementingError,
    ZeroSumViolation,
)
from .lp import (
    DualCertificate,
    FarkasCertificate,
    ImprovingRay,
    LinearProgram,
    LpOutcome,
    LpStatus,
    solve_lp,
    verify_outcome,
)
from .model import (
    DecisionProblem,
    IdentifiedSet,
    InformationStructure,
    MixedAction,
    PayoffPartition,
    PriorPolytope,
    best_responses,
    identified_set,
    kernel_of,
    payoff,
    payoff_equivalence_classes,
    push_forward,
)
from .numerics import (
    Matrix,
    Subspace,
    Vector,
    format_scalar,
    nullspace,
    orthogonal_complement,
    rank,
    scalar,
    subspace_contains,
    vector,
)
from .solver import (
    SaddleCertificate,
    SupportingPrior,
    is_implementable,
    maxmin,
    supporting_prior,
    worst_case,
)

__version__ = "0.1.0"
