"""Optimality criteria for probabilistic numerical methods.

Compares experiment-selection criteria -- Bayes risk, the alphabet
criteria, expected KL information gain and the posterior-concentration
(BPN) criterion -- on three worked case studies: Wiener-prior quadrature,
a finite-state counterexample where the criteria disagree, and sequential
interior-point design for an elliptic boundary-value problem.
"""

from .criteria import (
    CriterionReport,
    MonteCarloConfig,
    alphabet,
    bdt_criterion,
    bpn_gaussian_pair_reduction,
    bpn_mc,
    kl_gain_discrete,
    optimal_set,
)
from .decisions import (
    GaussianLinearProblem,
    PNormOnGrid,
    WeightedQuadratic,
    ZeroOne,
    bayes_risk,
    bayes_rule_discrete,
    verify_mean_is_bayes_act,
)
from .discrete import (
    CounterexampleSpec,
    DiscreteProblem,
    bpn_exact,
    build_counterexample,
    criteria_report,
)
from .gaussian import GaussianDensity, conjugate_posterior, derive_rng
from .kernels import ConditionedPredictor, SquaredExponential
from .pde import DesignState, EllipticDesignProblem, greedy_design
from .quadrature import (
    QuadratureDesign,
    QuadraturePosterior,
    bpn_closed_form,
    bpn_monte_carlo,
    optimize_design,
    quadrature_posterior,
)

__version__ = "0.1.0"
