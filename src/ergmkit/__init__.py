"""Simulation and estimation for exponential-family random graph models."""

from .network import Network, VertexAttributes, read_network, write_network, \
    read_attributes, write_attributes
from .formula import parse_model_formula, parse_constraint_formula, \
    ModelSpec, TermSpec, ConstraintSpec
from .terms import BoundModel, bind
from .proposals import Proposal, UniformProposal, TntProposal, BDStratTNT, \
    ConstraintChecker, make_proposal
from .sampler import SamplerConfig, SampleMatrix, mh_step, run_chain, \
    sample_chains, adaptive_run
from .diagnostics import EssReport, BurninFit, batch_means_cov, \
    multivariate_ess, univariate_ess, geweke_test, estimate_burnin
from .hull import LinearProgram, simplex_solve, boundary_multiplier, \
    scale_into_hull, in_hull
from .estimate import MpleRows, FitResult, McmleControl, mple_rows, \
    logistic_fit, mple, mcmle_step, check_termination, mcmle_fit, cd_fit
from .loglik import BridgePlan, LoglikResult, null_deviance, \
    dyad_independent_loglik, bridge_loglik, evaluate_loglik
from .san import SanConfig, SanTrace, energy, san_weight_update, san_run
from .bench import PopulationSpec, generate_population, mixing_benchmark, \
    ess_benchmark, san_benchmark

__version__ = "0.1.0"
