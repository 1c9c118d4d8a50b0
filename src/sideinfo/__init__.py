"""Numerical solvers for channel capacity and rate-distortion with
rate-limited two-sided partial side information over finite alphabets."""

from .probability import (
    Alphabet,
    CondKernel,
    JointPmf,
    ProbabilityError,
    SimplexGrid,
    binary_entropy,
    chain,
    check_markov,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    marginalize,
    mutual_information,
    simplex_grid,
)
from .strategies import (
    StrategyCapacityError,
    StrategySpace,
    cardinality_bounds,
    enumerate_strategies,
    lift_source,
)
from .ba import (
    ChannelInstance,
    SolveReport,
    SolverOptions,
    SourceInstance,
    ba_capacity,
    ba_rate_distortion,
    gp_channel_capacity,
    wz_primal,
)
from .case2 import (
    Case2Options,
    CurvePoint,
    capacity_case2,
    capacity_case2_causal,
    capacity_case2_sweep,
    causal_inner_max,
    inner_max,
    monotone_post_pass,
    r_w,
    u_w_bound,
)
from .gpdual import (
    Case1Options,
    GpInfeasibleError,
    GpNumericalError,
    GpProblem,
    GpReport,
    build_case1_rd_gp,
    build_wz_gp,
    description_rate_case1,
    rd_case1,
    rd_case1_sweep,
    solve_gp,
    wz_rate_via_gp,
)
from .evaluators import (
    CaseDescriptor,
    EvalResult,
    build_case2_joint,
    build_case2c_joint,
    build_wz_joint,
    case_descriptor,
    dualize,
    eval_cc,
    eval_fact,
    eval_sc,
    example2_closed_form,
)
from .problems import (
    ProblemFileError,
    builtin_instance,
    example1_channel,
    example2_source,
    example3_source,
    example4_source,
    load_problem,
    parse_problem,
    serialize_problem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
