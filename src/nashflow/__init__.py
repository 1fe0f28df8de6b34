"""Exact combinatorial solver for the unit-supply bargaining market game.

Decides whether every player can strictly improve on their disagreement
payoff, produces machine-checkable certificates when they cannot, and
computes the exact rational bargaining solution (prices, allocation,
utilities) when they can — all with integer/rational arithmetic, no
floating point anywhere.
"""

from .instance import (
    BargainingInstance,
    InstanceError,
    PreprocessReport,
    format_rational,
    gen_l1_adversarial,
    gen_random,
    make_instance,
    parse_instance,
    parse_rational,
    preprocess,
    to_json,
    wireless_adapter,
)
from .flownet import (
    FlowError,
    FlowResult,
    MarketNetwork,
    build_network,
    counting,
    max_flow,
)
from .balanced import BalanceError, balanced_flow, surpluses, verify_property1
from .fisher import FisherError, fisher_equilibrium
from .certify import (
    check_equilibrium,
    check_feasibility_witness,
    check_kkt,
    lp_dual_for_zero_row,
    verify_convex_dual,
    verify_lp_dual,
)
from .oracle import (
    LimitResult,
    OracleCapError,
    OracleResult,
    feasibility_lp,
    limit_algorithm,
    oracle_solve,
)
from .solver import (
    Solution,
    SolverError,
    SolverState,
    initialize,
    maxflow_budget,
    solution_to_json,
    solve,
    stage1,
    stage2,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceError",
    "BargainingInstance",
    "FisherError",
    "FlowError",
    "FlowResult",
    "InstanceError",
    "LimitResult",
    "MarketNetwork",
    "OracleCapError",
    "OracleResult",
    "PreprocessReport",
    "Solution",
    "SolverError",
    "SolverState",
    "balanced_flow",
    "build_network",
    "check_equilibrium",
    "check_feasibility_witness",
    "check_kkt",
    "counting",
    "feasibility_lp",
    "fisher_equilibrium",
    "format_rational",
    "gen_l1_adversarial",
    "gen_random",
    "initialize",
    "limit_algorithm",
    "lp_dual_for_zero_row",
    "make_instance",
    "max_flow",
    "maxflow_budget",
    "oracle_solve",
    "parse_instance",
    "parse_rational",
    "preprocess",
    "solution_to_json",
    "solve",
    "stage1",
    "stage2",
    "surpluses",
    "to_json",
    "verify_convex_dual",
    "verify_lp_dual",
    "verify_property1",
    "wireless_adapter",
]
