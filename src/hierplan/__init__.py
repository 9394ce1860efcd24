"""hierplan: abstraction hierarchies over discrete MDPs.

Build a stack of increasingly abstract MDPs from user-supplied option
sets, answer plan queries at the highest level that brackets them, refine
abstract plans down to base-level action sequences, and compare against
flat planning.
"""

from .abstraction import (
    AbstractLevel,
    Construction,
    OptionPart,
    RewardMode,
    build_factored_abstraction,
    build_level,
    build_plan_graph,
    compute_effect_set,
    partition_option,
)
from .bench import BenchmarkRow, flatten_options, run_benchmark
from .core import (
    BaseMDP,
    ExecutionTrace,
    Option,
    StateSpace,
    Variable,
    execute_option,
)
from .domain_io import build_hierarchy, load_domain, load_query
from .hierarchy import Hierarchy, PlanQuery, Violation
from .pddl import export_pddl
from .planner import (
    InstrumentationRecord,
    PlanAnswer,
    action_sequence,
    answer_query,
    candidate_goals,
    candidate_starts,
    findplan,
    findplan_value_iteration,
    plan_option,
    planning_cost,
    refine,
)
from .symbols import GroundingSet
from .taxi import (
    DEFAULT_LAYOUT,
    TaxiLayout,
    build_taxi,
    build_taxi_hierarchy,
    depot_seed_states,
    benchmark_queries,
    taxi_options_level1,
    taxi_options_level2,
)

__all__ = [
    "AbstractLevel",
    "BaseMDP",
    "BenchmarkRow",
    "Construction",
    "DEFAULT_LAYOUT",
    "ExecutionTrace",
    "GroundingSet",
    "Hierarchy",
    "InstrumentationRecord",
    "Option",
    "OptionPart",
    "PlanAnswer",
    "PlanQuery",
    "RewardMode",
    "StateSpace",
    "TaxiLayout",
    "Variable",
    "Violation",
    "action_sequence",
    "answer_query",
    "build_factored_abstraction",
    "build_hierarchy",
    "build_level",
    "build_plan_graph",
    "build_taxi",
    "build_taxi_hierarchy",
    "candidate_goals",
    "candidate_starts",
    "compute_effect_set",
    "depot_seed_states",
    "execute_option",
    "export_pddl",
    "findplan",
    "findplan_value_iteration",
    "flatten_options",
    "load_domain",
    "load_query",
    "benchmark_queries",
    "partition_option",
    "plan_option",
    "planning_cost",
    "refine",
    "run_benchmark",
    "taxi_options_level1",
    "taxi_options_level2",
]
