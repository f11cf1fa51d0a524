"""Cost-model query planner: rank (method, ordering) candidates.

Public surface:

* :mod:`repro.planner.candidates` -- the candidate table;
* :mod:`repro.planner.plan` -- the four pricing backends and the
  :class:`Plan` the argmin routing consumes;
* :mod:`repro.planner.regret` -- the planner-vs-oracle harness CI
  gates on.
"""

from repro.orientations.relabel import oriented_degrees
from repro.planner.candidates import (
    GRAPH_ORDERINGS,
    MODEL_ORDERINGS,
    Candidate,
    iter_candidates,
)
from repro.planner.plan import (
    Plan,
    PlanEntry,
    choose_method,
    format_plan,
    plan_for_degrees,
    plan_for_distribution,
    plan_for_graph,
    plan_for_sketch,
    plan_in_limit,
    sketch_degrees,
)
from repro.planner.regret import (
    RegretCase,
    default_suite,
    evaluate_case,
    format_regret_table,
    regret_summary,
    run_regret_suite,
)

__all__ = [
    "GRAPH_ORDERINGS",
    "MODEL_ORDERINGS",
    "Candidate",
    "iter_candidates",
    "oriented_degrees",
    "Plan",
    "PlanEntry",
    "choose_method",
    "format_plan",
    "plan_for_degrees",
    "plan_for_distribution",
    "plan_for_graph",
    "plan_for_sketch",
    "plan_in_limit",
    "sketch_degrees",
    "RegretCase",
    "default_suite",
    "evaluate_case",
    "format_regret_table",
    "regret_summary",
    "run_regret_suite",
]
