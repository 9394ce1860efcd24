"""Output check for one query operation, independent of the planner.

It runs outside every timer. The trace is checked against the base MDP's
transition table and the goal set's bits directly; the planner's own
cost identity is the one planner function it calls.
"""

from __future__ import annotations

from hierplan.core import BaseMDP, ExecutionTrace
from hierplan.errors import InconsistentRecord
from hierplan.planner import PlanAnswer, planning_cost

from streams import StreamQuery


def check_operation(
    base: BaseMDP,
    sq: StreamQuery,
    answer: PlanAnswer | None,
    trace: ExecutionTrace | None,
) -> str | None:
    """Why the operation failed, or None when its output is correct."""
    if answer is None or trace is None:
        return "answer_query returned None"
    if answer.level_index != sq.level:
        return f"{sq.kind} solved at level {answer.level_index}, expected {sq.level}"
    try:
        cost = planning_cost(answer.record)
    except InconsistentRecord as exc:
        return f"inconsistent record: {exc}"
    if cost != answer.record.total_ops:
        return f"planning_cost {cost} != total_ops {answer.record.total_ops}"
    visited = trace.visited
    if visited[0] != sq.start:
        return f"trace starts at {visited[0]}, not at {sq.start}"
    if not (sq.query.goals.bits >> visited[-1]) & 1:
        return f"trace ends at {visited[-1]}, outside the goal set"
    for here, there in zip(visited, visited[1:]):
        if not any(base.transition.get((here, a)) == there for a in base.actions):
            return f"no base transition {here} -> {there}"
    return None
