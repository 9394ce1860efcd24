"""Plan-query answering over an abstraction hierarchy.

The search runs top-down. At each level the unique maximal candidate
pair is built: starts are every state whose base grounding meets the
query's start set (valid only when the union covers it), goals are every
state whose base grounding lies inside the query's goal set. When both
candidates exist the level is planned with multi-start any-goal backward
reachability; a match whose plan attempt fails falls through to the next
lower level. Work is metered in grounding-set tests per level (matching)
and edge examinations (planning), and the record of a successful run
reproduces the closed-form cost of the search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .core import ExecutionTrace, Option, execute_option
from .errors import (
    HierplanError,
    InconsistentRecord,
    LevelOutOfRange,
    NoMatch,
    RefinementFault,
)
from .hierarchy import Hierarchy, PlanQuery
from .symbols import GroundingSet


@dataclass(frozen=True)
class MatchPair:
    """Candidate start/goal state sets at one level."""

    level_index: int
    starts: GroundingSet
    goals: GroundingSet


@dataclass(frozen=True)
class Plan:
    """A goal-reaching policy over one level.

    ``policy`` maps every settled state to the action that steps one edge
    closer to ``goals``; following it from any state in ``starts`` reaches
    a goal in at most ``num_states`` steps.
    """

    level_index: int
    policy: dict[int, str]
    starts: GroundingSet
    goals: GroundingSet

    def action_sequence(self, start: int) -> list[str]:
        """Actions taken following the policy from ``start`` to a goal."""
        seq: list[str] = []
        state = start
        steps = 0
        while state not in self.goals:
            if state not in self.policy or steps > len(self.policy) + 1:
                raise RefinementFault(f"no policy path from state {start}")
            seq.append(self.policy[state])
            state = self._successors[(state, self.policy[state])]
            steps += 1
        return seq

    # filled by findplan so action_sequence can walk without the level
    _successors: dict[tuple[int, str], int] = field(
        default_factory=dict, repr=False, compare=False
    )


@dataclass
class InstrumentationRecord:
    """Work accounting for one query.

    ``match_ops[j]`` counts grounding-set tests performed building the
    candidate pair at level ``j`` (two per state: one start-overlap test,
    one goal-subset test). ``plan_ops[j]`` counts transition-edge
    examinations by the plan search at ``j``. ``first_match_level`` and
    ``solution_level`` are the highest matching level and the level the
    returned plan lives at. Wall-clock time is split exhaustively between
    the matching and planning phases.
    """

    search_top: int
    match_ops: dict[int, int] = field(default_factory=dict)
    plan_ops: dict[int, int] = field(default_factory=dict)
    first_match_level: int | None = None
    solution_level: int | None = None
    total_ops: int = 0
    match_seconds: float = 0.0
    plan_seconds: float = 0.0


def planning_cost(record: InstrumentationRecord) -> int:
    """Total operation count implied by the per-level counters:
    matching at every level from the top of the search down to the first
    match, plus matching and planning at every level from there down to
    the solution."""
    k, l = record.first_match_level, record.solution_level
    if k is None or l is None:
        raise InconsistentRecord("record does not describe a solved query")
    if k < l:
        raise InconsistentRecord(f"first match {k} below solution level {l}")
    total = 0
    try:
        for a in range(k + 1, record.search_top + 1):
            total += record.match_ops[a]
        for b in range(l, k + 1):
            total += record.match_ops[b] + record.plan_ops[b]
    except KeyError as missing:
        raise InconsistentRecord(f"missing counter for level {missing}") from None
    extra = set(record.plan_ops) - set(range(l, k + 1))
    if extra:
        raise InconsistentRecord(f"plan cost recorded outside match span: {extra}")
    return total


# ---------------------------------------------------------------------------
# candidate construction
# ---------------------------------------------------------------------------


def candidate_starts(h: Hierarchy, j: int, starts: GroundingSet) -> GroundingSet:
    """Maximal start candidate at level ``j``: every state whose base
    grounding meets ``starts``. Valid only if the union of those
    groundings covers ``starts``; otherwise no usable start set exists at
    this level and NoMatch is raised. Makes exactly ``num_states(j)``
    grounding-set tests."""
    if not 0 <= j <= h.num_levels:
        raise LevelOutOfRange(f"level {j} not in 0..{h.num_levels}")
    members = []
    covered = GroundingSet.empty(0)
    for s in range(h.num_states(j)):
        g0 = h.final_grounding_of(j, s)
        if not g0.isdisjoint(starts):
            members.append(s)
            covered = covered | g0
    if not starts.issubset(covered):
        raise NoMatch(f"start set not covered at level {j}")
    return GroundingSet.of(j, members)


def candidate_goals(h: Hierarchy, j: int, goals: GroundingSet) -> GroundingSet:
    """Maximal goal candidate at level ``j``: every state whose base
    grounding lies inside ``goals``. NoMatch when there is none. Makes
    exactly ``num_states(j)`` grounding-set tests."""
    if not 0 <= j <= h.num_levels:
        raise LevelOutOfRange(f"level {j} not in 0..{h.num_levels}")
    members = []
    for s in range(h.num_states(j)):
        if h.final_grounding_of(j, s).issubset(goals):
            members.append(s)
    if not members:
        raise NoMatch(f"no state grounds inside the goal set at level {j}")
    return GroundingSet.of(j, members)


def plan_match(h: Hierarchy, pair: MatchPair, query: PlanQuery) -> bool:
    """True when the pair brackets the query: the query's starts lie
    inside the pair's grounded starts, and the pair's grounded goals lie
    inside the query's goals."""
    grounded_starts = h.final_ground(pair.level_index, pair.starts)
    grounded_goals = h.final_ground(pair.level_index, pair.goals)
    if pair.goals.is_empty():
        return False
    return query.starts.issubset(grounded_starts) and grounded_goals.issubset(
        query.goals
    )


# ---------------------------------------------------------------------------
# plan search
# ---------------------------------------------------------------------------


def _charge(record: InstrumentationRecord | None, j: int, ops: int) -> None:
    """Add a plan search's edge examinations at level ``j`` to ``record``."""
    if record is not None:
        record.plan_ops[j] = ops
        record.total_ops += ops


def findplan(
    level,
    starts: GroundingSet,
    goals: GroundingSet,
    record: InstrumentationRecord | None = None,
) -> Plan | None:
    """Feasibility planning: a policy reaching ``goals`` from every state
    in ``starts``, or None when some start cannot reach any goal.

    Backward breadth-first reachability from ``goals``. The full backward
    closure of the goal set is computed, so the policy covers every state
    that can reach a goal, not just the requested starts. Policy
    extraction keeps the first action (in the level's declared order)
    that steps one level closer, which makes plans deterministic. The
    edge examinations are added to ``record`` when one is given.
    """
    dist: dict[int, int] = {g: 0 for g in goals}
    frontier = sorted(goals)
    ops = 0
    while frontier:
        nxt: list[int] = []
        for t in frontier:
            for pred, action in level.predecessor_edges(t):
                ops += 1
                if pred not in dist:
                    dist[pred] = dist[t] + 1
                    nxt.append(pred)
        frontier = sorted(nxt)
    if any(s not in dist for s in starts):
        _charge(record, level.level_index, ops)
        return None
    policy: dict[int, str] = {}
    successors: dict[tuple[int, str], int] = {}
    for s, d in dist.items():
        if d == 0:
            continue
        for action in level.actions:
            t = level.successor(s, action)
            ops += 1
            if t is not None and dist.get(t, -1) == d - 1:
                policy[s] = action
                successors[(s, action)] = t
                break
    _charge(record, level.level_index, ops)
    return Plan(
        level_index=level.level_index,
        policy=policy,
        starts=starts,
        goals=goals,
        _successors=successors,
    )


def findplan_value_iteration(
    level,
    starts: GroundingSet,
    goals: GroundingSet,
    record: InstrumentationRecord | None = None,
) -> Plan | None:
    """Reward-optimal variant: value iteration with the level's rewards
    and discount, goals absorbing at value zero, for at most
    ``num_states + 1`` sweeps.

    With the uniform -1 penalty and no discounting this coincides with
    shortest paths. Feasibility criteria in callers should prefer
    `findplan`; this exists for reward-sensitive plan extraction. Returns
    None when some start has no value or when the extracted policy does
    not lead every start to ``goals`` (a reward-positive cycle can draw
    it away from the goal). The edge examinations are added to
    ``record`` when one is given.
    """
    gamma = level.gamma
    value: dict[int, float] = {g: 0.0 for g in goals}
    best: dict[int, tuple[str, int]] = {}
    ops = 0
    for _ in range(level.num_states + 1):
        changed = False
        for s in range(level.num_states):
            if s in goals:
                continue
            candidate: tuple[float, str, int] | None = None
            for action in level.actions:
                t = level.successor(s, action)
                ops += 1
                if t is None or t not in value:
                    continue
                q = level.reward_of(s, action) + gamma * value[t]
                if candidate is None or q > candidate[0]:
                    candidate = (q, action, t)
            if candidate is None:
                continue
            q, action, t = candidate
            if s not in value or q > value[s] + 1e-12:
                value[s] = q
                best[s] = (action, t)
                changed = True
        if not changed:
            break
    _charge(record, level.level_index, ops)
    if any(s not in value for s in starts):
        return None
    plan = Plan(
        level_index=level.level_index,
        policy={s: a for s, (a, _) in best.items()},
        starts=starts,
        goals=goals,
        _successors={(s, a): t for s, (a, t) in best.items()},
    )
    try:
        for s in starts:
            plan.action_sequence(s)
    except RefinementFault:
        return None
    return plan


# ---------------------------------------------------------------------------
# top-down query answering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanAnswer:
    level_index: int
    plan: Plan
    record: InstrumentationRecord


def answer_query(
    h: Hierarchy,
    query: PlanQuery,
    at_level: int | None = None,
    plan_mode: str = "reachability",
) -> PlanAnswer | None:
    """Find the highest level that both matches and solves the query.

    Levels are tried from the top (or from ``at_level``) downwards. A
    level is attempted only when its unique maximal candidate pair
    brackets the query; a failed plan attempt at a matching level falls
    through to the next level down. Returns None when even the base MDP
    has no plan. The instrumentation record accounts for all matching and
    planning work performed.
    """
    top = h.num_levels if at_level is None else at_level
    if not 0 <= top <= h.num_levels:
        raise LevelOutOfRange(f"level {top} not in 0..{h.num_levels}")
    if plan_mode not in ("reachability", "value-iteration"):
        raise ValueError(f"unknown plan mode {plan_mode!r}")
    search = findplan if plan_mode == "reachability" else findplan_value_iteration
    record = InstrumentationRecord(search_top=top)
    clock = time.perf_counter()
    for j in range(top, -1, -1):
        starts = _match(candidate_starts, h, j, query.starts)
        goals = _match(candidate_goals, h, j, query.goals)
        # each candidate tests every state of the level once
        record.match_ops[j] = 2 * h.num_states(j)
        record.total_ops += record.match_ops[j]
        now = time.perf_counter()
        record.match_seconds += now - clock
        clock = now
        if starts is None or goals is None:
            continue
        if record.first_match_level is None:
            record.first_match_level = j
        plan = search(h.level(j), starts, goals, record=record)
        now = time.perf_counter()
        record.plan_seconds += now - clock
        clock = now
        if plan is not None:
            record.solution_level = j
            return PlanAnswer(j, plan, record)
    return None


def _match(candidates, h: Hierarchy, j: int, states: GroundingSet) -> GroundingSet | None:
    try:
        return candidates(h, j, states)
    except NoMatch:
        return None


# ---------------------------------------------------------------------------
# refinement to base actions
# ---------------------------------------------------------------------------


def _localize(h: Hierarchy, j: int, candidates: GroundingSet, base_state: int) -> int:
    """The lowest candidate level-``j`` state grounding ``base_state``."""
    if j == 0:
        if base_state in candidates:
            return base_state
    else:
        for s in candidates:
            if base_state in h.final_grounding_of(j, s):
                return s
    raise RefinementFault(
        f"base state {base_state} not grounded by any candidate at level {j}"
    )


def _run_option(
    h: Hierarchy,
    level_of_option: int,
    option: Option,
    cursor: list[int],
    segments: list[ExecutionTrace],
) -> None:
    """Execute one option (an action of level ``level_of_option``) down
    to base actions, advancing the concrete cursor at every level
    below.

    The option runs over level ``level_of_option - 1`` with
    `execute_option`. Above the base, each step of that trace applies a
    part of that level, whose option is then run the same way one level
    further down."""
    j = level_of_option - 1
    level = h.level(j)
    try:
        trace = execute_option(level, option, cursor[j])
    except HierplanError as exc:
        raise RefinementFault(str(exc)) from exc
    if j == 0:
        segments.append(trace)
    else:
        for s in trace.visited[:-1]:
            part = level.part(level.resolve_part(s, option.policy[s]))
            _run_option(h, j, part.option, cursor, segments)
    cursor[j] = trace.end


def execute_refined(
    h: Hierarchy, level_of_option: int, option: Option, base_start: int
) -> ExecutionTrace:
    """Execute an option from any hierarchy level as a base-action trace.

    ``level_of_option`` is the level whose action set the option belongs
    to (so the option's own policy runs over ``level_of_option - 1``).
    The base start must be grounded by some initiation state. The cursor
    at each level below is localized once, then advanced with the level's
    own transition map (never re-localized), which is exactly the
    no-backtracking refinement the hierarchy's soundness invariants
    guarantee. Any mismatch surfaces as RefinementFault.
    """
    if level_of_option < 1:
        raise LevelOutOfRange("options live at levels 1 and above")
    j = level_of_option - 1
    cursor = [0] * level_of_option
    cursor[0] = base_start
    cursor[j] = _localize(h, j, option.initiation, base_start)
    for i in range(j, 1, -1):
        cursor[i - 1] = _localize(h, i - 1, h.grounding_of(i, cursor[i]), base_start)
    segments: list[ExecutionTrace] = []
    _run_option(h, level_of_option, option, cursor, segments)
    visited = [base_start]
    total = 0.0
    for seg in segments:
        if seg.visited[0] != visited[-1]:
            raise RefinementFault("discontinuous base trace")
        visited.extend(seg.visited[1:])
        total += seg.cumulative_reward
    return ExecutionTrace(
        base_start, visited[-1], len(visited) - 1, total, tuple(visited)
    )


def refine(h: Hierarchy, plan: Plan, start: int) -> ExecutionTrace:
    """Execute a plan from one base state down to primitive actions.

    A plan at level ``j`` is an option over level ``j``: its starts are
    the initiation set, its goals the termination set and its policy the
    option's policy. Refining it is executing that option as an action of
    level ``j + 1``.
    """
    if plan.starts.is_empty():
        raise RefinementFault("plan has no start states")
    option = Option(
        name=f"plan@{plan.level_index}",
        initiation=plan.starts,
        termination=plan.goals,
        policy=plan.policy,
    )
    return execute_refined(h, plan.level_index + 1, option, start)
