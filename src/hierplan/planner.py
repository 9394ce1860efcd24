"""Plan-query answering over an abstraction hierarchy.

The search runs top-down. At each level the unique maximal candidate
pair is built: starts are every state whose base grounding meets the
query's start set (valid only when the union covers it), goals are every
state whose base grounding lies inside the query's goal set. At level 0
that is the query's own sets. Above it, matching works from the query's
side: every level's `GroundingIndex` ranks base ids over level 1's union,
so the query's sets are ranked once each, and a candidate is the OR of
the owners of those ranks. The goals are tested first, and a level whose
goals fail gets no start test. When both candidates exist the level is
planned with multi-start any-goal backward reachability; a match
whose plan attempt fails falls through to the next lower level. Work is
metered in grounding tests per level (matching) and edge examinations
(planning), and the record of a successful run reproduces the
closed-form cost of the search.

A plan is an option over the level it was found at, named ``plan@j``:
its starts are the initiation set, its goals the termination set.
`refine` takes it, or any other option of the hierarchy, to base
actions by composing option runs: the option runs over its own level
with `execute_option`'s loop, then the run of the part applied at each
state that run left, one level down, is read from the hierarchy's
lower runs, and so on down to the base, whose runs append every state
to the one refined trace. Each lower run is the `ExecutionTrace`
`execute_option` returned when the hierarchy was built, so nothing below
the option's own level is executed at query time. Every walk of a policy
here, `action_sequence`'s too, is that one loop, with its checks and its
level's step bound, and every fault surfaces as a RefinementFault caused
by the loop's own error.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .core import ExecutionTrace, Option, _execute_into, require_within_level
from .errors import (
    HierplanError,
    InconsistentRecord,
    LevelMismatch,
    MalformedInput,
    NoMatch,
    RefinementFault,
)
from .hierarchy import Hierarchy, PlanQuery
from .symbols import GroundingSet


def action_sequence(level, plan: Option, start: int) -> list[str]:
    """Actions taken following ``plan``'s policy from ``start`` into its
    termination set: the policy action at each state `execute_option`'s
    run over ``level`` leaves. LevelMismatch when ``level`` is not the
    plan's; RefinementFault when that run faults, from the run's error."""
    if level.level_index != plan.level_index:
        raise LevelMismatch(f"plan level {plan.level_index} vs {level.level_index}")
    states = [start]
    try:
        _execute_into(level, plan, start, states)
    except HierplanError as exc:
        raise RefinementFault(str(exc)) from exc
    policy = plan.policy
    return [policy[s] for s in states[:-1]]


@dataclass
class InstrumentationRecord:
    """Work accounting for one query.

    ``match_ops[j]`` counts the grounding tests building the candidate
    pair at level ``j`` is charged: two per state above level 0 (one
    start-overlap test, one goal-subset test), even when a level's goals
    fail and its starts go untested, and none at level 0, which matches
    by identity. ``plan_ops[j]`` counts the predecessor edges the plan
    search at ``j`` examined, one per edge each time a state's edges are
    walked: `findplan` walks them once per settled state,
    `findplan_value_iteration` once per time a state leaves its queue and
    once per state it finds holding a stale label. ``first_match_level``
    and ``solution_level`` are the highest matching level and the level
    the returned plan lives at. Wall-clock time is split exhaustively
    between the matching and planning phases.
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


def _owned(owners: tuple[int, ...], ranks: int) -> int:
    """The OR of ``owners[r]`` over the ranks ``r`` set in ``ranks``."""
    out = 0
    while ranks:
        low = ranks & -ranks
        out |= owners[low.bit_length() - 1]
        ranks ^= low
    return out


def _start_members(h: Hierarchy, j: int, starts: GroundingSet, q: int | None) -> int | None:
    """Level ``j``'s start candidate as a mask, None when the starts are
    not covered. Above level 0, ``q`` is their ranks (None when one lies
    outside level 1's union), which must lie inside the level's cover."""
    if j == 0:
        return None if starts.bits >> h.num_states(0) else starts.bits
    index = h.grounding_index[j - 1]
    if q is None or q & index.cover != q:
        return None
    return _owned(index.owners, q)


def _goal_members(h: Hierarchy, j: int, goals: GroundingSet, q: int) -> int:
    """Level ``j``'s goal candidate as a mask. Above level 0, ``q`` is the
    ranks of the goals inside level 1's union: the states with an empty
    grounding, plus each owner of one of them whose mask lies inside."""
    if j == 0:
        return goals.bits & ((1 << h.num_states(0)) - 1)
    index = h.grounding_index[j - 1]
    hit = _owned(index.owners, q & index.cover)
    members = index.empty
    while hit:
        low = hit & -hit
        m = index.masks[low.bit_length() - 1]
        if m & q == m:
            members |= low
        hit ^= low
    return members


def candidate_starts(h: Hierarchy, j: int, starts: GroundingSet) -> GroundingSet:
    """Maximal start candidate at level ``j``: every state whose base
    grounding meets ``starts``. Valid only if the union of those
    groundings covers ``starts``; otherwise no usable start set exists at
    this level and NoMatch is raised. Level 0 matches by identity, with
    no test.

    Above it, the starts are covered when their ranks in level 1's union
    lie in the level's `GroundingIndex` ``cover``; the candidate is the OR
    of their ``owners``. `answer_query` calls the same helper."""
    h.level(j)
    if starts.level_index != 0:
        raise LevelMismatch(f"level {starts.level_index} vs level 0")
    q = h.grounding_index[0].ranks(starts.bits) if j else None
    members = _start_members(h, j, starts, q)
    if members is None:
        raise NoMatch(f"start set not covered at level {j}")
    return GroundingSet(j, members)


def candidate_goals(h: Hierarchy, j: int, goals: GroundingSet) -> GroundingSet:
    """Maximal goal candidate at level ``j``: every state whose base
    grounding lies inside ``goals``. NoMatch when there is none. Level 0
    keeps the goals that are base states, with no test.

    Above it, one AND as wide as the base keeps the goals inside level
    1's union; their ranks name the ``owners`` to test, one small-int test
    each, ``mask & q == mask``. Nothing negates a set as wide as the base.
    `answer_query` calls the same helper."""
    h.level(j)
    if goals.level_index != 0:
        raise LevelMismatch(f"level {goals.level_index} vs level 0")
    level1 = h.grounding_index[0] if j else None
    q = level1.ranks(goals.bits & level1.union) if j else 0
    members = _goal_members(h, j, goals, q)
    if not members:
        raise NoMatch(f"no state grounds inside the goal set at level {j}")
    return GroundingSet(j, members)


# ---------------------------------------------------------------------------
# plan search
# ---------------------------------------------------------------------------


def _charge(record: InstrumentationRecord | None, j: int, ops: int) -> None:
    """Add a plan search's edge examinations at level ``j`` to ``record``."""
    if record is not None:
        record.plan_ops[j] = ops
        record.total_ops += ops


def _require_level(level, starts: GroundingSet, goals: GroundingSet) -> int:
    """The index of ``level``; LevelMismatch unless ``starts`` and
    ``goals`` are both over it."""
    j = level.level_index
    if starts.level_index != j or goals.level_index != j:
        raise LevelMismatch(
            f"sets over levels {starts.level_index} and {goals.level_index}, "
            f"searched level {j}"
        )
    return j


def findplan(
    level,
    starts: GroundingSet,
    goals: GroundingSet,
    record: InstrumentationRecord | None = None,
) -> Option | None:
    """Feasibility planning: an option over ``level`` named ``plan@j``
    whose policy reaches ``goals`` from every state in ``starts``, its
    initiation and termination sets, or None when some start cannot
    reach any goal. LevelMismatch when either set is over another level;
    MalformedInput when ``starts`` is empty.

    One backward breadth-first pass from ``goals``. The full backward
    closure of the goal set is computed, so the policy covers every state
    that can reach a goal, not just the requested starts. While the
    states at depth ``d - 1`` are expanded, a state's policy action is
    written when it is first reached at depth ``d``, and rewritten only
    by another edge at that depth whose action comes earlier in
    ``level.actions``. So each state keeps the first declared
    action that steps one closer, whatever order the frontier is walked
    in, which makes plans deterministic. The edge examinations (one per
    predecessor edge of every settled state) are added to ``record`` when
    one is given.

    States are dense ids, so the search indexes the level's predecessor
    table and keeps each state's depth in a list, ``-1`` while unreached;
    ties read the level's action-rank table, built once per level. A goal
    id outside the level seeds nothing but stays in the plan's goals; a
    start id outside the level makes the result None unless it is itself
    a goal.
    """
    policy = _backward_policy(level, starts, goals, record)
    if policy is None:
        return None
    return Option(f"plan@{level.level_index}", starts, goals, policy)


def _backward_policy(
    level,
    starts: GroundingSet,
    goals: GroundingSet,
    record: InstrumentationRecord | None,
) -> dict[int, str] | None:
    """`findplan`'s search: the plan's policy, or None when some start
    cannot reach a goal."""
    j = _require_level(level, starts, goals)
    rank = level._action_rank
    preds = level._predecessors
    n = len(preds)
    dist = [-1] * n
    frontier = [g for g in goals if g < n]
    for g in frontier:
        dist[g] = 0
    policy: dict[int, str] = {}
    depth = 0
    ops = 0
    while frontier:
        depth += 1
        nxt: list[int] = []
        for t in frontier:
            edges = preds[t]
            ops += len(edges)
            for s, action in edges:
                d = dist[s]
                if d < 0:
                    dist[s] = depth
                    nxt.append(s)
                elif d != depth or rank[action] >= rank[policy[s]]:
                    continue
                policy[s] = action
        frontier = nxt
    _charge(record, j, ops)
    if any(dist[s] < 0 if s < n else s not in goals for s in starts):
        return None
    return policy


def plan_option(
    name: str, level, initiation: GroundingSet, termination: GroundingSet
) -> Option:
    """An option over ``level`` planned by `findplan`: from every state
    that can reach ``termination``, the first declared action that steps
    one closer. Every error names the option: LevelMismatch when either
    set is over another level, MalformedInput when one names a state
    outside ``level``, the initiation set is empty or some initiation
    state cannot reach ``termination``. The option is built once, after
    the search, so its sets are indexed once."""
    require_within_level(name, level, initiation, termination)
    policy = _backward_policy(level, initiation, termination, None)
    if policy is None:
        raise MalformedInput(
            f"option {name!r}: some initiation state cannot reach termination"
        )
    return Option(name, initiation, termination, policy)


def findplan_value_iteration(
    level,
    starts: GroundingSet,
    goals: GroundingSet,
    record: InstrumentationRecord | None = None,
) -> Option | None:
    """Reward-optimal variant: `findplan`'s backward search from ``goals``
    (absorbing, value zero), made FIFO label-correcting (Bellman 1958).

    A label is (value, steps); an edge ``(s, a) -> t`` offers
    ``reward[(s, a)] + gamma * value(t)`` and ``steps(t) + 1``. Values
    within ``1e-12`` tie, and ties go to fewer steps, then to the first
    action in ``level.actions``, `findplan`'s rule. A state is queued again
    when its label improves, at most ``num_states`` times: one that keeps
    improving is on or behind a reward-positive cycle. A state that
    improves once its queue budget is spent cannot pass the improvement
    on, so it and every non-goal state behind it hold stale labels. None
    when some start has no value or a stale one, or when the policy,
    walked through the level's transition table, does not lead every
    start into ``goals``. Each predecessor edge examined counts one
    operation in ``record``, when one is given. Ids outside the level
    follow `findplan`'s rule, and so do the errors and the plan returned.

    As in `findplan`, states are dense ids: each state's value, step
    count, queue count and waiting and stale flags are held in lists of
    length ``num_states``, an edge's reward is read by the predecessor
    table's own key, and ties read the level's action-rank table, built
    once per level. A goal is a state labelled with 0 steps.
    """
    j = _require_level(level, starts, goals)
    rank = level._action_rank
    preds = level._predecessors
    reward = level.reward
    gamma = level.gamma
    n = len(preds)  # the level's states, and each state's queue budget
    # per state: its label (value, steps; steps -1 while unlabelled, 0 at
    # a goal), how often it was queued, and whether it waits in the queue now
    value = [0.0] * n
    steps = [-1] * n
    times_queued = [0] * n
    waiting = [False] * n
    is_stale = [False] * n
    stale: list[int] = []
    policy: dict[int, str] = {}
    # goal ids outside the level keep their label but are never queued
    queue = deque(g for g in goals if g < n)
    for g in queue:
        steps[g] = 0
        waiting[g] = True
    ops = 0
    while queue:
        t = queue.popleft()
        waiting[t] = False
        edges = preds[t]
        ops += len(edges)
        offered = gamma * value[t]
        k = steps[t] + 1
        for edge in edges:
            s = edge[0]
            old = steps[s]
            if old == 0:  # a goal
                continue
            v = reward[edge] + offered
            if old > 0:
                if abs(v - value[s]) <= 1e-12:
                    if k > old:
                        continue
                    if k == old:  # same label, so no need to queue s
                        action = edge[1]
                        if rank[action] < rank[policy[s]]:
                            policy[s] = action
                        continue
                elif v < value[s]:
                    continue
            value[s] = v
            steps[s] = k
            policy[s] = edge[1]
            if waiting[s]:
                continue
            if times_queued[s] < n:
                times_queued[s] += 1
                waiting[s] = True
                queue.append(s)
            elif not is_stale[s]:
                is_stale[s] = True
                stale.append(s)
    # a goal's label never depends on its successors, so staleness stops there
    while stale:
        edges = preds[stale.pop()]
        ops += len(edges)
        for s, _ in edges:
            if not (is_stale[s] or steps[s] == 0):
                is_stale[s] = True
                stale.append(s)
    _charge(record, j, ops)
    if any(
        (steps[s] < 0 or is_stale[s]) if s < n else s not in goals for s in starts
    ):
        return None
    plan = Option(f"plan@{j}", starts, goals, policy)
    try:
        for s in starts:
            _execute_into(level, plan, s, [s])
    except HierplanError:
        return None
    return plan


# ---------------------------------------------------------------------------
# top-down query answering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanAnswer:
    plan: Option
    record: InstrumentationRecord

    @property
    def level_index(self) -> int:
        """The level the plan lives at."""
        return self.plan.level_index


def answer_query(
    h: Hierarchy,
    query: PlanQuery,
    at_level: int | None = None,
    plan_mode: str = "reachability",
) -> PlanAnswer | None:
    """Find the highest level that both matches and solves the query.

    Levels are tried from the top (or from ``at_level``) downwards. A
    level is attempted only when its unique maximal candidate pair
    brackets the query: its goals are matched first, and its starts only
    when they match, by the helpers the candidate functions call. A
    failed plan attempt at a matching level falls through to the next
    level down. Returns None when even the base MDP has no plan, and
    LevelOutOfRange when ``h`` lacks ``at_level``. The instrumentation
    record accounts for all matching and planning work performed.
    """
    top = h.num_levels if at_level is None else at_level
    h.level(top)
    if plan_mode not in ("reachability", "value-iteration"):
        raise MalformedInput(f"unknown plan mode {plan_mode!r}")
    search = findplan if plan_mode == "reachability" else findplan_value_iteration
    record = InstrumentationRecord(search_top=top)
    clock = time.perf_counter()
    # ranks over level 1's union, the goals once, the starts once (-1: not yet)
    level1 = h.grounding_index[0] if top else None
    goal_q = level1.ranks(query.goals.bits & level1.union) if top else 0
    start_q = -1
    for j in range(top, -1, -1):
        start_members = None
        goal_members = _goal_members(h, j, query.goals, goal_q)
        if goal_members:
            if j and start_q == -1:
                start_q = level1.ranks(query.starts.bits)
            start_members = _start_members(h, j, query.starts, start_q)
        # no test at level 0; above it, one per state for each candidate
        record.match_ops[j] = 2 * h.num_states(j) if j else 0
        record.total_ops += record.match_ops[j]
        now = time.perf_counter()
        record.match_seconds += now - clock
        clock = now
        if start_members is None:
            continue
        if record.first_match_level is None:
            record.first_match_level = j
        pair = GroundingSet(j, start_members), GroundingSet(j, goal_members)
        plan = search(h.level(j), *pair, record=record)
        now = time.perf_counter()
        record.plan_seconds += now - clock
        clock = now
        if plan is not None:
            record.solution_level = j
            return PlanAnswer(plan, record)
    return None


# ---------------------------------------------------------------------------
# refinement to base actions
# ---------------------------------------------------------------------------


def _localize(h: Hierarchy, j: int, candidates: GroundingSet, base_state: int) -> int:
    """The lowest candidate level-``j`` state grounding ``base_state``:
    above level 0, the owners of the base state's rank in the level's
    `GroundingIndex`, ANDed with the candidates, then the lowest bit read.
    A candidate the level lacks owns nothing."""
    if j == 0:
        if base_state in candidates:
            return base_state
    else:
        index = h.grounding_index[j - 1]
        rank = index.position.get(base_state)
        if rank is not None:
            hits = index.owners[rank] & candidates.bits
            if hits:
                return (hits & -hits).bit_length() - 1
    raise RefinementFault(
        f"base state {base_state} not grounded by any candidate at level {j}"
    )


def _walk(h: Hierarchy, j: int, option: Option, states: Sequence[int],
          cursor: list[int], visited: list[int], total: float) -> float:
    """Refine a run of ``option`` over level ``j`` from the states it
    leaves, ``states``, in order, from ``cursor[j - 1]``; returns
    ``total`` plus the reward of each base run, added in order.

    Nothing is executed here: the edge ``(s, part id)`` the option applies
    at each state (its policy action, or the part `resolve_part` finds for
    an option id) names the lower run, recorded from the cursor when the
    hierarchy was built (`hierarchy.record_runs`) as `execute_option`'s
    trace, whose end moves ``cursor[j - 1]``. Over the base a run's
    entered states are appended to ``visited``; above it, the part's
    option is refined one level down the same way from the states its run
    leaves. A recorded error is raised as the RefinementFault
    ``execute_option``'s loop would cause; a cursor outside the edge's
    grounding, which only a hierarchy `validate` rejects can produce, is a
    RefinementFault too."""
    level = h.levels_above[j - 1]
    runs = h.lower_runs[j - 1]
    policy, transition = option.policy, level.transition
    for s in states:
        pid = policy[s]
        if (s, pid) not in transition:
            pid = level.resolve_part(s, pid)
        x = cursor[j - 1]
        run = runs.get((s, pid, x))
        if run is None:
            raise RefinementFault(
                f"level-{j - 1} state {x} is outside the grounding of "
                f"level-{j} state {s}, so part {pid} has no run from it"
            )
        if isinstance(run, HierplanError):
            raise RefinementFault(str(run)) from run
        cursor[j - 1] = run.end
        if j == 1:
            visited.extend(run.visited[1:])
            total += run.cumulative_reward
        else:
            total = _walk(
                h, j - 1, level.part(pid).option, run.visited[:-1], cursor, visited, total
            )
    return total


def refine(h: Hierarchy, option: Option, start: int) -> ExecutionTrace:
    """Execute an option over any level of ``h`` as a base-action trace.

    The option runs over the level its sets name; a plan at level ``j``
    is such an option. Some initiation state must ground the base state
    ``start``. The cursor at each level below is localized once, then
    advanced with the level's own transition map (never re-localized),
    which is exactly the no-backtracking refinement the hierarchy's
    soundness invariants guarantee. LevelOutOfRange when the option is
    over a level ``h`` lacks. The option's run over its own level is made
    whole with `execute_option`'s loop, with its checks and step bound,
    before any of its steps is refined. Below that level nothing runs:
    the states the run leaves go straight to `_walk`, which reads each
    step's lower run from the hierarchy's table, where construction
    recorded `execute_option`'s trace. So a fault is the one
    `execute_option` raises at the level where it occurs, surfaced as
    RefinementFault. At level 0 the option's own run is the trace.
    """
    j = option.level_index
    level = h.level(j)
    cursor = [start] * (j + 1)
    cursor[j] = _localize(h, j, option.initiation, start)
    for i in range(j, 1, -1):
        cursor[i - 1] = _localize(
            h, i - 1, h.levels_above[i - 1].grounding_of(cursor[i]), start
        )
    states = [cursor[j]]
    try:
        _, total = _execute_into(level, option, cursor[j], states)
    except HierplanError as exc:
        raise RefinementFault(str(exc)) from exc
    visited = states
    if j:
        visited = [start]
        total = _walk(h, j, option, states[:-1], cursor, visited, 0.0)
    return ExecutionTrace(start, visited[-1], len(visited) - 1, total, tuple(visited))
