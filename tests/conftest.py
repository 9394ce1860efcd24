"""Shared fixtures and independent oracles for the test suite.

The oracles here (grid shortest paths, brute-force state enumeration,
random query and domain generation, the bracketing test, refinement by
composition) are deliberately written from scratch rather than reusing
library code, so tests check the implementation against an independent
computation of the same quantity.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from hierplan import (
    BaseMDP,
    ExecutionTrace,
    GroundingSet,
    Option,
    PlanQuery,
    RewardMode,
    StateSpace,
    Variable,
    benchmark_queries,
    build_hierarchy,
    build_taxi,
    build_taxi_hierarchy,
)
from hierplan.domain_io import OptionSetSpec, OptionSpec
from hierplan.errors import (
    HierplanError,
    LevelMismatch,
    LevelOutOfRange,
    NoMatch,
    NotInInitiationSet,
    RefinementFault,
    StepBoundExceeded,
    UndefinedPolicy,
)
from hierplan.planner import action_sequence
from hierplan.taxi import TaxiLayout, expand_constraints

DEPOTS = {"red": (0, 4), "green": (4, 4), "blue": (3, 0), "yellow": (0, 0)}

# an open 8x8 grid with a depot in each corner
OPEN_8X8 = TaxiLayout(
    width=8,
    height=8,
    depots=(("red", (0, 7)), ("green", (7, 7)), ("blue", (7, 0)), ("yellow", (0, 0))),
)

# canonical wall segments, written out independently of the layout data
WALL_PAIRS = {
    frozenset({(1, 4), (2, 4)}),
    frozenset({(1, 3), (2, 3)}),
    frozenset({(0, 1), (1, 1)}),
    frozenset({(0, 0), (1, 0)}),
    frozenset({(2, 1), (3, 1)}),
    frozenset({(2, 0), (3, 0)}),
}


def oracle_grid_distance(a, b, size=5, walls=WALL_PAIRS):
    """Shortest walk length between two cells, by plain frontier
    expansion over a ``size`` x ``size`` grid (by default the walled
    5x5 map)."""
    if a == b:
        return 0
    frontier = {a}
    seen = {a}
    steps = 0
    while frontier:
        steps += 1
        nxt = set()
        for x, y in frontier:
            for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                cell = (x + dx, y + dy)
                if not (0 <= cell[0] < size and 0 <= cell[1] < size):
                    continue
                if frozenset({(x, y), cell}) in walls:
                    continue
                if cell == b:
                    return steps
                if cell not in seen:
                    seen.add(cell)
                    nxt.add(cell)
        frontier = nxt
    raise AssertionError(f"no path {a} -> {b}")


def oracle_taxi_states():
    """All valid taxi assignments, enumerated directly."""
    cells = [(x, y) for x in range(5) for y in range(5)]
    out = [(tx, ty, px, py, False) for tx, ty in cells for px, py in cells]
    riding = [(tx, ty, tx, ty, True) for tx, ty in cells]
    return out + riding


def oracle_taxi_transitions(mdp, layout):
    """The taxi transition items in table order, worked out state by
    state from each assignment: the layout's bounds and walls give the
    moved cell, and ``state_of`` looks up each successor."""
    space = mdp.space
    moves = (("move-north", 0, 1), ("move-south", 0, -1),
             ("move-east", 1, 0), ("move-west", -1, 0))
    items = []
    for sid in space.states:
        tx, ty, px, py, riding = space.assignment(sid)
        for name, dx, dy in moves:
            cell = (tx + dx, ty + dy)
            if not layout.in_bounds(cell) or layout.blocked((tx, ty), cell):
                cell = (tx, ty)
            nx, ny = cell
            after = (nx, ny, nx, ny, True) if riding else (nx, ny, px, py, False)
            items.append(((sid, name), space.state_of(after)))
        if not riding and (tx, ty) == (px, py):
            items.append(((sid, "pick-up"), space.state_of((tx, ty, tx, ty, True))))
        if riding:
            items.append(((sid, "put-down"), space.state_of((tx, ty, tx, ty, False))))
    return items


def value_of(space, state, var):
    """The value of variable ``var`` in a factored ``state``."""
    return space.assignment(state)[space.variable_names().index(var)]


@dataclass(frozen=True)
class MatchPair:
    """Candidate start/goal state sets at one level."""

    level_index: int
    starts: GroundingSet
    goals: GroundingSet


def plan_match(h, pair, query):
    """True when the pair brackets the query: the query's starts lie
    inside the pair's grounded starts, and the pair's grounded goals lie
    inside the query's goals. This is the definition the candidate sets
    `answer_query` builds are checked against."""
    grounded_starts = h.final_ground(pair.level_index, pair.starts)
    grounded_goals = h.final_ground(pair.level_index, pair.goals)
    if pair.goals.is_empty():
        return False
    return query.starts.issubset(grounded_starts) and grounded_goals.issubset(
        query.goals
    )


def one_step_preimage_options(mdp):
    """One subgoal option per state: initiation is the state's one-step
    preimage, the policy applies any action reaching it, termination is
    the state itself.

    Wrapping every primitive transition this way yields an abstraction
    whose plan graph mirrors the base MDP's successor structure.
    """
    lvl = mdp.level_index
    by_target: dict[int, dict[int, str]] = {}
    for (s, a), t in sorted(mdp.transition.items()):
        by_target.setdefault(t, {}).setdefault(s, a)
    options = []
    for target in sorted(by_target):
        policy = by_target[target]
        options.append(
            Option(
                name=f"reach-{mdp.space.label(target)}",
                initiation=GroundingSet.of(lvl, policy),
                termination=GroundingSet.single(lvl, target),
                policy=policy,
            )
        )
    return options


def oracle_widened_groundings(below, parts):
    """`build_plan_graph`'s node groundings as they were computed, with
    one ``in`` test per state and part initiation: the states whose
    membership pattern across the initiations matches each part's terminal
    state's."""
    inits = [p.initiation for p in parts]
    by_profile = {}
    for s in below.space.states:
        by_profile.setdefault(tuple(s in i for i in inits), []).append(s)
    return [by_profile.get(tuple(p.terminal_state in i for i in inits), []) for p in parts]


def taxi_domain(layout):
    """The taxi over ``layout`` as a domain file's JSON object: the base
    transitions of `build_taxi`, and both option sets written out here
    from the layout's depots, with seeds and no policies."""
    mdp = build_taxi(layout)
    assignments = mdp.space.assignments
    ids = {asg: sid for sid, asg in enumerate(assignments)}

    def at(prefix, cell):
        return {f"{prefix}-x": cell[0], f"{prefix}-y": cell[1]}

    cells = [cell for _, cell in layout.depots]
    level1 = [
        {"name": f"drive-to-{name}", "initiation": {}, "termination": at("taxi", cell)}
        for name, cell in layout.depots
    ] + [
        {
            "name": "pick-up",
            "initiation": [
                sid for sid, (tx, ty, px, py, _) in enumerate(assignments)
                if (tx, ty) == (px, py)
            ],
            "termination": {"in-taxi": True},
        },
        {"name": "put-down", "initiation": {}, "termination": {"in-taxi": False}},
    ]
    level2 = [
        {
            "name": f"passenger-to-{name}",
            "initiation": {"except": at("pass", cell)},
            "termination": {**at("taxi", cell), **at("pass", cell), "in-taxi": False},
        }
        for name, cell in layout.depots
    ]
    return {
        "actions": list(mdp.actions),
        "variables": [[v.name, list(v.domain)] for v in mdp.space.variables],
        "states": [list(asg) for asg in assignments],
        "transitions": [[s, a, t] for (s, a), t in mdp.transition.items()],
        "options": {
            "level1": {
                "seeds": [ids[(*t, *p, False)] for t in cells for p in cells],
                "options": level1,
            },
            "level2": level2,
        },
    }


def oracle_value_iteration(level, starts, goals, record=None):
    """`findplan_value_iteration` as it was written over a label dict, a
    `Counter` of queue counts and a ``waiting`` set, kept as the oracle
    the dense-id walk must agree with: the same policy, edge
    examinations and None-ness."""
    rank = {a: i for i, a in enumerate(level.actions)}
    preds = level._predecessors
    label: dict[int, tuple[float, int]] = dict.fromkeys(goals, (0.0, 0))
    is_goal = goals.bitstring(level.num_states)
    policy: dict[int, str] = {}
    times_queued: Counter[int] = Counter()
    # goal ids outside the level keep their label but are never queued
    queue = deque(g for g in goals if g < len(preds))
    waiting = set(queue)
    stale: set[int] = set()
    ops = 0
    while queue:
        t = queue.popleft()
        waiting.remove(t)
        value, steps = label[t]
        for s, action in preds[t]:
            ops += 1
            if is_goal[s] == "1":
                continue
            offer = (level.reward[(s, action)] + level.gamma * value, steps + 1)
            if s in label:
                old = label[s]
                if abs(offer[0] - old[0]) <= 1e-12:
                    if (offer[1], rank[action]) >= (old[1], rank[policy[s]]):
                        continue
                    if offer[1] == old[1]:  # same label, so no need to queue s
                        policy[s] = action
                        continue
                elif offer[0] < old[0]:
                    continue
            label[s] = offer
            policy[s] = action
            if s in waiting:
                continue
            if times_queued[s] < level.num_states:
                times_queued[s] += 1
                waiting.add(s)
                queue.append(s)
            else:
                stale.add(s)
    # a goal's label never depends on its successors, so staleness stops there
    todo = list(stale)
    while todo:
        for s, _ in preds[todo.pop()]:
            ops += 1
            if s not in stale and is_goal[s] != "1":
                stale.add(s)
                todo.append(s)
    if record is not None:
        record.plan_ops[level.level_index] = ops
        record.total_ops += ops
    if any(s not in label or s in stale for s in starts):
        return None
    plan = Option(f"plan@{level.level_index}", starts, goals, policy)
    try:
        for s in starts:
            action_sequence(level, plan, s)
    except RefinementFault:
        return None
    return plan


def oracle_execute(level, option, start):
    """`execute_option` as it was written before options indexed their
    sets: ``in`` on the option's initiation and termination sets, and one
    ``level.step`` per policy action. The string-indexed, table-reading
    loop must give the same trace, or the same error type and message."""
    if start not in option.initiation:
        raise NotInInitiationSet(f"option {option.name!r} from state {start}")
    bound = 10 * level.num_states
    state, total, visited = start, 0.0, [start]
    while state not in option.termination:
        action = option.policy.get(state)
        if action is None:
            raise UndefinedPolicy(f"option {option.name!r} has no action for state {state}")
        state, r = level.step(state, action)
        total += r
        visited.append(state)
        if len(visited) - 1 > bound:
            raise StepBoundExceeded(
                f"option {option.name!r} exceeded {bound} steps from state {start}"
            )
    return ExecutionTrace(start, state, len(visited) - 1, total, tuple(visited))


def base_grounding(h, j, s):
    """The base grounding of level-``j`` state ``s``, by `final_ground`."""
    return h.final_ground(j, GroundingSet.single(j, s))


def assert_index_describes_the_base_groundings(h):
    """Each abstract level's `GroundingIndex` is its base groundings as
    `final_ground` composes them, ranked over level 1's: the union of
    every level-1 state's, each grounded id's rank in ascending order, and
    each state's mask the ranks of its own. ``owners`` is the transpose of
    the masks, ``cover`` their OR, and ``empty`` the states whose mask is
    0."""
    for j in range(1, h.num_levels + 1):
        index = h.grounding_index[j - 1]
        level1 = h.grounding_index[0]
        everything = GroundingSet.of(1, range(h.num_states(1)))
        assert GroundingSet(0, index.union) == h.final_ground(1, everything)
        assert index.position == level1.position
        assert list(index.position) == list(GroundingSet(0, index.union))
        assert list(index.position.values()) == list(range(len(index.position)))
        assert list(index.masks) == list(range(h.num_states(j)))
        for s in range(h.num_states(j)):
            ranks = {index.position[x] for x in base_grounding(h, j, s)}
            assert index.masks[s] == sum(1 << r for r in ranks)
        assert len(index.owners) == len(index.position)
        for r, owners in enumerate(index.owners):
            assert owners == sum(1 << s for s, m in index.masks.items() if m >> r & 1)
        cover = 0
        for m in index.masks.values():
            cover |= m
        assert index.cover == cover
        assert index.empty == sum(1 << s for s, m in index.masks.items() if not m)


def oracle_candidate_starts(h, j, starts):
    """`candidate_starts` as it was written before each level indexed its
    base groundings: one ``.bits`` test per state, covering ``starts``
    with the union of the groundings that meet it."""
    if not 0 <= j <= h.num_levels:
        raise LevelOutOfRange(f"level {j} not in 0..{h.num_levels}")
    if j == 0:
        members, covered = starts.bits, (1 << h.num_states(0)) - 1
    else:
        members = covered = 0
        for s in range(h.num_states(j)):
            g = base_grounding(h, j, s)
            if g.bits & starts.bits:
                members |= 1 << s
                covered |= g.bits
    if not starts <= GroundingSet(0, covered):
        raise NoMatch(f"start set not covered at level {j}")
    return GroundingSet(j, members)


def oracle_candidate_goals(h, j, goals):
    """`candidate_goals` as it was written before each level indexed its
    base groundings: one subset test per state."""
    if not 0 <= j <= h.num_levels:
        raise LevelOutOfRange(f"level {j} not in 0..{h.num_levels}")
    if j == 0:
        members = (goals & GroundingSet(0, (1 << h.num_states(0)) - 1)).bits
    elif goals.level_index != 0:
        raise LevelMismatch(f"level {goals.level_index} vs level 0")
    else:
        members = sum(
            1 << s
            for s in range(h.num_states(j))
            if base_grounding(h, j, s) <= goals
        )
    if not members:
        raise NoMatch(f"no state grounds inside the goal set at level {j}")
    return GroundingSet(j, members)


def oracle_localize(h, j, candidates, base_state):
    """The lowest candidate level-``j`` state grounding ``base_state``, by
    one ``in`` test on each candidate's base grounding; RefinementFault
    when none grounds it."""
    if j == 0:
        found = [base_state] if base_state in candidates else []
    else:
        found = [s for s in candidates if base_state in base_grounding(h, j, s)]
    if not found:
        raise RefinementFault(f"base state {base_state} grounded by no candidate at {j}")
    return found[0]


def oracle_refine(h, option, start):
    """Refine ``option`` from base state ``start`` by composing whole
    option executions: run it over its own level with `oracle_execute`,
    then for each state it visits run the option of the part applied
    there one level down the same way, and concatenate the base traces in
    order. Each level's cursor is first placed on the lowest candidate
    state grounding ``start``, then only moves with that level's
    executions. Every fault is a RefinementFault."""
    top = option.level_index
    cursor = [start] * (top + 1)
    cursor[top] = oracle_localize(h, top, option.initiation, start)
    for j in range(top, 1, -1):
        cursor[j - 1] = oracle_localize(h, j - 1, h.level(j).grounding_of(cursor[j]), start)
    segments = []

    def run(j, opt):
        level = h.level(j)
        try:
            trace = oracle_execute(level, opt, cursor[j])
        except HierplanError as exc:
            raise RefinementFault(str(exc)) from exc
        if j == 0:
            segments.append(trace)
        else:
            for s in trace.visited[:-1]:
                run(j - 1, level.part(level.resolve_part(s, opt.policy[s])).option)
        cursor[j] = trace.end

    run(top, option)
    visited, total = [start], 0.0
    for seg in segments:
        assert seg.visited[0] == visited[-1], "each base run starts where the last ended"
        visited.extend(seg.visited[1:])
        total += seg.cumulative_reward
    return ExecutionTrace(start, visited[-1], len(visited) - 1, total, tuple(visited))


@pytest.fixture(scope="session")
def taxi_mdp():
    return build_taxi()


@pytest.fixture(scope="session")
def taxi_hierarchy():
    return build_taxi_hierarchy()


@pytest.fixture(scope="session")
def queries(taxi_hierarchy):
    return benchmark_queries(taxi_hierarchy.base)


@pytest.fixture()
def fresh_hierarchy():
    """A hierarchy of its own, for tests that modify it in place."""
    return build_taxi_hierarchy()


def state_of(mdp, tx, ty, px, py, riding=False):
    sid = mdp.space.state_of((tx, ty, px, py, riding))
    assert sid is not None
    return sid


def random_query(mdp, rng: random.Random) -> PlanQuery | None:
    """One uniformly drawn variable-constraint query, or None when a draw
    produces an empty side."""

    def constraint_side():
        spec = {}
        taxi_choice = rng.randrange(4)
        if taxi_choice == 1:
            spec["taxi-at"] = rng.choice(sorted(DEPOTS))
        elif taxi_choice == 2:
            spec["taxi-at"] = "any-depot"
        elif taxi_choice == 3:
            spec["taxi-at"] = [rng.randrange(5), rng.randrange(5)]
        pass_choice = rng.randrange(4)
        if pass_choice == 1:
            spec["pass-at"] = rng.choice(sorted(DEPOTS))
        elif pass_choice == 2:
            spec["pass-at"] = "any-depot"
        elif pass_choice == 3:
            spec["pass-at"] = [rng.randrange(5), rng.randrange(5)]
        ride_choice = rng.randrange(3)
        if ride_choice == 1:
            spec["in-taxi"] = False
        elif ride_choice == 2:
            spec["in-taxi"] = True
        return expand_constraints(mdp, spec)

    starts = constraint_side()
    goals = constraint_side()
    if starts.is_empty() or goals.is_empty():
        return None
    return PlanQuery(starts, goals)


def random_queries(mdp, count: int, seed: int = 20250810):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = random_query(mdp, rng)
        if q is not None:
            out.append(q)
    return out


@st.composite
def random_domains(draw):
    """A deterministic domain of 2-6 states with partial ``a``/``b``
    transitions, a reward mode, and a query's start and goal sets."""
    n = draw(st.integers(2, 6))
    transition = {}
    for s in range(n):
        for a in ("a", "b"):
            t = draw(st.none() | st.integers(0, n - 1))
            if t is not None:
                transition[(s, a)] = t
    states = st.sets(st.integers(0, n - 1), min_size=1)
    return n, transition, draw(st.sampled_from(RewardMode)), draw(states), draw(states)


# the rewards and discounts random domains draw from
REWARDS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)
GAMMAS = (1.0, 0.9, 0.5)

FACTORED_VARIABLES = (
    Variable("x", (0, 1, 2)),
    Variable("y", (0, 1)),
    Variable("z", (False, True)),
)


@st.composite
def random_factored_domains(draw):
    """A factored base MDP, a stack of one or two option sets over it and
    a reward mode. The base has two or three variables of
    `FACTORED_VARIABLES`, a random nonempty subset of their assignments
    as states, and partial ``a``/``b``/``c`` transitions with drawn
    rewards and gamma. The first set has one to four (initiation,
    termination) id pairs with no policies, and closure seeds. When it
    builds level 1, a second set over level 1 follows
    (`level_option_sets`)."""
    variables = tuple(
        draw(st.permutations(FACTORED_VARIABLES))[: draw(st.integers(2, 3))]
    )
    every = list(itertools.product(*(v.domain for v in variables)))
    kept = draw(st.sets(st.integers(0, len(every) - 1), min_size=1))
    assignments = tuple(every[i] for i in sorted(kept))
    n = len(assignments)
    transition = {}
    for s in range(n):
        for a in ("a", "b", "c"):
            t = draw(st.none() | st.integers(0, n - 1))
            if t is not None:
                transition[(s, a)] = t
    mdp = BaseMDP(
        space=StateSpace(
            level_index=0, num_states=n, variables=variables, assignments=assignments
        ),
        actions=("a", "b", "c"),
        transition=transition,
        reward={edge: draw(st.sampled_from(REWARDS)) for edge in sorted(transition)},
        gamma=draw(st.sampled_from(GAMMAS)),
    )
    ids = st.sets(st.integers(0, n - 1), min_size=1).map(sorted)
    pairs = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=4))
    sets = [
        OptionSetSpec(
            tuple(OptionSpec(f"o{i}", a, b) for i, (a, b) in enumerate(pairs)),
            seeds=draw(ids),
        )
    ]
    mode = draw(st.sampled_from(RewardMode))
    try:
        h = build_hierarchy(mdp, sets, mode)
    except HierplanError:
        return mdp, sets, mode
    sets.append(draw(level_option_sets(h.level(1))))
    return mdp, sets, mode


@st.composite
def level_option_sets(draw, level):
    """An option set over abstract ``level`` with closure seeds: one to
    three `drawn_option_spec` options of (initiation, termination) pairs,
    and the seeds. Each set is a nonempty id list or, over a factored
    level, a constraint object holding each variable to a drawn value or
    leaving it free."""
    space = level.space
    sets = st.sets(st.integers(0, space.num_states - 1), min_size=1).map(sorted)
    if space.is_factored:
        sets |= st.tuples(
            *(st.none() | st.sampled_from(v.domain) for v in space.variables)
        ).map(
            lambda values: {
                v.name: x for v, x in zip(space.variables, values) if x is not None
            }
        )
    pairs = draw(st.lists(st.tuples(sets, sets), min_size=1, max_size=3))
    return OptionSetSpec(
        tuple(
            drawn_option_spec(draw, level, f"p{i}", a, b)
            for i, (a, b) in enumerate(pairs)
        ),
        seeds=draw(sets),
    )


def drawn_option_spec(draw, level, name, initiation, termination):
    """Option ``name`` over ``level``. Over an abstract level it draws
    whether to carry a written `drawn_policy`; one with entries starts
    from the states it names, those it leads into ``termination``. The
    builder plans every other policy."""
    if not level.level_index or not draw(st.booleans()):
        return OptionSpec(name, initiation, termination)
    policy = drawn_policy(draw, level, termination)
    return OptionSpec(name, sorted(policy) or initiation, termination, policy)


def drawn_policy(draw, level, termination):
    """A written policy over abstract ``level`` that reaches
    ``termination`` (an id list, an ``except`` object or a constraint
    object without one) from every state that can. Each such state
    outside it names the option of a drawn part that steps to a state
    one step closer, found by searching the level's transitions
    backwards. A planned policy names the part itself; the level
    resolves the option id to that same part, since parts of one option
    have disjoint initiations."""
    space = level.space
    if isinstance(termination, list):
        closer = set(termination)
    elif "except" in termination:
        closer = set(space.states) - set(termination["except"])
    else:
        names = space.variable_names()
        closer = {
            s
            for s in space.states
            if all(space.assignment(s)[names.index(k)] == v for k, v in termination.items())
        }
    policy = {}
    while True:
        steps: dict[int, list[str]] = {}
        for (s, part_id), t in level.transition.items():
            if t in closer and s not in closer:
                steps.setdefault(s, []).append(part_id)
        if not steps:
            return policy
        for s, part_ids in sorted(steps.items()):
            policy[s] = level.part(draw(st.sampled_from(part_ids))).option.name
        closer |= steps.keys()


def draw_option_set(data, level, prefix):
    """An option set over ``level``, drawn with hypothesis' ``data``: one
    to three `drawn_option_spec` options of (initiation, termination)
    pairs, each set an id list or an ``except`` object naming its
    complement."""
    num_states = level.num_states
    ids = st.sets(st.integers(0, num_states - 1), min_size=1).map(sorted)
    spec = ids | ids.map(
        lambda kept: {"except": [s for s in range(num_states) if s not in kept]}
    )
    pairs = data.draw(st.lists(st.tuples(spec, spec), min_size=1, max_size=3))
    return OptionSetSpec(
        tuple(
            drawn_option_spec(data.draw, level, f"{prefix}{i}", a, b)
            for i, (a, b) in enumerate(pairs)
        )
    )
