"""Representation acquisition: from an option set over one level to the
abstract MDP of the next level.

Each option is partitioned into parts, and a part is its data: the
``effect_values`` it sets, (variable, value) pairs that every start in
the part ends with while every other variable stays unchanged, and, when
those pairs name every variable of the level, the one ``terminal_state``
all its starts reach. A part with a terminal state is a subgoal; over an
unfactored level there are no variables, so every part is one.
`build_level` partitions each option once and builds the next level,
its rewards included, in one of two ways:

* every part is a subgoal: a plan graph, one abstract state per part,
  with an edge ``i -> j`` whenever part ``i``'s terminal state lies in
  part ``j``'s initiation set;
* otherwise, over a factored space: the seed states' closure over lower
  states, each part taking a state of its initiation set to the lower
  state whose assignment is the start's with the part's effect values
  written over it.

Groundings of plan-graph nodes are widened from the terminal state to all
lower states with the same initiation-membership profile, which keeps
applicability sound (edge existence already implies the widened set lies
inside every usable initiation set) while letting node groundings cover
every state the node is interchangeable with. A factored-level state
copies one lower state's assignment and grounds to that state alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .core import (
    Assignment,
    BaseMDP,
    Option,
    StateSpace,
    default_step_bound,
    require_within_level,
)
from .errors import (
    EmptyOptionSet,
    InapplicableAction,
    InvalidSeed,
    LevelMismatch,
    MalformedInput,
    NoFactoredStructure,
    NoSubgoalStructure,
    PartitionExplosion,
    StepBoundExceeded,
    UndefinedPolicy,
    UnknownName,
)
from .symbols import GroundingSet

DEFAULT_PART_LIMIT = 64


# ---------------------------------------------------------------------------
# option parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptionPart:
    """An option restricted to a subset of its initiation states.

    The part shares the parent option's policy; only the initiation set
    shrinks. ``effect_values`` lists, in name order, the variables the
    part sets and their values: execution from every start in the part
    ends with each of them at its value and every other variable
    unchanged. When those variables are all of the level's (always, over
    an unfactored level) the part is a subgoal: ``terminal_state`` is the
    one state all its starts reach. ``mean_return`` is the parent option's
    mean return over its whole initiation set, zero-step starts included.
    """

    part_id: str
    option: Option
    initiation: GroundingSet
    mean_return: float
    terminal_state: int | None = None
    effect_values: tuple[tuple[str, Any], ...] = ()


def _terminal_map(option: Option, level) -> tuple[dict[int, int], float]:
    """Terminal state for every initiation state, keyed in ascending start
    order, and the option's mean return over those starts.

    Execution is deterministic, so a state's terminal state and return
    follow from its policy successor's: each state's continuation is
    simulated once per option and memoized. The result is that of one
    ``execute_option`` per initiation state in ascending order: the mean
    is updated incrementally once per start, in that order, and the first
    failing start raises the same error (a policy cycle exceeds the step
    bound). An option whose initiation or termination names a state
    outside the level raises MalformedInput before any simulation.
    Termination is read off the option's own membership string and each
    step off the level's tables, as in `execute_option`.
    """
    require_within_level(option.name, level, option.initiation, option.termination)
    n = level.num_states
    bound = default_step_bound(level)
    stop = option._termination_bits
    width = len(stop)
    policy = option.policy
    transition = level.transition
    reward = level.reward
    end = [-1] * n  # -1: not yet known, -2: on the walk being followed
    ret = [0.0] * n
    terminals: dict[int, int] = {}
    mean = 0.0
    for start in option.initiation:
        s = start
        walk: list[tuple[int, float]] = []
        while end[s] < 0:
            if end[s] == -2:
                raise StepBoundExceeded(
                    f"option {option.name!r} exceeded {bound} steps from state {start}"
                )
            if s < width and stop[s] == "1":
                end[s] = s
                break
            action = policy.get(s)
            if action is None:
                raise UndefinedPolicy(
                    f"option {option.name!r} has no action for state {s}"
                )
            end[s] = -2
            key = (s, action)
            nxt = transition.get(key)
            if nxt is None:
                nxt, r = level.step(s, action)
            else:
                r = reward[key]
            walk.append((s, r))
            s = nxt
        e, g = end[s], ret[s]
        for p, r in reversed(walk):
            g = r + g
            end[p], ret[p] = e, g
        terminals[start] = e
        mean += (g - mean) / len(terminals)
    return terminals, mean


def compute_effect_set(option: Option, level) -> GroundingSet:
    """The option's effect set: simulate from every initiation state and
    collect the terminal states."""
    terminals, _ = _terminal_map(option, level)
    return GroundingSet.of(option.level_index, set(terminals.values()))


_MANY = object()  # a variable that ends at more than one value


class _Summary(NamedTuple):
    """What classification reads from a set of (start, terminal) pairs.

    Merging the summaries of two pair sets gives the summary of their
    union, so classifying a union never revisits the pairs.
    """

    changed: frozenset[int]  # indexes of variables some start changes
    values: tuple[Any, ...]  # per variable: its one terminal value, or _MANY

    def merge(self, other: _Summary) -> _Summary:
        values = tuple(
            a if a is not _MANY and a == b else _MANY
            for a, b in zip(self.values, other.values)
        )
        return _Summary(self.changed | other.changed, values)


def _summarize_groups(
    space: StateSpace, terminals: Mapping[int, int]
) -> dict[tuple, tuple[list[tuple[int, int]], _Summary]]:
    """Group the (start, terminal) pairs over a factored space and
    summarize each group.

    The key lists (variable index, terminal value) for each changed
    variable, in name order. Pairs keep the order of ``terminals``.
    """
    groups: dict[tuple, list[tuple[int, int]]] = {}
    names = space.variable_names()
    assignments = space.assignments
    by_name = sorted(range(len(names)), key=names.__getitem__)
    for s, t in terminals.items():
        sa, ta = assignments[s], assignments[t]
        key = tuple([(i, ta[i]) for i in by_name if sa[i] != ta[i]])
        groups.setdefault(key, []).append((s, t))
    out = {}
    for key, pairs in groups.items():
        distinct = dict.fromkeys(t for _, t in pairs)
        columns = zip(*(assignments[t] for t in distinct))
        values = tuple(col[0] if len(set(col)) == 1 else _MANY for col in columns)
        changed = frozenset(i for i, _ in key)
        summary = _Summary(changed, values)
        out[key] = (pairs, summary)
    return out


def _classify(names: Sequence[str], summary: _Summary) -> tuple[int, ...] | None:
    """The mask, as variable indexes, that the (start, terminal) pairs a
    summary describes over a factored space classify with, or None when
    they do not classify.

    The candidate mask is the set of variables changed by at least one
    start, and the test requires constant terminal values on the mask;
    enlarging the mask can never rescue a failing candidate, so this
    single check is complete. A constant terminal with no variable or
    every variable changed gets the full mask, so the pairs form a
    subgoal; otherwise the changed variables are the tighter description
    and every other variable is left alone. Assignments are distinct, so
    the terminal is constant exactly when every terminal value is.
    """
    if _MANY not in summary.values and len(summary.changed) in (0, len(names)):
        return tuple(range(len(names)))
    if any(summary.values[i] is _MANY for i in summary.changed):
        return None
    return tuple(sorted(summary.changed))


def partition_option(option: Option, level) -> tuple[OptionPart, ...]:
    """Split the initiation set into the fewest groups this greedy pass
    finds such that each group individually classifies.

    Over a factored space, starts are first grouped by (changed
    variables, terminal values of those variables), then groups are
    folded, largest changed-set first, into the first accumulated part
    the combined pairs still classify with. Over an unfactored space the
    grouping key is the terminal state itself, so every part is a
    subgoal. Deterministic by construction. More than
    ``DEFAULT_PART_LIMIT`` parts raise PartitionExplosion.
    """
    space: StateSpace = level.space
    names = space.variable_names()
    terminals, mean_return = _terminal_map(option, level)
    part_pairs: list[list[tuple[int, int]]] = []
    masks: list[tuple[int, ...]] = []
    if not space.is_factored:
        by_end: dict[int, list[tuple[int, int]]] = {}
        for s, t in terminals.items():
            by_end.setdefault(t, []).append((s, t))
        part_pairs = [by_end[t] for t in sorted(by_end)]
        masks = [()] * len(part_pairs)
    else:
        groups = _summarize_groups(space, terminals)
        summaries: list[_Summary] = []

        def merge_order(key):
            changed = tuple(names[i] for i, _ in key)
            return (-len(changed), changed, repr(tuple(v for _, v in key)))

        for key in sorted(groups, key=merge_order):
            pairs, summary = groups[key]
            for k, existing in enumerate(summaries):
                merged = existing.merge(summary)
                mask = _classify(names, merged)
                if mask is not None:
                    part_pairs[k].extend(pairs)
                    summaries[k] = merged
                    masks[k] = mask
                    break
            else:
                mask = _classify(names, summary)
                assert mask is not None, "a group of one key must classify"
                part_pairs.append(list(pairs))
                summaries.append(summary)
                masks.append(mask)

    if len(part_pairs) > DEFAULT_PART_LIMIT:
        raise PartitionExplosion(
            f"option {option.name!r} split into {len(part_pairs)} parts "
            f"(limit {DEFAULT_PART_LIMIT})"
        )

    lvl = option.level_index
    parts = []
    multi = len(part_pairs) > 1
    for k, (pairs, mask) in enumerate(zip(part_pairs, masks)):
        end = pairs[0][1]
        parts.append(
            OptionPart(
                part_id=f"{option.name}#{k}" if multi else option.name,
                option=option,
                initiation=GroundingSet.of(lvl, [s for s, _ in pairs]),
                mean_return=mean_return,
                terminal_state=end if len(mask) == len(names) else None,
                effect_values=tuple(
                    (names[i], space.assignment(end)[i])
                    for i in sorted(mask, key=names.__getitem__)
                ),
            )
        )
    return tuple(parts)


# ---------------------------------------------------------------------------
# abstract levels
# ---------------------------------------------------------------------------


class RewardMode(enum.Enum):
    UNIFORM_PENALTY = "uniform"
    EMPIRICAL_MEAN = "empirical"


class Construction(enum.Enum):
    PLAN_GRAPH = "plan-graph"
    FACTORED = "factored"


def part_reward(part: OptionPart, mode: RewardMode) -> float:
    """The reward of every transition by ``part``: -1, or the mean return
    of the part's parent option, fixed when the part was built."""
    if mode is RewardMode.UNIFORM_PENALTY:
        return -1.0
    return part.mean_return


@dataclass(frozen=True, kw_only=True)
class AbstractLevel(BaseMDP):
    """One abstract MDP of a hierarchy: a `BaseMDP` whose actions are the
    parts of the options over the level below.

    ``actions`` holds the part ids in the order of ``parts``, and
    ``transition`` and ``reward`` are keyed by ``(s, part_id)``, so the
    base MDP's table checks guard abstract levels too. States carry
    groundings into the level below. A transition ``(s, part_id) -> s'``
    exists only when ``s``'s grounding lies inside the part's initiation
    set, and the image of the grounding under the option is contained in
    ``s'``'s grounding. ``step`` also accepts an option id, so an option
    over this level can name the options below it.
    """

    parts: tuple[OptionPart, ...]
    groundings: Mapping[int, GroundingSet]
    _by_id: dict[str, OptionPart] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _by_option: dict[str, tuple[OptionPart, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        by_id = {p.part_id: p for p in self.parts}
        if tuple(by_id) != self.actions:
            raise MalformedInput("an abstract level's actions must be its part ids")
        by_option: dict[str, list[OptionPart]] = {}
        for p in self.parts:
            by_option.setdefault(p.option.name, []).append(p)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(
            self, "_by_option", {k: tuple(v) for k, v in by_option.items()}
        )

    @property
    def construction(self) -> Construction:
        """How the level was built, read off its space."""
        if self.space.is_factored:
            return Construction.FACTORED
        return Construction.PLAN_GRAPH

    @property
    def transitions(self) -> Mapping[tuple[int, str], int]:
        """The ``transition`` table under its old name, kept because the
        benchmark code in ``perfbench/`` reads ``level.transitions``."""
        return self.transition

    def part(self, part_id: str) -> OptionPart:
        return self._by_id[part_id]

    def grounding_of(self, state: int) -> GroundingSet:
        """The stored grounding of ``state``, one level down; UnknownName
        for a state the level lacks."""
        try:
            return self.groundings[state]
        except KeyError:
            raise UnknownName(f"no state {state} at level {self.level_index}") from None

    def resolve_part(self, state: int, action_id: str) -> str | None:
        """Map an action or option id to the part id applicable in
        ``state``; parts of one option have disjoint initiations, so at
        most one applies."""
        if action_id in self._by_id and (state, action_id) in self.transition:
            return action_id
        for p in self._by_option.get(action_id, ()):
            if (state, p.part_id) in self.transition:
                return p.part_id
        return None

    def step(self, state: int, action: str) -> tuple[int, float]:
        """Apply an option, by part id or option id, as one abstract step."""
        part_id = self.resolve_part(state, action)
        if part_id is None:
            raise InapplicableAction(f"option {action!r} in abstract state {state}")
        return super().step(state, part_id)


def require_seeds_within(level, seeds: GroundingSet) -> None:
    """LevelMismatch when the seeds are over another level than
    ``level``; InvalidSeed when a seed state lies outside it."""
    if seeds.level_index != level.level_index:
        raise LevelMismatch(
            f"seeds are over level {seeds.level_index}, not {level.level_index}"
        )
    require_seed_ids(level, seeds)


def require_seed_ids(level, ids: Iterable[int]) -> None:
    """InvalidSeed at the first of ``ids`` past ``level``'s states."""
    for s in ids:
        if s >= level.num_states:
            raise InvalidSeed(f"seed state {s} outside level {level.level_index}")


def build_level(
    options: Sequence[Option],
    level,
    seeds: GroundingSet | None,
    reward_mode: RewardMode,
) -> AbstractLevel:
    """The abstract level ``options`` give over ``level``, each option
    partitioned once: the plan graph when every part is a subgoal (always
    over an unfactored level), otherwise the factored closure of
    ``seeds``. Each edge is rewarded by its part's `part_reward`.

    EmptyOptionSet for no options. LevelMismatch when the seeds, or an
    option (checked before it is simulated), are over another level than
    ``level``; InvalidSeed when a seed lies outside it, whichever way the
    level is built; NoFactoredStructure when the closure needs seeds and
    none are given.
    """
    if not options:
        raise EmptyOptionSet("add_level needs at least one option")
    if seeds is not None:
        require_seeds_within(level, seeds)
    parts = [p for o in options for p in partition_option(o, level)]
    if all(p.terminal_state is not None for p in parts):
        return _assemble(parts, level, None, reward_mode)
    if seeds is None:
        raise NoFactoredStructure("factored construction needs closure seed states")
    return _assemble(parts, level, seeds, reward_mode)


def build_plan_graph(options: Sequence[Option], level) -> AbstractLevel:
    """Abstract level whose states are the subgoal parts of ``options``,
    every edge rewarded -1.

    Node ``i`` reaches node ``j`` by part ``j`` exactly when part ``i``'s
    terminal state lies in part ``j``'s initiation set. A node grounds to
    every lower state whose initiation profile (its membership in each
    part's initiation set) is its terminal state's.
    """
    parts = [p for o in options for p in partition_option(o, level)]
    bad = [p.part_id for p in parts if p.terminal_state is None]
    if bad:
        raise NoSubgoalStructure(
            f"parts without a fixed terminal state: {', '.join(bad)}"
        )
    return _assemble(parts, level, None, RewardMode.UNIFORM_PENALTY)


def build_factored_abstraction(
    options: Sequence[Option], level, seed_states: GroundingSet
) -> AbstractLevel:
    """Abstract level over the lower space's variables: the closure of
    the seed states, in ascending order, over lower states, every edge
    rewarded -1.

    A part applies to a state of its initiation set and leads to the
    lower state whose assignment is that state's with the part's effect
    values written over it. Each abstract state copies one lower state's
    assignment and grounds to that state alone, never widened.
    """
    space: StateSpace = level.space
    if not space.is_factored:
        raise NoFactoredStructure(f"level {space.level_index} space is not factored")
    require_seeds_within(level, seed_states)
    parts = [p for o in options for p in partition_option(o, level)]
    return _assemble(parts, level, seed_states, RewardMode.UNIFORM_PENALTY)


def _assemble(
    parts: list[OptionPart], level, seeds: GroundingSet | None, mode: RewardMode
) -> AbstractLevel:
    """The level ``parts`` give over ``level``, as `build_plan_graph`
    (``seeds`` None) or `build_factored_abstraction` describe it, with
    each edge rewarded by its part's `part_reward` under ``mode``."""
    space: StateSpace = level.space
    lvl = space.level_index
    transition: dict[tuple[int, str], int] = {}
    if seeds is None:
        # profile-based widening: all lower states whose membership pattern
        # across every part initiation matches the effect set's containment
        # pattern, read per state by zipping one membership string per part
        inits = [p.initiation for p in parts]
        n = level.num_states
        by_profile: dict[tuple[str, ...], list[int]] = {}
        for s, profile in enumerate(zip(*(i.bitstring(n) for i in inits))):
            by_profile.setdefault(profile, []).append(s)
        widened = [
            GroundingSet.of(
                lvl, by_profile.get(tuple("01"[p.terminal_state in i] for i in inits), ())
            )
            for p in parts
        ]
        groundings = dict(enumerate(widened))
        for i, pi in enumerate(parts):
            for j, pj in enumerate(parts):
                if pi.terminal_state in pj.initiation:
                    transition[(i, pj.part_id)] = j
        new_space = StateSpace(
            level_index=lvl + 1,
            num_states=len(parts),
            labels=tuple(p.part_id for p in parts),
        )
    else:
        names = space.variable_names()

        def apply_part(asg: Assignment, part: OptionPart) -> Assignment:
            out = list(asg)
            for var, value in part.effect_values:
                out[names.index(var)] = value
            return tuple(out)

        # a part applies only at its own starts, where its effect values give
        # the terminal state the start reaches, so the closure stays in the space
        order = {s: i for i, s in enumerate(sorted(seeds))}
        queue = list(order)
        # walked by index, reaching the states appended while it runs;
        # popping the front would copy the rest of the queue each time
        for s in queue:
            for part in parts:
                if s not in part.initiation:
                    continue
                nxt = space.state_of(apply_part(space.assignment(s), part))
                if nxt not in order:
                    order[nxt] = len(order)
                    queue.append(nxt)
                transition[(order[s], part.part_id)] = order[nxt]
        new_space = StateSpace(
            level_index=lvl + 1,
            num_states=len(order),
            variables=space.variables,
            assignments=tuple(space.assignment(s) for s in order),
        )
        groundings = {i: GroundingSet.single(lvl, s) for s, i in order.items()}
    reward = {p.part_id: part_reward(p, mode) for p in parts}
    return AbstractLevel(
        space=new_space,
        actions=tuple(p.part_id for p in parts),
        transition=transition,
        reward={key: reward[key[1]] for key in transition},
        parts=tuple(parts),
        groundings=groundings,
        gamma=level.gamma,
    )
