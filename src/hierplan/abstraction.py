"""Representation acquisition: from an option set over one level to the
abstract MDP of the next level.

Two constructions are supported, chosen by what the options look like
after partitioning:

* every part is a subgoal (one fixed terminal state per part): a plan
  graph, one abstract state per part, with an edge ``i -> j`` whenever
  part ``i``'s effect set is contained in part ``j``'s initiation set;
* every part sets a mask of state variables to start-independent values
  and leaves the rest untouched: a factored space built by closure from
  seed assignments under the parts' (mask, effect-values) rules.

Groundings of plan-graph nodes are widened from the raw effect set to all
lower states with the same initiation-membership profile, which keeps
applicability sound (edge existence already implies the widened set lies
inside every usable initiation set) while letting node groundings cover
every state the node is interchangeable with. Factored-level groundings
are exact assignment matches and are never widened.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import islice
from typing import Any, Mapping, NamedTuple, Sequence

from .core import (
    Assignment,
    BaseMDP,
    Option,
    StateSpace,
    default_step_bound,
)
from .errors import (
    InapplicableAction,
    InvalidSeed,
    MalformedInput,
    NoFactoredStructure,
    NoSubgoalStructure,
    PartitionExplosion,
    StepBoundExceeded,
    UndefinedPolicy,
)
from .symbols import GroundingSet

DEFAULT_PART_LIMIT = 64


# ---------------------------------------------------------------------------
# option classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subgoal:
    """Terminal state is the same no matter where execution began."""


@dataclass(frozen=True)
class AbstractSubgoal:
    """Masked variables end at start-independent values; unmasked
    variables are unchanged by execution.

    An empty mask is the degenerate identity case (execution changes
    nothing for any start in the part).
    """

    mask: frozenset[str]


@dataclass(frozen=True)
class Unclassifiable:
    reason: str = ""


OptionClass = Subgoal | AbstractSubgoal | Unclassifiable


@dataclass(frozen=True)
class EffectSet:
    """All states an option may terminate in, over its initiation set."""

    option_id: str
    states: GroundingSet

    def __post_init__(self) -> None:
        if self.states.is_empty():
            raise ValueError(f"effect set of {self.option_id!r} is empty")


@dataclass(frozen=True)
class OptionPart:
    """A restriction of an option to a subset of its initiation states
    that individually passes a classification test.

    The part shares the parent option's policy; only the initiation set
    shrinks. ``mean_return`` is the parent option's mean return over its
    whole initiation set, zero-step starts included. For subgoal parts
    ``terminal_state`` is set; for abstract subgoal parts
    ``mask``/``effect_values`` describe the variable update.
    """

    part_id: str
    option: Option
    initiation: GroundingSet
    option_class: OptionClass
    effect: GroundingSet
    mean_return: float
    terminal_state: int | None = None
    mask: frozenset[str] = frozenset()
    effect_values: tuple[tuple[str, Any], ...] = ()

    @property
    def option_id(self) -> str:
        return self.option.name


@dataclass(frozen=True)
class PartitionedOption:
    option_id: str
    parts: tuple[OptionPart, ...]


def _terminal_map(option: Option, level) -> tuple[dict[int, int], float]:
    """Terminal state for every initiation state, keyed in ascending start
    order, and the option's mean return over those starts.

    Execution is deterministic, so a state's terminal state, step count
    and return follow from its policy successor's: each state's
    continuation is simulated once per option and memoized. The result is
    that of one ``execute_option`` per initiation state in ascending
    order: the mean is updated incrementally once per start, in that
    order, and the first failing start raises the same error (a policy
    cycle exceeds the step bound).
    """
    # a start may lie outside the level; every successor is a level state
    width = max(level.num_states, option.initiation.bits.bit_length())
    bound = default_step_bound(level)
    stop = option.termination.bitstring(width)
    policy = option.policy
    end = [-1] * width  # -1: not yet known, -2: on the walk being followed
    steps = [0] * width
    ret = [0.0] * width
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
            if stop[s] == "1":
                end[s] = s
                break
            action = policy.get(s)
            if action is None:
                raise UndefinedPolicy(
                    f"option {option.name!r} has no action for state {s}"
                )
            end[s] = -2
            nxt, r = level.step(s, action)
            walk.append((s, r))
            s = nxt
        e, k, g = end[s], steps[s], ret[s]
        for p, r in reversed(walk):
            k += 1
            g = r + g
            end[p], steps[p], ret[p] = e, k, g
        terminals[start] = e
        mean += (g - mean) / len(terminals)
    return terminals, mean


def compute_effect_set(option: Option, level) -> EffectSet:
    """The option's effect set: simulate from every initiation state and
    collect the terminal states."""
    terminals, _ = _terminal_map(option, level)
    return EffectSet(
        option.name,
        GroundingSet.of(option.level_index, set(terminals.values())),
    )


_MANY = object()  # a variable that ends at more than one value


class _Summary(NamedTuple):
    """What classification reads from a set of (start, terminal) pairs.

    Merging the summaries of two pair sets gives the summary of their
    union, so classifying a union never revisits the pairs.
    """

    # distinct terminal states; only "exactly one" matters, so at most two
    terminals: tuple[int, ...]
    changed: frozenset[int]  # indexes of variables some start changes
    values: tuple[Any, ...]  # per variable: its one terminal value, or _MANY

    def merge(self, other: _Summary) -> _Summary:
        terminals = self.terminals
        for t in other.terminals:
            if len(terminals) < 2 and t not in terminals:
                terminals += (t,)
        values = tuple(
            a if a is not _MANY and a == b else _MANY
            for a, b in zip(self.values, other.values)
        )
        return _Summary(terminals, self.changed | other.changed, values)


def _summarize_groups(
    space: StateSpace, terminals: Mapping[int, int]
) -> dict[tuple, tuple[list[tuple[int, int]], _Summary]]:
    """Group the (start, terminal) pairs and summarize each group.

    Over a factored space the key lists (variable index, terminal value)
    for each changed variable, in name order; otherwise it is the
    terminal state. Pairs keep the order of ``terminals``.
    """
    groups: dict[tuple, list[tuple[int, int]]] = {}
    if not space.is_factored:
        for s, t in terminals.items():
            groups.setdefault((t,), []).append((s, t))
        return {
            key: (pairs, _Summary(key, frozenset(), ()))
            for key, pairs in groups.items()
        }
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
        summary = _Summary(tuple(islice(distinct, 2)), changed, values)
        out[key] = (pairs, summary)
    return out


def _classify(space: StateSpace, summary: _Summary) -> OptionClass:
    """Classify the (start, terminal) pairs a summary describes.

    Over an unfactored space only a constant terminal classifies. Over a
    factored space the candidate mask is the set of variables changed by
    at least one start, and the test requires constant terminal values on
    the mask; enlarging the mask can never rescue a failing candidate, so
    this single check is complete. A constant terminal counts as a plain
    subgoal only when the mask is trivial (empty or every variable);
    otherwise the partial mask is the tighter description and the pairs
    classify as an abstract subgoal that leaves the unmasked variables
    alone.
    """
    one_terminal = len(summary.terminals) == 1
    if not space.is_factored:
        if one_terminal:
            return Subgoal()
        return Unclassifiable("terminal depends on start and space is not factored")
    names = space.variable_names()
    if one_terminal and len(summary.changed) in (0, len(names)):
        return Subgoal()
    for i in sorted(summary.changed):
        if summary.values[i] is _MANY:
            return Unclassifiable(f"terminal value of {names[i]!r} depends on start")
    return AbstractSubgoal(frozenset(names[i] for i in summary.changed))


def classify_option(option: Option, level) -> OptionClass:
    """Classify the whole (unpartitioned) option."""
    groups = _summarize_groups(level.space, _terminal_map(option, level)[0])
    return _classify(
        level.space, reduce(_Summary.merge, (s for _, s in groups.values()))
    )


def partition_option(option: Option, level) -> PartitionedOption:
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
    terminals, mean_return = _terminal_map(option, level)
    groups = _summarize_groups(space, terminals)
    part_pairs: list[list[tuple[int, int]]] = []
    summaries: list[_Summary] = []
    if not space.is_factored:
        for key in sorted(groups):
            pairs, summary = groups[key]
            part_pairs.append(pairs)
            summaries.append(summary)
    else:
        names = space.variable_names()

        def merge_order(key):
            changed = tuple(names[i] for i, _ in key)
            return (-len(changed), changed, repr(tuple(v for _, v in key)))

        for key in sorted(groups, key=merge_order):
            pairs, summary = groups[key]
            for k, existing in enumerate(summaries):
                merged = existing.merge(summary)
                if not isinstance(_classify(space, merged), Unclassifiable):
                    part_pairs[k].extend(pairs)
                    summaries[k] = merged
                    break
            else:
                part_pairs.append(list(pairs))
                summaries.append(summary)

    if len(part_pairs) > DEFAULT_PART_LIMIT:
        raise PartitionExplosion(
            f"option {option.name!r} split into {len(part_pairs)} parts "
            f"(limit {DEFAULT_PART_LIMIT})"
        )

    lvl = option.level_index
    parts = []
    multi = len(part_pairs) > 1
    for k, (pairs, summary) in enumerate(zip(part_pairs, summaries)):
        cls = _classify(space, summary)
        assert not isinstance(cls, Unclassifiable), "grouping must classify"
        part_id = f"{option.name}#{k}" if multi else option.name
        effect = GroundingSet.of(lvl, {t for _, t in pairs})
        terminal = pairs[0][1] if isinstance(cls, Subgoal) else None
        mask: frozenset[str] = frozenset()
        values: tuple[tuple[str, Any], ...] = ()
        if space.is_factored:
            names = space.variable_names()
            if isinstance(cls, AbstractSubgoal):
                mask = cls.mask
            else:
                # subgoal over a factored space: full-mask variable update
                mask = frozenset(names)
            ta = space.assignment(pairs[0][1])
            values = tuple(
                (n, ta[names.index(n)]) for n in sorted(mask)
            )
        parts.append(
            OptionPart(
                part_id=part_id,
                option=option,
                initiation=GroundingSet.of(lvl, [s for s, _ in pairs]),
                option_class=cls,
                effect=effect,
                mean_return=mean_return,
                terminal_state=terminal,
                mask=mask,
                effect_values=values,
            )
        )
    return PartitionedOption(option.name, tuple(parts))


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
    construction: Construction
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
            by_option.setdefault(p.option_id, []).append(p)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(
            self, "_by_option", {k: tuple(v) for k, v in by_option.items()}
        )

    @property
    def transitions(self) -> Mapping[tuple[int, str], int]:
        """The ``transition`` table under its old name, kept because the
        benchmark code in ``perfbench/`` reads ``level.transitions``."""
        return self.transition

    def part(self, part_id: str) -> OptionPart:
        return self._by_id[part_id]

    def grounding_of(self, state: int) -> GroundingSet:
        return self.groundings[state]

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


def _partition_all(options: Sequence[Option], level) -> list[OptionPart]:
    parts: list[OptionPart] = []
    for o in options:
        parts.extend(partition_option(o, level).parts)
    return parts


def build_plan_graph(
    options: Sequence[Option],
    level,
    _parts: Sequence[OptionPart] | None = None,
) -> AbstractLevel:
    """Abstract level whose states are the subgoal parts of ``options``.

    Node ``i`` reaches node ``j`` by part ``j`` exactly when part ``i``'s
    effect set is inside part ``j``'s initiation set. Node groundings are
    the initiation-profile widening of the effect sets.
    """
    parts = list(_parts) if _parts is not None else _partition_all(options, level)
    bad = [p.part_id for p in parts if not isinstance(p.option_class, Subgoal)]
    if bad:
        raise NoSubgoalStructure(
            f"parts without a fixed terminal state: {', '.join(bad)}"
        )
    lvl = level.space.level_index

    # profile-based widening: all lower states whose membership pattern
    # across every part initiation matches the effect set's containment
    # pattern
    inits = [p.initiation for p in parts]
    by_profile: dict[tuple[bool, ...], list[int]] = {}
    for s in level.space.states:
        by_profile.setdefault(tuple(s in i for i in inits), []).append(s)
    widened = [
        GroundingSet.of(
            lvl, by_profile.get(tuple(p.effect.issubset(i) for i in inits), ())
        )
        for p in parts
    ]

    transition: dict[tuple[int, str], int] = {}
    for i, pi in enumerate(parts):
        for j, pj in enumerate(parts):
            if pi.effect.issubset(pj.initiation):
                transition[(i, pj.part_id)] = j

    space = StateSpace(
        level_index=lvl + 1,
        num_states=len(parts),
        labels=tuple(p.part_id for p in parts),
    )
    return AbstractLevel(
        space=space,
        actions=tuple(p.part_id for p in parts),
        transition=transition,
        reward=dict.fromkeys(transition, -1.0),
        parts=tuple(parts),
        groundings=dict(enumerate(widened)),
        construction=Construction.PLAN_GRAPH,
        gamma=level.gamma,
    )


def build_factored_abstraction(
    options: Sequence[Option],
    level,
    seed_states: GroundingSet,
    _parts: Sequence[OptionPart] | None = None,
) -> AbstractLevel:
    """Abstract level over the lower space's variables, closed from the
    seed states' assignments under the parts' variable-update rules.

    A part applies to an assignment when every matching lower state lies
    in its initiation set; the successor assignment overwrites the mask
    with the part's effect values. Groundings are exact-match lower
    states, never widened, so distinct assignments stay distinct states.
    """
    space: StateSpace = level.space
    if not space.is_factored:
        raise NoFactoredStructure(f"level {space.level_index} space is not factored")
    for s in seed_states:
        if not 0 <= s < space.num_states:
            raise InvalidSeed(f"seed state {s} outside level {space.level_index}")
    parts = list(_parts) if _parts is not None else _partition_all(options, level)
    bad = [p.part_id for p in parts if isinstance(p.option_class, Unclassifiable)]
    if bad:
        raise NoFactoredStructure(f"unclassifiable parts: {', '.join(bad)}")

    names = space.variable_names()
    lvl = space.level_index

    def grounding_of(asg: Assignment) -> GroundingSet:
        sid = space.state_of(asg)
        if sid is None:
            return GroundingSet.empty(lvl)
        return GroundingSet.single(lvl, sid)

    def apply_part(asg: Assignment, part: OptionPart) -> Assignment:
        out = list(asg)
        for var, value in part.effect_values:
            out[names.index(var)] = value
        return tuple(out)

    seeds = sorted(seed_states)
    order: dict[Assignment, int] = {}
    for s in seeds:
        asg = space.assignment(s)
        if asg not in order:
            order[asg] = len(order)
    queue = list(order)
    transition: dict[tuple[int, str], int] = {}
    while queue:
        asg = queue.pop(0)
        sid = order[asg]
        g = grounding_of(asg)
        for part in parts:
            if g.is_empty() or not g.issubset(part.initiation):
                continue
            nxt = apply_part(asg, part)
            if nxt not in order:
                order[nxt] = len(order)
                queue.append(nxt)
            transition[(sid, part.part_id)] = order[nxt]

    assignments = tuple(order)
    new_space = StateSpace(
        level_index=lvl + 1,
        num_states=len(assignments),
        variables=space.variables,
        assignments=assignments,
    )
    groundings = {
        i: grounding_of(asg) for i, asg in enumerate(assignments)
    }
    return AbstractLevel(
        space=new_space,
        actions=tuple(p.part_id for p in parts),
        transition=transition,
        reward=dict.fromkeys(transition, -1.0),
        parts=tuple(parts),
        groundings=groundings,
        construction=Construction.FACTORED,
        gamma=level.gamma,
    )


def assign_rewards(level: AbstractLevel, mode: RewardMode) -> AbstractLevel:
    """Set the reward of every transition by its part's `part_reward`."""
    reward = {p.part_id: part_reward(p, mode) for p in level.parts}
    return replace(
        level, reward={key: reward[key[1]] for key in level.transition}
    )
