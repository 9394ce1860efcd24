"""Discrete MDP representation, option models, and deterministic execution.

States are dense integer indices into a `StateSpace`. Transitions are
partial deterministic maps: an action missing from the map is inapplicable
in that state, not a zero-probability event. Options carry explicit
initiation and termination sets plus a policy over the level below.
Everything here is plain data fixed at construction: executing an option
changes nothing, so the same inputs always give the same hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple

from .errors import (
    InapplicableAction,
    MalformedInput,
    NotInInitiationSet,
    StepBoundExceeded,
    UndefinedPolicy,
    UnknownName,
)
from .symbols import GroundingSet

Assignment = tuple[Any, ...]


class Variable(NamedTuple):
    name: str
    domain: tuple[Any, ...]


@dataclass(frozen=True)
class StateSpace:
    """Enumerated states of one hierarchy level.

    State ids are the dense indices ``0..num_states-1``. A factored space
    additionally carries named variables and a total, injective map from
    state id to full variable assignment.
    """

    level_index: int
    num_states: int
    variables: tuple[Variable, ...] | None = None
    assignments: tuple[Assignment, ...] | None = None
    labels: tuple[str, ...] | None = None
    _index: dict[Assignment, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.num_states < 1:
            raise MalformedInput("a state space needs at least one state")
        if (self.variables is None) != (self.assignments is None):
            raise MalformedInput("factored spaces need both variables and assignments")
        if self.assignments is not None:
            if len(self.assignments) != self.num_states:
                raise MalformedInput("one assignment per state required")
            index: dict[Assignment, int] = {}
            for sid, asg in enumerate(self.assignments):
                if len(asg) != len(self.variables or ()):
                    raise MalformedInput(f"assignment arity mismatch at state {sid}")
                if asg in index:
                    raise MalformedInput(
                        f"duplicate assignment for states {index[asg]} and {sid}"
                    )
                index[asg] = sid
            object.__setattr__(self, "_index", index)
        if self.labels is not None and len(self.labels) != self.num_states:
            raise MalformedInput("one label per state required")

    @property
    def is_factored(self) -> bool:
        return self.variables is not None

    @property
    def states(self) -> range:
        return range(self.num_states)

    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables or ())

    def assignment(self, state: int) -> Assignment:
        assert self.assignments is not None, "space is not factored"
        return self.assignments[state]

    def value(self, state: int, var: str) -> Any:
        names = self.variable_names()
        return self.assignment(state)[names.index(var)]

    def state_of(self, assignment: Assignment) -> int | None:
        """State id carrying this exact assignment, or None."""
        return self._index.get(assignment)

    def where(self, **constraints: Any) -> GroundingSet:
        """All states whose assignment satisfies every ``var=value`` (or
        ``var=[v1, v2, ...]`` membership) constraint."""
        names = self.variable_names()
        cols = []
        for var, allowed in constraints.items():
            if var not in names:
                raise UnknownName(f"unknown variable {var!r}")
            if not isinstance(allowed, (list, tuple, set, frozenset)):
                allowed = (allowed,)
            cols.append((names.index(var), tuple(allowed)))
        hits = [
            s
            for s in self.states
            if all(self.assignments[s][i] in allowed for i, allowed in cols)
        ]
        return GroundingSet.of(self.level_index, hits)

    def label(self, state: int) -> str:
        if self.labels is not None:
            return self.labels[state]
        if self.is_factored:
            names = self.variable_names()
            asg = self.assignment(state)
            return ",".join(f"{n}={v}" for n, v in zip(names, asg))
        return f"s{state}"


@dataclass(frozen=True)
class BaseMDP:
    """Deterministic discrete MDP with a partial transition map.

    ``transition[(s, a)]`` is the successor of applying ``a`` in ``s``;
    absence means the action is inapplicable there. ``reward[(s, a)]`` is
    that step's reward, so both tables have the same keys.
    """

    space: StateSpace
    actions: tuple[str, ...]
    transition: Mapping[tuple[int, str], int]
    reward: Mapping[tuple[int, str], float]
    gamma: float = 1.0
    _predecessors: dict[int, tuple[tuple[int, str], ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise MalformedInput(f"gamma must be in (0, 1], got {self.gamma}")
        declared = set(self.actions)
        # for every target state, the (state, action) edges entering it
        preds: dict[int, list[tuple[int, str]]] = {}
        for (s, a), t in self.transition.items():
            if not (0 <= s < self.space.num_states and 0 <= t < self.space.num_states):
                raise MalformedInput(f"transition ({s}, {a!r}) -> {t} leaves the space")
            if a not in declared:
                raise UnknownName(f"transition ({s}, {a!r}) uses an undeclared action")
            preds.setdefault(t, []).append((s, a))
        if self.reward.keys() != self.transition.keys():
            raise MalformedInput("reward and transition tables have different keys")
        object.__setattr__(
            self, "_predecessors", {t: tuple(v) for t, v in preds.items()}
        )

    @property
    def level_index(self) -> int:
        return self.space.level_index

    @property
    def num_states(self) -> int:
        return self.space.num_states

    def successor(self, state: int, action: str) -> int | None:
        return self.transition.get((state, action))

    def predecessor_edges(self, state: int) -> tuple[tuple[int, str], ...]:
        return self._predecessors.get(state, ())

    def reward_of(self, state: int, action: str) -> float:
        return self.reward[(state, action)]

    def applicable(self, state: int) -> list[str]:
        return [a for a in self.actions if (state, a) in self.transition]

    def step(self, state: int, action: str) -> tuple[int, float]:
        """Apply ``action`` in ``state``; returns (successor, reward)."""
        nxt = self.transition.get((state, action))
        if nxt is None:
            raise InapplicableAction(f"action {action!r} in state {state}")
        return nxt, self.reward[(state, action)]


@dataclass(frozen=True)
class Option:
    """Temporally extended action over one level.

    The policy maps each state of that level to the id of an action (or
    lower option) of that level, and must cover every state reachable
    during execution from the initiation set before termination.
    Termination is deterministic: execution stops exactly when the
    current state lies in the termination set, so invoking an option from
    a termination state is a zero-step execution.
    """

    name: str
    initiation: GroundingSet
    termination: GroundingSet
    policy: Mapping[int, str]

    def __post_init__(self) -> None:
        if self.initiation.is_empty():
            raise MalformedInput(f"option {self.name!r} has an empty initiation set")
        if self.initiation.level_index != self.termination.level_index:
            raise MalformedInput(f"option {self.name!r} mixes levels")

    @property
    def level_index(self) -> int:
        """Level the option executes over."""
        return self.initiation.level_index


@dataclass(frozen=True)
class ExecutionTrace:
    """Record of one deterministic option execution.

    ``steps`` may be zero when the option was invoked from a state already
    in its termination set; otherwise ``visited`` lists every state from
    start to end inclusive.
    """

    start: int
    end: int
    steps: int
    cumulative_reward: float
    visited: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.steps < 0 or len(self.visited) != self.steps + 1:
            raise ValueError("trace length inconsistent with step count")
        if self.visited[0] != self.start or self.visited[-1] != self.end:
            raise ValueError("trace endpoints inconsistent")


def default_step_bound(level) -> int:
    return 10 * level.num_states


def execute_option(level, option: Option, start: int, *,
                   record_stats: bool = True) -> ExecutionTrace:
    """Run ``option`` from ``start`` until its termination set is reached.

    ``level`` is the level the option runs over: the base MDP or an
    abstract level, whose ``step`` takes an option id as well as a part
    id. Each policy action is one ``level.step``, so over an abstract
    level a trace visits abstract states and sums abstract rewards.
    Execution fails with StepBoundExceeded after
    ``default_step_bound(level)`` steps. ``record_stats`` does nothing: it
    is accepted only so that existing callers keep working, since
    execution records nothing.
    """
    if start not in option.initiation:
        raise NotInInitiationSet(f"option {option.name!r} from state {start}")
    bound = default_step_bound(level)
    state = start
    visited = [start]
    total = 0.0
    steps = 0
    while state not in option.termination:
        action = option.policy.get(state)
        if action is None:
            raise UndefinedPolicy(f"option {option.name!r} has no action for state {state}")
        state, r = level.step(state, action)
        total += r
        visited.append(state)
        steps += 1
        if steps > bound:
            raise StepBoundExceeded(
                f"option {option.name!r} exceeded {bound} steps from state {start}"
            )
    return ExecutionTrace(start, state, steps, total, tuple(visited))


def one_step_preimage_options(mdp: BaseMDP) -> list[Option]:
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
