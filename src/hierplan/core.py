"""Discrete MDP representation, option models, and deterministic execution.

States are dense integer indices into a `StateSpace`. Transitions are
partial deterministic maps: an action missing from the map is inapplicable
in that state, not a zero-probability event. Because ids are dense, each
MDP keeps its predecessor edges in a table indexed by target state, which
the plan searches index instead of hashing states. Options carry explicit
initiation and termination sets plus a policy over the level below.
Everything here is plain data fixed at construction: executing an option
changes nothing, so the same inputs always give the same hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple

from .errors import (
    InapplicableAction,
    LevelMismatch,
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

    def state_of(self, assignment: Assignment) -> int | None:
        """State id carrying this exact assignment, or None."""
        return self._index.get(assignment)

    def where(self, /, **constraints: Any) -> GroundingSet:
        """All states whose assignment satisfies every ``var=value`` (or
        ``var=[v1, v2, ...]`` membership) constraint. Each constraint
        filters only the states that passed the ones before it."""
        names = self.variable_names()
        cols = []
        for var, allowed in constraints.items():
            if var not in names:
                raise UnknownName(f"unknown variable {var!r}")
            if not isinstance(allowed, (list, tuple, set, frozenset)):
                allowed = (allowed,)
            cols.append((names.index(var), tuple(allowed)))
        assignments = self.assignments
        hits: Iterable[int] = self.states
        for i, allowed in cols:
            hits = [s for s in hits if assignments[s][i] in allowed]
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
    that step's reward, so both tables have the same keys. The predecessor
    table holds, at index ``t``, the keys of the edges entering ``t`` in
    table order, and ``()`` where none does. The action-rank table maps
    each action to its index in ``actions``, the order the plan searches
    break ties by.
    """

    space: StateSpace
    actions: tuple[str, ...]
    transition: Mapping[tuple[int, str], int]
    reward: Mapping[tuple[int, str], float]
    gamma: float = 1.0
    _predecessors: tuple[tuple[tuple[int, str], ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _action_rank: dict[str, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise MalformedInput(f"gamma must be in (0, 1], got {self.gamma}")
        declared = set(self.actions)
        n = self.space.num_states
        # an edge is the transition table's own key, so it is stored only once
        preds: list[list[tuple[int, str]]] = [[] for _ in range(n)]
        for edge, t in self.transition.items():
            s, a = edge
            if not (0 <= s < n and 0 <= t < n):
                raise MalformedInput(f"transition ({s}, {a!r}) -> {t} leaves the space")
            if a not in declared:
                raise UnknownName(f"transition ({s}, {a!r}) uses an undeclared action")
            preds[t].append(edge)
        if self.reward.keys() != self.transition.keys():
            raise MalformedInput("reward and transition tables have different keys")
        object.__setattr__(self, "_predecessors", tuple(map(tuple, preds)))
        object.__setattr__(
            self, "_action_rank", {a: i for i, a in enumerate(self.actions)}
        )

    @property
    def level_index(self) -> int:
        return self.space.level_index

    @property
    def num_states(self) -> int:
        return self.space.num_states

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
    a termination state is a zero-step execution. The termination set,
    tested once per step, is indexed once, at construction, as a
    `GroundingSet.bitstring` string, so a step's test is one string index
    where ``in`` on the set shifts an int as wide as the level. A run
    tests its start once, by ``in`` on the initiation set.
    """

    name: str
    initiation: GroundingSet
    termination: GroundingSet
    policy: Mapping[int, str]
    _termination_bits: str = field(init=False, repr=False, compare=False, default="")

    def __post_init__(self) -> None:
        if self.initiation.is_empty():
            raise MalformedInput(f"option {self.name!r} has an empty initiation set")
        if self.initiation.level_index != self.termination.level_index:
            raise MalformedInput(f"option {self.name!r} mixes levels")
        object.__setattr__(self, "_termination_bits", self.termination.bitstring())

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
    id. Each policy action is one step of ``level``, so over an abstract
    level a trace visits abstract states and sums abstract rewards. The
    trace is also the record a hierarchy keeps of each abstract edge's run
    from each member of its grounding (`hierarchy.record_runs`).
    Execution fails with NotInInitiationSet when ``start`` is outside the
    option's initiation set, with StepBoundExceeded after
    ``default_step_bound(level)`` steps, and with LevelMismatch when the
    option's sets are over another level than ``level``. ``record_stats``
    does nothing: it is accepted only so that existing callers keep
    working, since execution records nothing.
    """
    if option.level_index != level.level_index:
        raise LevelMismatch(
            f"option {option.name!r} is over level {option.level_index}, "
            f"run over level {level.level_index}"
        )
    visited = [start]
    end, total = _execute_into(level, option, start, visited)
    return ExecutionTrace(start, end, len(visited) - 1, total, tuple(visited))


def _execute_into(
    level, option: Option, start: int, visited: list[int]
) -> tuple[int, float]:
    """`execute_option`'s loop: run ``option`` from ``start``, append every
    state entered to ``visited`` and return the end state and the summed
    reward.

    The start costs one ``in`` on the initiation set. Each step costs one
    index into the option's termination string and one read of
    ``level.transition`` and ``level.reward``, whatever the level's width;
    ``level.step`` runs only for a key the tables lack (an option id over
    an abstract level, or an inapplicable action), so the successors,
    rewards and errors are ``level.step``'s."""
    if start not in option.initiation:
        raise NotInInitiationSet(f"option {option.name!r} from state {start}")
    bound = default_step_bound(level)
    policy = option.policy
    stop = option._termination_bits
    width = len(stop)
    transition = level.transition
    reward = level.reward
    state = start
    total = 0.0
    steps = 0
    # every state after the start is a successor, so none is negative
    while state >= width or stop[state] != "1":
        action = policy.get(state)
        if action is None:
            raise UndefinedPolicy(f"option {option.name!r} has no action for state {state}")
        key = (state, action)
        nxt = transition.get(key)
        if nxt is None:
            state, r = level.step(state, action)
        else:
            state, r = nxt, reward[key]
        total += r
        visited.append(state)
        steps += 1
        if steps > bound:
            raise StepBoundExceeded(
                f"option {option.name!r} exceeded {bound} steps from state {start}"
            )
    return state, total


def require_within_level(name: str, level, *sets: GroundingSet) -> None:
    """LevelMismatch when one of option ``name``'s ``sets`` is over
    another level than ``level``; MalformedInput when one names a state
    outside ``level``."""
    for g in sets:
        if g.level_index != level.level_index:
            raise LevelMismatch(
                f"option {name!r} is over level {g.level_index}, not {level.level_index}"
            )
    require_ids_within(name, level, max(g.bits.bit_length() for g in sets) - 1)


def require_ids_within(name: str, level, highest: int) -> None:
    """MalformedInput when option ``name``'s highest state id is outside ``level``."""
    if highest >= level.num_states:
        raise MalformedInput(
            f"option {name!r} names state {highest}, "
            f"outside level {level.space.level_index}'s {level.num_states} states"
        )
