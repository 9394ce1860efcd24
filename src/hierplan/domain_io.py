"""JSON schemas for domains, option sets, and plan queries.

Domain file::

    {
      "name": "chain",
      "gamma": 1.0,
      "actions": ["fwd", "back"],
      "variables": [["pos", [0, 1, 2]]],      // optional (factored)
      "states": [[0], [1], [2]],              // assignments, if factored
      "num_states": 3,                        // instead of variables/states
      "labels": ["s0", "s1", "s2"],           // optional
      "transitions": [[0, "fwd", 1], [1, "fwd", 2, -1.0]],   // reward
                                                             // defaults -1
      "options": {
        "level1": [
          {"name": "to-end", "initiation": [0, 1], "termination": [2],
           "policy": {"0": "fwd", "1": "fwd"}}
        ]
      }
    }

Query file::

    {"B": {"pos": [0, 1]}, "G": {"pos": 2}}
    {"B": {"states": [0]}, "G": {"states": [2]}}

Constraint objects map variable names to a value or list of allowed
values; ``states`` gives explicit ids. The taxi domain additionally
understands ``taxi-at`` / ``pass-at`` / ``any-depot`` sugar (see
`hierplan.taxi.expand_constraints`).
"""

from __future__ import annotations

import json
from os import PathLike
from pathlib import Path

from .core import BaseMDP, Option, StateSpace, Variable
from .errors import MalformedInput
from .hierarchy import PlanQuery
from .symbols import GroundingSet


def _object(value) -> dict:
    """``value`` itself; TypeError unless it is a JSON object."""
    if not isinstance(value, dict):
        raise TypeError(f"{value!r} is not an object")
    return value


def _read(source) -> dict:
    """The JSON object in the file at ``source``, or ``source`` itself
    when it is already parsed."""
    data = source
    if isinstance(source, (str, PathLike)):
        try:
            data = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"{source} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedInput(f"{source} does not hold a JSON object")
    return data


def _require(data: dict, key: str, what: str):
    try:
        return data[key]
    except KeyError:
        raise MalformedInput(f"{what} has no {key!r} key") from None


def _parse(data: dict, key: str, what: str, convert):
    """``convert(data[key])``; MalformedInput when the key is missing or
    its value does not have the shape ``convert`` reads."""
    value = _require(data, key, what)
    try:
        return convert(value)
    except (AttributeError, TypeError, ValueError):
        raise MalformedInput(f"{what} has a malformed {key!r}: {value!r}") from None


def _base_states(ids) -> GroundingSet:
    return GroundingSet.of(0, ids)


def load_domain(source) -> tuple[BaseMDP, dict[str, list[Option]]]:
    """Build a BaseMDP (and any named option sets) from a JSON file or an
    already-parsed dict."""
    data = {"gamma": 1.0, "options": {}, **_read(source)}
    labels = _parse(data, "labels", "domain", tuple) if "labels" in data else None
    if data.get("variables") is not None:
        assignments = _parse(data, "states", "domain", lambda v: tuple(map(tuple, v)))
        space = StateSpace(
            level_index=0,
            num_states=len(assignments),
            variables=_parse(
                data,
                "variables",
                "domain",
                lambda v: tuple(Variable(n, tuple(dom)) for n, dom in v),
            ),
            assignments=assignments,
            labels=labels,
        )
    else:
        space = StateSpace(
            level_index=0,
            num_states=_parse(data, "num_states", "domain", int),
            labels=labels,
        )
    transition: dict[tuple[int, str], int] = {}
    reward: dict[tuple[int, str], float] = {}
    for entry in _parse(data, "transitions", "domain", list):
        try:
            s, a, t = int(entry[0]), entry[1], int(entry[2])
            r = float(entry[3]) if len(entry) > 3 else -1.0
        except (IndexError, KeyError, TypeError, ValueError):
            raise MalformedInput(
                f"transition {entry!r} is not [state, action, state(, reward)]"
            ) from None
        if (s, a) in transition:
            raise MalformedInput(f"transition ({s}, {a!r}) given twice")
        transition[(s, a)] = t
        reward[(s, a)] = r
    mdp = BaseMDP(
        space=space,
        actions=_parse(data, "actions", "domain", tuple),
        transition=transition,
        reward=reward,
        gamma=_parse(data, "gamma", "domain", float),
    )
    option_sets: dict[str, list[Option]] = {}
    options = _parse(data, "options", "domain", _object)
    for set_name in options:
        entries = _parse(
            options, set_name, "the 'options' object",
            lambda v: [_object(e) for e in v],
        )
        what = f"an option of set {set_name!r}"
        option_sets[set_name] = [
            Option(
                name=_require(e, "name", what),
                initiation=_parse(e, "initiation", what, _base_states),
                termination=_parse(e, "termination", what, _base_states),
                policy=_parse(
                    e, "policy", what, lambda p: {int(k): v for k, v in p.items()}
                ),
            )
            for e in entries
        ]
    return mdp, option_sets


def explicit_states(mdp: BaseMDP, ids) -> GroundingSet:
    """A constraint's ``states`` value as base states; MalformedInput
    unless it is a list of state ids of ``mdp``."""
    states = mdp.space.states
    if not isinstance(ids, list) or not all(type(s) is int and s in states for s in ids):
        raise MalformedInput(
            f"'states' must list state ids in 0..{len(states) - 1}, got {ids!r}"
        )
    return GroundingSet.of(0, ids)


def expand_generic(mdp: BaseMDP, spec: dict) -> GroundingSet:
    """Constraint object to base states, without domain-specific sugar."""
    if "states" in spec:
        return explicit_states(mdp, spec["states"])
    if not spec:
        return GroundingSet.of(0, mdp.space.states)
    return mdp.space.where(**spec)


def load_query(mdp: BaseMDP, source, expand=None) -> PlanQuery:
    """Read ``{"B": ..., "G": ...}``; ``expand`` overrides constraint
    expansion (the CLI passes the taxi-aware expander for taxi runs)."""
    data = _read(source)
    expander = expand if expand is not None else expand_generic
    return PlanQuery(
        expander(mdp, _parse(data, "B", "query", _object)),
        expander(mdp, _parse(data, "G", "query", _object)),
    )
