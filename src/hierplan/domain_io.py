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
from pathlib import Path

from .core import BaseMDP, Option, StateSpace, Variable
from .errors import MalformedInput
from .hierarchy import PlanQuery
from .symbols import GroundingSet


def _read(source) -> dict:
    if isinstance(source, dict):
        return source
    try:
        return json.loads(Path(source).read_text())
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"{source} is not valid JSON: {exc}") from None


def _require(data: dict, key: str, what: str):
    try:
        return data[key]
    except KeyError:
        raise MalformedInput(f"{what} has no {key!r} key") from None


def load_domain(source) -> tuple[BaseMDP, dict[str, list[Option]]]:
    """Build a BaseMDP (and any named option sets) from a JSON file or an
    already-parsed dict."""
    data = _read(source)
    variables = data.get("variables")
    if variables is not None:
        vars_t = tuple(Variable(n, tuple(dom)) for n, dom in variables)
        assignments = tuple(tuple(a) for a in _require(data, "states", "domain"))
        space = StateSpace(
            level_index=0,
            num_states=len(assignments),
            variables=vars_t,
            assignments=assignments,
            labels=tuple(data["labels"]) if "labels" in data else None,
        )
    else:
        space = StateSpace(
            level_index=0,
            num_states=int(_require(data, "num_states", "domain")),
            labels=tuple(data["labels"]) if "labels" in data else None,
        )
    transition: dict[tuple[int, str], int] = {}
    reward: dict[tuple[int, str], float] = {}
    for entry in _require(data, "transitions", "domain"):
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
        actions=tuple(_require(data, "actions", "domain")),
        transition=transition,
        reward=reward,
        gamma=float(data.get("gamma", 1.0)),
    )
    option_sets: dict[str, list[Option]] = {}
    for set_name, entries in data.get("options", {}).items():
        what = f"an option of set {set_name!r}"
        option_sets[set_name] = [
            Option(
                name=_require(e, "name", what),
                initiation=GroundingSet.of(0, _require(e, "initiation", what)),
                termination=GroundingSet.of(0, _require(e, "termination", what)),
                policy={int(k): v for k, v in _require(e, "policy", what).items()},
            )
            for e in entries
        ]
    return mdp, option_sets


def expand_generic(mdp: BaseMDP, spec: dict) -> GroundingSet:
    """Constraint object to base states, without domain-specific sugar."""
    if "states" in spec:
        return GroundingSet.of(0, spec["states"])
    if not spec:
        return GroundingSet.of(0, mdp.space.states)
    return mdp.space.where(**spec)


def load_query(mdp: BaseMDP, source, expand=None) -> PlanQuery:
    """Read ``{"B": ..., "G": ...}``; ``expand`` overrides constraint
    expansion (the CLI passes the taxi-aware expander for taxi runs)."""
    data = _read(source)
    expander = expand if expand is not None else expand_generic
    return PlanQuery(
        expander(mdp, _require(data, "B", "query")),
        expander(mdp, _require(data, "G", "query")),
    )
