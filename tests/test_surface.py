"""The public surface: what ``hierplan`` exports, nothing it dropped, and
no import a module never uses."""

import ast
import inspect
from pathlib import Path

import pytest

import hierplan
import hierplan.abstraction
import hierplan.hierarchy
import hierplan.planner
from hierplan import AbstractLevel, BaseMDP, GroundingSet, Hierarchy, OptionPart, StateSpace


def test_every_exported_name_resolves():
    missing = [name for name in hierplan.__all__ if not hasattr(hierplan, name)]
    assert missing == []


def test_no_name_exported_twice():
    assert len(set(hierplan.__all__)) == len(hierplan.__all__)


@pytest.mark.parametrize(
    "name", ["MatchPair", "plan_match", "one_step_preimage_options"]
)
def test_oracles_are_not_exported(name):
    assert name not in hierplan.__all__
    assert not hasattr(hierplan, name)


@pytest.mark.parametrize("name", ["Plan", "execute_refined"])
def test_plans_are_options_and_refine_is_the_one_refiner(name):
    assert name not in hierplan.__all__
    assert not hasattr(hierplan, name)
    assert not hasattr(hierplan.planner, name)


@pytest.mark.parametrize(
    "owner, name",
    [
        (Hierarchy, "ground"),
        (StateSpace, "value"),
        (BaseMDP, "applicable"),
        (BaseMDP, "predecessor_edges"),
        (GroundingSet, "isdisjoint"),
        (OptionPart, "mask"),
        (Hierarchy, "base_groundings"),
        (Hierarchy, "grounding_of"),
        (Hierarchy, "final_grounding_of"),
        (hierplan.planner, "_match"),
        (AbstractLevel, "applied_edges"),
        (hierplan.abstraction, "assign_rewards"),
    ],
)
def test_deleted_members_are_gone(owner, name):
    assert not hasattr(owner, name)


@pytest.mark.parametrize(
    "builder", [hierplan.build_plan_graph, hierplan.build_factored_abstraction]
)
def test_builders_partition_their_own_options(builder):
    """`build_level` partitions once; the two builders take no parts."""
    assert "_parts" not in inspect.signature(builder).parameters


def test_hierarchy_imports_no_private_name_of_abstraction():
    source = Path(hierplan.hierarchy.__file__).read_text(encoding="utf-8")
    names = [
        a.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "abstraction"
        for a in node.names
    ]
    assert "build_level" in names
    assert [n for n in names if n.startswith("_")] == []


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads; a name listed in its
    ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from .errors import NoMatch, LevelOutOfRange\n__all__ = ['NoMatch']\n"
    assert unused_imports(source) == ["LevelOutOfRange"]


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in Path(hierplan.__file__).parent.glob("*.py")),
)
def test_no_module_imports_a_name_it_never_uses(module):
    source = (Path(hierplan.__file__).parent / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
