"""The public surface: what ``hierplan`` exports and nothing it dropped."""

import pytest

import hierplan
import hierplan.planner
from hierplan import BaseMDP, GroundingSet, Hierarchy, OptionPart, StateSpace


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
    ],
)
def test_deleted_members_are_gone(owner, name):
    assert not hasattr(owner, name)
