"""PDDL export: structure, balance, and golden stability."""

import re
from pathlib import Path

import pytest

from hierplan import Hierarchy, build_taxi_hierarchy, export_pddl
from hierplan.errors import LevelOutOfRange, UnknownName
from hierplan.taxi import TaxiLayout

GOLDEN_DIR = Path(__file__).parent / "goldens"


def check_sexpr_balanced(text: str) -> int:
    """S-expression well-formedness oracle: parentheses balance, never
    dip negative, and comments/atoms contain no strays. Returns the
    number of top-level forms."""
    depth = 0
    forms = 0
    for line in text.splitlines():
        body = line.split(";", 1)[0]
        for ch in body:
            if ch == "(":
                if depth == 0:
                    forms += 1
                depth += 1
            elif ch == ")":
                depth -= 1
                assert depth >= 0, f"unbalanced close in: {line!r}"
    assert depth == 0, "unclosed parenthesis at end of text"
    return forms


class TestFactoredExport:
    def test_level1_action_count_is_part_count(self, taxi_hierarchy):
        domain, _ = export_pddl(taxi_hierarchy, 1)
        assert domain.count("(:action") == len(taxi_hierarchy.level(1).actions) == 10

    def test_predicates_one_per_variable_value(self, taxi_hierarchy):
        domain, _ = export_pddl(taxi_hierarchy, 1)
        assert domain.count("(taxi-x-") >= 5
        for var, n_values in (
            ("taxi-x", 5),
            ("taxi-y", 5),
            ("pass-x", 5),
            ("pass-y", 5),
            ("in-taxi", 2),
        ):
            declared = [
                line
                for line in domain.splitlines()
                if line.strip().startswith(f"({var}-") and line.strip().endswith(")")
                and ":action" not in line
            ]
            assert len(declared) >= n_values

    def test_requirements_strips_and_no_typing(self, taxi_hierarchy):
        for level in (1, 2):
            domain, problem = export_pddl(taxi_hierarchy, level)
            assert "(:requirements :strips)" in domain
            assert ":typing" not in domain
            assert ":typing" not in problem

    def test_balanced_sexpressions(self, taxi_hierarchy):
        for level in (1, 2):
            domain, problem = export_pddl(taxi_hierarchy, level)
            assert check_sexpr_balanced(domain) == 1
            assert check_sexpr_balanced(problem) == 1

    def test_riding_drive_part_leaves_in_taxi_alone(self, taxi_hierarchy):
        domain, _ = export_pddl(taxi_hierarchy, 1)
        start = domain.index("(:action drive-to-blue-part0")
        end = domain.index("(:action", start + 1)
        block = domain[start:end]
        assert "(pass-x-3)" in block and "(taxi-x-3)" in block
        assert "in-taxi" not in block.split(":effect")[1]

    def test_outside_drive_part_touches_only_taxi(self, taxi_hierarchy):
        domain, _ = export_pddl(taxi_hierarchy, 1)
        start = domain.index("(:action drive-to-blue-part1")
        end = domain.index("(:action", start + 1)
        effect = domain[start:end].split(":effect")[1]
        assert "taxi-x-3" in effect and "taxi-y-0" in effect
        assert "pass-x" not in effect and "in-taxi" not in effect

    def test_problem_respects_requested_states(self, taxi_hierarchy):
        _, problem = export_pddl(taxi_hierarchy, 1, init_state=3, goal_state=7)
        space = taxi_hierarchy.level(1).space
        init_props = problem.split("(:init")[1].split("(:goal")[0]
        for name, value in zip(space.variable_names(), space.assignment(3)):
            token = str(value).lower() if isinstance(value, bool) else str(value)
            assert f"({name}-{token})" in init_props

    def test_open_8x8_propositions_are_declared(self):
        layout = TaxiLayout(
            width=8,
            height=8,
            depots=(("red", (0, 7)), ("green", (7, 7)), ("blue", (7, 0)), ("yellow", (0, 0))),
        )
        domain, problem = export_pddl(build_taxi_hierarchy(layout), 1)
        head, _, actions = domain.partition("(:action")
        atom = re.compile(r"\(([a-z][a-z-]*-(?:\d+|true|false))\)")
        declared = set(atom.findall(head))
        used = set(atom.findall(actions)) | set(atom.findall(problem))
        assert {"taxi-x-7", "pass-y-7"} <= used
        assert used <= declared


class TestPlanGraphExport:
    def test_level2_degenerate_one_predicate_per_node(self, taxi_hierarchy):
        domain, _ = export_pddl(taxi_hierarchy, 2)
        for depot in ("red", "green", "blue", "yellow"):
            assert f"(at-passenger-to-{depot})" in domain
        assert domain.count("(:action") == 12  # one per plan-graph edge

    def test_missing_level_raises(self, taxi_hierarchy, taxi_mdp):
        with pytest.raises(LevelOutOfRange):
            export_pddl(taxi_hierarchy, 3)
        with pytest.raises(LevelOutOfRange):
            export_pddl(taxi_hierarchy, 0)
        with pytest.raises(LevelOutOfRange):
            export_pddl(Hierarchy(base=taxi_mdp), 1)

    def test_missing_state_raises(self, taxi_hierarchy):
        with pytest.raises(UnknownName):
            export_pddl(taxi_hierarchy, 1, goal_state=20)


class TestGolden:
    @pytest.mark.parametrize("level", [1, 2])
    def test_output_matches_golden(self, taxi_hierarchy, level):
        domain, problem = export_pddl(taxi_hierarchy, level)
        assert domain == (GOLDEN_DIR / f"taxi_level{level}_domain.pddl").read_text()
        assert problem == (GOLDEN_DIR / f"taxi_level{level}_problem.pddl").read_text()

    def test_stable_across_rebuilds(self):
        from hierplan import build_taxi_hierarchy

        first = export_pddl(build_taxi_hierarchy(), 1)
        second = export_pddl(build_taxi_hierarchy(), 1)
        assert first == second
