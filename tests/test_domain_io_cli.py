"""JSON domain loading and the command-line surface."""

import json
import re

import pytest
from click.testing import CliRunner

from hierplan import Hierarchy, answer_query, load_domain, load_query
from hierplan.cli import cli
from hierplan.errors import MalformedInput, UnknownName

CHAIN_DOMAIN = {
    "name": "chain",
    "gamma": 1.0,
    "actions": ["fwd"],
    "variables": [["pos", [0, 1, 2, 3]]],
    "states": [[0], [1], [2], [3]],
    "transitions": [[0, "fwd", 1], [1, "fwd", 2], [2, "fwd", 3]],
    "options": {
        "level1": [
            {
                "name": "to-mid",
                "initiation": [0, 1],
                "termination": [2],
                "policy": {"0": "fwd", "1": "fwd"},
            },
            {
                "name": "to-end",
                "initiation": [0, 1, 2],
                "termination": [3],
                "policy": {"0": "fwd", "1": "fwd", "2": "fwd"},
            },
        ]
    },
}


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_DOMAIN))
    return str(path)


class TestDomainIO:
    def test_load_domain(self, chain_file):
        mdp, option_sets = load_domain(chain_file)
        assert mdp.num_states == 4
        assert mdp.step(0, "fwd") == (1, -1.0)
        assert list(option_sets) == ["level1"]
        assert [o.name for o in option_sets["level1"]] == ["to-mid", "to-end"]

    def test_load_query_with_constraints(self, chain_file):
        mdp, _ = load_domain(chain_file)
        q = load_query(mdp, {"B": {"pos": [0, 1]}, "G": {"pos": 3}})
        assert set(q.starts) == {0, 1}
        assert set(q.goals) == {3}

    def test_load_query_with_states(self, chain_file):
        mdp, _ = load_domain(chain_file)
        q = load_query(mdp, {"B": {"states": [0]}, "G": {"states": [2, 3]}})
        assert set(q.starts) == {0} and set(q.goals) == {2, 3}

    def test_undeclared_action_rejected(self):
        """BFS would walk the undeclared ``jump`` edge, but policy
        extraction sees only declared actions, so the plan could not be
        refined from its own start."""
        with pytest.raises(UnknownName):
            load_domain(
                {
                    "actions": ["fwd"],
                    "num_states": 3,
                    "transitions": [[0, "jump", 1], [1, "fwd", 2]],
                }
            )

    @pytest.mark.parametrize(
        "domain, message",
        [
            (
                {"actions": ["fwd"], "num_states": 3,
                 "transitions": [[0, "fwd", 1], [0, "fwd", 2, -5]]},
                "transition (0, 'fwd') given twice",
            ),
            ({"actions": ["fwd"], "num_states": 3}, "'transitions'"),
            ({"num_states": 3, "transitions": []}, "'actions'"),
            ({"actions": ["fwd"], "transitions": []}, "'num_states'"),
            (
                {"actions": ["fwd"], "num_states": 3, "transitions": [[0, "fwd"]]},
                "transition [0, 'fwd'] is not [state, action, state(, reward)]",
            ),
            (
                {"actions": ["fwd"], "num_states": "three", "transitions": []},
                "domain has a malformed 'num_states': 'three'",
            ),
            (
                {**CHAIN_DOMAIN, "options": {"l1": [{
                    "name": "o", "initiation": ["a"], "termination": [1],
                    "policy": {"0": "fwd"}}]}},
                "an option of set 'l1' has a malformed 'initiation': ['a']",
            ),
            (
                {**CHAIN_DOMAIN, "options": {"l1": [{
                    "name": "o", "initiation": [0], "termination": [1],
                    "policy": {"zero": "fwd"}}]}},
                "an option of set 'l1' has a malformed 'policy': {'zero': 'fwd'}",
            ),
            (
                {**CHAIN_DOMAIN, "states": [0, 1]},
                "domain has a malformed 'states': [0, 1]",
            ),
        ],
    )
    def test_malformed_domain_rejected(self, domain, message):
        with pytest.raises(MalformedInput, match=re.escape(message)):
            load_domain(domain)

    def test_chain_hierarchy_plans_at_level1(self, chain_file):
        mdp, option_sets = load_domain(chain_file)
        h = Hierarchy(base=mdp).add_level(option_sets["level1"])
        # plan-graph nodes ground to the options' effect states, so a
        # level-1 match needs starts covered by {2} or {3}
        q = load_query(mdp, {"B": {"pos": 2}, "G": {"pos": 3}})
        answer = answer_query(h, q)
        assert answer.level_index == 1
        wide = load_query(mdp, {"B": {"pos": [0, 1, 2]}, "G": {"pos": 3}})
        assert answer_query(h, wide).level_index == 0


class TestCLI:
    def test_build_taxi_snapshot(self):
        runner = CliRunner()
        result = runner.invoke(cli, ["build"])
        assert result.exit_code == 0, result.output
        snapshot = json.loads(result.output[: result.output.rindex("}") + 1])
        assert snapshot["num_levels"] == 2
        assert [lvl["num_states"] for lvl in snapshot["levels"]] == [650, 20, 4]

    def test_build_writes_snapshot_file(self, tmp_path):
        out = tmp_path / "snapshot.json"
        runner = CliRunner()
        result = runner.invoke(cli, ["build", "--out", str(out)])
        assert result.exit_code == 0, result.output
        snapshot = json.loads(out.read_text())
        assert snapshot["levels"][1]["construction"] == "factored"

    def test_plan_q1_exits_zero_at_level2(self, tmp_path):
        query = tmp_path / "q1.json"
        query.write_text(
            json.dumps(
                {
                    "B": {"pass-at": "blue", "taxi-at": "any-depot", "in-taxi": False},
                    "G": {"pass-at": "red"},
                }
            )
        )
        runner = CliRunner()
        result = runner.invoke(cli, ["plan", "--query-file", str(query)])
        assert result.exit_code == 0, result.output
        assert "solution level: 2" in result.output
        assert "passenger-to-red" in result.output

    def test_plan_inline_constraints_with_refinement(self):
        runner = CliRunner()
        result = runner.invoke(
            cli,
            [
                "plan",
                "--B", '{"pass-at": "blue", "taxi-at": "red", "in-taxi": false}',
                "--G", '{"pass-at": "green"}',
                "--refine-from", "115",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "refined from base state 115" in result.output

    def test_plan_value_iteration_mode(self):
        runner = CliRunner()
        result = runner.invoke(
            cli,
            [
                "plan",
                "--B", '{"pass-at": "blue", "taxi-at": "any-depot", "in-taxi": false}',
                "--G", '{"pass-at": "red"}',
                "--mode", "value-iteration",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "solution level: 2" in result.output

    def test_plan_at_level_flag(self):
        runner = CliRunner()
        result = runner.invoke(
            cli,
            [
                "plan",
                "--B", '{"pass-at": "blue", "taxi-at": "any-depot", "in-taxi": false}',
                "--G", '{"pass-at": "red"}',
                "--at-level", "1",
            ],
        )
        assert result.exit_code == 0, result.output
        assert "solution level: 1" in result.output

    def test_plan_unsolvable_exits_two(self, tmp_path):
        domain = dict(CHAIN_DOMAIN)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(domain))
        query = tmp_path / "impossible.json"
        query.write_text(json.dumps({"B": {"pos": 3}, "G": {"pos": 0}}))
        runner = CliRunner()
        result = runner.invoke(
            cli,
            ["plan", "--domain-file", str(path), "--query-file", str(query)],
        )
        assert result.exit_code == 2, result.output
        assert "no plan" in result.output

    def test_plan_on_file_domain_with_options(self, chain_file, tmp_path):
        query = tmp_path / "q.json"
        query.write_text(json.dumps({"B": {"pos": 2}, "G": {"pos": 3}}))
        runner = CliRunner()
        result = runner.invoke(
            cli,
            [
                "plan",
                "--domain-file", chain_file,
                "--option-set", "level1",
                "--query-file", str(query),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "solution level: 1" in result.output

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        runner = CliRunner()
        result = runner.invoke(
            cli, ["bench", "--reps", "2", "--out-file", str(out)]
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "query,level,match_ms,plan_ms,hier_ms,options_ms,flat_ms"
        assert len(lines) == 4

    def test_export_pddl_writes_files(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            cli, ["export-pddl", "--level", "1", "--out-dir", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        domain = (tmp_path / "domain.pddl").read_text()
        problem = (tmp_path / "problem.pddl").read_text()
        assert domain.startswith("(define (domain")
        assert problem.startswith("(define (problem")

    def test_export_pddl_bad_level_exits_one(self):
        runner = CliRunner()
        result = runner.invoke(cli, ["export-pddl", "--level", "9"])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "b_spec, message",
        [
            ('{"pass-at": "purple"}', "error: unknown depot 'purple'"),
            ('{"colour": 1}', "error: unknown variable 'colour'"),
        ],
    )
    def test_plan_unknown_name_prints_one_error_line(self, b_spec, message):
        runner = CliRunner()
        result = runner.invoke(
            cli, ["plan", "--B", b_spec, "--G", '{"pass-at": "red"}']
        )
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), result.output

    def test_plan_malformed_json_prints_one_error_line(self):
        runner = CliRunner()
        result = runner.invoke(cli, ["plan", "--B", "{bad", "--G", "{}"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --B is not valid JSON")

    @pytest.mark.parametrize(
        "domain_patch, option_patch, message",
        [
            ({"transitions": [[0, "fwd", 9]]}, {},
             "error: transition (0, 'fwd') -> 9 leaves the space"),
            ({"transitions": [[0, "fwd"]]}, {}, "error: transition [0, 'fwd'] is not"),
            ({}, {"initiation": []},
             "error: option 'to-one' has an empty initiation set"),
            ({"num_states": "three"}, {},
             "error: domain has a malformed 'num_states': 'three'"),
            ({}, {"initiation": ["a"]},
             "error: an option of set 'l1' has a malformed 'initiation': ['a']"),
            ({}, {"policy": {"zero": "fwd"}},
             "error: an option of set 'l1' has a malformed 'policy': {'zero': 'fwd'}"),
            ({"variables": [["pos", [0, 1, 2]]], "states": [0, 1]}, {},
             "error: domain has a malformed 'states': [0, 1]"),
        ],
        ids=["target-outside", "short-entry", "empty-initiation", "num-states-text",
             "initiation-text", "policy-key-text", "factored-states-flat"],
    )
    def test_bad_domain_input_prints_one_error_line(
        self, tmp_path, domain_patch, option_patch, message
    ):
        option = {"name": "to-one", "initiation": [0], "termination": [1],
                  "policy": {"0": "fwd"}, **option_patch}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "actions": ["fwd"], "num_states": 3, "transitions": [[0, "fwd", 1]],
            "options": {"l1": [option]}, **domain_patch,
        }))
        runner = CliRunner()
        result = runner.invoke(
            cli, ["build", "--domain-file", str(path), "--option-set", "l1"]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), result.output

    def test_plan_empty_start_set_prints_one_error_line(self):
        runner = CliRunner()
        result = runner.invoke(
            cli, ["plan", "--B", '{"states": []}', "--G", '{"pass-at": "red"}']
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "error: plan queries need non-empty start and goal sets"
        ), result.output

    @pytest.mark.parametrize(
        "domain, message",
        [
            ({"actions": ["fwd"], "num_states": 2}, "error: domain has no 'transitions'"),
            (
                {"actions": ["fwd"], "num_states": 2,
                 "transitions": [[0, "fwd", 1], [0, "fwd", 0]]},
                "error: transition (0, 'fwd') given twice",
            ),
        ],
    )
    def test_malformed_domain_file_prints_one_error_line(
        self, tmp_path, domain, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(domain))
        runner = CliRunner()
        result = runner.invoke(cli, ["build", "--domain-file", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith(message), result.output
