import json

import pytest

from poisskit import cli

SO3 = {"chart": ["x", "y", "z"], "bivectors": {"pi": {"0,1": "z", "1,2": "x", "0,2": "-y"}}}


def _run(tmp_path, capsys, text):
    path = tmp_path / "manifest.json"
    path.write_text(text)
    status = cli.main(["run", str(path)])
    return status, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("doc,message", [
    ({**SO3, "tasks": [{"task": "nope"}]}, "unknown task 'nope'"),
    ({**SO3, "tasks": [{"task": "rank"}]}, "task needs parameter 'point'"),
    ({**SO3, "tasks": [{"task": "rank", "point": 5}]}, "point 5 is not a list"),
    ({**SO3, "tasks": [{"task": "rank", "point": "1,0"}]}, "wrong dimension"),
    ({"chart": 5}, "'chart' entry"),
    ({"chart": ["x", 5]}, "'chart' entry"),
    ([1, 2], "'chart' entry"),
    ({**SO3, "bivectors": {"pi": 5}}, "a coefficient table must be a JSON object"),
    ({**SO3, "tasks": {"task": "rank"}}, "manifest entry 'tasks' must be a JSON list"),
    ({**SO3, "tasks": ["rank"]}, "a task must be a JSON object"),
    ({**SO3, "tasks": [{"task": "cohomology", "k": "one"}]}, "invalid literal for int()"),
    ({**SO3, "tasks": [{"task": "cohomology", "k": [1]}]}, "parameter 'k' must be an integer"),
    ({**SO3, "lie_algebras": {"g": {"dim": 3, "constants": [5]}}},
     "a 'constants' entry must be a list [i, j, k, value]"),
    ({**SO3, "lie_algebras": {"g": {"dim": 3, "constants": [[0, 1, 3, "1"]]}}},
     "out of range for dimension 3"),
    ({**SO3, "constraints": {"n": {"bivector": "pi", "psi": 5, "level": ["1"]}}},
     "constraint system 'n' 'psi' must be a JSON list"),
    ({**SO3, "constraints": {"n": {"bivector": "pi", "psi": ["x"], "level": ["1"],
                                   "samples": 5}}},
     "constraint system 'n' 'samples' must be a JSON list"),
    ({**SO3, "constraints": {"n": {"bivector": "pi", "psi": ["x", "y"], "level": ["1"]}}},
     "2 constraints but 1 level values"),
    ({**SO3, "expressions": {"f": 5}}, "expression 'f' must be a JSON string"),
    ({**SO3, "flow": {"dt": None}}, "flow 'dt' must be a number"),
    ({**SO3, "flow": {"t_max": [10]}}, "flow 't_max' must be a number"),
    ({**SO3, "flow": {"tol": "inf"}}, "tol must be finite"),
    ({**SO3, "flow": {"dt": "nan"}}, "dt must be finite"),
    ({**SO3, "tasks": [{"task": "bracket", "bivector": ["pi"], "f": "x", "g": "y"}]},
     "unknown bivector ['pi']"),
    ({**SO3, "tasks": [{"task": "bracket", "f": {"a": 1}, "g": "y"}]},
     "parameter 'f' must be an expression or a name"),
    ({**SO3, "tasks": [{"task": "lie_poisson", "algebra": {}}]}, "unknown Lie algebra {}"),
    ({**SO3, "tasks": [{"task": "flow", "h": "x", "x0": "1,0,0", "casimirs": 5}]},
     "parameter 'casimirs' must be a JSON list"),
])
def test_malformed_manifest(tmp_path, capsys, doc, message):
    status, lines = _run(tmp_path, capsys, json.dumps(doc))
    assert status == 2
    assert len(lines) == 1 and lines[0].startswith("FAIL manifest ")
    assert message in lines[0]


def test_unreadable_manifest(tmp_path, capsys):
    status, lines = _run(tmp_path, capsys, "{not json")
    assert status == 2 and lines[0].startswith("FAIL manifest ")
    status = cli.main(["run", str(tmp_path / "missing.json")])
    assert status == 2
    assert capsys.readouterr().out.startswith("FAIL manifest ")


def test_failed_task_is_reported_per_task(tmp_path, capsys):
    # a bivector that is not Poisson fails its task; the others still run
    doc = {"chart": ["x", "y", "z"], "bivectors": {"pi": {"0,1": "x", "1,2": "y"}},
           "tasks": [{"task": "is_poisson"}, {"task": "rank", "point": "1,1,1"}]}
    status, lines = _run(tmp_path, capsys, json.dumps(doc))
    assert status == 1
    assert lines[0].startswith("FAIL is_poisson ")
    assert lines[1] == "INFO rank 2"


# pi = x d/dx^d/dy has the modular vector field -d/dy for dx^dy
def _modular(expect):
    return json.dumps({"chart": ["x", "y"], "bivectors": {"pi": {"0,1": "x"}},
                       "tasks": [{"task": "modular", "expect": expect}]})


@pytest.mark.parametrize("expect", [{"1": "-1"}, {"1": "-x/x"}, {"1": "(1 - 3)/2"}])
def test_modular_compares_values(tmp_path, capsys, expect):
    assert _run(tmp_path, capsys, _modular(expect)) == (0, ["PASS modular"])


def test_modular_wrong_value(tmp_path, capsys):
    status, lines = _run(tmp_path, capsys, _modular({"0": "x", "1": "-1"}))
    assert status == 1
    assert lines == ["FAIL modular (-1) d/dy != x d/dx + (-1) d/dy"]


@pytest.mark.parametrize("expect,message", [
    ("(-1) d/dy", "a coefficient table must be a JSON object"),
    ({"0,1": "1"}, "key '0,1' is not a degree-1 index tuple"),
    ({"2": "1"}, "out of range"),
    ({"1": "x^"}, "exponent"),
    ({"y": "1"}, "invalid literal for int()"),
])
def test_modular_malformed_expect(tmp_path, capsys, expect, message):
    status, lines = _run(tmp_path, capsys, _modular(expect))
    assert status == 2
    assert len(lines) == 1 and lines[0].startswith("FAIL manifest parameter 'expect' of modular")
    assert message in lines[0]


def test_negative_degree_bound_is_an_invalid_degree(tmp_path, capsys):
    doc = {**SO3, "tasks": [{"task": "cohomology", "k": 1, "d_max": -2}]}
    assert _run(tmp_path, capsys, json.dumps(doc)) == (1, ["FAIL cohomology invalid (k, d)"])


def test_step_count_overflow_is_a_flow_failure(tmp_path, capsys):
    doc = {**SO3, "flow": {"dt": 1e-300, "t_max": 1e300},
           "tasks": [{"task": "flow", "h": "x^2 + y", "x0": "1,0,0"}]}
    status, lines = _run(tmp_path, capsys, json.dumps(doc))
    assert status == 1 and len(lines) == 1
    assert lines[0].startswith("FAIL flow step count inf exceeds max_steps")
