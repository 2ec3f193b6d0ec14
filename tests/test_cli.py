import copy
import json
import re
from functools import reduce
from operator import getitem

import pytest

from poisskit import cli, fixtures
from poisskit.expr import ExprError

from conftest import rng_for

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
    ({**SO3, "expressions": {"f": "x^²"}}, "unexpected character '²' (at position 2)"),
    ({**SO3, "tasks": [{"task": ["x"]}]}, "unknown task ['x']"),
    ({**SO3, "tasks": [{"task": {"a": 1}}]}, "unknown task {'a': 1}"),
    ({**SO3, "tasks": [{"task": "cohomology", "k": True}]}, "parameter 'k' must be an integer"),
    ({**SO3, "tasks": [{"task": "cohomology", "k": 1, "d_max": False}]},
     "parameter 'd_max' must be an integer"),
    ({**SO3, "flow": {"dt": True}}, "flow 'dt' must be a number"),
    ({**SO3, "tasks": [{"task": "flow", "h": True, "x0": "1,0,0"}]},
     "parameter 'h' must be an expression or a name"),
    ({**SO3, "tasks": [{"task": "flow", "h": "x", "x0": "1,0,0", "casimirs": ["x", False]}]},
     "parameter 'casimirs' must be an expression or a name"),
    ({**SO3, "lie_algebras": {"g": {"dim": -2, "constants": []}}},
     "Lie algebra dimension -2 is negative"),
    ({**SO3, "tasks": [{"task": "bracket", "f": "x+", "g": "y"}]},
     "parameter 'f': unexpected token '' (at position 2)"),
    ({**SO3, "tasks": [{"task": "flow", "h": "x", "x0": "1,0,0", "casimirs": ["u"]}]},
     "parameter 'casimirs': unknown identifier 'u' (at position 0)"),
    ({**SO3, "constraints": {"n": {"bivector": "pi", "level": ["1"]}}},
     "constraint system 'n' needs 'psi'"),
    ({**SO3, "constraints": {"n": {"psi": ["x"], "level": ["1"]}}},
     "constraint system 'n' needs 'bivector'"),
    ({**SO3, "constraints": {"n": {"bivector": "pi", "psi": ["x"]}}},
     "constraint system 'n' needs 'level'"),
    ({**SO3, "lie_algebras": {"g": {"constants": []}}}, "Lie algebra 'g' needs 'dim'"),
    ({**SO3, "lie_algebras": {"g": {"dim": 3}}}, "Lie algebra 'g' needs 'constants'"),
    ({**SO3, "flow": {"dt": "abc"}}, "flow 'dt' must be a number: could not convert"),
    ({**SO3, "tasks": [{"task": "cohomology", "k": "one"}]},
     "parameter 'k' must be an integer: invalid literal for int()"),
    ({**SO3, "lie_algebras": {"g": {"dim": "3x", "constants": []}}},
     "Lie algebra 'g' 'dim' must be an integer: invalid literal for int()"),
    ({**SO3, "lie_algebras": {"g": {"dim": 3, "constants": [["a", 1, 2, "1"]]}}},
     "Lie algebra 'g': a constant's index must be an integer: invalid literal for int()"),
    ({**SO3, "bivectors": {"pi": {"0,a": "x"}}},
     "key '0,a' is not a degree-2 index tuple: invalid literal for int()"),
])
def test_malformed_manifest(tmp_path, capsys, doc, message):
    status, lines = _run(tmp_path, capsys, json.dumps(doc))
    assert status == 2
    assert len(lines) == 1 and lines[0].startswith("FAIL manifest ")
    assert message in lines[0]
    # a typed error, not a bare ValueError, for callers of the library too
    with pytest.raises(ExprError, match=re.escape(message)):
        cli.run_tasks(cli.load_manifest(doc))


def test_unparsable_f_option_is_a_manifest_error(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(SO3))
    status = cli.main(["run", str(path), "--task", "casimir", "--f", "x+"])
    assert status == 2
    assert capsys.readouterr().out.splitlines() == [
        "FAIL manifest parameter 'f': unexpected token '' (at position 2)"]


def test_expect_dim_is_read_before_any_degree(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.poisson, "cohomology", lambda *args: calls.append(args))
    doc = {**SO3, "tasks": [{"task": "cohomology", "k": 1, "d_max": 2, "expect_dim": "two"}]}
    status, lines = _run(tmp_path, capsys, json.dumps(doc))
    assert lines == ["FAIL manifest parameter 'expect_dim' must be an integer: "
                     "invalid literal for int() with base 10: 'two'"] and status == 2
    assert calls == []


def test_unreadable_manifest(tmp_path, capsys):
    status, lines = _run(tmp_path, capsys, "{not json")
    assert status == 2 and lines[0].startswith("FAIL manifest ")
    status = cli.main(["run", str(tmp_path / "missing.json")])
    assert status == 2
    assert capsys.readouterr().out.startswith("FAIL manifest ")


def test_deeply_nested_expression_is_a_manifest_error(tmp_path, capsys):
    deep = "(" * 5000 + "x" + ")" * 5000
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**SO3, "expressions": {"f": deep}}))
    status = cli.main(["run", str(path)])
    out, err = capsys.readouterr()
    assert status == 2 and err == ""
    assert out.startswith("FAIL manifest expression nested too deeply")
    assert "Traceback" not in out


def test_failed_task_is_reported_per_task(tmp_path, capsys):
    # a bivector that is not Poisson fails its task; the others still run
    doc = {"chart": ["x", "y", "z"], "bivectors": {"pi": {"0,1": "x", "1,2": "y"}},
           "tasks": [{"task": "is_poisson"}, {"task": "rank", "point": "1,1,1"}]}
    status, lines = _run(tmp_path, capsys, json.dumps(doc))
    assert status == 1
    assert lines[0].startswith("FAIL is_poisson ")
    assert lines[1] == "INFO rank 2"


def test_gauge_of_a_bivector_that_is_not_poisson_fails(tmp_path, capsys):
    doc = {"chart": ["x", "y", "z", "w"],
           "bivectors": {"pi": {"0,1": "z", "2,3": "x", "1,2": "w"}},
           "forms": {"B": {"0,1": "1"}}, "tasks": [{"task": "gauge", "form": "B"}]}
    assert _run(tmp_path, capsys, json.dumps(doc)) == (1, ["FAIL gauge result not Poisson"])


def test_constraint_tasks_on_a_bivector_that_is_not_poisson_fail(tmp_path, capsys):
    # [pi, pi] = (2x - 2y - 2z) d/dx^d/dy^d/dz: classify and dirac_bracket each
    # print one FAIL line naming the square, and the other tasks still run
    doc = {"chart": ["x", "y", "z"], "bivectors": {"pi": {"0,1": "x", "0,2": "z", "1,2": "y"}},
           "constraints": {"n": {"bivector": "pi", "psi": ["z"], "level": ["0"],
                                 "samples": [["1", "2", "0"]]}},
           "tasks": [{"task": "classify", "constraints": "n"},
                     {"task": "dirac_bracket", "constraints": "n", "f": "x", "g": "y"},
                     {"task": "rank", "point": "1,1,1"}]}
    square = "not a Poisson bivector; [pi,pi] = (2*x - 2*y - 2*z) d/dx^d/dy^d/dz"
    assert _run(tmp_path, capsys, json.dumps(doc)) == (1, [
        f"FAIL classify {square}", f"FAIL dirac_bracket {square}", "INFO rank 2"])


def test_dirac_bracket_lines_on_canonical_r4(tmp_path, capsys):
    # the values at the samples, the missing-samples and singular-matrix
    # failures, and a constraint with a polynomial denominator
    doc = {"chart": ["q1", "p1", "q2", "p2"], "bivectors": {"pi": {"0,1": "1", "2,3": "1"}},
           "constraints": {
               "plane": {"bivector": "pi", "psi": ["q2", "p2"], "level": ["0", "0"],
                         "samples": [["1", "2", "0", "0"], ["3", "-1", "0", "0"]]},
               "bare": {"bivector": "pi", "psi": ["q2", "p2"], "level": ["0", "0"]},
               "coiso": {"bivector": "pi", "psi": ["q2", "q1"], "level": ["0", "0"],
                         "samples": [["0", "1", "0", "2"]]},
               "curved": {"bivector": "pi", "psi": ["q2 - q1^2", "p2/(1 + q1^2)"],
                          "level": ["0", "0"], "samples": [["1", "2", "1", "0"]]}},
           "tasks": [{"task": "dirac_bracket", "constraints": name, "f": f, "g": "p1"}
                     for name, f in [("plane", "q2"), ("bare", "q1"), ("coiso", "q1"),
                                     ("curved", "q1")]]}
    assert _run(tmp_path, capsys, json.dumps(doc)) == (1, [
        "INFO dirac_bracket {f,g}_N = ['0', '0']",
        "FAIL dirac_bracket no parametrization and no samples",
        "FAIL dirac_bracket constraint matrix is singular (not cosymplectic): "
        "c_upper = [0, 0; 0, 0]",
        "INFO dirac_bracket {f,g}_N = ['1']"])


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


def test_overflowing_start_point_is_a_flow_failure(tmp_path, capsys):
    doc = {**SO3, "tasks": [{"task": "flow", "h": "x^2 + y", "x0": ["1e400", "0", "0"]}]}
    status, lines = _run(tmp_path, capsys, json.dumps(doc))
    assert status == 1 and len(lines) == 1
    assert lines[0].startswith("FAIL flow cannot read point ")
    assert lines[0] == "FAIL flow cannot read point coordinate 0: too large for a float"
    assert len(lines[0]) < 120


@pytest.mark.parametrize("doc", [
    {**SO3, "tasks": [{"task": "rank", "point": ["1/0", "0", "0"]}]},
    {**SO3, "constraints": {"n": {"bivector": "pi", "psi": ["x"], "level": ["1/0"]}}},
    {**SO3, "lie_algebras": {"g": {"dim": 3, "constants": [[0, 1, 2, "1/0"]]}}},
], ids=["point", "level", "constant"])
def test_bad_rational_is_a_manifest_error(tmp_path, capsys, doc):
    status, lines = _run(tmp_path, capsys, json.dumps(doc))
    assert status == 2
    assert len(lines) == 1 and lines[0].startswith("FAIL manifest invalid rational '1/0'")


@pytest.mark.parametrize("doc,status,line", [
    ({"chart": ["x", "y", "z"], "bivectors": {"pi": {"0,1": "1/x"}},
      "tasks": [{"task": "rank", "point": ["0", "0", "0"]}]},
     1, "FAIL rank denominator vanishes at (0, 0, 0)"),
    ({**SO3, "constraints": {"n": {"bivector": "pi", "psi": ["y"], "level": ["1"],
                                   "samples": [["1", "0", "1/2"]]}}},
     2, "FAIL manifest sample (1, 0, 1/2) is not on the level set"),
], ids=["pole", "off-level"])
def test_error_texts_print_points_as_rationals(tmp_path, capsys, doc, status, line):
    assert _run(tmp_path, capsys, json.dumps(doc)) == (status, [line])


def test_deeply_nested_json_is_a_manifest_error(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    deep = "[" * 100_000 + "]" * 100_000
    path.write_text('{"chart": ["x"], "expressions": {"f": ' + deep + "}}")
    status = cli.main(["run", str(path)])
    out, err = capsys.readouterr()
    assert status == 2 and err == ""
    assert out.splitlines() == ["FAIL manifest JSON nested too deeply"]


def test_drift_at_a_pole_is_a_flow_failure(tmp_path, capsys):
    # the Casimir 1/x has a pole at the first state
    doc = {**SO3, "expressions": {"c": "1/x"}, "flow": {"dt": 0.01, "t_max": 1.0},
           "tasks": [{"task": "flow", "h": "x^2 + 2*y^2 + 3*z^2",
                      "x0": ["0", "1/3", "-1/4"], "casimirs": ["c"]}]}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    status = cli.main(["run", str(path)])
    out, err = capsys.readouterr()
    assert status == 1 and err == ""
    assert out.splitlines() == ["FAIL flow cannot evaluate 1/(x) at "
                                "[0.0, 0.3333333333333333, -0.25]: float division by zero"]


# values a fuzzed manifest puts in place of one of its own: wrong types, bad
# and good expressions, indices, points and names of tasks and objects
FUZZ_VALUES = [None, True, 0, -1, 2**70, 1.5, "", "0", "1/0", "x+", "x^2 - y", "q1", "0,1",
               "0,0", "9,9", "-1", [], ["0"], {}, {"0,1": "1"}, "pi", "is_poisson", "gauge",
               "cohomology", "lie_poisson", "modular_character", "flow", "bracket"]


def _paths(node, path=()):
    """The path of every key and list item under node, as a tuple of keys."""
    if path:
        yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _fuzzed(rng, doc):
    """doc with one or two of its keys or items deleted or replaced."""
    for _ in range(rng.randint(1, 2)):
        *head, last = rng.choice(list(_paths(doc)))
        parent = reduce(getitem, head, doc)
        if rng.random() < 0.5:
            del parent[last]
        else:
            parent[last] = copy.deepcopy(rng.choice(FUZZ_VALUES))
    return doc


def test_fuzzed_fixture_manifests_fail_cleanly(tmp_path, capsys):
    # every outcome is a report: PASS/FAIL lines and status 0 or 1, or a
    # manifest error and status 2; never an uncaught exception
    rng = rng_for("manifest-fuzz")
    path = tmp_path / "manifest.json"
    for case in range(150):
        doc = _fuzzed(rng, fixtures.fixture_manifest(rng.choice(fixtures.list_fixtures())))
        path.write_text(json.dumps(doc))
        status = cli.main(["run", str(path)])
        assert status in (0, 1, 2) and "Traceback" not in capsys.readouterr().err, doc
