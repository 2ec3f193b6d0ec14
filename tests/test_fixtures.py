"""Golden output of the built-in fixture zoo.

Every fixture is run through ``poisskit run``, once as text and once with
``--json``, and both outputs and both exit statuses must match the files
under ``tests/golden/`` byte for byte.  A deliberate change to printed output
regenerates them with ``PYTHONPATH=src python tests/test_fixtures.py`` and
shows up as a reviewed diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from poisskit import cli, fixtures

GOLDEN = Path(__file__).parent / "golden"
STATUS = GOLDEN / "exit_status.json"


def run_fixture(name, tmp_dir, *flags):
    path = Path(tmp_dir) / f"{name}.json"
    path.write_text(json.dumps(fixtures.fixture_manifest(name)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["run", str(path), *flags])
    return status, out.getvalue()


def test_zoo_is_the_golden_set():
    assert len(fixtures.list_fixtures()) == 10
    assert sorted(json.loads(STATUS.read_text())) == fixtures.list_fixtures()


@pytest.mark.parametrize("name", fixtures.list_fixtures())
def test_fixture_output_matches_golden(name, tmp_path):
    statuses = json.loads(STATUS.read_text())[name]
    for flags, suffix, expected_status in (((), "txt", statuses["text"]),
                                           (("--json",), "json", statuses["json"])):
        status, out = run_fixture(name, tmp_path, *flags)
        assert status == expected_status
        assert out == (GOLDEN / f"{name}.{suffix}").read_text()


def test_unknown_fixture_is_a_key_error():
    with pytest.raises(KeyError, match="unknown fixture 'nope'"):
        fixtures.fixture_manifest("nope")


def test_fixture_manifest_is_a_copy():
    fixtures.fixture_manifest("so3")["tasks"].clear()
    assert fixtures.fixture_manifest("so3")["tasks"]


def regenerate():
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    statuses = {}
    with tempfile.TemporaryDirectory() as tmp_dir:
        for name in fixtures.list_fixtures():
            statuses[name] = {}
            for flags, suffix, key in (((), "txt", "text"), (("--json",), "json", "json")):
                status, out = run_fixture(name, tmp_dir, *flags)
                (GOLDEN / f"{name}.{suffix}").write_text(out)
                statuses[name][key] = status
    STATUS.write_text(json.dumps(statuses, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
