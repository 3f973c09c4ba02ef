from pathlib import Path

import pytest

from launch import python

# found next to the tests, so a run from outside the checkout finds them too
DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    # else the parametrized test below would be skipped, not failed
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    done = python(str(demo))
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout.strip()
