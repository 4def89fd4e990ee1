"""Every demo script runs to completion and prints something."""

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(script):
    done = run_python(str(script))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
