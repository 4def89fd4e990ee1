"""Every ``python`` code block of README.md runs to completion and prints
something, so the quick start keeps up with the API."""

import re

import pytest

from conftest import ROOT, run_python

BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_blocks_found():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(code):
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
