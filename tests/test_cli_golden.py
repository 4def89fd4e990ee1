"""The CLI's stdout on the demo data, byte for byte.

Each file under ``tests/golden`` holds the stdout of one command run on
``demos/data``. A change to scoring, ranking, tie-breaking or formatting
that alters even one byte fails here, on every Python and numpy the suite
runs on.
"""

from pathlib import Path

import pytest

from predsim.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

FILES = [
    "--concepts", str(DATA / "concepts.tsv"),
    "--relations", str(DATA / "relations.tsv"),
    "--predications", str(DATA / "predications.tsv"),
]

COMMANDS = {
    "related": ["related", "--seed", "d001"],
    "query": ["query", "--pred", "ASPIRIN|TREATS|HEADACHE"],
    "find": ["find", "--pattern", "?|TREATS|HEADACHE"],
    "eval": ["eval", "--gold", str(DATA / "gold.tsv")],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden_file(name, capsys):
    command, *options = COMMANDS[name]
    code = main([command, *FILES, *options])
    out, err = capsys.readouterr()
    assert code == EXIT_OK, err
    assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()
