"""The mutant catalogue in ``tests/mutants.py`` still points at ``src/``."""

from pathlib import Path

import pytest

import nashflow
from mutants import MUTANTS

SRC = Path(nashflow.__file__).parent
TESTS = Path(__file__).parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["name"] for m in MUTANTS])
def test_each_mutant_names_one_guarded_line_and_its_killer(mutant):
    assert (SRC / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    if "equivalent" in mutant:
        assert "killer" not in mutant and mutant["equivalent"]
    else:
        path, name = mutant["killer"].split("::")
        assert f"def {name}(" in (TESTS.parent / path).read_text(encoding="utf-8")


def test_mutant_names_are_unique():
    assert len({m["name"] for m in MUTANTS}) == len(MUTANTS)
