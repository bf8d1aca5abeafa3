"""The mutation catalogue in ``mutants.py`` stays applicable to the code it mutates.

Running the mutants takes minutes and lives outside tier-1; this only checks
that each one still names text that occurs exactly once and a test that exists
(its file, and each class or function of its node id), and that each recorded
equivalent still names text that occurs exactly once, so that a refactor cannot
silently leave a mutant pointing at nothing.
"""

import re

import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    path, *names = mutant.test.split("::")
    text = (ROOT / path).read_text()
    for name in names:
        name = name.split("[")[0]  # drop a parametrize id
        assert re.search(rf"^\s*(def|class) {name}\b", text, re.M), name


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("equivalent", EQUIVALENT, ids=lambda e: e.new)
def test_equivalent_old_text_occurs_exactly_once(equivalent):
    assert (ROOT / equivalent.path).read_text().count(equivalent.old) == 1
    assert equivalent.new != equivalent.old and equivalent.reason
