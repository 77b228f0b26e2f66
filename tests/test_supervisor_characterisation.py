"""The supervisor reproduces its characterisation record byte for byte.

``tests/fixtures/supervisor_characterisation.json`` was generated by
``tests/supervisor_characterisation.py``: outcome and checkpoint
documents, raised errors, the supervisor's events and its counters
over seeded chaos, ladder, shedding and routing scenarios.
"""

from __future__ import annotations

import pytest

from tests.supervisor_characterisation import (FIXTURE, SCENARIOS,
                                               characterise, render)

with open(FIXTURE, encoding="utf-8") as _handle:
    LINES = {line.rstrip(",").split(":", 1)[0].strip('"'): line.rstrip(",")
             for line in _handle.read().splitlines()[1:-1]}


def test_fixture_covers_every_scenario():
    assert sorted(LINES) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_supervisor_matches_characterisation(name):
    assert render(name, characterise(name)) == LINES[name]
