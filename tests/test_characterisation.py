"""The engine reproduces its pre-registry characterisation record.

``tests/fixtures/engine_characterisation.json`` was generated by
``tests/characterisation.py`` at the commit before the kernel-route
registry replaced the per-engine loops, re-recorded where that
module's docstring says: results, ``DPStats``, failure reasons, work
counters and profiler stack paths must all be unchanged.
``tests/fixtures/xdrop_characterisation.json`` holds what the retired
batched X-drop route answered per pair; the scalar ``XdropAligner``
must answer the same.
"""

from __future__ import annotations

import json

import pytest

from tests.characterisation import (CASES, FIXTURE, XDROP_CASES,
                                    XDROP_FIXTURE, characterise,
                                    characterise_xdrop)

with open(FIXTURE, encoding="utf-8") as _handle:
    EXPECTED = json.load(_handle)
with open(XDROP_FIXTURE, encoding="utf-8") as _handle:
    XDROP_EXPECTED = json.load(_handle)


def test_fixture_covers_every_case():
    assert sorted(EXPECTED) == sorted(CASES)
    assert sorted(XDROP_EXPECTED) == sorted(XDROP_CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_matches_characterisation(name):
    got, want = characterise(name), EXPECTED[name]
    assert got.get("error") == want.get("error")
    for index, (have, expect) in enumerate(
            zip(got.get("results", []), want.get("results", []))):
        assert have == expect, f"pair {index}"
    assert got["counters"] == want["counters"]
    assert got["profile"] == want["profile"]
    assert got == want


@pytest.mark.parametrize("name", sorted(XDROP_CASES))
def test_scalar_xdrop_matches_characterisation(name):
    got, want = characterise_xdrop(name), XDROP_EXPECTED[name]
    for index, (have, expect) in enumerate(zip(got, want)):
        assert have == expect, f"pair {index}"
    assert got == want
