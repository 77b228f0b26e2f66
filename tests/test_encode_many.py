"""``Alphabet.encode_many``: vectorised passes that answer (and fail)
exactly as the per-string ``encode`` loop."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import api
from repro.encoding.alphabet import (
    ALPHABETS,
    ASCII,
    DNA,
    ENCODE_PASS,
    PROTEIN,
)
from repro.errors import EncodingError


def _loop_error(alphabet, strings):
    """The exception the per-string loop raises, as (type, message)."""
    try:
        for item in strings:
            alphabet.encode(item)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    raise AssertionError("the loop raised nothing")


def _assert_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.uint8
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(ALPHABETS))
@given(data=st.data())
def test_equals_per_string_encode(name, data):
    alphabet = ALPHABETS[name]
    letters = alphabet.letters or "".join(map(chr, range(32, 127)))
    letters += letters.lower()
    strings = data.draw(st.lists(st.text(alphabet=letters, max_size=30),
                                 max_size=10))
    _assert_equal(alphabet.encode_many(strings),
                  [alphabet.encode(item) for item in strings])


def test_many_passes_equal_per_string_encode():
    """Items spread over several passes, one longer than a pass, and a
    bad character in the last pass raising the loop's error."""
    rng = np.random.default_rng(3)
    strings = ["".join(rng.choice(list("ACGTacgt"), size=int(size)))
               for size in rng.integers(0, 90, size=3 * ENCODE_PASS // 45)]
    strings.insert(7, "G" * (ENCODE_PASS + 5))
    assert sum(map(len, strings)) > 3 * ENCODE_PASS
    _assert_equal(DNA.encode_many(strings),
                  [DNA.encode(item) for item in strings])
    strings[-1] += "N"
    kind, message = _loop_error(DNA, strings)
    with pytest.raises(kind) as raised:
        DNA.encode_many(strings)
    assert str(raised.value) == message


def test_views_are_writable_and_independent():
    first, second = DNA.encode_many(["ACGT", "TTTT"])
    first[0] = 3
    assert first.tolist() == [3, 1, 2, 3]
    assert second.tolist() == [3, 3, 3, 3]


@pytest.mark.parametrize("pair", [0, 2])
def test_bad_reference_raises_the_loop_error(pair):
    """A bad character in the reference of pair k raises the message
    the per-string loop raises for it."""
    strings = []
    for index in range(3):
        strings += ["ACGT", "ACNT" if index == pair else "GATTACA"]
    kind, message = _loop_error(DNA, strings)
    with pytest.raises(kind) as raised:
        DNA.encode_many(strings)
    assert raised.type is EncodingError
    assert str(raised.value) == message == \
        "character 'N' not in alphabet 'dna'"


def test_first_bad_string_wins():
    strings = ["ACGT", "ACGU", "XCGT"]
    kind, message = _loop_error(DNA, strings)
    with pytest.raises(kind, match="'U'"):
        DNA.encode_many(strings)


@pytest.mark.parametrize("alphabet", [DNA, PROTEIN, ASCII],
                         ids=lambda a: a.name)
def test_non_latin1_raises_the_same_type(alphabet):
    strings = ["ACGT", "AC€T"]
    kind, message = _loop_error(alphabet, strings)
    assert kind is UnicodeEncodeError
    with pytest.raises(UnicodeEncodeError) as raised:
        alphabet.encode_many(strings)
    assert str(raised.value) == message


def test_non_str_item_raises_the_same_type():
    strings = ["ACGT", 7]
    kind, message = _loop_error(DNA, strings)
    with pytest.raises(kind) as raised:
        DNA.encode_many(strings)
    assert str(raised.value) == message


def test_bytes_inputs():
    _assert_equal(DNA.encode_many([b"ACGT", bytearray(b"gat"), b""]),
                  [DNA.encode(b"ACGT"), DNA.encode(b"gat"),
                   DNA.encode(b"")])
    _assert_equal(ASCII.encode_many([b"\x00\xff", b"hi"]),
                  [ASCII.encode(b"\x00\xff"), ASCII.encode(b"hi")])


def test_mixed_str_and_bytes_fall_back_to_the_loop():
    _assert_equal(DNA.encode_many(["AC", b"GT"]),
                  [DNA.encode("AC"), DNA.encode(b"GT")])


def test_empty_strings_and_empty_list():
    _assert_equal(DNA.encode_many(["", "", "A", ""]),
                  [DNA.encode(item) for item in ("", "", "A", "")])
    assert DNA.encode_many([]) == []
    assert DNA.encode_many(iter(())) == []


def test_encode_pairs_keeps_pair_order():
    config = api.PRESETS["dna-gap"]()
    pairs = [("AC", "GTT"), ("", "A"), ("T", "")]
    encoded = config.encode_pairs(pairs)
    assert [(q.tolist(), r.tolist()) for q, r in encoded] == \
        [(config.encode(q).tolist(), config.encode(r).tolist())
         for q, r in pairs]
    assert config.encode_pairs([]) == []


def test_api_batch_error_matches_the_loop():
    """score_batch fails on the reference of pair 1 exactly as the
    per-string loop it replaced did."""
    pairs = [("ACGT", "ACGT"), ("ACGT", "ACGZ")]
    with pytest.raises(EncodingError,
                       match="^character 'Z' not in alphabet 'dna'$"):
        api.score_batch(pairs)
