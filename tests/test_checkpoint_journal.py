"""Base + journal checkpoints: crash-point exhaustiveness.

The checkpoint writer (:class:`repro.resilience.outcome_io.Journal`)
performs a fixed sequence of filesystem operations: base write, base
rename, journal create, one append per settled unit, final write,
final rename, journal unlink. :class:`CrashFS` stands between the
writer and the filesystem and can abort the run *before or after every
one of them* -- an append also at half of its bytes -- the way a
SIGKILL would (an unswallowable ``BaseException``; what already
reached the file stays). For every cut, of a fresh run and of a run
resumed from a killed one, the file pair must load to a state the
uninterrupted run passed through, cover every pair exactly once, and
resume to the uninterrupted run's exact document.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from repro.config import standard_configs
from repro.core import atomicio
from repro.exec.engine import BatchConfig
from repro.resilience import (
    ChaosPlan,
    InjectedKill,
    ResilienceConfig,
    SupervisedEngine,
    outcome_io,
)
from tests.conftest import make_pair

PAIRS = 24
UNIT = 4  # -> 6 attempt-0 units
RATES = {"crash": 0.15, "bitflip": 0.1}


class Cut(BaseException):
    """The process dying at a chosen filesystem operation."""


class _Counted:
    """A temp-file handle that counts the bytes it is given."""

    def __init__(self, fs: "CrashFS", handle) -> None:
        self.fs, self.handle = fs, handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data: str) -> None:
        self.fs.bytes += len(data.encode())
        self.handle.write(data)
        self.handle.flush()


class _Torn(_Counted):
    """A journal handle whose one ``write`` can stop at 0 / half / all
    of its bytes."""

    def write(self, data: str) -> None:
        half = len(data) // 2
        self.fs.point("append@0")
        super().write(data[:half])
        self.fs.point("append@half")
        super().write(data[half:])
        self.fs.point("append@all")


class CrashFS:
    """``os`` / ``open`` as the checkpoint writer sees them: every
    mutating call is a numbered cut point before and after; reaching
    point ``cut_at`` raises :class:`Cut`."""

    def __init__(self, cut_at: int | None = None, observe=None) -> None:
        self.cut_at, self.observe = cut_at, observe
        self.points: list[str] = []
        self.bytes = 0

    def point(self, name: str) -> None:
        self.points.append(name)
        if len(self.points) - 1 == self.cut_at:
            raise Cut(name)
        if self.observe is not None:
            self.observe()

    def install(self, monkeypatch) -> "CrashFS":
        monkeypatch.setattr(atomicio, "os", self)
        monkeypatch.setattr(outcome_io, "os", self)
        monkeypatch.setattr(outcome_io, "open", self.open, raising=False)
        return self

    def __getattr__(self, name):  # everything else is the real os
        return getattr(os, name)

    def fdopen(self, fd, mode):
        handle = os.fdopen(fd, mode)
        try:
            self.point("write:before")
        except Cut:
            handle.close()
            raise
        return _Counted(self, handle)

    def replace(self, src, dst):
        self.point("rename:before")
        os.replace(src, dst)
        self.point("rename:after")

    def unlink(self, path):
        if not path.endswith(".journal"):
            return  # atomicio tidying its temp file: a SIGKILL would not
        self.point("unlink:before")
        os.unlink(path)
        self.point("unlink:after")

    def open(self, path, mode="r", **kwargs):
        if "b" in mode or mode == "r":
            return open(path, mode, **kwargs)
        self.point(f"journal-open-{mode}:before")
        return _Torn(self, open(path, mode, **kwargs))


@pytest.fixture(scope="module")
def config():
    return standard_configs()["dna-edit"]


@pytest.fixture(scope="module")
def pairs(config):
    rng = np.random.default_rng(0xD1CE)
    return [make_pair(config, 16 + int(rng.integers(0, 8)), 0.12, rng)
            for _ in range(PAIRS)]


def _engine(config, **plan):
    return SupervisedEngine(
        config, BatchConfig(workers=2),
        ResilienceConfig(max_unit_pairs=UNIT, backend="thread",
                         backoff_base_s=0.0, validate=True),
        plan=ChaosPlan(seed=0xFA11, **RATES, **plan))


def _state(path: str) -> dict:
    """The checkpoint at ``path`` as a canonical document."""
    checkpoint = outcome_io.load(path)
    return outcome_io.to_document(
        checkpoint.outcome, pairs=checkpoint.pairs,
        complete=checkpoint.complete, queue=checkpoint.queue,
        remaining=checkpoint.remaining, digest=checkpoint.digest)


def _run(config, pairs, path, fs, monkeypatch, resume):
    with monkeypatch.context() as patch:
        fs.install(patch)
        return _engine(config).run(pairs, checkpoint_path=path,
                                   resume=resume)


def _killed(config, pairs, path, kill_at=3):
    with pytest.raises(InjectedKill):
        _engine(config, kill_at_unit=kill_at).run(
            pairs, checkpoint_path=path)


def _copy_checkpoint(src: str, dst: str) -> None:
    for suffix in ("", ".journal"):
        if os.path.exists(src + suffix):
            shutil.copy(src + suffix, dst + suffix)


@pytest.mark.parametrize("resumed", [False, True],
                         ids=["fresh", "resumed"])
def test_every_cut_loads_a_passed_state_and_resumes_identical(
        config, pairs, tmp_path, monkeypatch, resumed):
    seed = str(tmp_path / "seed.json")
    if resumed:
        _killed(config, pairs, seed)

    def start(name: str):
        path = str(tmp_path / name)
        if resumed:
            _copy_checkpoint(seed, path)
        return path, (path if resumed else None)

    # The uninterrupted run, observed after every operation.
    path, resume = start("whole.json")
    states: list[dict] = []

    def observe():
        if os.path.exists(path):
            state = _state(path)
            if state not in states:
                states.append(state)

    whole = CrashFS(observe=observe)
    reference = outcome_io.to_document(
        _run(config, pairs, path, whole, monkeypatch, resume),
        pairs=PAIRS)
    assert not os.path.exists(path + ".journal")
    assert states[-1]["complete"] and not states[0]["complete"]
    assert len(states) >= 5  # base, >= 3 settles, final
    assert {name.split(":")[0] for name in whole.points} >= {
        "write", "rename", "journal-open-w", "journal-open-a",
        "append@0", "append@half", "append@all", "unlink"}

    for cut_at, name in enumerate(whole.points):
        path, resume = start(f"cut{cut_at}.json")
        with pytest.raises(Cut):
            _run(config, pairs, path, CrashFS(cut_at), monkeypatch,
                 resume)
        if os.path.exists(path):
            state = _state(path)  # never raises
            assert state in states, (cut_at, name)
            checkpoint = outcome_io.load(path)
            done = [i for i, result in
                    enumerate(checkpoint.outcome.results)
                    if result is not None]
            failed = [f.index for f in checkpoint.outcome.failures]
            covered = sorted(done + failed + checkpoint.unsettled())
            assert covered == list(range(PAIRS)), (cut_at, name)
        else:
            # Only before the very first rename is there no file yet.
            assert not resumed and cut_at < 2, (cut_at, name)
        again = _engine(config).run(
            pairs, checkpoint_path=path,
            resume=path if os.path.exists(path) else None)
        assert outcome_io.to_document(again, pairs=PAIRS) == reference, \
            (cut_at, name)
        assert _state(path) == states[-1]
        assert not os.path.exists(path + ".journal")


class TestBinding:
    def test_journal_of_another_base_is_ignored(self, config, pairs,
                                                tmp_path):
        early, late = (str(tmp_path / name) for name in ("a", "b"))
        _killed(config, pairs, early, kill_at=1)
        _killed(config, pairs, late, kill_at=4)
        # Compact `late` (resume writes a new base), then kill again.
        with pytest.raises(InjectedKill):
            _engine(config, kill_at_unit=1).run(
                pairs, checkpoint_path=late, resume=late)
        alone = str(tmp_path / "alone")
        shutil.copy(late, alone)
        base_only = _state(alone)
        assert _state(late) != base_only  # its own journal replays
        shutil.copy(early + ".journal", late + ".journal")
        assert _state(late) == base_only  # the other run's does not

    def test_digest_mismatch_drops_the_journal(self, config, pairs,
                                               tmp_path):
        path = str(tmp_path / "ck.json")
        _killed(config, pairs, path)
        with_journal = _state(path)
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        assert with_journal["completed"] > document["completed"] == 0
        # Same document, other bytes: the header no longer names it.
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        assert _state(path)["completed"] == 0

    def test_gap_in_sequence_stops_the_replay(self, config, pairs,
                                              tmp_path):
        path = str(tmp_path / "ck.json")
        _killed(config, pairs, path, kill_at=4)
        with open(path + ".journal", encoding="utf-8") as handle:
            header, first, _second, third, *_ = handle.readlines()
        after_one = None
        for lines in ([header, first], [header, first, third]):
            with open(path + ".journal", "w",
                      encoding="utf-8") as handle:
                handle.writelines(lines)
            after_one = after_one or _state(path)
            assert _state(path) == after_one


def test_checkpoint_bytes_are_linear_in_pairs(config, tmp_path,
                                              monkeypatch):
    """Base + journal + final stay within 2.5x the final document
    (rewriting the document per settle wrote ~9.5x at 16 units)."""
    rng = np.random.default_rng(7)
    many = [make_pair(config, 40 + int(rng.integers(0, 40)), 0.1, rng)
            for _ in range(512)]
    path = str(tmp_path / "ck.json")
    fs = CrashFS()
    with monkeypatch.context() as patch:
        fs.install(patch)
        SupervisedEngine(
            config, BatchConfig(traceback=True),
            ResilienceConfig(max_unit_pairs=32, backend="thread")).run(
            many, checkpoint_path=path)
    assert fs.points.count("append@all") == 1 + 512 // 32  # + header
    assert fs.bytes <= 2.5 * os.path.getsize(path)
