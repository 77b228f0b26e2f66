"""Stable on-disk ``smx-outcome/1`` format: checkpoint and resume.

A :class:`~repro.resilience.failures.BatchOutcome` -- completed
results, quarantine list, shed/failure records, counters, degradation
map -- serializes to one JSON document. The same document doubles as

- the **checkpoint** a SIGKILL'd run resumes from (``complete`` false;
  the ``queue`` and ``remaining`` sections carry the supervisor's
  in-flight recovery units and not-yet-absorbed wave units, at their
  exact attempt counts, so the resumed run replays the identical
  decision sequence), and
- the **final outcome** a finished run leaves behind (``complete``
  true, empty queue), which ``repro stats`` and the service daemon's
  ``done/`` spool consume.

A running checkpoint is a *base + journal* pair: :class:`Journal`
writes it, :func:`load_document` reads it. The base is one full
document at ``P``, written (write-then-rename, see
:mod:`repro.core.atomicio`) when the run starts or resumes; every
settled unit then appends one compact line to ``P.journal`` with only
what it changed -- new result rows and failures, the counters, new
degraded entries, the recovery queue, how many of the base's
``remaining`` units are absorbed. The final document replaces ``P``
and the journal is removed. **Binding rule:** the journal's first line
is the digest of the base file's bytes, and a journal beside any other
base is ignored; records replay while they parse and their ``seq``
counts 1, 2, 3..., so a torn last line is dropped and its unit
re-runs. Durability is ``atomicio``'s: nothing is fsync'd, so the pair
survives a SIGKILL at any instruction, not power loss.

Serialization is *bit-stable*: every value is coerced to plain JSON
scalars (NumPy integers become ``int``), keys are emitted sorted, and
``to_document(from_document(doc)) == doc`` holds exactly -- the
property the kill/resume chaos tests lean on when they assert a
resumed union is indistinguishable from an uninterrupted run.

Scrooge's memory-frugality argument (PAPERS.md) shapes the format:
results are stored as flat per-pair rows keyed by index, so a settle
writes only the rows it produced, and a resumed run only ever loads
the remainder it still has to execute.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import AlignerResult, DPStats
from repro.core.atomicio import atomic_write_json
from repro.dp.alignment import Alignment
from repro.resilience.failures import BatchOutcome, PairFailure

SCHEMA = "smx-outcome/1"


def _clean(value):
    """Coerce to bit-stable plain-JSON values (NumPy scalars -> int/
    float, tuples -> lists, dict keys -> str)."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _clean(item) for key, item in value.items()}
    return str(value)


# ----------------------------------------------------------------------
# Per-record serialization
# ----------------------------------------------------------------------

def result_to_dict(result: AlignerResult) -> dict:
    """One completed pair's row (alignment inlined when present)."""
    row: dict = {"score": _clean(result.score)}
    if result.alignment is not None:
        alignment = result.alignment
        row["alignment"] = {
            "score": _clean(alignment.score),
            "cigar": [[int(count), op] for count, op in alignment.cigar],
            "query_len": int(alignment.query_len),
            "ref_len": int(alignment.ref_len),
        }
        if alignment.meta:
            row["alignment"]["meta"] = _clean(alignment.meta)
    stats = result.stats
    if stats.cells_computed or stats.cells_stored or stats.blocks:
        row["stats"] = {"cells_computed": int(stats.cells_computed),
                        "cells_stored": int(stats.cells_stored),
                        "blocks": int(stats.blocks)}
    if result.failed:
        row["failed"] = True
        row["failure_reason"] = result.failure_reason
    if result.meta:
        row["meta"] = _clean(result.meta)
    return row


def result_from_dict(row: dict) -> AlignerResult:
    alignment = None
    if "alignment" in row:
        doc = row["alignment"]
        alignment = Alignment(
            score=doc["score"],
            cigar=[(count, op) for count, op in doc["cigar"]],
            query_len=doc["query_len"], ref_len=doc["ref_len"],
            meta=dict(doc.get("meta") or {}))
    stats_doc = row.get("stats") or {}
    return AlignerResult(
        alignment=alignment, score=row.get("score"),
        stats=DPStats(cells_computed=stats_doc.get("cells_computed", 0),
                      cells_stored=stats_doc.get("cells_stored", 0),
                      blocks=stats_doc.get("blocks", 0)),
        failed=bool(row.get("failed", False)),
        failure_reason=row.get("failure_reason", ""),
        meta=dict(row.get("meta") or {}))


def failure_to_dict(failure: PairFailure) -> dict:
    return {"index": int(failure.index), "fault": failure.fault,
            "error_type": failure.error_type,
            "message": failure.message,
            "attempts": int(failure.attempts),
            "rungs": list(failure.rungs)}


def failure_from_dict(row: dict) -> PairFailure:
    return PairFailure(index=row["index"], fault=row["fault"],
                       error_type=row["error_type"],
                       message=row.get("message", ""),
                       attempts=row.get("attempts", 1),
                       rungs=tuple(row.get("rungs") or ()))


# ----------------------------------------------------------------------
# Whole-document round trip
# ----------------------------------------------------------------------

@dataclass
class Checkpoint:
    """An ``smx-outcome/1`` document, deserialized.

    Attributes:
        outcome: The reconstructed partial (or complete) outcome;
            ``results`` is padded to ``pairs`` entries with ``None`` at
            every position not yet completed.
        pairs: Total pairs in the run the document describes.
        complete: True for a finished run (empty queue/remaining).
        queue: Supervisor recovery units still pending, as plain dicts
            (``{"indices": [...], "attempt": n, "rung": ..., "rungs":
            [...], "fault": ...}``) in FIFO order.
        remaining: Wave units not yet absorbed when the checkpoint was
            taken (pair-index lists, attempt 0).
        digest: Content hash of the submitted pairs (resume guard).
    """

    outcome: BatchOutcome
    pairs: int
    complete: bool = False
    queue: list[dict] = field(default_factory=list)
    remaining: list[list[int]] = field(default_factory=list)
    digest: str | None = None

    def unsettled(self) -> list[int]:
        """Pair indices the checkpointed run had not finished."""
        return sorted(_unsettled(self.queue, self.remaining))


def _unsettled(queue: list[dict], remaining: list[list[int]]) -> set:
    pending = set()
    for unit in queue:
        pending.update(unit.get("indices") or [])
    for indices in remaining:
        pending.update(indices)
    return pending


def pairs_digest(pairs) -> str:
    """Order-sensitive content hash of an encoded pair list.

    Guards ``--resume`` against being pointed at a checkpoint from a
    different batch: same pairs in the same order, same digest.
    """
    digest = hashlib.blake2b(digest_size=16)
    for q_codes, r_codes in pairs:
        digest.update(np.asarray(q_codes, dtype=np.uint8).tobytes())
        digest.update(b"|")
        digest.update(np.asarray(r_codes, dtype=np.uint8).tobytes())
        digest.update(b";")
    return digest.hexdigest()


def to_document(outcome: BatchOutcome, *, pairs: int,
                complete: bool = True, queue: list[dict] = (),
                remaining: list[list[int]] = (),
                digest: str | None = None) -> dict:
    """Serialize an outcome (plus supervisor state) to one document."""
    results = {str(index): result_to_dict(result)
               for index, result in enumerate(outcome.results)
               if result is not None}
    document = {
        "schema": SCHEMA,
        "pairs": int(pairs),
        "complete": bool(complete),
        "completed": len(results),
        "results": results,
        "failures": [failure_to_dict(f) for f in sorted(
            outcome.failures, key=lambda f: f.index)],
        "counters": {key: int(outcome.counters[key])
                     for key in sorted(outcome.counters)},
        "degraded": {str(index): list(outcome.degraded[index])
                     for index in sorted(outcome.degraded)},
        "queue": [_clean(unit) for unit in queue],
        "remaining": [[int(i) for i in indices]
                      for indices in remaining],
    }
    if digest is not None:
        document["pairs_digest"] = digest
    return document


def _check_schema(document) -> None:
    if not isinstance(document, dict) or "schema" not in document:
        raise ValueError("not an SMX outcome (no schema key)")
    if not str(document["schema"]).startswith("smx-outcome/"):
        raise ValueError(f"unknown schema {document['schema']!r} "
                         f"(expected {SCHEMA})")


def from_document(document: dict) -> Checkpoint:
    """Parse one document back; raises ``ValueError`` when malformed."""
    _check_schema(document)
    try:
        pairs = int(document["pairs"])
        results: list[AlignerResult | None] = [None] * pairs
        for key, row in (document.get("results") or {}).items():
            index = int(key)
            if not 0 <= index < pairs:
                raise ValueError(f"result index {index} outside "
                                 f"0..{pairs - 1}")
            results[index] = result_from_dict(row)
        outcome = BatchOutcome(
            results=results,
            failures=[failure_from_dict(row)
                      for row in document.get("failures") or []],
            counters={str(key): int(value) for key, value in
                      (document.get("counters") or {}).items()},
            degraded={int(key): tuple(value) for key, value in
                      (document.get("degraded") or {}).items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed smx-outcome document: {exc}") \
            from None
    return Checkpoint(
        outcome=outcome, pairs=pairs,
        complete=bool(document.get("complete", True)),
        queue=[dict(unit) for unit in document.get("queue") or []],
        remaining=[list(map(int, indices))
                   for indices in document.get("remaining") or []],
        digest=document.get("pairs_digest"))


def write(path: str, document: dict) -> str:
    """Atomically write one document (write-then-rename)."""
    return atomic_write_json(path, document, sort_keys=True)


def journal_path(path: str) -> str:
    """The journal beside the checkpoint at ``path``."""
    return path + ".journal"


def _digest(raw: bytes) -> str:
    return hashlib.blake2b(raw, digest_size=16).hexdigest()


class Journal:
    """Writer of the checkpoint at ``path``: :meth:`begin` the base,
    :meth:`append` one line per settle, :meth:`finish`."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._seq = self._failures = self._wave = 0

    def _line(self, mode: str, text: str) -> None:
        with open(journal_path(self.path), mode,
                  encoding="utf-8") as handle:
            handle.write(text + "\n")

    def begin(self, document: dict) -> None:
        """Write the base document and a fresh journal bound to it."""
        write(self.path, document)
        self._seq = 0
        self._failures = len(document["failures"])
        self._wave = len(document["remaining"])
        with open(self.path, "rb") as handle:
            self._line("w", _digest(handle.read()))

    def append(self, outcome: BatchOutcome, fresh: list[int],
               queue: list[dict], pending: int) -> None:
        """Log one settle: ``fresh`` are the indices whose results
        landed since the last line, ``pending`` counts the wave units
        still not absorbed; failures only ever append."""
        self._seq += 1
        failures = outcome.failures[self._failures:]
        self._failures = len(outcome.failures)
        self._line("a", json.dumps({
            "seq": self._seq,
            "results": {str(i): result_to_dict(outcome.results[i])
                        for i in fresh},
            "failures": [failure_to_dict(f) for f in failures],
            "counters": {key: int(value)
                         for key, value in outcome.counters.items()},
            "degraded": {str(i): list(outcome.degraded[i])
                         for i in fresh if i in outcome.degraded},
            "queue": [_clean(unit) for unit in queue],
            "absorbed": self._wave - pending},
            separators=(",", ":"), default=str))

    def finish(self, document: dict) -> None:
        """Replace the base with the final document, drop the journal."""
        write(self.path, document)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(journal_path(self.path))


def _fold_journal(path: str, raw: bytes, document: dict) -> None:
    """Replay the journal beside ``path`` into ``document`` -- only if
    its first line names exactly the base bytes ``raw``."""
    try:
        with open(journal_path(path), "rb") as handle:
            header, *lines = handle.read().split(b"\n")
    except FileNotFoundError:
        return
    if header != _digest(raw).encode():
        return
    wave = document["remaining"]
    for seq, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except ValueError:  # the torn (or empty) tail
            break
        if record["seq"] != seq:
            break
        document["results"].update(record["results"])
        document["failures"] += record["failures"]
        document["counters"] = record["counters"]
        document["degraded"].update(record["degraded"])
        document["queue"] = record["queue"]
        document["remaining"] = wave[record["absorbed"]:]
    document["failures"].sort(key=lambda row: row["index"])
    document["completed"] = len(document["results"])


def load_document(path: str) -> dict:
    """Read and schema-check a document, its journal folded in;
    ``ValueError`` on anything that is not a well-formed
    ``smx-outcome/1`` file."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        document = json.loads(raw)
        _check_schema(document)
        _fold_journal(path, raw, document)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc.msg})") \
            from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed journal ({exc!r})") \
            from None
    return document


def load(path: str) -> Checkpoint:
    """Read, schema-check, and deserialize a checkpoint file."""
    document = load_document(path)
    try:
        return from_document(document)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def summarize(document: dict) -> dict:
    """Digest rows for the ``stats``/``top`` CLI renderers."""
    pairs = int(document.get("pairs") or 0)
    completed = len(document.get("results") or {})
    failures = document.get("failures") or []
    by_fault: dict[str, int] = {}
    shed = 0
    for row in failures:
        fault = row.get("fault", "error")
        by_fault[fault] = by_fault.get(fault, 0) + 1
        if row.get("error_type") == "LoadShed":
            shed += 1
    unsettled = _unsettled(document.get("queue") or [],
                           document.get("remaining") or [])
    return {
        "pairs": pairs,
        "completed": completed,
        "fraction": completed / pairs if pairs else 0.0,
        "complete": bool(document.get("complete", True)),
        "failures": len(failures),
        "quarantined_by_fault": dict(sorted(by_fault.items())),
        "shed": shed,
        "unsettled": len(unsettled),
        "counters": dict(document.get("counters") or {}),
    }
