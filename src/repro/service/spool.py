"""File-backed durable job queue with atomic-rename leasing.

Layout under one spool root::

    spool/
      tmp/        in-flight writes (never read)
      pending/    submitted jobs waiting for admission + lease
      running/    leased jobs, plus their checkpoints (base + journal)
      done/       settled records: outcome / rejected / failed JSON

Every transition is a single ``os.replace`` (atomic on POSIX within a
filesystem), which gives the queue its crash-safety story for free:

- a submitter that dies mid-write leaves garbage only in ``tmp/``;
- a job is either in ``pending/`` or ``running/``, never both and
  never half-moved, so two daemons racing for the same file resolve
  by whoever's rename wins (the loser sees ``FileNotFoundError``);
- a daemon SIGKILL'd mid-run leaves the job file and its last
  checkpoint in ``running/``; the next daemon finds both via
  :meth:`JobSpool.orphaned` and resumes instead of recomputing;
- settling a job leaves nothing of it in ``running/``.

Nothing here knows what a job *means* -- that is
:mod:`repro.service.protocol` -- so the spool is reusable for any
one-file-per-item work queue.
"""

from __future__ import annotations

import contextlib
import os

from repro.core.atomicio import atomic_move, atomic_write_json

_STATES = ("tmp", "pending", "running", "done")


class JobSpool:
    """One durable spool rooted at ``root`` (directories made lazily)."""

    def __init__(self, root: str) -> None:
        self.root = root
        for state in _STATES:
            os.makedirs(os.path.join(root, state), exist_ok=True)

    def _dir(self, state: str) -> str:
        return os.path.join(self.root, state)

    def _job_file(self, state: str, job_id: str) -> str:
        return os.path.join(self._dir(state), f"{job_id}.json")

    # -- submission ----------------------------------------------------

    def submit(self, job) -> str:
        """Write one job into ``pending/`` (atomic; visible all at
        once). Returns the pending path."""
        from repro.service import protocol
        tmp_path = self._job_file("tmp", job.job_id)
        atomic_write_json(tmp_path, protocol.job_to_dict(job),
                          sort_keys=True)
        pending = self._job_file("pending", job.job_id)
        return atomic_move(tmp_path, pending)

    def pending_jobs(self) -> list[str]:
        """Pending job file paths, oldest submission first (mtime,
        then name for a stable tie-break)."""
        directory = self._dir("pending")
        entries = []
        for name in os.listdir(directory):
            if not name.endswith(".json"):
                continue
            path = os.path.join(directory, name)
            try:
                mtime = os.stat(path).st_mtime
            except FileNotFoundError:  # raced with a lease
                continue
            entries.append((mtime, name, path))
        return [path for _, _, path in sorted(entries)]

    def depth(self) -> int:
        """Jobs currently waiting in ``pending/``."""
        return sum(1 for name in os.listdir(self._dir("pending"))
                   if name.endswith(".json"))

    # -- lease / settle ------------------------------------------------

    def lease(self, pending_path: str) -> str | None:
        """Atomically claim one pending job (rename into ``running/``).

        Returns the running path, or None when another worker won the
        race (the pending file vanished first).
        """
        name = os.path.basename(pending_path)
        running = os.path.join(self._dir("running"), name)
        try:
            os.replace(pending_path, running)
        except FileNotFoundError:
            return None
        return running

    def orphaned(self) -> list[str]:
        """Job files left in ``running/`` by a dead daemon, sorted."""
        directory = self._dir("running")
        return sorted(
            os.path.join(directory, name)
            for name in os.listdir(directory)
            if name.endswith(".json")
            and not name.endswith(".outcome.json"))

    def checkpoint_path(self, job_id: str) -> str:
        """Where a job's incremental checkpoint lives while running
        (its journal is this path + ``.journal``)."""
        return os.path.join(self._dir("running"),
                            f"{job_id}.outcome.json")

    def drop_checkpoint(self, job_id: str) -> None:
        """Remove what is left of a job's checkpoint and journal."""
        checkpoint = self.checkpoint_path(job_id)
        for path in (checkpoint, checkpoint + ".journal"):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)

    def outcome_path(self, job_id: str) -> str:
        """Where a settled job's final outcome lives."""
        return os.path.join(self._dir("done"), f"{job_id}.outcome.json")

    def complete(self, running_path: str, job_id: str) -> str:
        """Settle a finished job: move checkpoint then job file into
        ``done/`` (checkpoint first, so a crash between the two leaves
        the job visibly unsettled, never silently done)."""
        checkpoint = self.checkpoint_path(job_id)
        if os.path.exists(checkpoint):
            atomic_move(checkpoint, self.outcome_path(job_id))
        self.drop_checkpoint(job_id)
        return atomic_move(
            running_path, self._job_file("done", job_id))

    def reject(self, pending_path: str, job_id: str,
               record: dict) -> str:
        """Settle a rejected job: record first, then move the job file
        out of ``pending/`` into ``done/``."""
        path = os.path.join(self._dir("done"),
                            f"{job_id}.rejected.json")
        atomic_write_json(path, record, sort_keys=True)
        atomic_move(pending_path, self._job_file("done", job_id))
        return path

    def fail(self, running_path: str, job_id: str, record: dict) -> str:
        """Settle a job that errored before/outside the engine."""
        path = os.path.join(self._dir("done"), f"{job_id}.failed.json")
        atomic_write_json(path, record, sort_keys=True)
        self.drop_checkpoint(job_id)
        atomic_move(running_path, self._job_file("done", job_id))
        return path

    def discard_malformed(self, pending_path: str, reason: str) -> str:
        """Settle an unparseable pending file with a rejected record
        keyed by its filename stem."""
        stem = os.path.basename(pending_path)
        if stem.endswith(".json"):
            stem = stem[:-len(".json")]
        path = os.path.join(self._dir("done"), f"{stem}.rejected.json")
        atomic_write_json(path, {"job_id": stem, "reason": "malformed",
                                 "detail": reason}, sort_keys=True)
        atomic_move(pending_path,
                    os.path.join(self._dir("done"), f"{stem}.json"))
        return path
