"""Admission control and weighted-fair scheduling for the daemon.

The SMX paper's load-shedding argument (drop work *early*, when the
cost model already knows a deadline cannot be met, instead of burning
the budget and failing late) moves one level up here: the daemon prices
every job against its declared deadline and the queue already ahead of
it **before accepting it**, so a doomed job is rejected at admission --
with a structured :class:`JobRejected` carrying the predicted cost --
and never starts a single shard.

Accepted jobs then drain through :class:`FairPicker`, a stride
scheduler over per-tenant lanes: each tenant advances a virtual "pass"
clock by ``1 / priority`` per job served, and the lane with the
smallest pass goes next. A burst from one tenant therefore cannot
starve another -- the burster's pass races ahead and the quiet tenant's
next job wins -- while a priority-3 tenant drains three jobs for every
one of a priority-1 tenant under sustained load. The picker is fully
deterministic (ties break on tenant name), which the service tests
lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.prof import CostModel


@dataclass
class AdmissionPolicy:
    """Knobs for the admission decision.

    Attributes:
        max_queue_depth: Reject (``queue-full``) once this many jobs
            are already admitted and waiting.
        safety: Multiplier on the predicted wait+run time before it is
            compared to the job's deadline (the same pessimism as the
            supervisor's ``SHED_SAFETY`` in load shedding).
        max_backlog_s: Optional cap on predicted backlog seconds; when
            set, a job that would push the backlog past it is rejected
            (``backlog``) even without its own deadline.
    """

    max_queue_depth: int = 64
    safety: float = 1.5
    max_backlog_s: float | None = None


@dataclass(frozen=True)
class JobRejected:
    """One structured rejection (also the ``job_rejected`` event body).

    ``predicted_s`` is the cost model's estimate for the job itself;
    ``queue_depth`` and the backlog captured in ``reason`` record the
    state the decision was made against, so a rejection can always be
    reconciled after the fact.
    """

    job_id: str
    tenant: str
    reason: str
    predicted_s: float
    deadline_s: float | None
    queue_depth: int

    def to_dict(self) -> dict:
        return {"job_id": self.job_id, "tenant": self.tenant,
                "reason": self.reason,
                "predicted_s": round(self.predicted_s, 6),
                "deadline_s": self.deadline_s,
                "queue_depth": self.queue_depth}


class AdmissionController:
    """Prices jobs and decides accept/reject at the spool boundary."""

    def __init__(self, policy: AdmissionPolicy | None = None,
                 cost_model: CostModel | None = None) -> None:
        self.policy = policy or AdmissionPolicy()
        self.cost_model = cost_model or CostModel(
            seconds_per_cell=CostModel.DEFAULT_SECONDS_PER_CELL)

    def price(self, job) -> float:
        """Predicted wall seconds to run ``job`` (sum over its pairs,
        sized by raw string lengths -- admission never encodes)."""
        return sum(
            self.cost_model.estimate((len(query), len(reference))).seconds
            for query, reference in job.pairs)

    def decide(self, job, *, queue_depth: int,
               backlog_s: float) -> JobRejected | None:
        """Accept (None) or reject (a :class:`JobRejected`) one job.

        Args:
            job: The parsed :class:`~repro.service.protocol.JobSpec`.
            queue_depth: Jobs already admitted and waiting.
            backlog_s: Predicted seconds of work already queued ahead.
        """
        policy = self.policy
        predicted = self.price(job)
        if queue_depth >= policy.max_queue_depth:
            return JobRejected(
                job_id=job.job_id, tenant=job.tenant,
                reason="queue-full", predicted_s=predicted,
                deadline_s=job.deadline_s, queue_depth=queue_depth)
        if (policy.max_backlog_s is not None
                and backlog_s + predicted > policy.max_backlog_s):
            return JobRejected(
                job_id=job.job_id, tenant=job.tenant, reason="backlog",
                predicted_s=predicted, deadline_s=job.deadline_s,
                queue_depth=queue_depth)
        if (job.deadline_s is not None
                and (backlog_s + predicted) * policy.safety
                > job.deadline_s):
            return JobRejected(
                job_id=job.job_id, tenant=job.tenant, reason="deadline",
                predicted_s=predicted, deadline_s=job.deadline_s,
                queue_depth=queue_depth)
        return None


class FairPicker:
    """Deterministic stride scheduler over per-tenant priority lanes."""

    def __init__(self) -> None:
        self._lanes: dict[str, list] = {}
        self._pass: dict[str, float] = {}
        self._weight: dict[str, float] = {}
        self._virtual = 0.0

    def __len__(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def add(self, tenant: str, priority: int, item) -> None:
        """Enqueue ``item`` on ``tenant``'s lane (FIFO within a lane).

        A lane's weight is the priority of its most recent job; a
        tenant re-joining after idling starts at the current virtual
        time, not its stale pass, so idling never banks credit.
        """
        lane = self._lanes.setdefault(tenant, [])
        if not lane:
            self._pass[tenant] = max(
                self._pass.get(tenant, 0.0), self._virtual)
        self._weight[tenant] = float(max(1, priority))
        lane.append(item)

    def depths(self) -> dict[str, int]:
        """Pending jobs per tenant (non-empty lanes only) -- the
        telemetry layer's ``service.queue_depth{tenant=...}`` source."""
        return {tenant: len(lane)
                for tenant, lane in self._lanes.items() if lane}

    def pop(self):
        """Dequeue from the lane with the smallest pass (ties break on
        tenant name); returns ``(tenant, item)`` or None when empty."""
        candidates = [(self._pass[tenant], tenant)
                      for tenant, lane in self._lanes.items() if lane]
        if not candidates:
            return None
        _, tenant = min(candidates)
        item = self._lanes[tenant].pop(0)
        self._virtual = self._pass[tenant]
        self._pass[tenant] += 1.0 / self._weight[tenant]
        return tenant, item
