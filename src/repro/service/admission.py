"""Admission control for the sweep service: bounded queues, token
buckets, and explicit load shedding.

A service that accepts unbounded work does not degrade, it collapses:
the queue grows until memory runs out and *every* request — old and new
— dies together.  The admission controller keeps the failure mode
honest instead:

* a **bounded pending queue** (``max_pending``) caps how much work the
  service will promise at once;
* a **per-tenant token bucket** (``tenant_rate`` jobs/second, burst
  ``tenant_burst``) keeps one aggressive tenant from starving the rest;
* any request past either limit is **shed** with
  :class:`~repro.errors.ServiceOverloadError`, which carries a concrete
  ``retry_after`` hint instead of leaving the client to guess.

Request **coalescing** lives one level up (the service owns the job
table): submissions whose task digest matches a pending/running job
attach to it as waiters — one in-flight computation, many subscribers —
and are never charged admission (they add no work).

Time is injected (``now`` parameters) so tests and journal replay can
drive the bucket deterministically; nothing here reads the wall clock
on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServiceError, ServiceOverloadError

__all__ = ["TokenBucket", "AdmissionController"]


@dataclass
class TokenBucket:
    """Classic leaky-bucket rate limiter with injected time.

    ``rate`` tokens accrue per second up to ``burst``; a job costs one
    token.  ``rate=0`` disables refill (the burst is all you ever get) —
    useful for tests; ``rate=None`` disables the bucket entirely.
    """

    rate: float | None = 2.0
    burst: float = 8.0
    tokens: float = field(init=False)
    last: float | None = field(init=False, default=None)

    def __post_init__(self):
        if self.rate is not None and self.rate < 0:
            raise ServiceError(f"token rate must be >= 0, got {self.rate}")
        if self.burst <= 0:
            raise ServiceError(f"token burst must be > 0, got {self.burst}")
        self.tokens = float(self.burst)

    def _refill(self, now: float) -> None:
        if self.last is not None and now > self.last:
            self.tokens = min(
                float(self.burst), self.tokens + (now - self.last) * self.rate
            )
        if self.last is None or now > self.last:
            self.last = now

    def wait(self, now: float) -> float:
        """Seconds from ``now`` until a token is available (``0.0``: one
        is).  Takes nothing, so probing is free."""
        if self.rate is None:
            return 0.0
        self._refill(now)
        if self.tokens >= 1.0:
            return 0.0
        if self.rate == 0:
            return float("inf")
        return (1.0 - self.tokens) / self.rate

    def try_take(self, now: float) -> float:
        """Take one token at time ``now``.

        Returns ``0.0`` on success, else :meth:`wait`'s ``retry_after``
        hint.  The bucket state only changes on success.
        """
        wait = self.wait(now)
        if wait == 0.0 and self.rate is not None:
            self.tokens -= 1.0
        return wait


class AdmissionController:
    """Decides, per submission, between *admit* and *shed* — never *queue
    forever*.

    One instance per service.  ``admit`` decides, raising
    :class:`~repro.errors.ServiceOverloadError` on shed, and takes
    nothing: the service takes an admitted job's token from its tenant's
    :meth:`bucket` (and counts admissions and sheds) in its journal
    applier, so live and replayed jobs are charged alike.
    """

    def __init__(
        self,
        *,
        max_pending: int = 32,
        tenant_rate: float | None = 2.0,
        tenant_burst: float = 8.0,
    ):
        if max_pending < 1:
            raise ServiceError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = int(max_pending)
        self.tenant_rate = tenant_rate
        self.tenant_burst = float(tenant_burst)
        self._buckets: dict[str, TokenBucket] = {}

    def bucket(self, tenant: str) -> TokenBucket:
        if tenant not in self._buckets:
            self._buckets[tenant] = TokenBucket(
                rate=self.tenant_rate, burst=self.tenant_burst
            )
        return self._buckets[tenant]

    def admit(self, tenant: str, pending: int, now: float) -> None:
        """Decide one job for ``tenant`` given ``pending`` queued jobs:
        return to admit it, raise to shed it.

        Queue pressure is checked first (it protects *everyone*), then
        the tenant's bucket (it protects everyone *else*).  On shed the
        raised error's ``retry_after`` is a concrete wait estimate: one
        expected job drain for queue pressure, the bucket's own refill
        time for rate limiting.
        """
        if pending >= self.max_pending:
            raise ServiceOverloadError(
                f"pending queue full ({pending}/{self.max_pending})",
                retry_after=1.0,
                tenant=tenant,
            )
        wait = self.bucket(tenant).wait(now)
        if wait > 0.0:
            raise ServiceOverloadError(
                f"tenant rate limit ({self.tenant_rate}/s, "
                f"burst {self.tenant_burst:g})",
                retry_after=min(wait, 3600.0),
                tenant=tenant,
            )
