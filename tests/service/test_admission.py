"""Admission control: token buckets, bounded queues, explicit shedding."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError, ServiceOverloadError
from repro.service.admission import AdmissionController, TokenBucket


class TestTokenBucket:
    def test_burst_then_rate(self):
        bucket = TokenBucket(rate=2.0, burst=3.0)
        assert [bucket.try_take(0.0) for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_take(0.0)
        assert wait == pytest.approx(0.5)  # one token at 2/s
        # Refill: 0.5s later exactly one token has accrued.
        assert bucket.try_take(0.5) == 0.0
        assert bucket.try_take(0.5) > 0.0

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        for _ in range(2):
            assert bucket.try_take(0.0) == 0.0
        # A long idle period cannot bank more than `burst` tokens.
        for _ in range(2):
            assert bucket.try_take(1000.0) == 0.0
        assert bucket.try_take(1000.0) > 0.0

    def test_probe_does_not_mutate(self):
        bucket = TokenBucket(rate=0.0, burst=1.0)
        assert bucket.try_take(0.0) == 0.0
        # rate=0: never refills, wait is infinite, state untouched.
        assert bucket.try_take(100.0) == float("inf")
        assert bucket.try_take(200.0) == float("inf")

    def test_rate_none_disables(self):
        bucket = TokenBucket(rate=None, burst=1.0)
        assert all(bucket.try_take(0.0) == 0.0 for _ in range(100))

    def test_invalid_config_rejected(self):
        with pytest.raises(ServiceError):
            TokenBucket(rate=-1.0)
        with pytest.raises(ServiceError):
            TokenBucket(burst=0.0)

    def test_wait_probes_without_taking(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert [bucket.wait(0.0), bucket.wait(0.0)] == [0.0, 0.0]
        assert bucket.try_take(0.0) == 0.0
        assert bucket.wait(0.25) == pytest.approx(0.75)
        assert bucket.try_take(0.25) == pytest.approx(0.75)

    def test_time_going_backwards_is_tolerated(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(10.0) == 0.0
        # A clock step backwards must not mint tokens or crash.
        assert bucket.try_take(5.0) > 0.0


class TestAdmissionController:
    def test_queue_full_sheds_with_retry_after(self):
        ctl = AdmissionController(max_pending=2, tenant_rate=None)
        ctl.admit("a", pending=0, now=0.0)
        ctl.admit("a", pending=1, now=0.0)
        with pytest.raises(ServiceOverloadError) as exc:
            ctl.admit("a", pending=2, now=0.0)
        assert exc.value.retry_after > 0.0
        assert "queue full" in exc.value.reason

    def test_rate_limit_sheds_per_tenant(self):
        ctl = AdmissionController(
            max_pending=100, tenant_rate=1.0, tenant_burst=2.0
        )
        # Deciding takes nothing; only taking a token drains the bucket.
        for _ in range(3):
            ctl.admit("noisy", pending=0, now=0.0)
        for pending in (0, 1):
            ctl.admit("noisy", pending=pending, now=0.0)
            ctl.bucket("noisy").try_take(0.0)
        with pytest.raises(ServiceOverloadError) as exc:
            ctl.admit("noisy", pending=2, now=0.0)
        assert exc.value.tenant == "noisy"
        assert exc.value.retry_after == pytest.approx(1.0)
        # Another tenant is unaffected by the noisy one's bucket.
        ctl.admit("quiet", pending=2, now=0.0)

    def test_overload_burst_is_bounded(self):
        """A hundred rapid-fire submissions never grow the queue past the
        bound — the failure mode is shed-with-hint, not collapse."""
        ctl = AdmissionController(
            max_pending=4, tenant_rate=0.0, tenant_burst=8.0
        )
        pending = 0
        sheds = 0
        for _ in range(100):
            try:
                ctl.admit("burst", pending=pending, now=0.0)
                ctl.bucket("burst").try_take(0.0)
                pending += 1
            except ServiceOverloadError:
                sheds += 1
        assert pending == 4  # burst of 8, but the queue caps at 4
        assert sheds == 96

    def test_invalid_max_pending(self):
        with pytest.raises(ServiceError):
            AdmissionController(max_pending=0)
