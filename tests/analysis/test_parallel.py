"""Tests for the sweep service's worker count and chunk planner.

This module covers ``default_jobs`` (half the CPUs in the affinity mask,
else half of ``os.cpu_count()``, at least one) and the ``plan_chunks``
partition.  That the service's sealed digests do not depend on the
worker count is pinned in ``tests/service/test_service.py``.
"""

import os

import pytest

import repro.analysis.parallel as parallel_mod
from repro.analysis.parallel import default_jobs


class TestDefaultJobs:
    @pytest.mark.parametrize("bad", ["0", "-3", "two", "", "1.5"])
    def test_malformed_env_values_fall_through(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        jobs = default_jobs()
        assert jobs >= 1
        # same answer as no env var at all
        monkeypatch.delenv("REPRO_JOBS")
        assert jobs == default_jobs()

    def test_affinity_mask_is_honoured(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )
        assert default_jobs() == 4  # 8 visible CPUs, halved

    def test_halving_floors_at_one(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert default_jobs() == 1

    def test_cpu_count_fallback(self, monkeypatch):
        def no_affinity(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(os, "sched_getaffinity", no_affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_jobs() == 3

    def test_env_var_is_ignored(self, monkeypatch):
        """``serve --workers`` is the one override; no variable is read."""
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(64)), raising=False
        )
        assert default_jobs() == 32

    def test_exported(self):
        assert "default_jobs" in parallel_mod.__all__


class TestChunkPlanning:
    """plan_chunks/resolve_jobs back the service's journaled chunk plans."""

    def test_plan_covers_every_cell_exactly_once(self):
        from repro.analysis.parallel import plan_chunks

        for n_cells in (1, 2, 7, 64, 100):
            for jobs in (1, 2, 5):
                plan = plan_chunks(n_cells, jobs)
                covered = [i for start, stop in plan for i in range(start, stop)]
                assert covered == list(range(n_cells))

    def test_plan_is_deterministic(self):
        from repro.analysis.parallel import plan_chunks

        assert plan_chunks(100, 4) == plan_chunks(100, 4)
        assert plan_chunks(10, 3, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_explicit_chunk_size_wins(self):
        from repro.analysis.parallel import plan_chunks

        assert plan_chunks(5, 8, 1) == [(i, i + 1) for i in range(5)]

    def test_empty_grid_plans_nothing(self):
        from repro.analysis.parallel import plan_chunks

        assert plan_chunks(0, 4) == []

    def test_resolve_jobs_explicit_values(self):
        from repro.analysis.parallel import resolve_jobs

        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1
