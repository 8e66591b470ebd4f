"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.sim.machine import MachineConfig, PortModel

# Property tests build whole simulated machines; wall-clock deadlines are
# load-dependent noise, so disable them (determinism comes from the seed).
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="regenerate the committed golden-trace fixtures instead of "
        "comparing against them (use after an intentional engine change)",
    )
    parser.addoption(
        "--rng-seed",
        type=int,
        default=12345,
        help="seed for the shared `rng` fixture (default 12345; change to "
        "explore other deterministic draws, e.g. --rng-seed=$RANDOM)",
    )


@pytest.fixture
def regen_golden(request):
    """True when the run should rewrite golden fixtures (--regen-golden)."""
    return request.config.getoption("--regen-golden")


@pytest.fixture(params=[PortModel.ONE_PORT, PortModel.MULTI_PORT], ids=["one-port", "multi-port"])
def port_model(request):
    return request.param


@pytest.fixture
def rng(request):
    """Shared seeded RNG: deterministic by default, overridable per run.

    The seed comes from ``--rng-seed`` (default 12345) and is printed on
    entry; pytest swallows the line for passing tests and replays it in
    the captured-stdout section of any failure, so a failing seeded test
    always names the seed that reproduces it.
    """
    seed = request.config.getoption("--rng-seed")
    print(f"[rng fixture] seed={seed} (rerun with --rng-seed={seed})")
    return np.random.default_rng(seed)


@pytest.fixture
def rng_seed(request):
    """The ``--rng-seed`` value itself, for tests that spawn sub-streams."""
    return request.config.getoption("--rng-seed")


@pytest.fixture
def on_service(tmp_path_factory):
    """Run one job on a fresh sweep service and return its sealed report.

    The service is the one parallel executor: ``workers`` forked
    processes (default 2), one cell per chunk, so each worker rebuilds
    its own engines, route caches and seeded fault streams.  Tests use it
    to pin that the worker count never shows in a result.
    """
    from repro.service import SweepService

    def run(kind: str, params: dict, workers: int = 2) -> dict:
        state = tmp_path_factory.mktemp(f"svc-{kind}-w{workers}")
        with SweepService(state, workers=workers, chunk_size=1) as svc:
            svc.submit(kind, params)
            return svc.run_pending()[0]

    return run


def make_config(
    p: int,
    *,
    t_s: float = 10.0,
    t_w: float = 1.0,
    t_c: float = 0.0,
    port: PortModel = PortModel.ONE_PORT,
) -> MachineConfig:
    return MachineConfig.create(p, t_s=t_s, t_w=t_w, t_c=t_c, port_model=port)


def random_pair(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))
