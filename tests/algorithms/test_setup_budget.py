"""Per-rank set-up cost at p = 4096, as an exact count.

Every rank of a grid algorithm starts by finding its place on the
Gray-code embedded grid and wrapping its rows, columns or lines in
communicators.  That numbering is a function of the machine's shape, so
the grid, its Gray-code tables and its member tuples are built once per
shape and every rank reads them (see :mod:`repro.topology.embedding`).
Two gates hold that:

* ``gray_code`` and ``gray_code_inverse`` are never called: a spy on their
  code objects in the profile sees no call, however a caller imports them;
* the whole ``Algorithm.run`` (distribute + simulate + collect) costs at
  most a ceiling of ``cProfile`` calls per rank, ~5 % above today's.

The runs are timing-only on default knobs, so the closed forms leave the
event queue nearly idle and set-up is a visible share of the count.  Like
``tests/sim/test_event_path_budget.py``, the ceilings are CPython 3.11
counts taken after a warm-up run has filled the shared tables: a count
then repeats exactly, and interpreters that inline comprehensions count
fewer calls.
"""

import cProfile
import gc

import numpy as np
import pytest

from repro import MachineConfig, get_algorithm
from repro.sim import PortModel
from repro.util.bits import gray_code, gray_code_inverse

P = 4096
_GRAY = {gray_code.__code__, gray_code_inverse.__code__}


def _run(key, n, port):
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    cfg = MachineConfig.create(P, t_s=150, t_w=3, t_c=0.5, port_model=port)
    return get_algorithm(key).run(A, B, cfg, timing_only=True)


@pytest.mark.parametrize(
    "key, n, port, messages, ceiling",
    [
        # 128.12 calls per rank (parent: 164.12, with 20 gray_code /
        # gray_code_inverse calls per rank, 16 in cannon_kernel's eight
        # neighbour lookups)
        ("cannon", 64, PortModel.ONE_PORT, 524_288, 134.5),
        # 906.99 (parent: 1 303.00, with 260 Gray-code calls per rank, 256
        # of them enumerating its row and column); its 64 block products
        # are an event each
        ("simple", 64, PortModel.ONE_PORT, 49_152, 952.3),
        # 544.80 (598.79 before the collective planner folded groups
        # into families; 611.79 with 6 Gray-code calls per rank)
        ("3d_all", 256, PortModel.MULTI_PORT, 262_144, 572.0),
        # 161.22 (184.11 before the planner's families; 197.68 with 6.56
        # Gray-code calls per rank)
        ("dns", 16, PortModel.ONE_PORT, 12_032, 169.3),
    ],
    ids=["cannon_n64", "simple_n64", "3d_all_n256_multi", "dns_n16"],
)
def test_per_rank_setup_reads_shared_tables(key, n, port, messages, ceiling):
    _run(key, n, port)  # fill the shared tables and lazy imports
    gc.collect()
    gc.disable()
    prof = cProfile.Profile()
    prof.enable()
    try:
        run = _run(key, n, port)
    finally:
        prof.disable()
        gc.enable()
    stats = prof.getstats()
    assert run.result.total_messages() == messages
    gray_calls = sum(e.callcount for e in stats if e.code in _GRAY)
    assert gray_calls == 0, f"{gray_calls} gray_code / gray_code_inverse calls"
    per_rank = sum(e.callcount for e in stats) / P
    assert per_rank <= ceiling, f"{per_rank:.2f} calls per rank, ceiling {ceiling}"
