"""Admission is total: a spec ``make_spec`` admits is one ``evaluate`` can
run.  Per job kind, hypothesis draws valid and nearly-valid params at
small sizes; each draw is either refused with a ``ServiceError`` or
evaluated to a report, failures of single cells captured in it."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service.jobs import evaluate, make_spec

_ALGORITHMS = st.lists(
    st.sampled_from(["cannon", "berntsen", "3dd", "3d_all", "fox", "cannonn"]),
    max_size=2, unique=True,
)
_PORT = st.sampled_from(["one", "multi-port", "two"])
_COST = st.sampled_from([-1.0, 0.0, 1.0, 10.0])


def _params(required=None, **fields) -> st.SearchStrategy[dict]:
    """Dicts holding the ``required`` keys and any subset of ``fields`` (a
    missing key takes ``make_spec``'s default)."""
    return st.fixed_dictionaries(required or {}, optional=fields)


def _admitted_or_refused(kind: str, params: dict) -> dict | None:
    try:
        spec = make_spec(kind, params)
    except ServiceError:
        return None
    report = evaluate(spec)
    assert report["kind"] == kind and len(report["digest"]) == 16
    return report


@settings(max_examples=40, derandomize=True)
@given(_params(
    {
        "variable": st.sampled_from(["n", "p", "t_s", "t_w", "q"]),
        "values": st.lists(
            st.sampled_from([-5.0, 0.0, 0.5, 1.0, 2.0, 8.0, 64.0, math.inf]),
            max_size=3,
        ),
    },
    n=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 16.0, 256.0]),
    p=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 4.0, 64.0]),
    algorithms=_ALGORITHMS, port=_PORT, t_s=_COST, t_w=_COST,
))
def test_sweep_admission_is_total(params):
    report = _admitted_or_refused("sweep", params)
    if report is not None:
        assert len(report["points"]) == len(report["values"])


@settings(max_examples=25, derandomize=True)
@given(_params(
    log2_n_min=st.integers(-1, 3), log2_n_max=st.integers(-1, 3),
    log2_p_min=st.integers(-1, 3), log2_p_max=st.integers(-1, 3),
    backend=st.sampled_from(["model", "sim", "vector"]),
    algorithms=_ALGORITHMS, port=_PORT, t_s=_COST, t_w=_COST,
))
def test_region_map_admission_is_total(params):
    params.setdefault("log2_n_max", 3)  # the default lattice is large
    params.setdefault("log2_p_max", 3)
    report = _admitted_or_refused("region_map", params)
    if report is not None:
        assert len(report["rows"]) == (
            report["log2_n_max"] - report["log2_n_min"] + 1
        )


@settings(max_examples=15, derandomize=True)
@given(_params(
    n=st.sampled_from([-1, 0, 4, 7, 8]),
    p=st.sampled_from([0, 3, 4, 8]),
    severities=st.lists(st.sampled_from([-0.5, 0.0, 1.0, 2.0]), max_size=2),
    profile=st.sampled_from(["random", "hotspot", "dimension", "wormhole"]),
    adaptive=st.booleans(),
    algorithms=_ALGORITHMS, port=_PORT, t_s=_COST, t_w=_COST,
))
def test_degrade_admission_is_total(params):
    params.setdefault("n", 4)  # the default 8 x 16 machine is slow here
    params.setdefault("p", 4)
    report = _admitted_or_refused("degrade", params)
    if report is not None:
        assert report["quarantined_cells"] == []


@settings(max_examples=15, derandomize=True)
@given(_params(
    trials=st.integers(-1, 2),
    stack=st.sampled_from(["none", "reliable", "protected", "bogus"]),
    algorithm=st.sampled_from(["cannon", "fox", "nope"]),
    n=st.sampled_from([0, 4, 7, 8]),
    p=st.sampled_from([0, 4, 16]),
    severity=st.sampled_from([-1.0, 0.0, 0.5]),
    check_replay=st.booleans(),
    deadline_factor=st.sampled_from([-1.0, 0.0, 200.0]),
))
def test_chaos_admission_is_total(params):
    params.setdefault("trials", 1)  # the default 25 trials are slow here
    params.setdefault("n", 4)
    params.setdefault("p", 4)
    report = _admitted_or_refused("chaos", params)
    if report is not None:
        assert report["trials"] == params["trials"]
