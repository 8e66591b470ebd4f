"""The repo's own identities are ``repro report`` artefacts.

``benchmarks/results/identities.txt`` pins the digest of every seeded run
the docs and CI quote, and ``conformance.txt`` the closed forms' reach over
the conformance sample.  These tests read committed files only: a digest
or reach count quoted anywhere else must be one of the artefacts', and the
sections themselves refuse an outcome that breaks what the numbers mean.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.analysis import report
from repro.cli import _job_params, build_parser
from repro.errors import ReproError
from repro.service.jobs import make_spec

ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS = ROOT / "benchmarks/results"

#: every file that quotes a digest or a reach count
QUOTING = [
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / ".claude/skills/verify/SKILL.md",
    ROOT / ".github/workflows/ci.yml",
]

DIGEST = re.compile(r"\b[0-9a-f]{16}\b")
#: "N of M" near "batched" is how the docs quote the closed forms' reach
REACH = re.compile(r"\b(\d+) of (\d+)\b")


def _quotes(pattern: re.Pattern) -> list[tuple[str, re.Match, str]]:
    out = []
    for path in QUOTING:
        text = path.read_text(encoding="utf-8")
        for match in pattern.finditer(text):
            window = text[max(0, match.start() - 150):match.end() + 150]
            out.append((str(path.relative_to(ROOT)), match, window))
    return out


def test_every_quoted_digest_is_an_identity():
    pinned = set(DIGEST.findall((RESULTS / "identities.txt").read_text()))
    stray = [(where, m.group()) for where, m, _ in _quotes(DIGEST)
             if m.group() not in pinned]
    assert stray == []


def test_every_quoted_reach_count_is_the_artefacts():
    first = (RESULTS / "conformance.txt").read_text().splitlines()[0]
    batched, declared = REACH.match(first).groups()
    quoted = [(where, m.groups()) for where, m, window in _quotes(REACH)
              if "batched" in window]
    assert quoted, "no reach count quoted: the pattern has gone stale"
    assert [q for q in quoted if q[1] != (batched, declared)] == []


@pytest.mark.parametrize("name,command,kind,params", report.IDENTITIES,
                         ids=[row[0] for row in report.IDENTITIES])
def test_each_row_command_builds_its_job(name, command, kind, params):
    """The ``command`` column reproduces the row: parsed by the CLI it
    builds the spec the section evaluated."""
    argv = command.split()[1:]
    if argv[0] == "submit":
        argv[1:1] = ["--state-dir", "D"]
    else:
        assert argv[0] == "chaos", command  # ``run_campaign``'s door
    args = build_parser().parse_args(argv)
    assert args.job_kind == kind
    assert make_spec(kind, _job_params(args)) == make_spec(kind, params)


def _only_row(monkeypatch, command, params):
    monkeypatch.setattr(report, "IDENTITIES", (("row", command, "chaos", params),))


def test_a_violation_on_the_protected_stack_fails_the_section(monkeypatch):
    _only_row(monkeypatch, "repro chaos --trials 1 --stack protected",
              {"trials": 1, "stack": "protected"})
    monkeypatch.setattr(report, "run_campaign", lambda **params: {
        **params, "clean": 0, "digest": "0" * 16,
        "violations": [{"trial": 0, "kind": "oracle"}],
    })
    with pytest.raises(ReproError, match="1 violation"):
        report.identities_section()


def test_a_clean_unprotected_campaign_fails_the_section(monkeypatch):
    """Seed 2027's one unprotected trial is clean: the oracle would have
    nothing to catch, so the row cannot stand for it."""
    _only_row(monkeypatch, "repro chaos --trials 1 --seed 2027 --stack none",
              {"trials": 1, "seed": 2027, "stack": "none"})
    with pytest.raises(ReproError, match="0 violation"):
        report.identities_section()


def test_a_planner_exception_fails_the_conformance_section(monkeypatch):
    case = report.sample_cases(count=1)[0]
    monkeypatch.setattr(report, "closed_form_reach", lambda cases: {
        "planner_exceptions": [(case, "planner exception: ValueError")],
    })
    with pytest.raises(ReproError, match="ValueError\n  reproduce: .*diff_case"):
        report.conformance_section()
