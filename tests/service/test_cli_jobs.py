"""One declaration per job kind: ``repro <kind>`` and ``repro submit
<kind>`` parse the same flags into the same job, and ``make_spec`` holds
every default."""

from __future__ import annotations

import re

import pytest

from repro.cli import _job_params, build_parser, main
from repro.service.jobs import make_spec

#: (flags both doors take, flags only the direct command takes)
CASES = [
    (["sweep", "n", "64", "128", "-p", "64"], []),
    (["sweep", "p", "16", "64", "--algorithms", "cannon", "3dd",
      "--ts", "10", "--tw", "1", "--port", "multi"], ["--no-cache"]),
    # CI's resilience-smoke lines
    (["degrade", "-n", "8", "-p", "16", "--severities", "0.5", "1.0", "2.0",
      "--ts", "7", "--tw", "3"], ["--check"]),
    (["chaos", "--trials", "25", "--seed", "2026", "--stack", "protected"],
     ["--require-clean"]),
    (["chaos", "--trials", "25", "--seed", "2026", "--stack", "none"],
     ["--require-violation"]),
    (["chaos", "--trials", "10", "--seed", "2026", "--stack", "protected",
      "--severity", "1.0"], ["--require-clean"]),
    # every other job flag
    (["degrade", "--oblivious", "--profile", "hotspot", "--seed", "3",
      "--scenario-seed", "2", "--algorithms", "cannon", "fox",
      "--port", "multi"], ["--json", "report.json"]),
    (["chaos", "--no-replay-check", "--algorithm", "fox", "-n", "8",
      "-p", "16", "--scenario-seed", "4"], ["--no-minimize"]),
]

#: one argv per door and kind that sets no job flag
BARE = [
    ["sweep", "n", "64"],
    ["degrade"],
    ["chaos"],
    ["submit", "--state-dir", "D", "sweep", "n", "64"],
    ["submit", "--state-dir", "D", "region-map"],
    ["submit", "--state-dir", "D", "degrade"],
    ["submit", "--state-dir", "D", "chaos"],
]


def _spec_params(argv: list[str]) -> tuple[str, dict]:
    args = build_parser().parse_args(argv)
    return args.job_kind, make_spec(args.job_kind, _job_params(args)).params


@pytest.mark.parametrize("shared,direct_only", CASES,
                         ids=lambda argv: " ".join(argv))
def test_both_doors_build_one_spec(shared, direct_only, tmp_path):
    direct = _spec_params(shared + direct_only)
    queued = _spec_params(["submit", "--state-dir", str(tmp_path), *shared])
    assert direct == queued


@pytest.mark.parametrize("argv", BARE, ids=lambda argv: " ".join(argv))
def test_kind_flags_default_to_none(argv):
    """A flag left out is absent from the params, so ``make_spec``'s
    default is the only one."""
    args = build_parser().parse_args(argv)
    flags = [key for key in args.job_keys if key not in ("variable", "values")]
    assert flags
    assert {key: getattr(args, key) for key in flags} == dict.fromkeys(flags)


@pytest.mark.parametrize("direct_only", [
    ["degrade", "--check"],
    ["degrade", "--cache"],
    ["chaos", "--no-minimize"],
    ["chaos", "--only-trial", "3"],
])
def test_direct_only_flags_are_refused_by_submit(direct_only, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["submit", "--state-dir", "D", *direct_only])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("job,direct_only,digest", [
    (["degrade", "-n", "8", "-p", "16", "--severities", "0.5", "1.0", "2.0",
      "--ts", "7", "--tw", "3"], ["--check", "--no-cache"], "6b677a5ecf0b4a76"),
    (["chaos", "--trials", "4", "--seed", "2026"], ["--no-minimize"],
     "72bdf048f44a534c"),
], ids=["degrade", "chaos"])
def test_served_job_seals_the_direct_digest(job, direct_only, digest,
                                            tmp_path, capsys):
    assert main(job + direct_only) == 0
    assert f"digest: {digest}" in capsys.readouterr().out
    state = str(tmp_path / "svc")
    assert main(["submit", "--state-dir", state, *job]) == 0
    assert main(["serve", "--state-dir", state, "--workers", "1"]) == 0
    served = re.findall(r"digest=(\w+)", capsys.readouterr().out)
    assert served == [digest]
