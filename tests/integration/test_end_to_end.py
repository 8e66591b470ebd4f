"""Cross-module integration: CLI, consistency across algorithms, scale."""

import pathlib

import numpy as np
import pytest

from repro import ALGORITHMS, MachineConfig, PortModel, get_algorithm
from repro.cli import main


class TestCrossAlgorithmConsistency:
    def test_all_applicable_algorithms_agree(self):
        """Every algorithm must produce the *same* C (they all compute A@B)."""
        n, p = 16, 16
        rng = np.random.default_rng(42)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        cfg = MachineConfig.create(p, t_s=1, t_w=1)
        results = {}
        for key, algo in ALGORITHMS.items():
            if algo.applicable(n, p):
                results[key] = algo.run(A, B, cfg).C
        assert len(results) >= 4
        reference = A @ B
        for key, C in results.items():
            assert np.allclose(C, reference), key

    def test_3d_family_agree_at_p8(self):
        n, p = 16, 8
        rng = np.random.default_rng(43)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        cfg = MachineConfig.create(p, t_s=1, t_w=1)
        for key in ("berntsen", "dns", "3dd", "3d_all_trans", "3d_all"):
            C = get_algorithm(key).run(A, B, cfg).C
            assert np.allclose(C, A @ B), key


class TestScale:
    def test_512_processors(self):
        """3D All on a 512-node cube (8x8x8 grid) stays correct."""
        n, p = 64, 512
        rng = np.random.default_rng(44)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        cfg = MachineConfig.create(p, t_s=150, t_w=3)
        run = get_algorithm("3d_all").run(A, B, cfg, verify=True)
        assert run.result.num_ranks == 512

    def test_256_processors_2d(self):
        n, p = 64, 256
        rng = np.random.default_rng(45)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        cfg = MachineConfig.create(p, t_s=150, t_w=3)
        run = get_algorithm("cannon").run(A, B, cfg, verify=True)
        assert run.result.num_ranks == 256


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "3D All" in out and "Cannon" in out

    def test_run(self, capsys):
        assert main(["run", "3d_all", "-n", "16", "-p", "8",
                     "--ts", "10", "--tw", "1"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "Table 2 model" in out
        # one resume per rank per phase: the one-port allgather pair parks
        # and batches too (96 events while it ran message by message)
        assert "engine events   : 32" in out
        assert "coll. phases    : 0 by events, 24 in closed form" in out
        # a uniform machine routes natively: nothing was searched for
        assert "route searches  : 0 (0 nodes settled), 0 adaptive detours" in out

    def test_run_multi_port(self, capsys):
        assert main(["run", "cannon", "-n", "16", "-p", "16",
                     "--port", "multi"]) == 0
        out = capsys.readouterr().out
        assert "multi-port" in out
        assert "shift rounds    : 0 by events, 64 in closed form" in out

    def test_compare(self, capsys):
        assert main(["compare", "-n", "16", "-p", "16",
                     "--ts", "10", "--tw", "1"]) == 0
        out = capsys.readouterr().out
        assert "best:" in out

    def test_figure(self, capsys):
        assert main(["figure", "13", "a", "--log2n", "6", "--log2p", "8"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out

    def test_figure_sim_backend(self, capsys):
        assert main(["figure", "13", "a", "--log2n", "3", "--log2p", "3",
                     "--backend", "sim"]) == 0
        captured = capsys.readouterr()
        assert "legend:" in captured.out
        assert captured.err == ""

    def test_sweep(self, capsys):
        """One row per value; each cell is the Table 2 overhead and
        ``best`` names the row's minimizer (``-`` where inapplicable)."""
        from repro.models.table2 import communication_overhead

        assert main(["sweep", "p", "64", "512", "-n", "16", "--algorithms",
                     "cannon", "3dd", "--ts", "10", "--tw", "1",
                     "--no-cache"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "sweep over p (one-port; n=16, t_s=10, t_w=1)"
        assert lines[1].split() == ["p", "cannon", "3dd", "best"]
        assert len(lines) == 4
        for line, p in zip(lines[2:], (64, 512)):
            value, *cells, best = line.split()
            assert float(value) == p
            times = {
                key: communication_overhead(
                    key, 16, p, PortModel.ONE_PORT, 10.0, 1.0)
                for key in ("cannon", "3dd")
            }
            assert cells == [
                "-" if t is None else f"{t:.1f}" for t in times.values()
            ]
            live = {k: t for k, t in times.items() if t is not None}
            assert best == min(live, key=live.get)

    def test_table2(self, capsys):
        assert main(["table2", "-n", "16", "-p", "8"]) == 0
        out = capsys.readouterr().out
        assert "measured" in out

    def test_not_applicable_is_clean_error(self, capsys):
        assert main(["run", "3d_all", "-n", "16", "-p", "16"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace(self, capsys):
        assert main(["trace", "3dd", "-n", "16", "-p", "8",
                     "--ts", "10", "--tw", "1", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "node   0" in out
        assert "legend" in out

    def test_trace_cut_through(self, capsys):
        assert main(["trace", "dns", "-n", "16", "-p", "8",
                     "--routing", "ct"]) == 0
        assert "cut-through" in capsys.readouterr().out

    def test_scalability(self, capsys):
        assert main(["scalability", "-E", "0.8", "--log2p-max", "6"]) == 0
        out = capsys.readouterr().out
        assert "3d_all" in out

    def test_run_with_cut_through_routing(self, capsys):
        assert main(["run", "3dd", "-n", "16", "-p", "8",
                     "--routing", "ct"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_faults_sweep(self, capsys):
        assert main(["faults", "-n", "8", "-p", "4",
                     "--ts", "10", "--tw", "1",
                     "--algorithms", "cannon",
                     "--drop-rates", "0", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "degradation sweep" in out
        assert "completion rate: 100.0%" in out

    def test_faults_transient(self, capsys):
        assert main(["faults", "-n", "8", "-p", "4",
                     "--ts", "10", "--tw", "1", "--transient",
                     "--algorithms", "cannon", "--drop-rates", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "transient link fault" in out
        assert "ok" in out

    def test_faults_no_applicable_algorithm_is_clean_error(self, capsys):
        assert main(["faults", "-n", "8", "-p", "4",
                     "--algorithms", "3d_all",      # needs p = 8^k
                     "--drop-rates", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2", "--ts", "7"],
            ["table2", "--tw", "1"],
            ["table2", "--tc", "1"],
            ["table2", "--routing", "ct"],
            ["sweep", "n", "64", "--tc", "1"],
            ["scalability", "--routing", "ct"],
            ["faults", "--tc", "1"],
            ["recover", "--routing", "ct"],
            ["degrade", "--tc", "1"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv),
    )
    def test_flags_a_subcommand_ignores_are_rejected(self, argv, capsys):
        """A machine flag the subcommand never reads is an argparse error
        (exit 2), not a run that silently uses the default."""
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestExamplesRun:
    """The shipped examples execute cleanly (smoke; they print a lot)."""

    @pytest.mark.parametrize(
        "script,argv",
        [
            ("quickstart", []),
            ("compare_algorithms", ["16", "16"]),
            ("region_maps", ["a"]),
            ("scaling_study", ["32"]),
            ("custom_machine", []),
            ("visualize_run", []),
            ("torus_comparison", []),
        ],
    )
    def test_example(self, script, argv, monkeypatch, capsys):
        import importlib.util
        import sys

        path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "examples"
            / f"{script}.py"
        )
        spec = importlib.util.spec_from_file_location(f"example_{script}", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "argv", [str(path)] + argv)
        spec.loader.exec_module(module)
        module.main()
        assert capsys.readouterr().out


class TestReportCommand:
    def test_report_no_figures(self, capsys):
        assert main(["report", "--no-figures"]) == 0
        out = capsys.readouterr().out
        assert "Table 1 reproduction" in out
        assert "Table 2 reproduction" in out
        assert "Table 3 reproduction" in out
        assert "Paper claims verified" in out
        assert "Figure" not in out
        assert "VIOLATED" not in out

    def test_report_to_file(self, tmp_path, capsys):
        """``report -o DIR`` rewrites the committed artefacts byte for byte."""
        results = pathlib.Path(__file__).resolve().parents[2] / "benchmarks/results"
        assert main(["report", "-o", str(tmp_path)]) == 0
        assert "13 artefacts written" in capsys.readouterr().out
        written = sorted(tmp_path.iterdir())
        assert len(written) == 13
        for path in written:
            assert path.read_bytes() == (results / path.name).read_bytes(), path.name
