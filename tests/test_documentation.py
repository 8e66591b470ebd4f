"""Documentation quality gates: every public item is documented."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.split(".")[-1].startswith("_")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    """Every name in a module's __all__ carries a docstring."""
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    undocumented = []
    for name in exported:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module_name}: missing docstrings on {undocumented}"


def test_public_methods_of_key_classes_documented():
    from repro.algorithms.base import MatmulAlgorithm
    from repro.mpi.communicator import Comm
    from repro.sim.process import ProcessContext
    from repro.topology.hypercube import Hypercube

    undocumented = []
    for cls in (ProcessContext, Comm, Hypercube, MatmulAlgorithm):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member) and not (
                member.__doc__ and member.__doc__.strip()
            ):
                undocumented.append(f"{cls.__name__}.{name}")
    assert not undocumented, undocumented


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_design_doc_mentions_every_algorithm():
    import pathlib

    from repro.algorithms import ALGORITHMS

    design = pathlib.Path(__file__).parents[1] / "DESIGN.md"
    text = design.read_text()
    # Core paper algorithms must be in the inventory table.
    for key in ("simple", "cannon", "hje", "berntsen", "dns",
                "diagonal2d", "3dd", "3d_all_trans", "3d_all"):
        assert ALGORITHMS[key].paper_section.split()[0].split("/")[0] in text


def test_experiments_doc_covers_every_table_and_figure():
    import pathlib

    text = (pathlib.Path(__file__).parents[1] / "EXPERIMENTS.md").read_text()
    for artefact in ("Table 1", "Table 2", "Table 3", "Figures 13", "Figures 14"):
        assert artefact in text, artefact


def _resolves(dotted):
    """True if ``dotted`` imports, or is an attribute chain of a module
    that does."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_documented_module_names_exist():
    """Every backticked ``repro.…`` name in the docs names something."""
    import pathlib
    import re

    root = pathlib.Path(__file__).parents[1]
    docs = [root / "README.md", root / "DESIGN.md", root / "EXPERIMENTS.md"]
    docs += sorted((root / "docs").glob("*.md"))
    missing = sorted({
        f"{doc.name}: {name}"
        for doc in docs
        for span in re.findall(r"`([^`\n]+)`", doc.read_text())
        for name in re.findall(r"\brepro(?:\.\w+)+", span)
        if not _resolves(name)
    })
    assert not missing, missing
