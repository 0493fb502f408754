"""The package's public surface: what `latcomm` exports, and the functions
that the benchmark tracer wraps by name."""

import ast
import importlib
from pathlib import Path

import latcomm
from latcomm import babai, error_analysis, lattice, protocol

ROOT = Path(__file__).resolve().parent.parent


def _imported_names():
    tree = ast.parse(Path(latcomm.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_all_sorted_without_duplicates():
    assert latcomm.__all__ == sorted(set(latcomm.__all__))


def test_all_is_what_init_imports():
    public = {name for name in _imported_names() if not name.startswith("_")}
    assert set(latcomm.__all__) == public


def test_test_oracles_are_not_exported():
    # independent references live in the tests that check against them,
    # and names that nothing read are gone
    for owner, name in [(latcomm, "voronoi_vertices_reduced"),
                        (latcomm, "analytic_pe_polar"),
                        (error_analysis, "voronoi_vertices_reduced"),
                        (error_analysis, "_bisector_intersection"),
                        (error_analysis, "analytic_pe_polar"),
                        (lattice, "_norm_sq"),
                        (lattice.GeneratorMatrix, "column"),
                        (latcomm, "BabaiCell"),
                        (latcomm, "babai_cell"),
                        (babai, "BabaiCell"),
                        (protocol.SourceModel, "to_json"),
                        (lattice.GeneratorMatrix, "inverse"),
                        (lattice.GeneratorMatrix([[1.0]]), "_inv"),
                        (protocol, "_number"),
                        (error_analysis, "ThreadPoolExecutor"),
                        (error_analysis, "_mc_chunk_errors")]:
        assert not hasattr(owner, name), (owner, name)


def _tracer_tables():
    """TARGETS' keys and METHODS as bench/tracer.py assigns them, read from
    its source without running it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    values = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)}
    targets = [ast.literal_eval(key) for key in values["TARGETS"].keys]
    return targets, ast.literal_eval(values["METHODS"])


def test_traced_functions_exist():
    # the benchmark tracer wraps these by name and skips any it cannot find
    targets, methods = _tracer_tables()
    assert targets
    for module, name in targets:
        owner = importlib.import_module(f"latcomm.{module}")
        if name in methods:
            owner, name = owner.GeneratorMatrix, methods[name]
        assert callable(getattr(owner, name, None)), (module, name)
