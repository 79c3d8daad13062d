"""The package's surface: the exact public names, and no dead imports.

The public list is pinned so that a name is added or removed on purpose.
The import check parses every module except `__init__` and fails on a
name that a module imports and never uses.  The private-name check fails
on a module-level `_name` that no module of the package reads.
"""

import ast
import types
from pathlib import Path

import equigraph

PUBLIC = {
    # errors
    "EquigraphError", "ParameterError", "ParseError", "ResourceLimitError", "ValidationError",
    # graphs
    "Graph", "cartesian_product", "complement", "complete", "complete_bipartite", "cycle",
    "disjoint_union", "double_graph", "empty", "extended_double_cover", "hypercube",
    "is_bipartite", "is_connected", "iterated_edc", "join", "k_fold", "kronecker_product",
    "line_graph", "path",
    # spectra
    "EnergyValue", "Spectrum", "edc_spanning_trees_formula", "energy", "is_laplacian_integral",
    "laplacian_energy", "matrix_of", "spanning_trees_eigen", "spanning_trees_exact",
    "spectra_equal", "spectral_distance", "spectrum_of",
    # predict
    "predict_edc_a_spectrum", "predict_edc_l_spectrum", "predict_iterated_edc_l_spectrum",
    "predict_iterated_edc_l_spectrum_bipartite", "predict_kfold_a_spectrum",
    "predict_kfold_l_spectrum",
    # theorems
    "FamilySpec", "TheoremReport", "check_le_doubling", "family_cartesian", "family_join_edc",
    "family_join_kfold", "family_mixed", "kfold_le_formula", "run_check",
    # graphio and limits
    "GraphDocument", "emit_graph", "parse_graph", "vertex_cap",
}

PACKAGE = Path(equigraph.__file__).parent


def test_public_names_are_pinned():
    names = {name for name, value in vars(equigraph).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(ast.parse(p.read_text(), filename=str(p))) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def module_level_private_names(tree: ast.Module) -> dict[str, int]:
    """`_name` bound by a top-level def, class or assignment (dunders aside)."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        bound.update((name, node.lineno) for name in targets
                     if name.startswith("_") and not name.startswith("__"))
    return bound


def names_read(tree: ast.Module) -> set[str]:
    """Names loaded, or read as an attribute, anywhere in the module."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_private_module_level_name_is_read():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*(names_read(tree) for tree in trees.values()))
    unread = {f"{module} line {line}: {name}" for module, tree in trees.items()
              for name, line in module_level_private_names(tree).items() if name not in read}
    assert unread == set()
