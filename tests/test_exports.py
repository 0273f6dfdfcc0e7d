"""The package exports only what the library itself runs.

A name that ``varma_causal`` exports but no code in ``src/`` references
outside its own definition (and ``__init__.py``) serves only the tests; such
code belongs in ``tests/reference.py``. The allowlist names the exceptions.

Modules keep to each other's public names, with one exception: ``effects``
reads the closure walk ``graphs._reach``. The separation policy, with its
passes and witness searches, stays behind ``graphs``.
"""

import ast
from pathlib import Path

import varma_causal

PACKAGE = Path(varma_causal.__file__).parent

# exported for users though nothing in the library calls it, one reason each
ALLOWED = {
    "augment": "bench/tracer.py wraps it by name",
    "latent_project": "bench/tracer.py wraps it by name",
    "m_separated": "the finite-graph separation verdict, the library's main graph query",
    "check_iv_conditions": "the graph- and moment-side IV conditions on their own",
    "graph_from_json": "reads the graph JSON that graph_to_json and `graph -o` write",
    "spec_to_json": "writes the model-file JSON that load_spec reads",
    "rewritten_full_time_window": "the paper's rewritten process, checked by criteria 02/03",
    "ice_matrix": "(I - A0)^(-1) of any A0; validate runs its substitution on the order it has",
}


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def referenced_names() -> set:
    """Names read as a variable or attribute anywhere in the library's
    modules, outside the definition that binds them and ``__init__.py``."""
    found = set()

    def visit(node, defining):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, defining | {child.name})
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name is not None and name not in defining:
                found.add(name)
            visit(child, defining)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def test_every_export_is_used_by_the_library():
    exported = exported_names()
    assert set(ALLOWED) <= exported
    unused = exported - referenced_names() - set(ALLOWED)
    assert sorted(unused) == []


def test_allowlist_holds_only_unused_exports():
    # an allowed name that the library comes to call needs no exception
    assert sorted(set(ALLOWED) & referenced_names()) == []


def test_effects_imports_no_graphs_private_but_reach():
    # private names imported from .graphs, and the graphs module itself,
    # through which an attribute could reach them
    tree = ast.parse((PACKAGE / "effects.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names
                if (node.module == "graphs" and alias.name.startswith("_"))
                or (node.module is None and alias.name == "graphs")]
    assert imported == ["_reach"]
