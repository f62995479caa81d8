"""The kernel is stdlib-only and holds only what it runs: every module of
``src/layerprop`` imports only the standard library and its own sibling
modules, and every top-level definition has a caller outside the tests."""

import ast
import re
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "layerprop"


def test_kernel_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    own = {path.stem for path in modules}
    assert {"rewrite", "semantics", "cli"} <= own
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.partition(".")[0]
                    assert top in sys.stdlib_module_names, where
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                top = node.module.partition(".")[0]
                assert top in sys.stdlib_module_names, where
            elif isinstance(node, ast.ImportFrom):
                # relative: a sibling module of the package, never above it
                assert node.level == 1, where
                names = ([node.module.partition(".")[0]] if node.module
                         else [alias.name for alias in node.names])
                assert set(names) <= own, where


def _siblings(node: ast.ImportFrom) -> set[str]:
    """The sibling modules a relative import names."""
    return ({node.module.partition(".")[0]} if node.module
            else {alias.name for alias in node.names})


# function-local sibling imports that defer loading rather than break a
# cycle: each CLI verb handler imports what it runs, jsonio's derivation
# and model codecs import the search and the semantics on use, the
# circuit series check imports the search, and the derivation search
# imports its separation certificates, which the semantics never loads
DEFERRED = ({("cli", sibling) for sibling in (
    "sexpr", "terms", "rewrite", "explain", "semantics", "chem", "ccs",
    "circuits")}
    | {("jsonio", sibling) for sibling in ("rewrite", "profunctor",
                                           "semantics")}
    | {("circuits", sibling) for sibling in ("rewrite", "explain")}
    | {("rewrite", "weights")})


def test_function_local_imports_break_cycles_or_defer_loading():
    # any other sibling is imported inside a function only when it imports
    # the importer at top level, so that a module-level import would be a
    # cycle
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    top = {name: set().union(*(_siblings(node) for node in tree.body
                               if isinstance(node, ast.ImportFrom)
                               and node.level == 1))
           for name, tree in trees.items()}
    local = {(name, sibling, node.lineno)
             for name, tree in trees.items() for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for sibling in _siblings(node)}
    assert [f"{name}.py:{line} imports {sibling}"
            for name, sibling, line in sorted(local)
            if (name, sibling) not in DEFERRED
            and name not in top[sibling]] == []
    assert {pair[:2] for pair in local} == {("diagram", "rewrite"),
                                            ("diagram", "weights"),
                                            ("theory", "diagram")} | DEFERRED


# top-level definitions of the kernel that nothing in ``src/`` or ``bench/``
# names, each with the reason it stays in the kernel
KEPT = {
    ("ccs", "bisimilar"): "criterion 7 checks it against the tests' naive "
                          "bisimulation",
    ("explain", "is_window"): "README lists the window recognisers as "
                              "layerprop.explain API",
    ("explain", "is_cowindow"): "README lists the window recognisers as "
                                "layerprop.explain API",
    ("explain", "contains_window"): "README lists the window recognisers as "
                                    "layerprop.explain API",
    ("theory", "check_functor_equations"): "the only check that a "
                                           "translation keeps the layer "
                                           "equations",
}


def _top_level_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_kernel_definition_has_a_caller():
    # code that only the tests call belongs under tests/: a name counts as
    # called when src/ reads it (a name, an attribute or an import) or
    # bench/ names it; anything else must be in KEPT with its reason
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = {n for tree in trees.values() for node in ast.walk(tree)
            for n in ((node.id,) if isinstance(node, ast.Name)
                      and not isinstance(node.ctx, ast.Store)
                      else (node.attr,) if isinstance(node, ast.Attribute)
                      else (node.name,) if isinstance(node, ast.alias)
                      else ())}
    bench = "\n".join(path.read_text(encoding="utf-8") for path in
                      sorted((PACKAGE.parents[1] / "bench").glob("*.py")))
    uncalled = {(module, name) for module, tree in trees.items()
                for name in _top_level_names(tree)
                if name not in read
                and not re.search(rf"\b{re.escape(name)}\b", bench)}
    assert uncalled == set(KEPT)
    assert all(KEPT.values())
