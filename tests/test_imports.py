"""The kernel is stdlib-only: every module of ``src/layerprop`` imports only
the standard library and its own sibling modules."""

import ast
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
