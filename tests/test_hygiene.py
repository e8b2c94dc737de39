"""Every module in src/gl1zeta/ and tests/ uses each name it imports.

An AST scan: a name bound by an import must occur as a name somewhere else
in the module, in code or in a string annotation.  `__init__.py` is exempt,
since its imports are the package's re-exports, and so is
`from __future__ import annotations`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "gl1zeta", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _used(tree: ast.AST) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            # a quoted annotation such as "PAdicElt | None"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, "imported but never used: %s" % ", ".join(
        "%s (line %d)" % item for item in sorted(unused.items()))


def _scopes_naming(tree: ast.Module, name: str) -> set[str]:
    """The innermost function (or <module>) around every occurrence of
    `name` as a name, an attribute or an imported alias."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and name in (node.name, node.asname))):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_unit_sum_has_one_caller():
    # one shell-sum kernel for every caller: every psi * chi integral goes
    # through zetagamma.coset_integral, the only code that reads _unit_sum
    callers = {"%s.%s" % (path.stem, scope)
               for path in (ROOT / "src" / "gl1zeta").glob("*.py")
               for scope in _scopes_naming(ast.parse(path.read_text()), "_unit_sum")}
    assert callers == {"zetagamma.coset_integral"}
