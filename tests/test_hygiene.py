"""AST scans of the source tree.

Every module in src/gl1zeta/ and tests/ uses each name it imports: a name
bound by an import must occur as a name somewhere else in the module, in
code or in a string annotation.  `__init__.py` is exempt, since its imports
are the package's re-exports, and so is `from __future__ import annotations`.

`_unit_sum` and `rf_discrepancy` have one caller each, only `serialize`
defines JSON codecs, no monomial is subtracted (1 - c X^e is
`LaurentPoly.one_minus`), and every parameter with a default in
src/gl1zeta/ is set by some call in src/, perfbench/ or tools/, or is
listed with the test that needs it.  Calls are matched to functions by name
alone, so a same-named function elsewhere can only hide a dead parameter,
never report a live one.
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


def test_rf_discrepancy_has_one_caller():
    # one comparison rule for every identity check: the report computes its
    # own discrepancy, and no check or command computes one beside it;
    # __init__.py only re-exports the name
    callers = {"%s.%s" % (path.stem, scope)
               for path in (ROOT / "src" / "gl1zeta").glob("*.py")
               for scope in _scopes_naming(ast.parse(path.read_text()),
                                           "rf_discrepancy")}
    assert callers == {"ratfunc.__post_init__", "__init__.<module>"}


def test_only_serialize_defines_json_codecs():
    # one home for the wire format: every *_to_json and *_from_json function
    # of the package is in serialize.py
    codecs = {"%s.%s" % (path.stem, node.name)
              for path in (ROOT / "src" / "gl1zeta").glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and node.name.endswith(("_to_json", "_from_json"))}
    assert codecs and {c.split(".")[0] for c in codecs} == {"serialize"}


# Parameters with a default that no call in src/, perfbench/ or tools/ sets,
# each kept for the test named beside it.
TEST_ONLY_PARAMETERS = {
    "gamma_pv.shell_floor": "test_zetagamma.py::test_gamma_pv_schedule_invariance",
    "main.argv": "test_cli.py (every test)",
    "PAdicElt.from_int.prec": "test_unit_sum.py::test_coset_sum_matches_naive_loop",
    "indicator_ball.twist": "test_stepfn.py::test_step_inner_needs_twist_digits",
    "random_mult_step.max_level":
        "test_stepfn.py::test_delta_approximant_is_convolution_unit",
}


def _defaulted_parameters(tree: ast.Module):
    """(function, qualified parameter, positional index or None) for every
    parameter with a default; a method's index does not count self or cls."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                bound = 1 if cls and not static else 0
                qual = "%s.%s" % (cls, child.name) if cls else child.name
                first = len(pos) - len(a.defaults)
                for i, arg in enumerate(pos[first:], first):
                    yield child.name, "%s.%s" % (qual, arg.arg), i - bound
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield child.name, "%s.%s" % (qual, arg.arg), None
                yield from visit(child, None)

    yield from visit(tree, None)


def _calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in src/, perfbench/ and tools/, by the called name or
    attribute."""
    out: dict[str, list[ast.Call]] = {}
    for tree_dir in ("src", "perfbench", "tools"):
        for path in (ROOT / tree_dir).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = (f.id if isinstance(f, ast.Name)
                            else f.attr if isinstance(f, ast.Attribute) else None)
                    out.setdefault(name, []).append(node)
    return out


def _sets(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether `call` may pass the parameter: by keyword, by position, or
    through *args or **kwargs."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_default_parameter_has_a_caller():
    # no parameter that a measurement or a caller does not justify: a default
    # no program call overrides is dead, unless a test needs it (listed above)
    calls = _calls_by_name()
    unset = set()
    for path in (ROOT / "src" / "gl1zeta").glob("*.py"):
        for name, qual, index in _defaulted_parameters(ast.parse(path.read_text())):
            param = qual.rsplit(".", 1)[1]
            if not any(_sets(c, param, index) for c in calls.get(name, [])):
                unset.add(qual)
    assert unset == set(TEST_ONLY_PARAMETERS)


def _one_minus_monomials(tree: ast.AST) -> list[int]:
    """Lines of every subtraction of a `monomial(...)` call, such as
    LaurentPoly.one(q) - LaurentPoly.monomial(q, e, c)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.Call)
            and isinstance(node.right.func, ast.Attribute)
            and node.right.func.attr == "monomial"]


def test_one_minus_a_monomial_has_one_constructor():
    # 1 - c X^e is built by LaurentPoly.one_minus alone, in one pruning
    # pass, not by a monomial, its negation and a sum
    assert _one_minus_monomials(ast.parse(
        "den = LaurentPoly.one(q) - LaurentPoly.monomial(q, 1, t)")) == [1]
    found = {"%s:%d" % (path.name, line)
             for path in (ROOT / "src" / "gl1zeta").glob("*.py")
             for line in _one_minus_monomials(ast.parse(path.read_text()))}
    assert not found, found
