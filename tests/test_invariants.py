import ast
from pathlib import Path

import tamari_atlas


def test_no_assert_statements_in_package():
    # invariants must survive python -O, which strips assert statements
    package = Path(tamari_atlas.__file__).parent
    modules = sorted(package.glob('*.py'))
    assert modules
    for module in modules:
        tree = ast.parse(module.read_text(), filename=str(module))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert not found, f"{module.name}: assert at lines {found}"


def _callee(func: ast.expr) -> str | None:
    """Name of a call to ``name(...)``, ``self.name(...)`` or
    ``cls.name(...)``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and \
            getattr(func.value, 'id', None) in ('self', 'cls'):
        return func.attr
    return None


def test_no_self_recursive_functions_in_package():
    # traversals are loops, so depth is bounded by memory, not by the
    # interpreter's recursion limit
    package = Path(tamari_atlas.__file__).parent
    for module in sorted(package.glob('*.py')):
        tree = ast.parse(module.read_text(), filename=str(module))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = [node.lineno for node in ast.walk(fn)
                     if isinstance(node, ast.Call)
                     and _callee(node.func) == fn.name]
            assert not calls, \
                f"{module.name}: {fn.name} calls itself at lines {calls}"
