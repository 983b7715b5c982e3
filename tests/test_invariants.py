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


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split('.')[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != '__future__':
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_no_unused_imports_in_package():
    # a name counts as used when the module reads it or re-exports it in
    # __all__
    package = Path(tamari_atlas.__file__).parent
    for module in sorted(package.glob('*.py')):
        tree = ast.parse(module.read_text(), filename=str(module))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    getattr(t, 'id', None) == '__all__' for t in node.targets):
                used |= {elt.value for elt in node.value.elts}
        unused = {name: line for name, line in _imported_names(tree).items()
                  if name not in used}
        assert not unused, f"{module.name}: unused imports {unused}"


PLANAR_MAP_FIELDS = {'_next', '_prev', '_mate', '_vertex', '_tag', '_label',
                     '_vrep', '_color'}


def test_only_maps_reads_planar_map_storage():
    # the rest of the package and the demos go through PlanarMap's
    # methods, so its storage can change without touching them
    package = Path(tamari_atlas.__file__).parent
    demos = Path(__file__).parent.parent / 'demos'
    modules = sorted(package.glob('*.py')) + sorted(demos.glob('*.py'))
    for module in modules:
        if module == package / 'maps.py':
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and node.attr in PLANAR_MAP_FIELDS]
        assert not found, f"{module.name}: PlanarMap storage read at {found}"


def test_only_trees_names_the_tree_check():
    # a DegreeTree validates itself when built, so no other module calls
    # trees.find_violation; PlanarMap.find_violation is a method and
    # does not count
    package = Path(tamari_atlas.__file__).parent
    for module in sorted(package.glob('*.py')):
        if module == package / 'trees.py':
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        found = [node.lineno for node in ast.walk(tree)
                 if (isinstance(node, ast.Name)
                     and node.id == 'find_violation')
                 or (isinstance(node, ast.alias)
                     and 'find_violation' in (node.name, node.asname))]
        assert not found, f"{module.name}: find_violation named at {found}"
