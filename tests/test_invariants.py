import ast
import inspect
from collections import Counter
from pathlib import Path

import spans
import tamari_atlas
from tamari_atlas.maps import HypermapCode, PlanarMap


def _raises_assertion_error(node: ast.AST) -> bool:
    """``raise AssertionError`` or ``raise AssertionError(...)``."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return getattr(exc, 'id', None) == 'AssertionError'


def test_no_assert_statements_in_package():
    # invariants must survive python -O, which strips assert statements,
    # and a broken invariant raises RuntimeError, not AssertionError
    package = Path(tamari_atlas.__file__).parent
    modules = sorted(package.glob('*.py'))
    assert modules
    for module in modules:
        tree = ast.parse(module.read_text(), filename=str(module))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)
                 or _raises_assertion_error(node)]
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
    # __all__; the tests and demos are held to the same rule
    package = Path(tamari_atlas.__file__).parent
    tests = Path(__file__).parent
    modules = [path for folder in (package, tests, tests.parent / 'demos')
               for path in sorted(folder.glob('*.py'))]
    assert len({path.parent for path in modules}) == 3
    for module in modules:
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
                     '_color'}


def test_only_maps_reads_planar_map_storage():
    # the rest of the package and the demos go through PlanarMap's
    # methods, so its storage can change without touching them
    assert PLANAR_MAP_FIELDS == set(PlanarMap.__slots__) - {'root_corner'}
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


def _unused_public_methods(kind: type, traced=()) -> tuple[list, list]:
    """The public methods and properties of ``kind``, and those of them
    that nothing in the package reads outside their own body and the
    benchmark does not trace by name. Reads match by attribute name, so
    a same-named attribute of another type counts too."""
    package = Path(tamari_atlas.__file__).parent
    reads = Counter()
    for module in sorted(package.glob('*.py')):
        tree = ast.parse(module.read_text(), filename=str(module))
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == kind.__name__:
                for fn in cls.body:
                    reads.subtract(node.attr for node in ast.walk(fn)
                                   if isinstance(node, ast.Attribute)
                                   and node.attr == getattr(fn, 'name', ''))
    public = [name for name, value in vars(kind).items()
              if not name.startswith('_')
              and (inspect.isfunction(value) or isinstance(value, property))]
    return public, [name for name in public
                    if reads[name] <= 0 and name not in traced]


def test_every_planar_map_method_is_used():
    # helpers that nothing uses get deleted
    public, unused = _unused_public_methods(PlanarMap, spans.MAP_METHODS)
    assert 'add_edge' in public and 'edge_count' in public
    assert not unused, f"PlanarMap methods nothing calls: {unused}"


def test_every_hypermap_code_method_is_used():
    public, unused = _unused_public_methods(HypermapCode)
    assert 'stats' in public and 'faces' in public
    assert not unused, f"HypermapCode methods nothing calls: {unused}"


def test_only_the_value_base_defines_equality():
    # the value types compare and hash by their fields through
    # dyck._Value alone, so a field added to _fields cannot be left out
    # of a hand-written pair; __hash__ = None counts as a definition
    package = Path(tamari_atlas.__file__).parent
    for module in sorted(package.glob('*.py')):
        tree = ast.parse(module.read_text(), filename=str(module))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or (
                    module.name, cls.name) == ('dyck.py', '_Value'):
                continue
            names = {node.name for node in cls.body
                     if isinstance(node, ast.FunctionDef)}
            names.update(target.id for node in cls.body
                         if isinstance(node, ast.Assign)
                         for target in node.targets
                         if isinstance(target, ast.Name))
            found = names & {'__eq__', '__hash__'}
            assert not found, f"{module.name}: {cls.name} defines {found}"


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


def test_no_package_module_runs_the_map_check():
    # maps cross the API as HypermapCodes, which check themselves when
    # built; PlanarMap.find_violation is left for maps built by hand
    package = Path(tamari_atlas.__file__).parent
    for module in sorted(package.glob('*.py')):
        tree = ast.parse(module.read_text(), filename=str(module))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and node.attr == 'find_violation']
        assert not found, f"{module.name}: map check called at {found}"


def test_only_the_verify_driver_and_suite_catch():
    # each test of one object yields its problems to verify._Each.visit,
    # which catches per object; the driver, verify._run, catches what is
    # raised outside an object, such as an enumerator's error
    module = Path(tamari_atlas.__file__).parent / 'verify.py'
    tree = ast.parse(module.read_text(), filename=str(module))
    catching = {fn.name for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef)
                and any(isinstance(node, ast.Try) for node in ast.walk(fn))}
    assert catching == {'visit', '_run'}
    assert sum(isinstance(node, ast.Try) for node in ast.walk(tree)) == 2


def test_modules_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    root = Path(__file__).parent.parent
    for folder in ('src', 'tests', 'demos'):
        modules = sorted((root / folder).rglob('*.py'))
        assert modules, folder
        for module in modules:
            ast.parse(module.read_text(), filename=str(module),
                      feature_version=(3, 10))
