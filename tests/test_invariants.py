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
