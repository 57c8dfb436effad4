"""The production modules hold only code the package itself calls.

References that only tests use (brute-force oracles, explicit encodings,
dynamic programs) belong in `brute.py` or `selftest.py`.  Everywhere else, a
public top-level function or class that no code in `src/oiglearn` names is
either dead or a test-only reference in the wrong module.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oiglearn"

# the reference modules, and the package's re-exports
EXEMPT = {"brute.py", "selftest.py", "__init__.py"}


def test_every_public_definition_is_named_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    # import lines hold aliases, not Name nodes, so an import alone is no use
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        if module not in EXEMPT
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in named
    ]
    assert unused == []
