"""The production modules hold only code the package itself calls.

References that only tests use (brute-force oracles, explicit encodings,
dynamic programs) belong in `brute.py` or `selftest.py`.  Everywhere else, a
public top-level function or class, or a public method of a class, that no
code in `src/oiglearn` names is either dead or a test-only reference in the
wrong module.

A name counts as used when a production module or `brute.py` names it.
`brute.py` counts because the exact orientation audit there is production
code: `oig audit` and the diagnostic pipelines run it.  `selftest.py` does not
count: a name that only the self-test battery calls is a test hook.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "oiglearn"

# the reference modules, and the package's re-exports
EXEMPT = {"brute.py", "selftest.py", "__init__.py"}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(tree):
    """(qualified name, name) of every public top-level definition and every
    public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, _DEFINITIONS) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFINITIONS) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_definition_is_named_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert "weak.py" in trees, PACKAGE
    # import lines hold aliases, not Name nodes, so an import alone is no use
    named = set()
    for module, tree in trees.items():
        if module == "selftest.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = [
        f"{module}: {qualified}"
        for module, tree in trees.items()
        if module not in EXEMPT
        for qualified, name in _public_definitions(tree)
        if name not in named
    ]
    assert unused == []
