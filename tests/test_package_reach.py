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

By the same count, every defaulted parameter of a public function or method
is passed, by keyword or by position, by some call in the package: a default
no call overrides is an option nothing uses.
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


# the entry point's argument is left at its default by the console script
PARAMETER_EXEMPT = {("cli.py", "main", "argv")}


def _defaulted_parameters(node, is_method):
    """(parameter names in call position order, names that have a default)
    of a function definition; a method's self or cls is dropped."""
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = set(positional[len(positional) - len(args.defaults):] if args.defaults else ())
    defaulted.update(a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    if is_method and not static:
        positional = positional[1:]
    return positional, defaulted


def _public_callables(tree):
    """(qualified name, the name calls use, definition, is method) of every
    public top-level function and every public method (and __init__) of a
    public top-level class; a class is called by its own name."""
    for node in tree.body:
        if not isinstance(node, _DEFINITIONS) or node.name.startswith("_"):
            continue
        if not isinstance(node, ast.ClassDef):
            yield node.name, node.name, node, False
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name == "__init__":
                    yield f"{node.name}.__init__", node.name, item, True
                elif not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True


def _callee_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(tree):
    """(callee name, number of positional arguments or None when one is
    starred, keyword names or None when one is **) of every call;
    functools.partial(f, ...) is a call of f."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee_name(node.func), node.args
        if name == "partial" and args:
            name, args = _callee_name(args[0]), args[1:]
        if name is None:
            continue
        positional = None if any(isinstance(a, ast.Starred) for a in args) else len(args)
        keywords = set()
        for keyword in node.keywords:
            if keyword.arg is None:
                keywords = None
                break
            keywords.add(keyword.arg)
        yield name, positional, keywords


def test_every_defaulted_parameter_is_passed_by_some_call():
    """A default that no call in the package overrides is a dead option."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    calls = {}
    for module, tree in trees.items():
        if module != "selftest.py":
            for name, positional, keywords in _calls(tree):
                calls.setdefault(name, []).append((positional, keywords))
    unpassed = []
    for module, tree in trees.items():
        if module in EXEMPT:
            continue
        for qualified, name, node, is_method in _public_callables(tree):
            positional, defaulted = _defaulted_parameters(node, is_method)
            passed = set()
            for count, keywords in calls.get(name, ()):
                passed.update(positional if count is None else positional[:count])
                passed.update(defaulted if keywords is None else keywords)
            unpassed += [
                f"{module}: {qualified}({param})"
                for param in sorted(defaulted - passed)
                if (module, qualified, param) not in PARAMETER_EXEMPT
            ]
    assert unpassed == []
