"""``src/qpgrad`` holds only what the package itself runs: no function, class or method there is used by the
tests alone. An oracle that only a test needs lives in that test."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qpgrad"

# Definitions that no code in src/ uses yet, each with the reason it stays.
ALLOWED = {
    "significance_label": "the paper's non-overlap rule, for the planned `qpgrad compare` command",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree):
    """Each top-level function or class, and each method of a top-level class that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, FUNCTIONS) and not (item.name.startswith("__") and item.name.endswith("__")))


def references(tree):
    """(name, line) of each name that ``tree`` reads: an ``ast.Name``, an ``ast.Attribute`` or an import alias."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_every_definition_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    refs = {}
    for module, tree in trees.items():
        for name, line in references(tree):
            refs.setdefault(name, []).append((module, line))
    unused = [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in definitions(tree)
        # a reference inside the definition itself, such as a recursive call, does not count
        if node.name not in ALLOWED and all(where == module and node.lineno <= line <= node.end_lineno
                                            for where, line in refs.get(node.name, []))
    ]
    assert unused == [], f"used by no code in src/qpgrad: {', '.join(unused)}"
