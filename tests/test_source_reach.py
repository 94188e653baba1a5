"""Every definition in ``src/oxpix`` is used by the program itself.

A function, class, method or property that nothing in ``src/`` refers to,
besides its own definition, runs only when a test calls it: the tests would
then check code the program never executes.  A name the benchmark harness
in ``perfbench/`` patches or reads, or one ``oxpix.__all__`` exports, is
used from outside and is exempt.
"""

import ast
from pathlib import Path

import oxpix

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "oxpix").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST, skip: ast.AST = None) -> set[str]:
    """Names read below ``node``: bare names, attributes and string
    constants (``getattr`` and ``setattr`` take names as strings), except
    inside ``skip``."""
    found, todo = set(), [node]
    while todo:
        here = todo.pop()
        if here is skip:
            continue
        if isinstance(here, ast.Name):
            found.add(here.id)
        elif isinstance(here, ast.Attribute):
            found.add(here.attr)
        elif isinstance(here, ast.Constant) and isinstance(here.value, str):
            found.add(here.value)
        todo.extend(ast.iter_child_nodes(here))
    return found


def unreferenced() -> list[str]:
    """``module.name`` of each definition in ``src/oxpix`` that no code in
    ``src/`` outside the definition refers to, and that is neither exported
    nor used by ``perfbench/``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES}
    exempt = set(oxpix.__all__)
    for path in BENCH:
        exempt |= _names(ast.parse(path.read_text(encoding="utf-8")))
    lonely = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, _DEFS) or node.name in exempt:
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # called by Python itself
            if not any(node.name in _names(other, skip=node)
                       for other in trees.values()):
                lonely.append(f"{module}.{node.name}")
    return sorted(lonely)


def test_every_definition_is_reached_from_the_program():
    assert unreferenced() == []


def test_the_check_sees_a_definition_only_a_test_would_call():
    # The reference scan itself: a name read only in its own body, or
    # only in a string that is not the bare name, is unreferenced.
    tree = ast.parse("def lonely(n):\n    return lonely(n - 1) if n else 'lonely!'\n"
                     "def used():\n    pass\n\nx = used\n")
    lonely, used = tree.body[0], tree.body[1]
    assert "lonely" not in _names(tree, skip=lonely)
    assert "used" in _names(tree, skip=used)
