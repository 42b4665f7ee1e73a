"""Every public name in molbayes has a caller outside the tests.

A public module-level function or class, or a public method, that no
code in ``src/``, ``tools/`` or ``perfbench/`` names outside its own
definition is an API kept alive only by its own tests: delete it, or
call it. Names count as identifiers (a name, an attribute or an
import), never as strings.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "molbayes")
CALLER_DIRS = ("src", "tools", "perfbench")
# the reference gradient that the gradient checks compare against
ALLOWED = {"finite_diff_grad"}


def _python_files(top):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _public_definitions():
    """(qualified name, name, (path, line)) of each public module-level
    function or class and each public method of a module-level class."""
    for path in _python_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, (path, node.lineno)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield (f"{module}.{node.name}.{item.name}",
                               item.name, (path, item.lineno))


def _named(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def _uses():
    """name -> for each use, the (path, line) of every definition it sits
    inside."""
    uses: dict = {}
    for top in CALLER_DIRS:
        for path in _python_files(os.path.join(ROOT, top)):
            stack = [(_parse(path), frozenset())]
            while stack:
                node, inside = stack.pop()
                name = _named(node)
                if name is not None:
                    uses.setdefault(name, []).append(inside)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    inside = inside | {(path, node.lineno)}
                stack.extend((child, inside)
                             for child in ast.iter_child_nodes(node))
    return uses


def test_every_public_name_has_a_caller_outside_the_tests():
    uses = _uses()
    unused = sorted(
        qualified for qualified, name, where in _public_definitions()
        if name not in ALLOWED
        and not any(where not in inside for inside in uses.get(name, ())))
    assert unused == [], f"named only in tests (or nowhere): {unused}"
