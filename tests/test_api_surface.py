"""Every public name in molbayes has a caller outside the tests.

A public module-level function or class, or a public method, that no
code in ``src/``, ``tools/`` or ``perfbench/`` names outside its own
definition is an API kept alive only by its own tests: delete it, or
call it. Names count as identifiers (a name, an attribute or an
import), never as strings.

Likewise every parameter with a default, in any function or method of
the package, private and nested ones included, is passed by some call
in those directories: by keyword, by position, or through ``*`` or
``**``, a call of a class counting for its ``__init__``. Calls match a
definition by its name alone. A default that no such call overrides is
either a constant or an option kept for the tests, which ``UNPASSED``
must name with its reason. The test-only references in ``ALLOWED`` are
exempt.

And every annotated class field in the package is read in those
directories, as an attribute or through ``getattr`` with a constant
name, or ``UNREAD`` names it with its reason. Reads match a field by its
name alone, so a field whose name some other attribute shares passes.

The three allowlists only exempt, so each of their entries must name
what is still there: a public name, a defaulted parameter, a field.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "molbayes")
CALLER_DIRS = ("src", "tools", "perfbench")
# the reference gradient that the gradient checks compare against
ALLOWED = {"finite_diff_grad"}
# (function, parameter) defaults that only the tests override
UNPASSED = {
    # the identity-preconditioned, noiseless step is the reference the
    # stationarity and SGD tests compare against
    ("bayes.psgld_step", "precondition"), ("bayes.psgld_step", "noise"),
}
# class fields that only the tests read
UNREAD = {
    # the op-coverage test checks that every op kind records itself
    "autodiff._Record.kind",
}


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


def _defaulted_parameters():
    """(qualified function name, name it is called by, parameter, index
    of the parameter among a call's positional arguments or None) of each
    parameter with a default."""
    for path in _python_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        stack = [(_parse(path), module, False)]
        while stack:
            node, prefix, in_class = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}.{child.name}", True))
                elif isinstance(child, ast.FunctionDef):
                    qualified = f"{prefix}.{child.name}"
                    stack.append((child, qualified, False))
                    called = (prefix.rsplit(".", 1)[-1]
                              if child.name == "__init__" else child.name)
                    bound = in_class and not any(
                        _named(d) == "staticmethod"
                        for d in child.decorator_list)
                    a = child.args
                    positional = a.posonlyargs + a.args
                    first = len(positional) - len(a.defaults)
                    for i in range(first, len(positional)):
                        yield (qualified, called, positional[i].arg,
                               i - bound)
                    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                        if default is not None:
                            yield qualified, called, arg.arg, None
                else:
                    stack.append((child, prefix, in_class))


def _calls():
    """name called -> for each call, (positional count, keyword names,
    whether it passes ``*`` or ``**``)."""
    calls: dict = {}
    for top in CALLER_DIRS:
        for path in _python_files(os.path.join(ROOT, top)):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call) and _named(node.func):
                    keywords = {k.arg for k in node.keywords}
                    spread = None in keywords or any(
                        isinstance(a, ast.Starred) for a in node.args)
                    calls.setdefault(_named(node.func), []).append(
                        (len(node.args), keywords, spread))
    return calls


def test_every_default_is_passed_outside_the_tests():
    calls = _calls()
    unpassed = sorted(
        f"{qualified}({param})"
        for qualified, called, param, index in _defaulted_parameters()
        if called not in ALLOWED and (qualified, param) not in UNPASSED
        and not any(spread or param in keywords
                    or (index is not None and n_positional > index)
                    for n_positional, keywords, spread
                    in calls.get(called, ())))
    assert unpassed == [], f"defaults no call overrides: {unpassed}"


def _class_fields():
    """(qualified name, name) of each annotated field of each class."""
    for path in _python_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        yield (f"{module}.{node.name}.{item.target.id}",
                               item.target.id)


def _attribute_reads():
    """Names read as an attribute, or by ``getattr`` with a constant."""
    reads = set()
    for top in CALLER_DIRS:
        for path in _python_files(os.path.join(ROOT, top)):
            for node in ast.walk(_parse(path)):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    reads.add(node.attr)
                elif (isinstance(node, ast.Call)
                        and _named(node.func) == "getattr"
                        and len(node.args) > 1
                        and isinstance(node.args[1], ast.Constant)):
                    reads.add(node.args[1].value)
    return reads


def test_every_class_field_is_read_outside_the_tests():
    reads = _attribute_reads()
    unread = sorted(qualified for qualified, name in _class_fields()
                    if name not in reads and qualified not in UNREAD)
    assert unread == [], f"fields no code reads: {unread}"


def test_every_allowlist_entry_names_something_live():
    public = {name for _, name, _ in _public_definitions()}
    defaulted = {(qualified, param)
                 for qualified, _, param, _ in _defaulted_parameters()}
    fields = {qualified for qualified, _ in _class_fields()}
    stale = sorted([*(ALLOWED - public), *map(str, UNPASSED - defaulted),
                    *(UNREAD - fields)])
    assert stale == [], f"allowlist entries that name nothing: {stale}"
