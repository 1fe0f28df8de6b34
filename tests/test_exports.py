"""Every exported name, and every optional parameter, has a caller in the package.

Also: no module reads another module's private names beyond an allow-list.
"""

import ast
from pathlib import Path

import nashflow


# ``cli.main`` is the console-script entry point, which calls it without
# ``argv`` so that argparse reads the command line.
ENTRY_POINT_PARAMETERS = {("main", "argv")}

# ``(reader, owner, name)`` for each ``_``-prefixed name one module may read
# from another: the solver drives the price-phase kernel with its helpers,
# and the balanced flow adds its work to the flow core's tally.
PRIVATE_READS = {
    ("solver", "fisher", "_l2"),
    ("solver", "fisher", "_price_phase"),
    ("solver", "fisher", "_rebuild"),
    ("solver", "fisher", "_scale"),
    ("balanced", "flownet", "_count"),
}


def _package_trees():
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in Path(nashflow.__file__).parent.glob("*.py")]


def _names_read_outside_init():
    """Names the package modules other than ``__init__`` read or import."""
    names = set()
    for path in Path(nashflow.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_has_a_caller_in_the_package():
    orphans = set(nashflow.__all__) - _names_read_outside_init()
    assert sorted(orphans) == []


def _defaulted_parameters(trees):
    """``(function, parameter, position)`` for each parameter with a default.

    ``position`` counts from a call's first argument (``self`` skipped for
    methods), or is ``None`` for keyword-only parameters.
    """
    found = set()
    for tree in trees:
        methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args.posonlyargs + fn.args.args
            first = len(args) - len(fn.args.defaults)
            skip = 1 if id(fn) in methods else 0
            for position, arg in enumerate(args[first:], first - skip):
                found.add((fn.name, arg.arg, position))
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    found.add((fn.name, arg.arg, None))
    return found


def _passed_parameters(trees):
    """``(callee, keyword)`` and ``(callee, position)`` for every call in the package.

    Callees are matched by name, with ``import ... as`` aliases resolved; a
    ``*args`` or ``**kwargs`` argument passes everything.
    """
    aliases = {alias.asname: alias.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
    passed = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            name = aliases.get(name, name)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                kw.arg is None for kw in call.keywords
            ):
                passed.add((name, "*"))
            passed.update((name, k) for k in range(len(call.args)))
            passed.update((name, kw.arg) for kw in call.keywords)
    return passed


def test_every_defaulted_parameter_is_passed_by_the_package():
    trees = _package_trees()
    passed = _passed_parameters(trees)
    unused = sorted(
        (fn, arg)
        for fn, arg, position in _defaulted_parameters(trees)
        if (fn, arg) not in passed and (fn, position) not in passed
        and (fn, "*") not in passed and (fn, arg) not in ENTRY_POINT_PARAMETERS
    )
    assert unused == []


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_reads(path):
    """``(reader, owner, name)`` for each private name ``path`` reads from a sibling.

    A name is read either by importing it (``from .owner import _name``) or
    as an attribute of an imported module (``from . import owner``, then
    ``owner._name``).  Dunder names are not private.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.module or ""
        if node.level == 0 and package.partition(".")[0] != "nashflow":
            continue
        owner = package.removeprefix("nashflow").lstrip(".")
        for alias in node.names:
            if not owner:
                modules[alias.asname or alias.name] = alias.name
            elif _is_private(alias.name):
                reads.add((path.stem, owner, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _is_private(node.attr)):
            reads.add((path.stem, modules[node.value.id], node.attr))
    return reads


def test_modules_read_no_other_modules_private_names_beyond_the_allow_list():
    reads = set().union(*map(_private_reads, Path(nashflow.__file__).parent.glob("*.py")))
    assert sorted(reads - PRIVATE_READS) == []
    assert sorted(PRIVATE_READS - reads) == []  # no stale allow-list entry
