"""The benchmark tracer's hooks still name functions of the package.

bench/tracer.py wraps package functions by (module, attribute) and reads
the rate caches' cache_info. A hook whose name is gone is skipped there,
and its metrics drop out of a traced run; these checks fail first.

A module imports a name it never reads only so that the tracer can hook
it there; such imports, and only they, sit on lines marked
``# noqa: F401``. The scan below stands in for pyflakes' unused-import
check. Another scan finds package functions and classes that no package
code reads, which only tests (or nothing) would call; a last one finds
parameters that their function's body never reads.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PACKAGE = ROOT / "src" / "rscache"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_is_a_package_callable():
    hooks = _load_tracer().HOOKS
    missing = [
        (module, attr)
        for module, attr, _key, _layer in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert hooks and missing == []


def test_the_rates_module_keeps_a_cache_for_the_hit_ratio():
    rates = importlib.import_module("rscache.rates")
    assert any(hasattr(obj, "cache_info") for obj in vars(rates).values())


def _imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) of every import in a module, __future__ aside."""
    return [
        ((alias.asname or alias.name).split(".")[0], node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, with the strings of its __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def test_the_only_unused_imports_are_hooked_and_marked():
    hooked = {(module, attr) for module, attr, _key, _layer in _load_tracer().HOOKS}
    unused, marked = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = "rscache" if path.stem == "__init__" else f"rscache.{path.stem}"
        lines = path.read_text().splitlines()
        tree = ast.parse("\n".join(lines))
        read = _read_names(tree)
        for name, line in _imports(tree):
            if name not in read:
                unused.add((module, name))
            if "# noqa: F401" in lines[line - 1]:
                marked.add((module, name))
    assert unused == marked
    assert unused <= hooked


def _read_outside(tree: ast.Module) -> set[str]:
    """Every name or attribute a module reads, each top-level definition's own name aside.

    A module-level function or class that only reads itself (recursion)
    does not count as read.
    """
    read = set()
    for statement in tree.body:
        names = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)}
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            names.discard(statement.name)
        read |= names
    return read


def test_every_package_function_and_class_has_a_package_reader():
    # no production function that only tests call: each module-level
    # function and class is read by package code, exported in
    # rscache.__all__, or named by a tracer hook (an import alone is not a read)
    hooked = {attr for _module, attr, _key, _layer in _load_tracer().HOOKS}
    exported = set(importlib.import_module("rscache").__all__)
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*(_read_outside(tree) for tree in trees.values()))
    unread = [
        (stem, node.name)
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in read | exported | hooked
    ]
    assert unread == []


def _unread_parameters(tree: ast.Module) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter of a def that its body never reads.

    A nested function's reads count for the function that encloses it.
    Lambdas are left out: a table of them shares one signature on purpose.
    """
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            body = ast.Module(body=node.body, type_ignores=[])
            read = {sub.id for sub in ast.walk(body) if isinstance(sub, ast.Name)}
            unread += [(node.name, p.arg) for p in params if p is not None and p.arg not in read]
    return unread


def test_every_package_parameter_is_read():
    # a parameter no body reads is an argument every caller passes for
    # nothing; the tracer's hooks are exempt, since a wrapper can read a
    # parameter by position (sample_channels' n, as args[2])
    hooked = {attr for _module, attr, _key, _layer in _load_tracer().HOOKS}
    unread = [
        (path.stem, function, parameter)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, parameter in _unread_parameters(ast.parse(path.read_text()))
        if function not in hooked
    ]
    assert unread == []
