"""No runtime code that only tests call.

Every module-level function and class under ``src/attestrep``, and every
method, must be named somewhere in ``src/`` outside its own definition: as
a name, an attribute or an imported name. Exempt are methods that a base
class calls (``log_message``, which it defines, and ``do_GET``/``do_POST``,
which ``http.server`` looks up as ``"do_" + command``), and dunder methods,
which the language calls.

Every defaulted parameter of a function or method under ``src/attestrep``,
and every defaulted dataclass field, must be passed by some call in
``src/`` or ``benchmarks/``: by keyword, by position or through ``*`` or
``**``. Calls are matched by the callee's name, and ``cls(...)`` inside a
class counts as a call to that class. A default no caller overrides is a
setting only tests use, or one that cannot change a result.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILT_NAME_HOOKS = {"do_GET", "do_POST"}


def _names(node: ast.AST) -> Counter:
    """How often each identifier is used (not defined) under ``node``."""
    used: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            used[child.id] += 1
        elif isinstance(child, ast.Attribute):
            used[child.attr] += 1
        elif isinstance(child, ast.alias):
            used[child.name.rpartition(".")[2]] += 1
    return used


def _definitions(tree: ast.Module):
    """``(class name or None, definition)`` for every module-level def and class and every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield None, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, member


def _overrides(module: str, class_name: str, method: str) -> bool:
    cls = getattr(importlib.import_module(module), class_name)
    return method in BUILT_NAME_HOOKS or any(hasattr(base, method) for base in cls.__mro__[1:])


def test_every_definition_is_named_outside_itself() -> None:
    files = sorted((SRC / "attestrep").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    uncalled = []
    for path, tree in trees.items():
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for class_name, node in _definitions(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if used[node.name] - _names(node)[node.name] > 0:
                continue
            if class_name is not None and _overrides(module, class_name, node.name):
                continue
            uncalled.append(f"{module}.{class_name + '.' if class_name else ''}{node.name}")
    assert uncalled == []


# defaults kept on purpose, each with the reason no call in src/ or benchmarks/ passes it
UNPASSED_DEFAULTS = {
    "Portal.clock": "tests substitute a fake clock; the portal itself always reads the wall clock",
    "main.argv": "the console script calls main() with none; argparse then reads sys.argv",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _settables(tree: ast.Module):
    """``(name, class name, callee name, positional index or None, parameter)`` for every defaulted
    parameter of a function or method at any depth, and every defaulted dataclass field.

    A constructor's parameters and fields are named ``Class.param`` and are set by calls to ``Class``;
    a method's are ``Class.method.param``; a function's are ``function.param``.
    """

    def visit(node: ast.AST, class_node: ast.ClassDef | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                own_init = any(isinstance(m, ast.FunctionDef) and m.name == "__init__" for m in child.body)
                if _is_dataclass(child) and not own_init:
                    fields = [m for m in child.body if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)
                              and "ClassVar" not in ast.unparse(m.annotation)]
                    for index, member in enumerate(fields):
                        if member.value is not None:
                            name = member.target.id
                            yield f"{child.name}.{name}", child.name, child.name, index, name
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                decorators = {ast.unparse(d) for d in child.decorator_list}
                if class_node is not None and "staticmethod" not in decorators:
                    positional = positional[1:]  # self or cls, bound by the call's receiver
                if class_node is not None and child.name == "__init__":
                    prefix, callee = class_node.name, class_node.name
                elif class_node is not None:
                    prefix, callee = f"{class_node.name}.{child.name}", child.name
                else:
                    prefix, callee = child.name, child.name
                owner = class_node.name if class_node is not None else None
                for index, arg in enumerate(positional):
                    if index >= len(positional) - len(args.defaults):
                        yield f"{prefix}.{arg.arg}", owner, callee, index, arg.arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{prefix}.{arg.arg}", owner, callee, None, arg.arg
                yield from visit(child, None)  # a nested function is a plain function
            else:
                yield from visit(child, class_node)

    yield from visit(tree, None)


def _calls(tree: ast.Module):
    """``(callee name, positional count or None for ``*``, keyword names or None for ``**``)`` per call."""

    def visit(node: ast.AST, class_name: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "cls" and class_name is not None:
                    name = class_name
                starred = any(isinstance(arg, ast.Starred) for arg in child.args)
                keywords = {kw.arg for kw in child.keywords}
                yield name, None if starred else len(child.args), None if None in keywords else keywords
            yield from visit(child, child.name if isinstance(child, ast.ClassDef) else class_name)

    yield from visit(tree, None)


def test_every_defaulted_parameter_is_passed_by_some_caller() -> None:
    callers = sorted((SRC / "attestrep").rglob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))
    calls: dict[str, list] = {}
    for path in callers:
        for name, count, keywords in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            calls.setdefault(name, []).append((count, keywords))
    unpassed = []
    for path in sorted((SRC / "attestrep").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for qualname, class_name, callee, index, param in _settables(ast.parse(path.read_text(encoding="utf-8"))):
            if qualname in UNPASSED_DEFAULTS:
                continue
            if any((index is not None and (count is None or index < count)) or keywords is None or param in keywords
                   for count, keywords in calls.get(callee, [])):
                continue
            if class_name is not None and callee != class_name and _overrides(module, class_name, callee):
                continue  # the base class's callers pass it: ``send_error`` is called by ``http.server``
            unpassed.append(qualname)
    assert unpassed == []
