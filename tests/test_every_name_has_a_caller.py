"""No runtime code that only tests call.

Every module-level function and class under ``src/attestrep``, and every
method, must be named somewhere in ``src/`` outside its own definition: as
a name, an attribute or an imported name. Exempt are methods that a base
class calls (``log_message``, which it defines, and ``do_GET``/``do_POST``,
which ``http.server`` looks up as ``"do_" + command``), and dunder methods,
which the language calls.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
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
