#!/usr/bin/env python
"""Check that every module-level import in a python module is used.

A name bound by a module-level ``import`` / ``from ... import`` (including
one inside a module-level ``if`` or ``try`` block) must be referenced
somewhere in the same module -- as a name, as the head of an attribute
chain (``import a.b`` binds ``a``, used through ``a.b.c``), or inside a
string annotation -- or be listed in the module's ``__all__`` (a
re-export).  ``from __future__`` imports and star imports are ignored, and
so are ``__init__.py`` files, whose imports are the package surface.  The
files are parsed, never imported, so the check needs nothing beyond the
standard library.

A directory argument stands for every ``.py`` file under it.

Usage::

    python tools/check_imports.py src/repro

Exits non-zero and lists every unused import if any is found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple


def module_imports(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """Yield (line, bound name) for every module-level import binding."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name
        elif isinstance(node, ast.If):
            pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    """Names inside the string parts of an annotation (``"Environment"``)."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def referenced_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, plus the entries of its ``__all__``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                names.update(_annotation_names(annotation))
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(element.value for element in node.value.elts
                         if isinstance(element, ast.Constant))
    return names


def check_file(path: Path) -> Iterator[Tuple[int, str]]:
    """Yield (line_number, name) for every unused module-level import."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = referenced_names(tree)
    for line_number, name in module_imports(tree):
        if name not in used:
            yield line_number, name


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: check_imports.py FILE.py|DIR [FILE.py|DIR ...]",
              file=sys.stderr)
        return 2
    paths: List[Path] = []
    for name in argv:
        paths.extend(sorted(Path(name).rglob("*.py")) if Path(name).is_dir()
                     else [Path(name)])
    unused = 0
    checked = 0
    for path in paths:
        if path.name == "__init__.py":
            continue
        checked += 1
        for line_number, name in check_file(path):
            print(f"UNUSED {path}:{line_number}: {name}")
            unused += 1
    if unused:
        print(f"{unused} unused import(s)")
        return 1
    print(f"every module-level import is used ({checked} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
