#!/usr/bin/env python
"""Check that every public definition under ``src/repro`` has a use.

The definitions checked are every public (no leading ``_``) top-level
function or class of a module under ``src/repro``, and every public method
or property of such a class; dunder methods are exempt.  A definition is
used when its name appears, outside the definition itself, in any python
file under ``src/repro``, ``bench``, ``examples`` or ``tools``:

* as an ``ast.Name``, or as the attribute of an ``ast.Attribute``;
* as a string constant equal to it (``bench/trace.py`` wraps methods by
  name), or as a component of a ``{field.path}`` in one (the figure
  layouts read results through ``str.format_map``).

Import statements, ``__all__`` entries and docstrings are not uses, and
neither is ``tests/``: a definition only tests call belongs in ``tests/``
or nowhere.  The files are parsed, never imported, so the check needs
nothing beyond the standard library.

The check is by name, so a method shares the uses of every other
definition of the same name: an unused ``reset`` passes while another
class's ``reset`` is called.

``ALLOWLIST`` exempts a definition by its dotted name and states why; an
entry fails when it has no reason, names no definition, or names one that
is in fact used.

Usage::

    python tools/check_refs.py

Exits non-zero and lists every unused definition and bad allowlist entry.
"""

from __future__ import annotations

import ast
import re
import string
import sys
from pathlib import Path
from typing import (Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Set,
                    Tuple)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where definitions live (relative to the root; the package's parent is
#: the import root).
PACKAGE = Path("src") / "repro"

#: Where a use counts.
USE_ROOTS = (PACKAGE, Path("bench"), Path("examples"), Path("tools"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: The identifiers of a ``str.format`` field name (``cluster.total_gpus``).
_FIELD_PART_RE = re.compile(r"[A-Za-z_]\w*")

#: Dotted name -> why it stays without a use in ``USE_ROOTS``.
ALLOWLIST: Dict[str, str] = {
    "repro.comm.backend.unregister_backend":
        "the backend registry's own API: the inverse of register_backend",
    "repro.memo.clear_all":
        "the memo registry's own API: empties every table to time a cold path",
}


class Definition(NamedTuple):
    qualname: str  # repro.module.Name or repro.module.Class.method
    name: str
    path: Path
    line: int


def _module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root / PACKAGE.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(path: Path, tree: ast.Module, root: Path) -> Iterator[Definition]:
    """Every checked definition of one module."""
    module = _module_name(path, root)
    for node in tree.body:
        if not isinstance(node, _DEFS) or not _public(node.name):
            continue
        yield Definition(f"{module}.{node.name}", node.name, path, node.lineno)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _FUNCTIONS) and _public(member.name):
                    yield Definition(f"{module}.{node.name}.{member.name}",
                                     member.name, path, member.lineno)


def _string_uses(text: str) -> Iterator[str]:
    """The string itself, and the identifiers of its format fields."""
    yield text
    try:
        fields = [field for _, field, _, _ in string.Formatter().parse(text)
                  if field]
    except ValueError:
        return
    for field in fields:
        yield from _FIELD_PART_RE.findall(field)


def _docstrings_and_all(tree: ast.Module) -> Set[int]:
    """ids of the string constants that are docstrings or ``__all__`` entries."""
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + _DEFS):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                skipped.add(id(body[0].value))
        targets: List[ast.expr] = []
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        if any(isinstance(target, ast.Name) and target.id == "__all__"
               for target in targets) and node.value is not None:
            skipped.update(id(inner) for inner in ast.walk(node.value))
    return skipped


#: A use: the name, and the definitions (by qualname) it sits inside.
Use = Tuple[str, FrozenSet[str]]


def uses(path: Path, tree: ast.Module, root: Path) -> Iterator[Use]:
    """Every use in one module, tagged with the definitions enclosing it."""
    module = (_module_name(path, root)
              if (root / PACKAGE) in path.parents else None)
    skipped = _docstrings_and_all(tree)

    def visit(node: ast.AST, scope: FrozenSet[str]) -> Iterator[Use]:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if module is not None and isinstance(child, _DEFS):
                if node is tree:
                    inner = frozenset({f"{module}.{child.name}"})
                elif isinstance(node, ast.ClassDef) and node in tree.body:
                    inner = scope | {f"{module}.{node.name}.{child.name}"}
            if isinstance(child, ast.Name):
                yield child.id, scope
            elif isinstance(child, ast.Attribute):
                yield child.attr, scope
            elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
                  and id(child) not in skipped):
                for name in _string_uses(child.value):
                    yield name, scope
            yield from visit(child, inner)

    yield from visit(tree, frozenset())


def check(root: Path, allowlist: Mapping[str, str]) -> List[str]:
    """Every problem found under ``root``, one line each (empty: clean)."""
    found: List[Definition] = []
    used: Dict[str, List[FrozenSet[str]]] = {}
    for relative in USE_ROOTS:
        for path in sorted((root / relative).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            if relative == PACKAGE:
                found.extend(definitions(path, tree, root))
            for name, scope in uses(path, tree, root):
                used.setdefault(name, []).append(scope)

    def has_use(definition: Definition) -> bool:
        return any(definition.qualname not in scope
                   for scope in used.get(definition.name, ()))

    problems: List[str] = []
    for definition in found:
        if not has_use(definition) and definition.qualname not in allowlist:
            problems.append(f"UNUSED {definition.path.relative_to(root)}:"
                            f"{definition.line}: {definition.qualname}")
    by_qualname = {definition.qualname: definition for definition in found}
    for qualname, reason in allowlist.items():
        definition = by_qualname.get(qualname)
        if not reason.strip():
            problems.append(f"ALLOWLIST {qualname}: no reason given")
        elif definition is None:
            problems.append(f"ALLOWLIST {qualname}: names no definition")
        elif has_use(definition):
            problems.append(f"ALLOWLIST {qualname}: is used, drop the entry")
    return problems


def main(argv: List[str]) -> int:
    if argv:
        print("usage: check_refs.py", file=sys.stderr)
        return 2
    problems = check(REPO_ROOT, ALLOWLIST)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} problem(s)")
        return 1
    print("every public definition under src/repro has a use")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
