#!/usr/bin/env python
"""Check that intra-repo references in markdown and python files resolve.

Four kinds of references are validated:

* markdown links ``[text](target)`` in a markdown file whose target is not
  an external URL or a pure ``#anchor`` -- the target path (anchor
  stripped) must exist relative to the referencing file (or the repo
  root);
* backticked file paths like ``src/repro/sim/core.py`` -- any backticked
  token that contains a ``/`` and ends in a known source extension must
  exist relative to the repo root (or under ``src/`` / ``src/repro/``,
  so package-relative spellings like ``repro/comm/ring.py`` and
  ``comm/ring.py`` keep working);
* in a python file, any ``NAME.md`` (or ``dir/NAME.md``) mentioned at
  all, resolved the same way -- so a docstring cannot cite a document
  that does not exist;
* backticked dotted names like ``repro.core.cost_model.CostModel`` (a
  leading ``~`` allowed, as in ``:class:`~repro.a.B```) -- the longest
  prefix must be a module or package under ``src/`` and every trailing
  component must be bound in that module's source (a ``def``, a
  ``class``, an assignment or an import).  The file is parsed, never
  imported.  ROADMAP.md and CHANGES.md are exempt from this check: they
  narrate code that later changes deleted.

A directory argument stands for every ``.py`` file under it.

Usage::

    python tools/check_links.py README.md docs/*.md src tests benchmarks

Exits non-zero and lists every broken reference if any fail.
"""

from __future__ import annotations

import ast
import re
import sys
from functools import lru_cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: [text](target) -- excluding images handled identically anyway.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: `path/to/file.ext` tokens inside backticks.
BACKTICK_RE = re.compile(r"`([^`\s]+/[^`\s]+\.(?:py|md|json|yml|yaml|txt|toml))`")

#: Any ``NAME.md`` token (checked in python files).
MARKDOWN_NAME_RE = re.compile(r"[\w./-]+\.md\b")

#: `repro.a.b[.Name]` tokens inside backticks.
DOTTED_RE = re.compile(r"`~?(repro(?:\.[A-Za-z_]\w*)+)`")

#: Documents that narrate deleted code: no dotted check.
HISTORY_FILES = ("ROADMAP.md", "CHANGES.md")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")


def candidate_paths(base: Path, target: str):
    """Places a relative reference may legitimately point to."""
    yield (base.parent / target).resolve()
    yield (REPO_ROOT / target).resolve()
    yield (REPO_ROOT / "src" / target).resolve()
    yield (REPO_ROOT / "src" / "repro" / target).resolve()


@lru_cache(maxsize=None)
def bound_names(module_file: Path) -> frozenset:
    """Every name a ``def``, ``class``, assignment or import binds
    anywhere in ``module_file``."""
    names = set()
    for node in ast.walk(ast.parse(module_file.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            names.add(node.attr)
    return frozenset(names)


def dotted_resolves(name: str) -> bool:
    """Whether ``repro.a.b[.Name...]`` names a module under ``src/`` and,
    past it, names that module binds."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        base = REPO_ROOT / "src" / Path(*parts[:cut])
        for module_file in (base.with_suffix(".py"), base / "__init__.py"):
            if module_file.is_file():
                return set(parts[cut:]) <= bound_names(module_file)
    return False


def check_file(path: Path):
    """Yield (line_number, reference) for every broken reference."""
    text = path.read_text(encoding="utf-8")
    python = path.suffix == ".py"
    for line_number, line in enumerate(text.splitlines(), start=1):
        references = BACKTICK_RE.findall(line)
        if python:
            references.extend(MARKDOWN_NAME_RE.findall(line))
        else:
            for match in LINK_RE.finditer(line):
                target = match.group(1)
                if not target.startswith(EXTERNAL_PREFIXES + ("#",)):
                    references.append(target.split("#", 1)[0])
        for target in references:
            if not target:
                continue
            if not any(p.exists() for p in candidate_paths(path, target)):
                yield line_number, target
        if path.name not in HISTORY_FILES:
            for name in DOTTED_RE.findall(line):
                if not dotted_resolves(name):
                    yield line_number, name


def main(argv):
    if not argv:
        print("usage: check_links.py FILE.md|DIR [FILE.md|DIR ...]",
              file=sys.stderr)
        return 2
    broken = 0
    checked = 0
    paths = []
    for name in argv:
        paths.extend(sorted(Path(name).rglob("*.py")) if Path(name).is_dir()
                     else [Path(name)])
    for path in paths:
        name = str(path)
        if not path.exists():
            print(f"BROKEN {name}: file itself does not exist")
            broken += 1
            continue
        checked += 1
        for line_number, target in check_file(path):
            print(f"BROKEN {name}:{line_number}: {target}")
            broken += 1
    if broken:
        print(f"{broken} broken reference(s)")
        return 1
    print(f"all intra-repo references resolve ({checked} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
