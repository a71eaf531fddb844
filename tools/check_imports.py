#!/usr/bin/env python3
"""Offline unused-import gate: a dependency-free mirror of ruff's F401.

CI's lint job runs ``ruff check .`` with F401 (unused import) selected and
package ``__init__.py`` files exempt, because their imports are the package's
re-exports — see ``[tool.ruff.lint]`` in ``pyproject.toml``.  This script
mirrors that rule for module-level imports, so the gate is runnable in offline
environments where ruff is not installed.  A module-level import is used when
its bound name

* is read anywhere in the module (``name`` or ``name.attr``),
* appears in a string annotation (``def f(c: "Cluster")``, also nested as in
  ``Optional["Cluster"]``), the form ``TYPE_CHECKING`` imports take, or
* is listed in the module's ``__all__``.

``from __future__`` imports, ``__init__.py`` files and import lines marked
``# noqa`` (bare, or naming F401) are exempt, as they are for ruff.

Run:  python tools/check_imports.py [paths...]
Defaults to every python file of the repository outside hidden directories.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple

_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _module_imports(tree: ast.Module) -> Iterator[Tuple[str, ast.stmt]]:
    """Yield ``(bound name, statement)`` for every module-level import.

    Module level includes the bodies of top-level ``if`` (``TYPE_CHECKING``)
    and ``try`` blocks, which still bind module globals.
    """
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node
        elif isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse)
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
            stack.extend(getattr(node, "finalbody", []))


def _annotation_names(node: ast.AST, used: Set[str]) -> None:
    """Add the names an annotation reads, parsing string forward references."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            used.add(child.id)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                parsed = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            _annotation_names(parsed, used)


def _used_names(tree: ast.Module) -> Set[str]:
    """Names the module reads, in code, in annotations or through ``__all__``."""
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotations: List[ast.AST] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            annotations = [a.annotation for a in every if a.annotation is not None]
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in annotations:
            _annotation_names(annotation, used)
        if (
            isinstance(node, (ast.Assign, ast.AugAssign))
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                e.value for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return used


def _suppressed(lines: List[str], node: ast.stmt) -> bool:
    """Whether any line of the import statement carries a ``noqa`` for F401."""
    for line in lines[node.lineno - 1:(node.end_lineno or node.lineno)]:
        match = _NOQA.search(line)
        if match and (not match.group("codes") or "F401" in match.group("codes").upper()):
            return True
    return False


def check_file(path: Path) -> List[str]:
    """Return one problem line per unused module-level import of ``path``."""
    if path.name == "__init__.py":
        return []
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    return [
        f"{path}:{node.lineno}: {name!r} imported but unused (F401)"
        for name, node in _module_imports(tree)
        if name not in used and not _suppressed(lines, node)
    ]


def main(argv: List[str]) -> int:
    """Check the given (or default) trees; print problems; return exit code."""
    root = Path(__file__).resolve().parent.parent
    targets = [Path(a) for a in argv] or [root]
    files: List[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(
                p for p in sorted(target.rglob("*.py"))
                if not any(part.startswith(".") for part in p.relative_to(target).parts)
            )
        else:
            files.append(target)
    problems = [problem for path in files for problem in check_file(path)]
    for problem in problems:
        print(problem)
    if problems:
        print(f"check_imports: {len(problems)} unused import(s) in {len(files)} file(s)")
        return 1
    print(f"check_imports: OK ({len(files)} file(s) checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
