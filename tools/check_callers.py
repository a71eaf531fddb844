#!/usr/bin/env python3
"""Dead-API gate: every public name defined in ``src/`` has a caller outside ``tests/``.

A public name is a module-level function or class, or a method or property of
a module-level class (nested classes included), whose name does not start with
``_``.  It is *referenced* when some python file of the repository outside
``tests/`` and outside hidden directories

* reads it: a module-level name bare or as an attribute (``f(...)``,
  ``mod.f``), a method or property as an attribute (``obj.f``, ``Cls.f``), or
* holds it as a component of a dotted string (``"Cls.f"``,
  ``"repro.pkg.f"``), the form perfbench's tracer ``TARGETS`` and the claims
  registry's module kwargs take.

Neither an ``__all__`` entry nor an import statement is a reference: a name
that a package only re-exports still has no caller.  Exceptions go in
``ALLOWLIST`` below, each with the reason it stays.

The check is name-based, not type-based: ``obj.run`` counts for every public
``run`` in ``src/``.  So it can miss a dead name that shares its name with a
live one.  It cannot see a caller that builds the name at run time
(``getattr(obj, name)``); such a name needs an ``ALLOWLIST`` entry.

Run:  python tools/check_callers.py
Prints ``OK`` or one line per public name without a caller; exit code 1 then.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

_ENVELOPE = (
    "first-principles pricing kept apart from the roofline for the planned "
    "envelope check on simulated runs (ROADMAP item 8)"
)

#: ``"<module path relative to src/>:<qualified name>"`` -> why it stays.  Keys
#: are never bare identifiers, so an entry is no reference to its own name.
ALLOWLIST: Dict[str, str] = {
    "repro/model/flops.py:prefill_flops": _ENVELOPE,
    "repro/model/flops.py:decode_flops_per_token": _ENVELOPE,
    "repro/model/flops.py:prefill_memory_bytes": _ENVELOPE,
    "repro/model/flops.py:decode_memory_bytes_per_token": _ENVELOPE,
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _public_defs(body: Iterable[ast.stmt], prefix: str = "") -> Iterator[Tuple[str, int]]:
    """Yield ``(qualified name, line)`` for the public definitions of a body."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield prefix + node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from _public_defs(node.body, f"{prefix}{node.name}.")


def _all_entries(tree: ast.Module) -> Set[int]:
    """``id`` of every string constant listed in a module-level ``__all__``."""
    skip: Set[int] = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            skip.update(id(c) for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return skip


def references(tree: ast.Module) -> Tuple[Set[str], Set[str]]:
    """The identifiers the module reads: ``(bare names, attributes)``.

    Components of dotted strings count as attributes, and the first one as a
    name too (``"construct_neighbors"``, ``"Cls.f"``).
    """
    skip = _all_entries(tree)
    names: Set[str] = set()
    attrs: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            attrs.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skip
            and _DOTTED.fullmatch(node.value)
        ):
            parts = node.value.split(".")
            names.add(parts[0])
            attrs.update(parts)
    return names, attrs


def _is_used(qualname: str, names: Set[str], attrs: Set[str]) -> bool:
    """A module-level name is read bare or as ``module.name``; a member only as ``x.name``."""
    leaf = qualname.rsplit(".", 1)[-1]
    return leaf in attrs or ("." not in qualname and leaf in names)


def _python_files(root: Path) -> Iterator[Path]:
    for path in sorted(root.rglob("*.py")):
        if not any(part.startswith(".") for part in path.relative_to(root).parts):
            yield path


def unreferenced(root: Path) -> List[str]:
    """One problem line per public name in ``root/src`` that nothing outside tests reads."""
    src = root / "src"
    defs: List[Tuple[str, str, int]] = []
    names: Set[str] = set()
    attrs: Set[str] = set()
    for path in _python_files(root):
        rel = path.relative_to(root)
        if rel.parts[0] == "tests":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module_names, module_attrs = references(tree)
        names |= module_names
        attrs |= module_attrs
        if rel.parts[0] == "src":
            module = path.relative_to(src).as_posix()
            defs.extend((module, name, line) for name, line in _public_defs(tree.body))
    return [
        f"src/{module}:{line}: {name!r} has no caller outside tests/"
        for module, name, line in defs
        if not _is_used(name, names, attrs) and f"{module}:{name}" not in ALLOWLIST
    ]


def main(argv: List[str]) -> int:
    """Check the repository (or the root given); print problems; return exit code."""
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    problems = unreferenced(root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"check_callers: {len(problems)} public name(s) without a caller")
        return 1
    print("check_callers: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
