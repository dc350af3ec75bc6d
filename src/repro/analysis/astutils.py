"""AST plumbing shared by the static checkers.

The analyzers never *import* the code under inspection — they parse it.
:class:`PackageIndex` walks a package directory, parses every module,
and precomputes what the checkers keep asking for:

* dotted module names and repo-relative paths;
* per-module import aliases (``import numpy as np`` -> ``np`` maps to
  ``numpy``; ``from time import perf_counter`` -> the name
  ``perf_counter`` maps to ``time.perf_counter``);
* per-line suppression maps (see :mod:`repro.analysis.findings`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import parse_comment_suppressions

__all__ = ["ModuleInfo", "PackageIndex", "call_name", "dotted_name", "node_span"]


def dotted_name(node: ast.expr) -> str | None:
    """Render ``a.b.c`` attribute/name chains; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call's callee (``loss.gradients`` for
    ``loss.gradients(...)``); ``None`` for computed callees."""
    return dotted_name(node.func)


def node_span(node: ast.AST) -> tuple[int, int]:
    """Inclusive (first, last) line numbers of a node."""
    first = getattr(node, "lineno", 0)
    last = getattr(node, "end_lineno", first) or first
    return first, last


@dataclass
class ModuleInfo:
    """One parsed module of the package under analysis."""

    name: str  # dotted, e.g. "repro.core.trainer"
    path: Path
    relpath: str  # display path, relative to the scan root
    tree: ast.Module
    suppressions: dict[int, set[str]]
    #: local name -> fully qualified imported name
    imports: dict[str, str] = field(default_factory=dict)

    def resolve(self, name: str | None) -> str | None:
        """Expand a (possibly dotted) local name through the import map.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when ``np`` aliases ``numpy``.
        Unknown heads resolve to themselves.
        """
        if not name:
            return name
        head, _, rest = name.partition(".")
        target = self.imports.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


class PackageIndex:
    """Parsed view of a package tree (no code is imported or executed).

    Args:
        root: directory whose ``*.py`` files form the package; usually
            the ``repro`` package directory itself.
        package: dotted prefix for module names (``repro`` by default;
            fixture trees pass their own).
    """

    def __init__(self, root: str | Path, package: str = "repro") -> None:
        self.root = Path(root)
        self.package = package
        self.modules: dict[str, ModuleInfo] = {}
        #: ``(relpath, line, message)`` of files that failed to parse;
        #: the CLI reports each as a ``SYN001`` finding instead of dying.
        self.parse_errors: list[tuple[str, int, str]] = []
        self._load()

    def _load(self) -> None:
        for path in sorted(self.root.rglob("*.py")):
            rel = path.relative_to(self.root)
            if any(part == "__pycache__" for part in rel.parts):
                continue
            source = path.read_text()
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                self.parse_errors.append(
                    (
                        str(Path(self.package) / rel),
                        exc.lineno or 0,
                        exc.msg or "syntax error",
                    )
                )
                continue
            parts = list(rel.with_suffix("").parts)
            if parts[-1] == "__init__":
                parts = parts[:-1]
            name = ".".join([self.package] + parts) if parts else self.package
            module = ModuleInfo(
                name=name,
                path=path,
                relpath=str(Path(self.package) / rel),
                tree=tree,
                suppressions=parse_comment_suppressions(source),
                imports=_collect_imports(tree),
            )
            self.modules[name] = module

    def iter_modules(self, prefixes: tuple[str, ...]) -> Iterator[ModuleInfo]:
        """The modules whose path *within the package* starts with one
        of ``prefixes`` (``fed/`` matches ``repro/fed/channel.py``,
        ``core/protocol.py`` itself, ``""`` every module).
        """
        for module in self.modules.values():
            inner = str(module.path.relative_to(self.root))
            if any(inner == p or inner.startswith(p) for p in prefixes):
                yield module
