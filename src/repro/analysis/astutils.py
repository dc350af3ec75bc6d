"""AST plumbing shared by the static checkers.

The analyzers never *import* the code under inspection — they parse it.
:class:`PackageIndex` walks a package directory, parses every module,
and precomputes what the checkers keep asking for:

* dotted module names and repo-relative paths;
* per-module import aliases (``import numpy as np`` -> ``np`` maps to
  ``numpy``; ``from repro.fed.messages import SplitQuery`` -> the name
  ``SplitQuery`` maps to ``repro.fed.messages.SplitQuery``);
* a function table mapping qualified and bare names to their defs, the
  backbone of the taint checker's interprocedural summaries;
* per-line suppression maps (see :mod:`repro.analysis.findings`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.findings import parse_comment_suppressions

__all__ = [
    "ModuleInfo",
    "FunctionInfo",
    "PackageIndex",
    "call_name",
    "dotted_name",
    "node_span",
    "iter_functions",
]


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


def iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(qualname, def)`` for every function, including methods."""

    def walk(body: Iterable[ast.stmt], prefix: str):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                yield qualname, node
                yield from walk(node.body, f"{qualname}.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(tree.body, "")


@dataclass
class ModuleInfo:
    """One parsed module of the package under analysis."""

    name: str  # dotted, e.g. "repro.core.trainer"
    path: Path
    relpath: str  # display path, relative to the scan root
    tree: ast.Module
    source_lines: list[str]
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


@dataclass
class FunctionInfo:
    """A function definition plus where it lives."""

    module: ModuleInfo
    qualname: str  # e.g. "ActiveParty.send_gradients"
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def bare_name(self) -> str:
        """Unqualified function name (method-call resolution key)."""
        return self.node.name

    @property
    def param_names(self) -> list[str]:
        """Positional + keyword parameter names, ``self``/``cls`` included."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


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
        self.functions: dict[str, FunctionInfo] = {}
        #: bare function name -> every definition with that name
        self.by_bare_name: dict[str, list[FunctionInfo]] = {}
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
                source_lines=source.splitlines(),
                suppressions=parse_comment_suppressions(source),
                imports=_collect_imports(tree),
            )
            self.modules[name] = module
            for qualname, fn_node in iter_functions(tree):
                info = FunctionInfo(module=module, qualname=qualname, node=fn_node)
                self.functions[f"{name}:{qualname}"] = info
                self.by_bare_name.setdefault(info.bare_name, []).append(info)

    def iter_modules(self, prefixes: tuple[str, ...] = ()) -> Iterator[ModuleInfo]:
        """All modules, optionally filtered by relpath prefixes.

        A prefix matches when the module's path *within the package*
        starts with it (``fed/`` matches ``repro/fed/channel.py``) or
        equals it exactly (``core/protocol.py``).
        """
        for module in self.modules.values():
            if not prefixes:
                yield module
                continue
            inner = str(module.path.relative_to(self.root))
            if any(inner == p or inner.startswith(p) for p in prefixes):
                yield module

    def resolve_function(
        self, module: ModuleInfo, name: str | None
    ) -> FunctionInfo | None:
        """Best-effort resolution of a call's callee to a definition.

        Tries, in order: a plain function in the same module, an
        imported ``module.function``, and finally a *unique* bare-name
        match anywhere in the package (the pragmatic answer for
        ``self.method(...)`` calls).  Ambiguous bare names resolve to
        ``None`` — callers treat that as an unknown callee.
        """
        if not name:
            return None
        tail = name.rsplit(".", maxsplit=1)[-1]
        local = self.functions.get(f"{module.name}:{name}")
        if local is not None:
            return local
        resolved = module.resolve(name)
        if resolved and "." in resolved:
            target_module, _, fn = resolved.rpartition(".")
            hit = self.functions.get(f"{target_module}:{fn}")
            if hit is not None:
                return hit
        candidates = self.by_bare_name.get(tail, [])
        if len(candidates) == 1:
            return candidates[0]
        return None
