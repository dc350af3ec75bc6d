"""Determinism lint for simulation-reachable code (rules ``DET001``-``DET003``).

The simulator's contract (:mod:`repro.fed.simtime`) is *exact
repeatability*: one CPU reproduces two data centers, and every table in
the paper regenerates bit-identically.  Three hazard classes can break
that silently:

* **DET001 — wall-clock reads** (``time.time``, ``time.perf_counter``,
  ``datetime.now``, ...): simulated time must come from the engine,
  never the host.  Both *calls* and wall-clock *references as function
  parameter defaults* (``timer=time.perf_counter``) are flagged — a
  defaulted timer hard-codes the host clock just as surely as calling
  it, only one stack frame later.  ``repro.bench.calibrate.measure``
  times *real* crypto by design with an injected timer; the two
  injectable-timer defaults of its views (``calibrate`` and
  ``crypto_throughputs``) carry line-level ``# repro: allow[DET001]``
  suppressions.

* **DET002 — nondeterministic randomness**: unseeded
  ``random.Random()`` / ``numpy.random.default_rng()`` construction,
  the module-level ``random.*`` / legacy ``numpy.random.*`` global
  state, and ``secrets`` usage.  The scope includes the fixed-point
  encoder's exponent-jitter path (``crypto/encoding.py``,
  ``crypto/ciphertext.py``) because jittered exponents feed the
  ``E``-dependent costs of §5.1 — an unseeded jitter RNG makes
  scheduled makespans run-to-run unstable.

* **DET003 — set-iteration-order dependence**: iterating a ``set``
  directly (``for x in {...}`` / ``list(set(...))``) observes hash
  order, which varies across processes for str elements.  Wrapping in
  ``sorted(...)`` (or any order-insensitive reduction) is the fix and
  is recognized as safe.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import (
    ModuleInfo,
    PackageIndex,
    call_name,
    dotted_name,
    node_span,
)
from repro.analysis.findings import Finding, Reporter, Severity

__all__ = ["DeterminismChecker", "DEFAULT_SCOPE", "run"]

#: package-inner path prefixes the simulator's repeatability depends on
DEFAULT_SCOPE = (
    "fed/",
    "core/protocol.py",
    "bench/",
    "serve/",
    "obs/",
    "crypto/encoding.py",
    "crypto/ciphertext.py",
)

WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: module-level random functions that consult interpreter-global state
_GLOBAL_RANDOM_TAILS = {
    "random",
    "randrange",
    "randint",
    "uniform",
    "shuffle",
    "choice",
    "choices",
    "sample",
    "getrandbits",
    "randbytes",
    "gauss",
    "normalvariate",
    "seed",
}

_NUMPY_LEGACY_TAILS = {
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "shuffle",
    "permutation",
    "choice",
    "seed",
    "uniform",
    "normal",
}

#: order-insensitive consumers that make raw set iteration safe
_ORDER_SAFE_WRAPPERS = {"sorted", "min", "max", "sum", "len", "any", "all", "frozenset", "set"}


class DeterminismChecker:
    """Scan simulation-reachable modules for nondeterminism hazards."""

    checker_name = "determinism"

    def __init__(
        self, index: PackageIndex, scope: tuple[str, ...] = DEFAULT_SCOPE
    ) -> None:
        self.index = index
        self.scope = scope

    def run(self) -> Reporter:
        reporter = Reporter()
        for module in self.index.iter_modules(self.scope):
            self._check_module(module, reporter)
        return reporter

    # ------------------------------------------------------------------
    def _check_module(self, module: ModuleInfo, reporter: Reporter) -> None:
        set_names = self._set_valued_names(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                self._check_call(module, node, reporter)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                self._check_defaults(module, node, reporter)
            if isinstance(node, ast.For):
                self._check_set_iteration(module, node.iter, set_names, reporter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    self._check_set_iteration(module, gen.iter, set_names, reporter)

    # ------------------------------------------------------------------
    # DET001 / DET002
    # ------------------------------------------------------------------
    def _check_call(self, module: ModuleInfo, node: ast.Call, reporter: Reporter) -> None:
        name = call_name(node)
        resolved = module.resolve(name) if name else None
        if not resolved:
            return
        if resolved in WALL_CLOCK:
            self._emit(
                reporter,
                module,
                node,
                "DET001",
                f"wall-clock read {resolved!r} in a simulation-reachable module; "
                "simulated time must come from SimEngine, not the host clock",
            )
            return
        if resolved == "random.Random" and not node.args and not node.keywords:
            self._emit(
                reporter,
                module,
                node,
                "DET002",
                "unseeded random.Random() constructed in simulation-reachable "
                "code; inject a seeded RNG or derive a deterministic seed",
            )
            return
        if (
            resolved == "numpy.random.default_rng"
            and not node.args
            and not node.keywords
        ):
            self._emit(
                reporter,
                module,
                node,
                "DET002",
                "unseeded numpy.random.default_rng() in simulation-reachable code",
            )
            return
        head, _, tail = resolved.rpartition(".")
        if head == "random" and tail in _GLOBAL_RANDOM_TAILS:
            self._emit(
                reporter,
                module,
                node,
                "DET002",
                f"module-level {resolved!r} consults interpreter-global RNG "
                "state; use an injected random.Random(seed)",
            )
        elif head == "numpy.random" and tail in _NUMPY_LEGACY_TAILS:
            self._emit(
                reporter,
                module,
                node,
                "DET002",
                f"legacy global-state {resolved!r}; use numpy.random.default_rng(seed)",
            )
        elif resolved.startswith("secrets."):
            self._emit(
                reporter,
                module,
                node,
                "DET002",
                f"{resolved!r} is deliberately nondeterministic and must not "
                "reach simulation results",
            )

    def _check_defaults(self, module: ModuleInfo, node, reporter: Reporter) -> None:
        """DET001 for wall-clock *references* in parameter defaults."""
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            name = dotted_name(default)
            resolved = module.resolve(name) if name else None
            if resolved in WALL_CLOCK:
                self._emit(
                    reporter,
                    module,
                    default,
                    "DET001",
                    f"wall-clock function {resolved!r} as a parameter default "
                    "hard-codes the host clock; inject the timer at the call "
                    "site (simulation callers pass a deterministic one)",
                )

    # ------------------------------------------------------------------
    # DET003
    # ------------------------------------------------------------------
    @staticmethod
    def _is_set_expr(node: ast.expr, set_names: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = call_name(node)
            tail = name.rsplit(".", maxsplit=1)[-1] if name else None
            if tail in ("set", "frozenset"):
                return True
            # set-algebra methods return sets
            if tail in ("union", "intersection", "difference", "symmetric_difference"):
                return isinstance(node.func, ast.Attribute) and DeterminismChecker._is_set_expr(
                    node.func.value, set_names
                )
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return DeterminismChecker._is_set_expr(
                node.left, set_names
            ) and DeterminismChecker._is_set_expr(node.right, set_names)
        return False

    def _set_valued_names(self, module: ModuleInfo) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and self._is_set_expr(node.value, names):
                    names.add(target.id)
        return names

    def _check_set_iteration(
        self,
        module: ModuleInfo,
        iter_expr: ast.expr,
        set_names: set[str],
        reporter: Reporter,
    ) -> None:
        if self._is_set_expr(iter_expr, set_names):
            self._emit(
                reporter,
                module,
                iter_expr,
                "DET003",
                "iteration over a set observes hash order, which varies across "
                "processes; iterate sorted(...) or an ordered container",
            )

    # ------------------------------------------------------------------
    def _emit(
        self,
        reporter: Reporter,
        module: ModuleInfo,
        node: ast.AST,
        rule: str,
        message: str,
    ) -> None:
        span = node_span(node)
        reporter.emit(
            Finding(
                rule_id=rule,
                severity=Severity.ERROR,
                file=module.relpath,
                line=span[0],
                message=message,
                checker=self.checker_name,
            ),
            module.suppressions,
            span,
        )


def run(index: PackageIndex, scope: tuple[str, ...] = DEFAULT_SCOPE) -> Reporter:
    """Convenience wrapper: run the determinism lint over an index."""
    return DeterminismChecker(index, scope).run()
