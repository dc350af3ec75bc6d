"""Paillier-misuse checker (rules ``CR001``-``CR003``).

Three failure modes the runtime cannot reliably surface:

* **CR001 — cross-key homomorphic arithmetic.**  Adding ciphertexts of
  different public keys produces garbage that still *decrypts* to a
  number; nothing throws.  The checker tracks, per function, which
  context created each cipher variable (``x = ctx_a.encrypt(...)``)
  and flags ``ctx.add(x, y)`` / ``x + y`` / ``x - y`` when the two
  provenances differ.

* **CR002 — exponent/raw-layer bypass.**  All cipher arithmetic must go
  through :mod:`repro.crypto.ciphertext`'s align-scale path, which
  scales the smaller-exponent cipher before HAdd (§2.2/Figure 8).
  Calling ``raw_add``/``raw_multiply``/``raw_add_plain``/
  ``raw_encrypt``/``raw_decrypt`` — or constructing
  :class:`~repro.crypto.ciphertext.EncryptedNumber` directly — outside
  the crypto layer skips both the alignment and the op counters.

* **CR003 — uncounted crypto ops.**  Within the crypto layer itself,
  every function that invokes a raw Paillier primitive must bump an
  :class:`~repro.crypto.ciphertext.OpStats` counter
  (``self.stats.<op> += 1``); a silent op corrupts the benchmark
  ledger that prices protocols under the paper's cost model (§5).

* **CR105 — powmod choke-point bypass.**  Crypto hot paths must route
  modular exponentiation through
  :func:`repro.crypto.math_utils.powmod`, the single choke point the
  benchmark tracer and the powmod-count tests wrap by name.  A direct
  three-argument ``pow(base, e, m)`` inside ``crypto/`` is invisible
  to both, and would survive an engine swap made under the choke
  point.  Only ``math_utils.py`` itself may call it.
"""

from __future__ import annotations

import ast

from repro.analysis.astutils import (
    ModuleInfo,
    PackageIndex,
    call_name,
    dotted_name,
    iter_functions,
    node_span,
)
from repro.analysis.findings import Finding, Reporter, Severity

__all__ = ["CryptoChecker", "RAW_OPS", "run"]

#: raw Paillier primitives (defined on the public/private key objects)
RAW_OPS = {"raw_encrypt", "raw_decrypt", "raw_add", "raw_add_plain", "raw_multiply"}

#: package-inner paths allowed to call raw primitives / construct ciphers
DEFAULT_ALLOWED_RAW = (
    "crypto/paillier.py",
    "crypto/ciphertext.py",
)
DEFAULT_ALLOWED_CONSTRUCT = ("crypto/",)

#: the only crypto-layer module allowed a direct 3-arg ``pow`` (CR105):
#: the choke point itself
DEFAULT_ALLOWED_POW = ("crypto/math_utils.py",)

#: cipher-producing call tails tracked for provenance (CR001)
_ENCRYPT_TAILS = {"encrypt", "encrypt_encoded", "encrypt_zero"}

#: homomorphic-combination method tails checked for cross-key operands
_COMBINE_TAILS = {"add", "raw_add"}


class CryptoChecker:
    """Scan an index for the three crypto-misuse rules."""

    checker_name = "crypto"

    def __init__(
        self,
        index: PackageIndex,
        allowed_raw: tuple[str, ...] = DEFAULT_ALLOWED_RAW,
        allowed_construct: tuple[str, ...] = DEFAULT_ALLOWED_CONSTRUCT,
        allowed_pow: tuple[str, ...] = DEFAULT_ALLOWED_POW,
    ) -> None:
        self.index = index
        self.allowed_raw = allowed_raw
        self.allowed_construct = allowed_construct
        self.allowed_pow = allowed_pow

    def run(self) -> Reporter:
        reporter = Reporter()
        for module in self.index.modules.values():
            inner = str(module.path.relative_to(self.index.root))
            raw_allowed = self._matches(inner, self.allowed_raw)
            construct_allowed = self._matches(inner, self.allowed_construct)
            self._check_module(module, inner, raw_allowed, construct_allowed, reporter)
        return reporter

    @staticmethod
    def _matches(inner: str, prefixes: tuple[str, ...]) -> bool:
        return any(inner == p or inner.startswith(p) for p in prefixes)

    # ------------------------------------------------------------------
    def _check_module(
        self,
        module: ModuleInfo,
        inner: str,
        raw_allowed: bool,
        construct_allowed: bool,
        reporter: Reporter,
    ) -> None:
        is_primitive_module = inner.endswith("crypto/paillier.py")
        if inner.startswith("crypto/") and not self._matches(
            inner, self.allowed_pow
        ):
            for node in self._raw_pow_calls(module.tree):
                self._emit(
                    reporter,
                    module,
                    node,
                    "CR105",
                    "direct three-argument pow() in a crypto hot path "
                    "bypasses the powmod choke point; call "
                    "repro.crypto.math_utils.powmod instead",
                )
        for qualname, fn in iter_functions(module.tree):
            self._check_cross_key(module, fn, reporter)
            raw_calls = self._raw_calls(fn)
            if not raw_allowed:
                for node in raw_calls:
                    self._emit(
                        reporter,
                        module,
                        node,
                        "CR002",
                        f"raw Paillier primitive {call_name(node)!r} called outside "
                        "the crypto layer; use PaillierContext's counted align-scale "
                        "arithmetic instead",
                    )
            elif raw_calls and not is_primitive_module:
                if not self._counts_ops(fn):
                    self._emit(
                        reporter,
                        module,
                        fn,
                        "CR003",
                        f"{qualname} invokes a raw Paillier primitive without "
                        "incrementing an OpStats counter; the benchmark ledger "
                        "would silently under-count this operation",
                    )
            if not construct_allowed:
                for node in self._cipher_constructions(module, fn):
                    self._emit(
                        reporter,
                        module,
                        node,
                        "CR002",
                        "direct EncryptedNumber construction bypasses the "
                        "align-scale exponent bookkeeping of repro.crypto.ciphertext",
                    )

    # ------------------------------------------------------------------
    # CR001: cross-key arithmetic
    # ------------------------------------------------------------------
    def _check_cross_key(
        self, module: ModuleInfo, fn: ast.FunctionDef | ast.AsyncFunctionDef, reporter: Reporter
    ) -> None:
        provenance: dict[str, str] = {}
        for stmt in ast.walk(fn):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                origin = self._cipher_origin(stmt.value, provenance)
                if origin is not None:
                    provenance[target.id] = origin
                else:
                    provenance.pop(target.id, None)
        for node in ast.walk(fn):
            if not isinstance(node, (ast.Call, ast.BinOp)):
                continue
            operands: list[ast.expr] = []
            if isinstance(node, ast.Call):
                name = call_name(node)
                tail = name.rsplit(".", maxsplit=1)[-1] if name else None
                if tail in _COMBINE_TAILS and len(node.args) >= 2:
                    operands = list(node.args[:2])
            elif isinstance(node.op, (ast.Add, ast.Sub)):
                operands = [node.left, node.right]
            if len(operands) != 2:
                continue
            origins = [self._operand_origin(op, provenance) for op in operands]
            if origins[0] and origins[1] and origins[0] != origins[1]:
                self._emit(
                    reporter,
                    module,
                    node,
                    "CR001",
                    f"homomorphic combination of ciphertexts from different "
                    f"contexts ({origins[0]!r} vs {origins[1]!r}); ciphers under "
                    "different public keys do not add meaningfully",
                )

    def _cipher_origin(
        self, value: ast.expr, provenance: dict[str, str]
    ) -> str | None:
        """Context name when ``value`` is ``<ctx>.encrypt*(...)`` or a
        known cipher variable; else None."""
        if isinstance(value, ast.Call):
            name = call_name(value)
            if name and "." in name:
                head, _, tail = name.rpartition(".")
                if tail in _ENCRYPT_TAILS:
                    return head
        elif isinstance(value, ast.Name):
            return provenance.get(value.id)
        return None

    @staticmethod
    def _operand_origin(node: ast.expr, provenance: dict[str, str]) -> str | None:
        if isinstance(node, ast.Name):
            return provenance.get(node.id)
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name and "." in name:
                head, _, tail = name.rpartition(".")
                if tail in _ENCRYPT_TAILS:
                    return head
        return None

    # ------------------------------------------------------------------
    # Raw-call helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _raw_pow_calls(tree: ast.AST) -> list[ast.Call]:
        """Direct ``pow(base, exponent, modulus)`` calls (CR105)."""
        calls = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "pow"
                and len(node.args) >= 3
            ):
                calls.append(node)
        return calls

    @staticmethod
    def _raw_calls(fn: ast.AST) -> list[ast.Call]:
        calls = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in RAW_OPS:
                    calls.append(node)
        return calls

    @staticmethod
    def _counts_ops(fn: ast.AST) -> bool:
        """Does the function bump an OpStats counter (``*.stats.x += n``)?"""
        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                name = dotted_name(node.target)
                if name and ".stats." in f".{name}":
                    return True
        return False

    def _cipher_constructions(
        self, module: ModuleInfo, fn: ast.AST
    ) -> list[ast.Call]:
        calls = []
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            resolved = module.resolve(name) if name else None
            if resolved and resolved.endswith("crypto.ciphertext.EncryptedNumber"):
                calls.append(node)
            elif name == "EncryptedNumber":
                calls.append(node)
        return calls

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


def run(index: PackageIndex) -> Reporter:
    """Convenience wrapper: run the crypto checker over an index."""
    return CryptoChecker(index).run()
