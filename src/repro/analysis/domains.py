"""Ciphertext-domain abstract interpreter (rules ``CR101``-``CR104``).

The taint checker answers "does label-derived *content* leak?"; this
pass answers "is the crypto *algebra* well-typed?".  Every expression
in the protocol-reachable modules is assigned an abstract domain:

* ``Plain``   — an ordinary Python/numpy number;
* ``Cipher``  — a Paillier :class:`~repro.crypto.ciphertext.EncryptedNumber`
  (tagged with the context expression it was encrypted under and, when
  statically known, its fixed-point exponent);
* ``Packed``  — a :class:`~repro.crypto.packing.PackedCipher`, several
  fixed-exponent values in one ciphertext's limbs (§5.2);
* ``Encoded`` — a fixed-point :class:`~repro.crypto.encoding.EncodedNumber`.

Domains seed from parameter annotations and crypto-API calls, propagate
through assignments, containers and arithmetic, and cross function
boundaries via return-domain summaries computed over the shared
:class:`~repro.analysis.astutils.PackageIndex` (same fixpoint shape as
the taint summaries).  Four misuse patterns become findings:

* **CR101 — cross-domain arithmetic**: ``cipher + plain`` or
  ``cipher + encoded`` via operators (the implicit ``__add__`` hides
  whether an HAdd or a plaintext-add powmod runs — call
  ``ctx.add_plain``/encrypt explicitly), ``cipher * cipher`` (Paillier
  is additively homomorphic only), and any operator arithmetic on a
  ``Packed`` value (limbs must be unpacked or combined via HAdd of
  whole packs).
* **CR102 — alignment-free exponent mixing**: combining ciphers whose
  *statically known* exponents differ through an API that does not
  align them — ``raw_add`` on ``.ciphertext`` payloads, or packing a
  list of mixed-exponent ciphers (packed limbs share one exponent by
  construction; ``ctx.add`` is exempt because it scales operands).
* **CR103 — double packing**: feeding a ``Packed`` value back into a
  ``pack_*`` call; limbs of limbs silently corrupt every decode.
* **CR104 — decrypt-then-re-encrypt** (warning): encrypting a value
  that came straight from a decrypt — two wasted powmods per value;
  operate on the cipher or keep the plaintext.

The checker is intentionally conservative: unknown domains stay
unknown and never fire, so a finding means the misuse is visible in
the code itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace

from repro.analysis.astutils import (
    FunctionInfo,
    ModuleInfo,
    PackageIndex,
    call_name,
    node_span,
)
from repro.analysis.findings import Finding, Reporter, Severity

__all__ = ["Domain", "DomainChecker", "DEFAULT_SCOPE", "run"]

#: package-inner path prefixes forming the protocol-reachable scope
DEFAULT_SCOPE = ("core/", "gbdt/", "crypto/", "fed/", "serve/")

PLAIN, CIPHER, PACKED, ENCODED = "plain", "cipher", "packed", "encoded"

#: call tails producing ciphertext
_ENCRYPT_TAILS = {"encrypt", "encrypt_encoded", "encrypt_zero"}

#: call tails producing packed ciphertext
_PACK_TAILS = {"pack_ciphers", "pack_histogram", "pack_values"}

#: call tails producing fixed-point encodings
_ENCODE_TAILS = {"encode"}

#: call tails producing plaintext from ciphertext
_DECRYPT_TAILS = {
    "decrypt",
    "decrypt_raw",
    "decrypt_histogram",
    "unpack_values",
    "unpack_histogram",
}

_MAX_ROUNDS = 4


@dataclass(frozen=True)
class Domain:
    """Abstract value of one expression.

    Attributes:
        kind: ``plain`` / ``cipher`` / ``packed`` / ``encoded``.
        key: source-level context expression a cipher was produced by
            (``"ctx"``, ``"self.context"``); identity for messages only.
        exponent: statically known fixed-point exponent, else ``None``.
        from_decrypt: the value came straight out of a decrypt call
            (CR104's trigger).
        container: the expression is a list/tuple *of* this domain.
        mixed_exponents: container elements carry differing known
            exponents (CR102's packing trigger).
    """

    kind: str
    key: str | None = None
    exponent: int | None = None
    from_decrypt: bool = False
    container: bool = False
    mixed_exponents: bool = False

    def scalar(self) -> "Domain":
        """Element domain of a container (identity for scalars)."""
        return replace(self, container=False) if self.container else self


def _plain(from_decrypt: bool = False) -> Domain:
    return Domain(PLAIN, from_decrypt=from_decrypt)


def _annotation_domain(ann: ast.expr | None) -> Domain | None:
    """Domain a parameter/variable annotation implies, if any."""
    if ann is None:
        return None
    names: set[str] = set()
    for node in ast.walk(ann):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    container = bool(names & {"list", "List", "Sequence", "Iterable", "tuple", "Tuple"})
    if "EncryptedNumber" in names:
        return Domain(CIPHER, container=container)
    if "PackedCipher" in names:
        return Domain(PACKED, container=container)
    if "EncodedNumber" in names:
        return Domain(ENCODED, container=container)
    if names & {"float", "int"} and not names & {"str", "bytes"}:
        return _plain()
    return None


def _const_int(node: ast.expr | None) -> int | None:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_int(node.operand)
        return None if inner is None else -inner
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


class DomainChecker:
    """Abstract interpretation of crypto values over a package index."""

    checker_name = "domains"

    def __init__(
        self, index: PackageIndex, scope: tuple[str, ...] = DEFAULT_SCOPE
    ) -> None:
        self.index = index
        self.scope = scope
        #: function key -> return Domain (interprocedural summaries)
        self.summaries: dict[str, Domain | None] = {}

    # ------------------------------------------------------------------
    def run(self) -> Reporter:
        reporter = Reporter()
        functions = [
            info
            for module in self.index.iter_modules(self.scope)
            for info in self._module_functions(module)
        ]
        # Round 0..n-1: summaries to a fixpoint (no reporting); the
        # final round reports with stable summaries.
        for round_no in range(_MAX_ROUNDS):
            changed = False
            for info in functions:
                summary = _FunctionEval(self, info, reporter=None).summarize()
                key = f"{info.module.name}:{info.qualname}"
                if self.summaries.get(key) != summary:
                    self.summaries[key] = summary
                    changed = True
            if not changed:
                break
        for info in functions:
            _FunctionEval(self, info, reporter=reporter).summarize()
        return reporter

    def _module_functions(self, module: ModuleInfo):
        for key, info in self.index.functions.items():
            if info.module is module:
                yield info

    def summary_for(self, module: ModuleInfo, name: str | None) -> Domain | None:
        info = self.index.resolve_function(module, name)
        if info is None:
            return None
        return self.summaries.get(f"{info.module.name}:{info.qualname}")


class _FunctionEval:
    """One straight-line abstract interpretation of a function body."""

    def __init__(
        self,
        checker: DomainChecker,
        info: FunctionInfo,
        reporter: Reporter | None,
    ) -> None:
        self.checker = checker
        self.info = info
        self.module = info.module
        self.reporter = reporter
        self.env: dict[str, Domain] = {}
        self.returns: list[Domain | None] = []
        args = info.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            domain = _annotation_domain(arg.annotation)
            if domain is not None:
                self.env[arg.arg] = domain

    # ------------------------------------------------------------------
    def summarize(self) -> Domain | None:
        self._walk(self.info.node.body)
        domains = {d for d in self.returns}
        if len(domains) == 1:
            return domains.pop()
        return None

    def _walk(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested defs are separate index entries
            if isinstance(stmt, ast.Assign):
                domain = self.eval(stmt.value)
                if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                    self._bind(stmt.targets[0].id, domain)
            elif isinstance(stmt, ast.AnnAssign):
                domain = self.eval(stmt.value) if stmt.value is not None else None
                if domain is None:
                    domain = _annotation_domain(stmt.annotation)
                if isinstance(stmt.target, ast.Name):
                    self._bind(stmt.target.id, domain)
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    left = self.env.get(stmt.target.id)
                    right = self.eval(stmt.value)
                    result = self._binop_domains(stmt, stmt.op, left, right)
                    self._bind(stmt.target.id, result)
                else:
                    self.eval(stmt.value)
            elif isinstance(stmt, ast.Return):
                domain = self.eval(stmt.value) if stmt.value is not None else None
                self.returns.append(domain)
            elif isinstance(stmt, ast.Expr):
                self.eval(stmt.value)
            elif isinstance(stmt, (ast.If, ast.While)):
                self.eval(stmt.test)
                self._walk(stmt.body)
                self._walk(stmt.orelse)
            elif isinstance(stmt, ast.For):
                iter_domain = self.eval(stmt.iter)
                if isinstance(stmt.target, ast.Name) and iter_domain is not None:
                    self._bind(stmt.target.id, iter_domain.scalar())
                self._walk(stmt.body)
                self._walk(stmt.orelse)
            elif isinstance(stmt, ast.With):
                self._walk(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body)
                for handler in stmt.handlers:
                    self._walk(handler.body)
                self._walk(stmt.orelse)
                self._walk(stmt.finalbody)

    def _bind(self, name: str, domain: Domain | None) -> None:
        if domain is None:
            self.env.pop(name, None)
        else:
            self.env[name] = domain

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------
    def eval(self, node: ast.expr | None) -> Domain | None:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return None
            if isinstance(node.value, (int, float)):
                return _plain()
            return None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            return self._binop_domains(node, node.op, left, right)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.Subscript):
            self.eval(node.slice)
            base = self.eval(node.value)
            return base.scalar() if base is not None else None
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return self._container_of(node.elts)
        if isinstance(node, ast.ListComp):
            domain = self.eval(node.elt)
            if domain is not None:
                return replace(domain, container=True)
            return None
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            a, b = self.eval(node.body), self.eval(node.orelse)
            return a if a == b else None
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.Attribute):
            self.eval(node.value)
            return None
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self.eval(child)
            return None
        return None

    def _container_of(self, elts: list[ast.expr]) -> Domain | None:
        domains = [self.eval(e) for e in elts]
        known = [d for d in domains if d is not None]
        if not known or any(d.kind != known[0].kind for d in known):
            return None
        exponents = {d.exponent for d in known if d.exponent is not None}
        return replace(
            known[0],
            container=True,
            exponent=exponents.pop() if len(exponents) == 1 else None,
            mixed_exponents=len(exponents) > 1,
        )

    # ------------------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> Domain | None:
        for keyword in node.keywords:
            self.eval(keyword.value)
        arg_domains = [self.eval(arg) for arg in node.args]
        name = call_name(node)
        tail = name.rsplit(".", maxsplit=1)[-1] if name else None
        head = name.rsplit(".", maxsplit=1)[0] if name and "." in name else None

        if tail in _ENCRYPT_TAILS:
            self._check_reencrypt(node, arg_domains)
            exponent = _const_int(self._keyword(node, "exponent"))
            if tail == "encrypt_zero" and exponent is None and node.args:
                exponent = _const_int(node.args[0])
            return Domain(CIPHER, key=head, exponent=exponent)
        if tail == "EncryptedNumber":
            key = None
            if node.args:
                key_name = call_name(node.args[0]) if isinstance(node.args[0], ast.Call) else None
                key = key_name or (
                    node.args[0].id if isinstance(node.args[0], ast.Name) else None
                )
            exponent = (
                _const_int(node.args[2]) if len(node.args) >= 3 else None
            ) or _const_int(self._keyword(node, "exponent"))
            return Domain(CIPHER, key=key, exponent=exponent)
        if tail in _PACK_TAILS or tail == "PackedCipher":
            if tail in _PACK_TAILS:
                self._check_pack(node, arg_domains)
            return Domain(PACKED)
        if tail in _ENCODE_TAILS or tail == "EncodedNumber":
            exponent = _const_int(self._keyword(node, "exponent"))
            return Domain(ENCODED, exponent=exponent)
        if tail in _DECRYPT_TAILS:
            return _plain(from_decrypt=True)
        if tail == "decrypt_encoded":
            return Domain(ENCODED, from_decrypt=True)
        if tail == "raw_add":
            self._check_raw_add(node)
            return None
        summary = self.checker.summary_for(self.module, name)
        return summary

    def _keyword(self, node: ast.Call, name: str) -> ast.expr | None:
        for keyword in node.keywords:
            if keyword.arg == name:
                return keyword.value
        return None

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def _binop_domains(
        self, node: ast.AST, op: ast.operator, left: Domain | None, right: Domain | None
    ) -> Domain | None:
        kinds = {d.kind for d in (left, right) if d is not None}
        additive = isinstance(op, (ast.Add, ast.Sub))
        multiplicative = isinstance(op, ast.Mult)
        if PACKED in kinds and (additive or multiplicative) and len(kinds) >= 1:
            other = (
                right if left is not None and left.kind == PACKED else left
            )
            if other is not None:
                self._emit(
                    node,
                    "CR101",
                    "operator arithmetic on a Packed cipher: limbs share one "
                    "ciphertext and cannot be combined with "
                    f"a {other.kind} operand; unpack first or HAdd whole "
                    "packs via the packing API",
                )
            return None
        if additive and kinds == {CIPHER, PLAIN}:
            self._emit(
                node,
                "CR101",
                "cipher + plain number through an operator hides a "
                "plaintext-add powmod; encrypt the operand or call "
                "ctx.add_plain(...) explicitly",
            )
            return Domain(CIPHER, key=self._cipher_key(left, right))
        if additive and kinds == {CIPHER, ENCODED}:
            self._emit(
                node,
                "CR101",
                "cipher + EncodedNumber mixes domains: encrypt the encoding "
                "(ctx.encrypt_encoded) or add via ctx.add_plain",
            )
            return Domain(CIPHER, key=self._cipher_key(left, right))
        if multiplicative and kinds == {CIPHER} and left is not None and right is not None:
            self._emit(
                node,
                "CR101",
                "cipher * cipher is not expressible in Paillier (additively "
                "homomorphic only); one operand must be plaintext",
            )
            return None
        if kinds == {CIPHER} and left is not None and right is not None:
            return replace(left, exponent=None, from_decrypt=False)
        if kinds == {PLAIN}:
            carried = any(
                d is not None and d.from_decrypt for d in (left, right)
            )
            return _plain(from_decrypt=carried)
        if kinds == {CIPHER, PLAIN} and multiplicative:
            return Domain(CIPHER, key=self._cipher_key(left, right))
        return None

    @staticmethod
    def _cipher_key(left: Domain | None, right: Domain | None) -> str | None:
        for domain in (left, right):
            if domain is not None and domain.kind == CIPHER:
                return domain.key
        return None

    def _check_pack(self, node: ast.Call, arg_domains: list[Domain | None]) -> None:
        for arg, domain in zip(node.args, arg_domains):
            if domain is None:
                continue
            if domain.kind == PACKED:
                self._emit(
                    node,
                    "CR103",
                    "packing a value that is already Packed: limbs of limbs "
                    "corrupt every decode; pack plain EncryptedNumbers only",
                )
            elif domain.kind == CIPHER and domain.container and domain.mixed_exponents:
                self._emit(
                    node,
                    "CR102",
                    "packing ciphers with differing known exponents: packed "
                    "limbs share one exponent by construction; scale_to a "
                    "common exponent before packing",
                )

    def _check_raw_add(self, node: ast.Call) -> None:
        """CR102 for ``raw_add(a.ciphertext, b.ciphertext)`` on
        known-mismatched exponents — the raw layer never aligns."""
        exponents = []
        for arg in node.args:
            if (
                isinstance(arg, ast.Attribute)
                and arg.attr == "ciphertext"
                and isinstance(arg.value, ast.Name)
            ):
                domain = self.env.get(arg.value.id)
                if domain is not None and domain.kind == CIPHER:
                    exponents.append(domain.exponent)
        known = {e for e in exponents if e is not None}
        if len(known) > 1:
            self._emit(
                node,
                "CR102",
                f"raw_add of ciphers with differing exponents {sorted(known)}: "
                "the raw layer does not align; use ctx.add (which scales) or "
                "scale_to a common exponent first",
            )

    def _check_reencrypt(
        self, node: ast.Call, arg_domains: list[Domain | None]
    ) -> None:
        for domain in arg_domains:
            if domain is not None and domain.from_decrypt:
                self._emit(
                    node,
                    "CR104",
                    "encrypting a freshly decrypted value — a decrypt/encrypt "
                    "round trip wastes two powmods per value; keep operating "
                    "on the cipher or keep the plaintext",
                    severity=Severity.WARNING,
                )
                return

    # ------------------------------------------------------------------
    def _emit(
        self, node: ast.AST, rule: str, message: str, severity: str = Severity.ERROR
    ) -> None:
        if self.reporter is None:
            return
        span = node_span(node)
        self.reporter.emit(
            Finding(
                rule_id=rule,
                severity=severity,
                file=self.module.relpath,
                line=span[0],
                message=message,
                checker=self.checker.checker_name,
            ),
            self.module.suppressions,
            span,
        )


def run(index: PackageIndex, scope: tuple[str, ...] = DEFAULT_SCOPE) -> Reporter:
    """Convenience wrapper: run the domain checker over an index."""
    return DomainChecker(index, scope).run()
