"""Party-boundary taint checker (rules ``PB001``, ``PB002``).

The protocol's ground rule (paper §3.2; SecureBoost's security
argument): every *label-derived* quantity crossing the channel toward a
passive party must be ciphertext.  The runtime complement lives in
:class:`repro.fed.channel.RecordingChannel`; this checker proves the
property statically, so a protocol variant that ships gradients in the
clear fails CI even when no privacy test happens to execute that path.

How it works
------------
*Sources* introduce taint: the ground-truth label vector (any function
parameter literally named ``labels``), gradient/hessian computation
(``*.gradients(...)`` calls on a loss), the attributes a party keeps them
under (``.labels``, ``.gradients``, ...), and decryption of cross-party
aggregates (``decrypt*``/``unpack_histogram``/``unpack_values`` —
plaintext label statistics at Party B).

Taint propagates through assignments, tuple unpacking, arithmetic,
subscripts, comprehensions, and *interprocedurally* through calls:
every package function gets a summary (which parameters reach its
return value) computed to a fixpoint, and call sites feed tainted
arguments into callee parameter seeds.

*Sanitizers* clear taint: ``encrypt``/``pack_*`` calls
and ``EncryptedNumber``/``PackedCipher`` construction — the payload is
ciphertext from there on.

*Sinks* are constructions of :mod:`repro.fed.messages` types headed
toward a passive party, plus direct ``channel.send(...)`` calls.  A
tainted expression reaching a payload field raises ``PB001`` unless the
type's declared ``disclosure`` is ``"metadata"`` — information the
protocol deliberately reveals (split bin indices, placement bitmaps;
§3.2).  The declarations and field orders are read from the imported
:mod:`repro.fed.messages`, the one place they are written.
``LeafWeightBroadcast`` (``"model"``) is intentionally still checked:
broadcasting raw label-derived floats is the strongest disclosure the
protocol makes and every occurrence must carry an explicit
``# repro: allow[PB001]`` with its rationale.

``PB002`` flags :class:`~repro.fed.messages.Message` subclasses defined
outside ``repro/fed/messages.py`` — the static complement of the
channel's runtime default-deny on undeclared message types.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.astutils import (
    FunctionInfo,
    ModuleInfo,
    PackageIndex,
    call_name,
    dotted_name,
    node_span,
)
from repro.analysis.findings import Finding, Reporter, Severity

__all__ = ["TaintChecker", "run"]

#: call tails that *introduce* label-derived taint
SOURCE_TAILS = {
    "gradients",
    "decrypt",
    "decrypt_encoded",
    "decrypt_raw",
    "decrypt_histogram",
    "unpack_histogram",
    "unpack_values",
}

#: attribute reads that are label-derived: a party object's state
SOURCE_ATTRS = {"labels", "gradients", "hessians", "margins", "raw_pairs"}

#: call tails that return ciphertext — taint does not pass through
SANITIZER_TAILS = {
    "encrypt",
    "encrypt_encoded",
    "encrypt_zero",
    "pack_histogram",
    "pack_ciphers",
    "pack_values",
    "build_encrypted_histogram",
    "EncryptedNumber",
    "PackedCipher",
}

#: call tails that return label-free derived values (shapes, counts)
CLEAN_TAILS = {"len", "type", "isinstance", "id", "range", "zeros", "zeros_like", "empty"}

#: attribute reads that expose only shape/metadata, never label content
CLEAN_ATTRS = {"shape", "size", "ndim", "dtype", "nbytes"}

_MESSAGES_MODULE = "repro.fed.messages"
_MAX_ROUNDS = 8


def _message_declarations() -> dict[str, tuple[str | None, list[str]]]:
    """``{name: (disclosure, field order)}`` of every message type.

    Read from the imported :mod:`repro.fed.messages`, which is imported
    lazily so the other static checkers stay import-light.
    """
    import dataclasses

    from repro.fed import messages

    return {
        name: (cls.disclosure, [f.name for f in dataclasses.fields(cls)])
        for name, cls in vars(messages).items()
        if isinstance(cls, type)
        and issubclass(cls, messages.Message)
        and cls is not messages.Message
    }


@dataclass
class FunctionSummary:
    """Interprocedural behavior of one function."""

    prop_params: set[str] = field(default_factory=set)
    returns_source: bool = False


class TaintChecker:
    """Whole-package taint analysis.  See module docstring."""

    checker_name = "taint"

    def __init__(self, index: PackageIndex) -> None:
        self.index = index
        self.summaries: dict[str, FunctionSummary] = {}
        #: fn key -> parameter names observed tainted at some call site
        self.param_taint: dict[str, set[str]] = {}
        declarations = _message_declarations()
        self.message_fields = {name: fields for name, (_, fields) in declarations.items()}
        #: message types whose payloads PB001 does not look inside
        self.exempt = {
            name for name, (disclosure, _) in declarations.items() if disclosure == "metadata"
        }
        self.local_message_classes: dict[str, tuple[ModuleInfo, ast.ClassDef]] = {}
        self._collect_message_classes()

    # ------------------------------------------------------------------
    # Message class discovery
    # ------------------------------------------------------------------
    def _collect_message_classes(self) -> None:
        """Find Message subclasses in the scanned tree and their fields."""
        for module in self.index.modules.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                for base in node.bases:
                    base_name = module.resolve(dotted_name(base))
                    if base_name in (f"{_MESSAGES_MODULE}.Message", "Message"):
                        fields = ["sender", "receiver", "seq"]
                        for stmt in node.body:
                            if isinstance(stmt, ast.AnnAssign) and isinstance(
                                stmt.target, ast.Name
                            ):
                                fields.append(stmt.target.id)
                        self.message_fields.setdefault(node.name, fields)
                        self.local_message_classes[node.name] = (module, node)
                        break

    def _is_message_class(self, module: ModuleInfo, name: str | None) -> str | None:
        """Class name when ``name`` refers to a Message type, else None."""
        if not name:
            return None
        tail = name.rsplit(".", maxsplit=1)[-1]
        resolved = module.resolve(name) or name
        if resolved.startswith(_MESSAGES_MODULE + ".") and tail != "Message":
            return tail if tail in self.message_fields or tail[:1].isupper() else None
        if tail in self.local_message_classes:
            return tail
        return None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> Reporter:
        """Compute summaries to fixpoint, then report sink violations."""
        self._fixpoint_summaries()
        self._fixpoint_param_taint()
        reporter = Reporter()
        for info in self.index.functions.values():
            seeds = self._entry_seeds(info)
            _FunctionPass(self, info.module, reporter=reporter).run(
                info.node.body, seeds
            )
        for module in self.index.modules.values():
            _FunctionPass(self, module, reporter=reporter).run(
                self._module_level_stmts(module), set()
            )
        self._report_foreign_messages(reporter)
        return reporter

    @staticmethod
    def _module_level_stmts(module: ModuleInfo) -> list[ast.stmt]:
        return [
            stmt
            for stmt in module.tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]

    def _report_foreign_messages(self, reporter: Reporter) -> None:
        for name, (module, node) in self.local_message_classes.items():
            if module.name.endswith("fed.messages"):
                continue
            finding = Finding(
                rule_id="PB002",
                severity=Severity.WARNING,
                file=module.relpath,
                line=node.lineno,
                message=(
                    f"Message subclass {name!r} defined outside repro.fed.messages; "
                    "the channel's default-deny will reject float payloads toward "
                    "passive parties — move it there and declare its disclosure"
                ),
                checker=self.checker_name,
            )
            reporter.emit(finding, module.suppressions, node_span(node))

    def _entry_seeds(self, info: FunctionInfo) -> set[str]:
        seeds = set(self.param_taint.get(self._key(info), set()))
        for param in info.param_names:
            if param == "labels":
                seeds.add(param)
        return seeds

    @staticmethod
    def _key(info: FunctionInfo) -> str:
        return f"{info.module.name}:{info.qualname}"

    # ------------------------------------------------------------------
    # Fixpoints
    # ------------------------------------------------------------------
    def _fixpoint_summaries(self) -> None:
        for _ in range(_MAX_ROUNDS):
            changed = False
            for info in self.index.functions.values():
                summary = self._compute_summary(info)
                old = self.summaries.get(self._key(info))
                if (
                    old is None
                    or summary.prop_params != old.prop_params
                    or summary.returns_source != old.returns_source
                ):
                    self.summaries[self._key(info)] = summary
                    changed = True
            if not changed:
                break

    def _compute_summary(self, info: FunctionInfo) -> FunctionSummary:
        summary = FunctionSummary()
        empty_pass = _FunctionPass(self, info.module)
        if empty_pass.run(info.node.body, set()):
            summary.returns_source = True
            # Taint appears with no inputs: every caller is affected, no
            # need to test individual parameters.
            return summary
        for param in info.param_names:
            if param in ("self", "cls"):
                continue
            single = _FunctionPass(self, info.module)
            if single.run(info.node.body, {param}):
                summary.prop_params.add(param)
        return summary

    def _fixpoint_param_taint(self) -> None:
        for _ in range(_MAX_ROUNDS):
            changed = False
            for info in self.index.functions.values():
                seeds = self._entry_seeds(info)
                collector = _FunctionPass(self, info.module, collect_calls=True)
                collector.run(info.node.body, seeds)
                for key, params in collector.callee_taints.items():
                    bucket = self.param_taint.setdefault(key, set())
                    if not params <= bucket:
                        bucket |= params
                        changed = True
            for module in self.index.modules.values():
                collector = _FunctionPass(self, module, collect_calls=True)
                collector.run(self._module_level_stmts(module), set())
                for key, params in collector.callee_taints.items():
                    bucket = self.param_taint.setdefault(key, set())
                    if not params <= bucket:
                        bucket |= params
                        changed = True
            if not changed:
                break


class _FunctionPass:
    """One abstract-interpretation pass over a statement list.

    Tracks the set of tainted local names; optionally reports sink
    violations (``reporter``) and records tainted arguments at package-
    internal call sites (``collect_calls``).
    """

    def __init__(
        self,
        checker: TaintChecker,
        module: ModuleInfo,
        reporter: Reporter | None = None,
        collect_calls: bool = False,
    ) -> None:
        self.checker = checker
        self.module = module
        self.reporter = reporter
        self.collect_calls = collect_calls
        self.callee_taints: dict[str, set[str]] = {}
        self.tainted: set[str] = set()
        self.returns_tainted = False
        self._reported: set[tuple[int, int, str]] = set()

    def run(self, body: list[ast.stmt], seeds: set[str]) -> bool:
        """Iterate the body to a local fixpoint; True if a return taints."""
        self.tainted = set(seeds)
        for _ in range(10):
            before = set(self.tainted)
            returns = self.returns_tainted
            for stmt in body:
                self._visit_stmt(stmt)
            if self.tainted == before and self.returns_tainted == returns:
                break
        return self.returns_tainted

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value_tainted = self._taint(stmt.value)
            for target in stmt.targets:
                self._assign(target, stmt.value, value_tainted)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, stmt.value, self._taint(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            if self._taint(stmt.value) or self._taint(stmt.target):
                self._mark(stmt.target)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None and self._taint(stmt.value):
                self.returns_tainted = True
        elif isinstance(stmt, ast.Expr):
            self._taint(stmt.value)
        elif isinstance(stmt, ast.For):
            if self._taint(stmt.iter):
                self._mark(stmt.target)
            for inner in stmt.body + stmt.orelse:
                self._visit_stmt(inner)
        elif isinstance(stmt, ast.While):
            self._taint(stmt.test)
            for inner in stmt.body + stmt.orelse:
                self._visit_stmt(inner)
        elif isinstance(stmt, ast.If):
            self._taint(stmt.test)
            for inner in stmt.body + stmt.orelse:
                self._visit_stmt(inner)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tainted = self._taint(item.context_expr)
                if item.optional_vars is not None and tainted:
                    self._mark(item.optional_vars)
            for inner in stmt.body:
                self._visit_stmt(inner)
        elif isinstance(stmt, ast.Try):
            for inner in stmt.body + stmt.orelse + stmt.finalbody:
                self._visit_stmt(inner)
            for handler in stmt.handlers:
                for inner in handler.body:
                    self._visit_stmt(inner)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested defs analyzed as their own functions
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._taint(child)

    def _assign(self, target: ast.expr, value: ast.expr, value_tainted: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
                target.elts
            ):
                for sub_t, sub_v in zip(target.elts, value.elts):
                    self._assign(sub_t, sub_v, self._taint(sub_v))
            else:
                for sub in target.elts:
                    if value_tainted:
                        self._mark(sub)
            return
        if value_tainted:
            self._mark(target)
        elif isinstance(target, ast.Name):
            self.tainted.discard(target.id)

    def _mark(self, target: ast.expr) -> None:
        """Taint the *base name* of an assignment target."""
        if isinstance(target, ast.Name):
            self.tainted.add(target.id)
        elif isinstance(target, ast.Starred):
            self._mark(target.value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for sub in target.elts:
                self._mark(sub)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            base = target
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if isinstance(base, ast.Name):
                self.tainted.add(base.id)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _taint(self, node: ast.expr | None) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Constant):
            return False
        if isinstance(node, ast.Call):
            return self._taint_call(node)
        if isinstance(node, ast.Attribute):
            if node.attr in CLEAN_ATTRS:
                return False
            return node.attr in SOURCE_ATTRS or self._taint(node.value)
        if isinstance(node, ast.Subscript):
            return self._taint(node.value) or self._taint(node.slice)
        if isinstance(node, ast.NamedExpr):
            tainted = self._taint(node.value)
            if tainted:
                self._mark(node.target)
            return tainted
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            extra: set[str] = set()
            for gen in node.generators:
                if self._taint(gen.iter):
                    saved = set(self.tainted)
                    self._mark(gen.target)
                    extra |= self.tainted - saved
            try:
                if isinstance(node, ast.DictComp):
                    return self._taint(node.key) or self._taint(node.value)
                return self._taint(node.elt)
            finally:
                self.tainted -= extra
        # Generic: tainted iff any child expression is.
        result = False
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                result = self._taint(child) or result
        return result

    def _taint_call(self, node: ast.Call) -> bool:
        name = call_name(node)
        tail = name.rsplit(".", maxsplit=1)[-1] if name else None
        arg_taints = [self._taint(arg) for arg in node.args]
        kw_taints = {kw.arg: self._taint(kw.value) for kw in node.keywords}
        any_tainted = any(arg_taints) or any(kw_taints.values())

        message_class = self._is_message_class(name)
        if message_class is not None:
            self._check_message_sink(node, message_class, arg_taints, kw_taints)
            return any_tainted

        if tail == "send" and isinstance(node.func, ast.Attribute):
            self._check_send_sink(node, arg_taints)
            return False

        if tail in SANITIZER_TAILS:
            return False
        if tail in CLEAN_TAILS:
            return False
        if tail in SOURCE_TAILS and isinstance(node.func, ast.Attribute):
            return True

        # Method calls on tainted receivers yield tainted data (e.g.
        # ``gradients[rows].sum()``) — summaries do not model the bound
        # receiver, so handle it here.  Bare self/cls receivers are
        # skipped: instance state is tracked per attribute-write already
        # and treating all of ``self`` as one cell cascades too far.
        receiver_tainted = (
            isinstance(node.func, ast.Attribute)
            and not (
                isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("self", "cls")
            )
            and self._taint(node.func.value)
        )

        callee = self.index_resolve(name)
        if callee is not None:
            summary_tainted = self._apply_summary(node, callee, arg_taints, kw_taints)
            return summary_tainted or receiver_tainted
        return any_tainted or receiver_tainted

    def index_resolve(self, name: str | None) -> FunctionInfo | None:
        """Resolve a callee through the package index."""
        return self.checker.index.resolve_function(self.module, name)

    def _is_message_class(self, name: str | None) -> str | None:
        return self.checker._is_message_class(self.module, name)

    def _apply_summary(
        self,
        node: ast.Call,
        callee: FunctionInfo,
        arg_taints: list[bool],
        kw_taints: dict[str | None, bool],
    ) -> bool:
        key = TaintChecker._key(callee)
        summary = self.checker.summaries.get(key, FunctionSummary())
        params = callee.param_names
        offset = (
            1
            if params[:1] in (["self"], ["cls"]) and isinstance(node.func, ast.Attribute)
            else 0
        )
        tainted_params: set[str] = set()
        for position, tainted in enumerate(arg_taints):
            if tainted and position + offset < len(params):
                tainted_params.add(params[position + offset])
        for kw_name, tainted in kw_taints.items():
            if tainted and kw_name is not None:
                tainted_params.add(kw_name)
        if self.collect_calls and tainted_params:
            self.callee_taints.setdefault(key, set()).update(tainted_params)
        if summary.returns_source:
            return True
        return bool(tainted_params & summary.prop_params)

    # ------------------------------------------------------------------
    # Sinks
    # ------------------------------------------------------------------
    @staticmethod
    def _toward_active(receiver: ast.expr | None) -> bool:
        if receiver is None:
            return False
        if isinstance(receiver, ast.Constant) and receiver.value == 0:
            return True
        name = dotted_name(receiver)
        return bool(name) and name.rsplit(".", maxsplit=1)[-1] == "ACTIVE"

    def _check_message_sink(
        self,
        node: ast.Call,
        class_name: str,
        arg_taints: list[bool],
        kw_taints: dict[str | None, bool],
    ) -> None:
        if self.reporter is None:
            return
        fields = self.checker.message_fields.get(class_name, [])
        receiver: ast.expr | None = None
        if len(node.args) >= 2:
            receiver = node.args[1]
        for kw in node.keywords:
            if kw.arg == "receiver":
                receiver = kw.value
        if self._toward_active(receiver):
            return
        if class_name in self.checker.exempt:
            return
        for position, tainted in enumerate(arg_taints):
            if position < 2 or not tainted:
                continue
            field_name = fields[position] if position < len(fields) else f"arg{position}"
            self._emit_pb001(node, class_name, field_name)
        for kw in node.keywords:
            if kw.arg in ("sender", "receiver") or not kw_taints.get(kw.arg):
                continue
            self._emit_pb001(node, class_name, kw.arg or "**kwargs")

    def _check_send_sink(self, node: ast.Call, arg_taints: list[bool]) -> None:
        if self.reporter is None or not node.args:
            return
        argument = node.args[0]
        if isinstance(argument, ast.Call) and self._is_message_class(
            call_name(argument)
        ):
            return  # constructor sinks are checked where they are built
        if arg_taints[0]:
            self._emit(
                node,
                "PB001",
                "label-derived plaintext value sent over the channel without "
                "an enclosing ciphertext-only message",
            )

    def _emit_pb001(self, node: ast.Call, class_name: str, field_name: str) -> None:
        self._emit(
            node,
            "PB001",
            f"label-derived plaintext flows into {class_name}.{field_name} "
            "toward a passive party; wrap it in EncryptedNumber/PackedCipher "
            "or declare the disclosure",
        )

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        span = node_span(node)
        dedup = (span[0], span[1], message)
        if dedup in self._reported:
            return
        self._reported.add(dedup)
        finding = Finding(
            rule_id=rule,
            severity=Severity.ERROR,
            file=self.module.relpath,
            line=span[0],
            message=message,
            checker=TaintChecker.checker_name,
        )
        assert self.reporter is not None
        self.reporter.emit(finding, self.module.suppressions, span)


def run(index: PackageIndex) -> Reporter:
    """Convenience wrapper: run the taint checker over an index."""
    return TaintChecker(index).run()
