"""Static↔runtime disclosure conformance (rule ``PB003``).

The privacy argument of the reproduction lives in three places that can
silently drift apart:

* the **static** declared-disclosure set the taint checker exempts
  (:data:`repro.analysis.taint.DECLARED_DISCLOSURES`);
* the **runtime** allow-list :class:`~repro.fed.channel.RecordingChannel`
  enforces per send (``_DECLARED_PLAINTEXT`` / ``_LABEL_DERIVED``);
* the **observed** wire — the per-message-type ledger recorded during
  the golden-fingerprint runs (``tests/golden/opcounts.json``).

This pass extracts the first two *statically* (by parsing the channel
and taint modules out of the shared :class:`PackageIndex` — nothing is
imported or executed), merges them with the documented
:data:`RUNTIME_ONLY_DISCLOSURES` delta, and emits the result as a
versioned artifact (``tests/golden/disclosure_conformance.json``).
``PB003`` fires when any leg disagrees:

* the channel allow-list is not exactly the static declared set plus
  the documented runtime-only delta;
* a type is both "must be ciphertext" (label-derived) and
  plaintext-allowed;
* an allow-listed name is not a message class at all (a typo would
  silently allow nothing — or worse, a future class);
* the checked-in artifact is missing or stale;
* a golden run put a message type on the wire that no allow-list
  sanctions, or the observed per-variant type set drifted from the
  artifact's expectation (either direction — a *vanished* declared
  message is as suspicious as a new one).

The runtime half of the loop is closed in ``tests/test_obs_golden.py``,
which replays the golden fingerprint and compares the live
:meth:`RecordingChannel.wire_ledger` against the same artifact.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.analysis.astutils import ModuleInfo, PackageIndex, call_name
from repro.analysis.findings import Finding, Reporter, Severity

__all__ = [
    "ARTIFACT_VERSION",
    "RUNTIME_ONLY_DISCLOSURES",
    "extract_declarations",
    "build_artifact",
    "check",
]

checker_name = "conformance"

#: artifact schema version; bump on shape changes
ARTIFACT_VERSION = 1

#: disclosures sanctioned at the channel but invisible to the taint
#: checker's label-derived analysis, each with its documented rationale
#: — the *only* legitimate difference between the static and runtime
#: allow-lists.
RUNTIME_ONLY_DISCLOSURES = {
    "LeafWeightBroadcast": (
        "leaf weights are the published model output; disclosure is the "
        "point of training (suppressed PB001 at the send site)"
    ),
    "Ack": (
        "transport metadata only: echoes a sequence number and a type "
        "name the receiver already saw"
    ),
}

_CHANNEL_MODULE = "fed/channel.py"
_TAINT_MODULE = "analysis/taint.py"
_MESSAGES_MODULE = "fed/messages.py"

#: package-inner prefixes scanned for message construction sites
_CONSTRUCT_SCOPE = ("core/", "gbdt/", "fed/", "serve/")


def _module(index: PackageIndex, inner_path: str) -> ModuleInfo | None:
    for module in index.iter_modules((inner_path,)):
        return module
    return None


def _class_tuple_names(
    module: ModuleInfo, class_name: str, attr: str
) -> tuple[list[str], int]:
    """Names in a class-level tuple assignment, plus its line (0 if absent)."""
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.ClassDef) and node.name == class_name):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == attr
                and isinstance(stmt.value, (ast.Tuple, ast.List))
            ):
                names = [
                    elt.id for elt in stmt.value.elts if isinstance(elt, ast.Name)
                ]
                return names, stmt.lineno
    return [], 0


def _module_string_set(module: ModuleInfo, name: str) -> set[str]:
    """String constants of a module-level set/tuple assignment."""
    for stmt in module.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name
            and isinstance(stmt.value, (ast.Set, ast.Tuple, ast.List))
        ):
            return {
                elt.value
                for elt in stmt.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return set()


def _message_classes(module: ModuleInfo) -> set[str]:
    return {
        node.name
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ClassDef)
    }


def _constructed_types(index: PackageIndex, classes: set[str]) -> set[str]:
    """Message classes instantiated anywhere in the construct scope."""
    constructed: set[str] = set()
    for module in index.iter_modules(_CONSTRUCT_SCOPE):
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                tail = name.rsplit(".", maxsplit=1)[-1] if name else None
                if tail in classes:
                    constructed.add(tail)
    return constructed


def extract_declarations(index: PackageIndex) -> dict:
    """Statically extract every disclosure declaration from the tree.

    Returns a dict with ``declared`` (taint), ``allowlist`` and
    ``label_derived`` (channel, plus their source lines), ``classes``
    (message class names) and ``constructed`` (classes instantiated in
    the protocol/serving scope).  Empty sets mean the module was not
    found — callers report that as PB003 rather than crashing.
    """
    channel = _module(index, _CHANNEL_MODULE)
    taint = _module(index, _TAINT_MODULE)
    messages = _module(index, _MESSAGES_MODULE)
    allowlist: list[str] = []
    label_derived: list[str] = []
    allow_line = derived_line = 0
    if channel is not None:
        allowlist, allow_line = _class_tuple_names(
            channel, "RecordingChannel", "_DECLARED_PLAINTEXT"
        )
        label_derived, derived_line = _class_tuple_names(
            channel, "RecordingChannel", "_LABEL_DERIVED"
        )
    declared = _module_string_set(taint, "DECLARED_DISCLOSURES") if taint else set()
    classes = _message_classes(messages) if messages else set()
    return {
        "declared": declared,
        "allowlist": set(allowlist),
        "allow_line": allow_line,
        "label_derived": set(label_derived),
        "derived_line": derived_line,
        "classes": classes,
        "constructed": _constructed_types(index, classes) if classes else set(),
        "channel_relpath": channel.relpath if channel else _CHANNEL_MODULE,
    }


def _observed_wire_types(opcounts: dict) -> dict[str, list[str]]:
    """Per-variant message types of a golden op-count/ledger document.

    Accepts both the full ``opcounts.json`` shape (``variants`` ->
    ``bytes_by_type``) and a bare ``{variant: {type: bytes}}`` ledger.
    """
    variants = opcounts.get("variants", opcounts)
    observed: dict[str, list[str]] = {}
    for variant, payload in sorted(variants.items()):
        if isinstance(payload, dict):
            by_type = payload.get("bytes_by_type", payload)
            observed[variant] = sorted(by_type)
    return observed


def build_artifact(index: PackageIndex, opcounts_path: str | Path | None = None) -> dict:
    """Build the versioned disclosure-conformance artifact (JSON-ready)."""
    decl = extract_declarations(index)
    expected_wire: dict[str, list[str]] = {}
    if opcounts_path is not None and Path(opcounts_path).exists():
        with open(opcounts_path, encoding="utf-8") as handle:
            expected_wire = _observed_wire_types(json.load(handle))
    return {
        "version": ARTIFACT_VERSION,
        "declared_disclosures": sorted(decl["declared"]),
        "runtime_allowlist": sorted(decl["allowlist"]),
        "label_derived": sorted(decl["label_derived"]),
        "runtime_only": {
            name: RUNTIME_ONLY_DISCLOSURES[name]
            for name in sorted(RUNTIME_ONLY_DISCLOSURES)
        },
        "declared_never_constructed": sorted(
            (decl["declared"] | decl["allowlist"]) - decl["constructed"]
        ),
        "constructed_types": sorted(decl["constructed"]),
        "expected_wire_types": expected_wire,
    }


def check(
    index: PackageIndex,
    artifact_path: str | Path,
    opcounts_path: str | Path | None = None,
    ledger: dict | None = None,
) -> Reporter:
    """Cross-check every disclosure declaration; PB003 on any drift.

    Args:
        index: the package index of the *repro* tree.
        artifact_path: checked-in conformance artifact location.
        opcounts_path: golden op-count document whose per-type byte
            ledger is the runtime observation (optional).
        ledger: an explicit ``{variant: {type: bytes}}`` wire ledger to
            check instead of / in addition to ``opcounts_path`` (the
            ``--wire-ledger`` CLI path).
    """
    reporter = Reporter()
    decl = extract_declarations(index)
    artifact_path = Path(artifact_path)
    artifact_file = artifact_path.name
    channel_file = decl["channel_relpath"]

    def emit(message: str, file: str, line: int = 0) -> None:
        reporter.emit(
            Finding(
                rule_id="PB003",
                severity=Severity.ERROR,
                file=file,
                line=line,
                message=message,
                checker=checker_name,
            )
        )

    if not decl["allowlist"] or not decl["declared"]:
        emit(
            "could not extract the disclosure declarations "
            "(RecordingChannel._DECLARED_PLAINTEXT / "
            "taint.DECLARED_DISCLOSURES); the conformance check has "
            "nothing to anchor on",
            channel_file,
        )
        return reporter

    # Leg 1: static set vs runtime allow-list, modulo the documented delta.
    expected_allow = decl["declared"] | set(RUNTIME_ONLY_DISCLOSURES)
    for name in sorted(decl["allowlist"] - expected_allow):
        emit(
            f"{name} is plaintext-allowed at the channel but neither a "
            "declared disclosure (taint.DECLARED_DISCLOSURES) nor a "
            "documented runtime-only disclosure "
            "(conformance.RUNTIME_ONLY_DISCLOSURES)",
            channel_file,
            decl["allow_line"],
        )
    for name in sorted(expected_allow - decl["allowlist"]):
        emit(
            f"{name} is a declared disclosure but missing from "
            "RecordingChannel._DECLARED_PLAINTEXT; the runtime guard "
            "would reject a sanctioned message",
            channel_file,
            decl["allow_line"],
        )
    for name in sorted(decl["allowlist"] & decl["label_derived"]):
        emit(
            f"{name} is both label-derived (must be ciphertext) and "
            "plaintext-allowed; the guard's first matching branch wins "
            "silently",
            channel_file,
            decl["derived_line"],
        )
    for name in sorted(
        (decl["allowlist"] | decl["label_derived"]) - decl["classes"]
    ):
        emit(
            f"{name} appears in the channel declarations but is not a "
            "message class in fed/messages.py",
            channel_file,
            decl["allow_line"],
        )

    # Leg 2: the checked-in artifact must match a fresh extraction.
    fresh = build_artifact(index, opcounts_path)
    if not artifact_path.exists():
        emit(
            f"conformance artifact {artifact_file} is missing; generate "
            "it with `python -m repro.analysis --emit-conformance`",
            artifact_file,
        )
    else:
        with open(artifact_path, encoding="utf-8") as handle:
            stored = json.load(handle)
        if stored != fresh:
            stale = sorted(
                key
                for key in fresh.keys() | stored.keys()
                if stored.get(key) != fresh.get(key)
            )
            emit(
                f"conformance artifact {artifact_file} is stale "
                f"(fields out of date: {', '.join(stale)}); regenerate "
                "with `python -m repro.analysis --emit-conformance`",
                artifact_file,
            )

    # Leg 3: the observed wire (golden ledger) vs the declarations.
    observations: dict[str, list[str]] = {}
    if opcounts_path is not None and Path(opcounts_path).exists():
        with open(opcounts_path, encoding="utf-8") as handle:
            observations.update(_observed_wire_types(json.load(handle)))
    if ledger is not None:
        observations.update(_observed_wire_types(ledger))
    sanctioned = decl["allowlist"] | decl["label_derived"]
    expected_wire = fresh["expected_wire_types"]
    for variant, types in sorted(observations.items()):
        for name in sorted(set(types) - sanctioned):
            emit(
                f"golden run ({variant}) put {name} on the wire but no "
                "allow-list sanctions it — an undeclared disclosure "
                "reached the channel",
                artifact_file,
            )
        expected = set(expected_wire.get(variant, types))
        for name in sorted(set(types) - expected):
            emit(
                f"golden run ({variant}) observed unexpected wire type "
                f"{name}; not in the artifact's expected_wire_types",
                artifact_file,
            )
        for name in sorted(expected - set(types)):
            emit(
                f"golden run ({variant}) never sent {name} although the "
                "artifact expects it on the wire — a declared message "
                "vanished (dead protocol path?)",
                artifact_file,
            )
    return reporter
