"""Static analysis of the reproduction: privacy, crypto, determinism, schedules.

Five passes enforce the repo's cross-cutting invariants on every
commit (``python -m repro.analysis --strict``; a tier-1 pytest wrapper
runs the same gate), sharing one parsed :class:`PackageIndex` per
scanned root:

* :mod:`repro.analysis.taint` — party-boundary taint: label-derived
  plaintext must never flow into a cross-party message toward a passive
  party (``PB001/002``; static complement of the runtime
  :class:`~repro.fed.channel.PrivacyViolation` guard, reading the same
  per-type ``disclosure`` declared in :mod:`repro.fed.messages`);
* :mod:`repro.analysis.cryptolint` — Paillier misuse: cross-key
  arithmetic, raw-layer/exponent bypass, uncounted ops and direct
  three-argument ``pow`` in crypto hot paths (``CR001-003``, ``CR105``);
* :mod:`repro.analysis.determinism` — wall clock, unseeded RNG and
  set-order hazards in simulation-reachable modules (``DET*``);
* :mod:`repro.analysis.schedule` — cycles, dangling dependencies, lane
  conflicts and causality violations in the task graphs emitted by
  :class:`~repro.core.protocol.ProtocolScheduler` (``SCH001-005``);
* :mod:`repro.analysis.races` — happens-before race detection over the
  declared task footprints of those graphs (``SCH101-103``).

Findings share one reporting layer (:mod:`repro.analysis.findings`)
with ``# repro: allow[RULE]`` inline suppressions and an unused-
suppression audit (``SUP001``); unparsable files surface as
``SYN001``.  Output formats: text and JSON.  The cipher algebra's
rules (operators, exponent mixing, re-packing) are not static rules:
the crypto types refuse those misuses when the line runs.  See
DESIGN.md §4.6 and §4.10.
"""
