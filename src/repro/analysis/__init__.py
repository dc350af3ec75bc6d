"""Static analysis of the reproduction: privacy, crypto, determinism, schedules.

Six passes enforce the repo's cross-cutting invariants on every
commit (``python -m repro.analysis --strict``; a tier-1 pytest wrapper
runs the same gate), sharing one parsed :class:`PackageIndex` per
scanned root:

* :mod:`repro.analysis.taint` — party-boundary taint: label-derived
  plaintext must never flow into a cross-party message toward a passive
  party (``PB001/002``; static complement of the runtime
  :class:`~repro.fed.channel.PrivacyViolation` guard, reading the same
  per-type ``disclosure`` declared in :mod:`repro.fed.messages`);
* :mod:`repro.analysis.cryptolint` — Paillier misuse: cross-key
  arithmetic, raw-layer/exponent bypass, uncounted ops (``CR001-003``);
* :mod:`repro.analysis.domains` — ciphertext-domain abstract
  interpretation: cross-domain arithmetic, exponent misalignment,
  double packing, decrypt/encrypt round trips (``CR101-104``);
* :mod:`repro.analysis.determinism` — wall clock, unseeded RNG and
  set-order hazards in simulation-reachable modules (``DET*``);
* :mod:`repro.analysis.schedule` — cycles, dangling dependencies, lane
  conflicts and causality violations in the task graphs emitted by
  :class:`~repro.core.protocol.ProtocolScheduler` (``SCH001-005``);
* :mod:`repro.analysis.races` — happens-before race detection over the
  declared task footprints of those graphs (``SCH101-103``).

Findings share one reporting layer (:mod:`repro.analysis.findings`)
with ``# repro: allow[RULE]`` inline suppressions, an unused-
suppression audit (``SUP001``), and an optional coarse baseline for
incremental adoption; unparsable files surface as ``SYN001``.  Output
formats: text, JSON, SARIF 2.1.0.  See DESIGN.md §4.6 and §4.10.
"""

from repro.analysis.astutils import PackageIndex
from repro.analysis.cli import main, run_analysis
from repro.analysis.findings import Baseline, Finding, Reporter, Severity

__all__ = [
    "Baseline",
    "Finding",
    "PackageIndex",
    "Reporter",
    "Severity",
    "main",
    "run_analysis",
]
