"""Static analysis of the reproduction: determinism and schedules.

Three passes enforce the repo's cross-cutting invariants on every
commit (``python -m repro.analysis --strict``; a tier-1 pytest wrapper
runs the same gate):

* :mod:`repro.analysis.determinism` — wall clock, unseeded RNG and
  set-order hazards in simulation-reachable modules (``DET*``), over
  one parsed :class:`~repro.analysis.astutils.PackageIndex` per root;
* :mod:`repro.analysis.schedule` — cycles, dangling dependencies, lane
  conflicts and causality violations in the task graphs emitted by
  :class:`~repro.core.protocol.ProtocolScheduler` (``SCH001-005``);
* :mod:`repro.analysis.races` — happens-before race detection over the
  declared task footprints of those graphs (``SCH101-103``).

Findings share one reporting layer (:mod:`repro.analysis.findings`)
with ``# repro: allow[RULE]`` inline suppressions and an unused-
suppression audit (``SUP001``); unparsable files surface as
``SYN001``.  Output formats: text and JSON.  The privacy and crypto
rules are not static rules: the channel refuses a plaintext float
toward a passive party (:class:`~repro.fed.channel.PrivacyViolation`),
a resident block refuses a cipher of another key, and the cipher
types refuse algebra misuse, each when the line runs; tier-1 tests
pin the rest (the powmod choke point, the raw layer, where message
types live).  See DESIGN.md §4.6 and §4.10.
"""
