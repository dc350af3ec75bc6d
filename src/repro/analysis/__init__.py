"""Static analysis of the reproduction: determinism and schedules.

Two passes enforce the repo's cross-cutting invariants on every
commit (``python -m repro.analysis --strict``; a tier-1 pytest wrapper
runs the same gate):

* :mod:`repro.analysis.determinism` — wall clock, unseeded RNG and
  set-order hazards in simulation-reachable modules (``DET*``), over
  one parsed :class:`~repro.analysis.astutils.PackageIndex` per root;
* :mod:`repro.analysis.races` — happens-before race detection over the
  declared task footprints of the task graphs emitted by
  :class:`~repro.core.protocol.ProtocolScheduler` (``SCH101-103``).

A graph's structure is not an analyzer rule: the engine that builds it
(:class:`~repro.fed.simtime.SimEngine`) refuses a dependency that is not
one of its own earlier tasks and starts each task after its
dependencies and its lane, and :class:`~repro.fed.simtime.FaultyEngine`
starts none inside a pause window.

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
