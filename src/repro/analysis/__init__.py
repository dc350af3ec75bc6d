"""Static analysis of the reproduction: determinism.

One AST pass enforces the repo's cross-cutting determinism invariant on
every commit (``python -m repro.analysis --strict``; a tier-1 pytest
wrapper runs the same gate): :mod:`repro.analysis.determinism` flags
wall clock, unseeded RNG and set-order hazards in simulation-reachable
modules (``DET*``), over one parsed
:class:`~repro.analysis.astutils.PackageIndex` per root.  The pass
reads parsed source and imports no scheduler.

A schedule is not an analyzer input: the engine that builds it
(:class:`~repro.fed.simtime.SimEngine`) refuses a dependency that is not
one of its own earlier tasks and a task whose declared reads or writes
are not ordered after the conflicting accesses before it, and starts
each task after its dependencies and its lane;
:class:`~repro.fed.simtime.FaultyEngine` starts none inside a pause
window.

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
