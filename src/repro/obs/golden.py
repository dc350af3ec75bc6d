"""Golden op-count regression guard.

The paper's speedups are *counting* arguments: blaster encryption and
pair packing change how many Enc operations run, re-ordered
accumulation trades scalings for plain HAdds, histogram packing divides
the Dec count and the A->B bytes by the pack width ``t``.  A silent
regression in any of those counts invalidates every performance claim
while all functional tests stay green — the model is still correct, it
is just secretly more expensive.

This module trains a tiny (but real-crypto: every Paillier operation
physically executes) two-party run at the fixed
:data:`~repro.bench.scenario.GOLDEN` workload for the full
VF2Boost configuration and the SecureBoost-style unoptimized baseline,
and reduces each run to its exact cost fingerprint: per-party
Enc/Dec/HAdd/Scale/SMul counts, bytes on the wire, and per-message-type
byte totals.  ``tests/golden/opcounts.json`` pins the expected
fingerprints; ``tests/test_obs_golden.py`` fails tier-1 on any drift.

Everything is seeded (dataset, keygen, exponent jitter), so the counts
are exact integers, not tolerances.  Regenerate after an *intentional*
cost change with::

    PYTHONPATH=src python -m repro.obs.golden tests/golden/opcounts.json

and justify the new numbers in the commit message.
"""

from __future__ import annotations

import json
import sys

__all__ = ["golden_fingerprint", "golden_fingerprints"]

#: guarded variant -> :class:`VF2BoostConfig` preset
_PRESETS = {"vf2boost": "vf2boost", "secureboost": "vf_gbdt"}


def golden_fingerprint(variant: str) -> dict:
    """Train one variant at the golden shape; return its cost fingerprint.

    The fingerprint holds only exact, seeded-deterministic integers:
    per-party op counts, total/bytes-per-direction wire accounting and
    per-message-type byte totals.
    """
    from repro.bench.scenario import GOLDEN
    from repro.core.trainer import FederatedTrainer

    config = GOLDEN.config(_PRESETS[variant], crypto_mode="real")
    parties, labels = GOLDEN.parties()
    result = FederatedTrainer(config).fit(parties, labels)
    channel = result.channel
    return {
        "ops": {
            str(party): stats.to_dict()
            for party, stats in sorted(result.crypto_stats.items())
        },
        "bytes_on_wire": channel.total_bytes(),
        "bytes_by_direction": {
            f"{src}->{dst}": stats.bytes
            for (src, dst), stats in sorted(channel.stats.items())
        },
        "bytes_by_type": {
            name: stats.bytes for name, stats in sorted(channel.by_type.items())
        },
        "messages": sum(stats.messages for stats in channel.stats.values()),
    }


def golden_fingerprints() -> dict:
    """Fingerprints of every guarded variant, plus the shape they pin."""
    from repro.bench.scenario import GOLDEN

    return {
        "shape": GOLDEN.to_dict(),
        "variants": {variant: golden_fingerprint(variant) for variant in _PRESETS},
    }


def main(argv: list[str] | None = None) -> int:
    """Regenerate the golden file: ``python -m repro.obs.golden <path>``."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.obs.golden <output.json>", file=sys.stderr)
        return 2
    data = golden_fingerprints()
    with open(argv[0], "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {argv[0]}")
    return 0


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    raise SystemExit(main())
