"""Benchmark-side spans around the public entry points of every layer.

Nothing in ``src/`` is instrumented: :func:`traced` monkey-patches the
layer boundaries from outside for the duration of one fit — methods on
``PaillierContext``, ``ObfuscatorPool``, ``ExponentWorkspace``,
``RecordingChannel`` and ``FederatedTrainer``, and module functions
both where they are defined and where another module imported them by
name — and restores them afterwards.

A :class:`SpanRecorder` keeps spans in memory.  Structural spans are
one record each (id, parent, name, start, end); leaf crypto ops, which
run up to ~10^5 times per fit, are aggregated per (name, parent name,
enclosing structural span).  A span's *self* time is its duration minus
the durations of its direct children, so self times of all spans sum to
the duration of the root span.
"""

# repro: allow-file[DET001] -- measured mode: spans time real crypto
# with the wall clock by design; nothing here feeds SimEngine.

from __future__ import annotations

import contextlib
from collections import defaultdict
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from time import perf_counter

import repro.core.enc_histogram as enc_histogram
import repro.core.trainer as trainer
import repro.crypto.ciphertext as ciphertext
import repro.crypto.math_utils as math_utils
import repro.crypto.packing as packing
import repro.crypto.paillier as paillier
import repro.gbdt.histogram as gbdt_histogram
import repro.gbdt.split as gbdt_split
from repro.crypto.accumulation import ExponentWorkspace
from repro.fed.channel import RecordingChannel

__all__ = ["SpanRecorder", "crypto_op_counts", "traced"]


class SpanRecorder:
    """In-memory span log of one traced fit.

    Attributes:
        spans: structural spans as ``[id, parent id, name, start, end]``
            (``parent id`` is ``-1`` for a root), in start order.
        leaves: aggregated leaf ops, ``(name, parent name, enclosing
            span id) -> [calls, seconds, self seconds]``.
        tallies: named integer counters fed at the same boundaries
            (bytes per direction, ciphers built, values packed).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[tuple[str, str, int], list] = {}
        self.tallies: dict[str, int] = defaultdict(int)
        # One frame per open span: [name, enclosing span id, child seconds].
        self._stack: list[list] = [["", -1, 0.0]]

    def wrap(
        self,
        name: str,
        function: Callable,
        leaf: bool,
        skip: Callable[..., bool] | None = None,
        tally: Callable[[dict, tuple, object], None] | None = None,
    ) -> Callable:
        """Return ``function`` wrapped in a span called ``name``.

        Args:
            leaf: aggregate instead of recording one span per call.
            skip: predicate over the call's arguments; when true the
                call is a no-op of the layer and is passed through
                unrecorded.
            tally: ``tally(tallies, args, result)`` run after the span
                closed, outside its timed interval.
        """
        stack = self._stack
        spans = self.spans
        leaves = self.leaves
        tallies = self.tallies

        def span(*args, **kwargs):
            if skip is not None and skip(*args, **kwargs):
                return function(*args, **kwargs)
            parent = stack[-1]
            if leaf:
                frame = [name, parent[1], 0.0]
            else:
                frame = [name, len(spans), 0.0]
                spans.append([len(spans), parent[1], name, 0.0, 0.0])
            stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                parent[2] += seconds
                if leaf:
                    key = (name, parent[0], parent[1])
                    total = leaves.get(key)
                    if total is None:
                        leaves[key] = [1, seconds, seconds - frame[2]]
                    else:
                        total[0] += 1
                        total[1] += seconds
                        total[2] += seconds - frame[2]
                else:
                    record = spans[frame[1]]
                    record[3] = start
                    record[4] = start + seconds
                    record.append(seconds - frame[2])
            if tally is not None:
                tally(tallies, args, result)
            return result

        return span

    def totals(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over spans and leaf aggregates."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for record in self.spans:
            entry = out[record[2]]
            entry[0] += 1
            entry[1] += record[5]
        for (name, _, _), (calls, _, self_seconds) in self.leaves.items():
            entry = out[name]
            entry[0] += calls
            entry[1] += self_seconds
        return {name: (calls, seconds) for name, (calls, seconds) in out.items()}

    def powmod_seconds(self) -> dict[str, float]:
        """Seconds inside ``powmod``, by the cipher op that asked for it.

        ``powmod`` is a span of its own, so an op's self time is only
        its Python-level work; this is the big-integer share next to it.
        An obfuscator is only ever drawn by an encryption.
        """
        out: dict[str, float] = defaultdict(float)
        for (name, caller, _), (_, _, self_seconds) in self.leaves.items():
            if name == "math_utils.powmod":
                if caller == "paillier.obfuscator":
                    caller = "ciphertext.enc"
                out[caller] += self_seconds
        return dict(out)

    def to_json(self) -> dict:
        """JSON-ready dump: every structural span and every leaf aggregate."""
        return {
            "spans": [
                {
                    "id": record[0],
                    "parent": record[1],
                    "name": record[2],
                    "start": record[3],
                    "end": record[4],
                    "self_s": record[5],
                }
                for record in self.spans
            ],
            "leaf_aggregates": [
                {
                    "name": name,
                    "parent_name": parent_name,
                    "parent": parent,
                    "count": calls,
                    "seconds": seconds,
                    "self_s": self_seconds,
                }
                for (name, parent_name, parent), (calls, seconds, self_seconds)
                in self.leaves.items()
            ],
            "tallies": dict(self.tallies),
        }


def _no_scaling(context, number, exponent) -> bool:
    """``scale_to`` returns its input uncounted when exponents match."""
    return exponent == number.exponent


def _tally_send(tallies, args, result) -> None:
    channel, message = args
    direction = (
        "channel.bytes_b2a"
        if message.sender == channel.active_party
        else "channel.bytes_a2b"
    )
    tallies[direction] += message.payload_bytes(channel.key_bits)


def _tally_pack(tallies, args, result) -> None:
    tallies["packing.values"] += result.count


def _tally_build(tallies, args, result) -> None:
    tallies["enc_histogram.bins"] += result.cipher_count()


@dataclass(frozen=True)
class _Target:
    """One layer boundary: the span name and where its callable is bound."""

    name: str
    leaf: bool
    places: tuple[tuple[object, str], ...]
    skip: Callable[..., bool] | None = None
    tally: Callable[[dict, tuple, object], None] | None = None


def _methods(cls: type, *names: str) -> tuple[tuple[object, str], ...]:
    return tuple((cls, name) for name in names)


def _function(module, name: str, *importers) -> tuple[tuple[object, str], ...]:
    """A module function plus the modules that imported it by name."""
    return ((module, name),) + tuple((importer, name) for importer in importers)


_CONTEXT = ciphertext.PaillierContext

_TARGETS = (
    _Target("math_utils.powmod", True, _function(math_utils, "powmod")),
    _Target("math_utils.invert", True, _function(math_utils, "invert")),
    _Target(
        "paillier.keygen", False, _function(paillier, "generate_keypair", ciphertext)
    ),
    _Target("paillier.obfuscator", True, _methods(paillier.ObfuscatorPool, "take")),
    _Target("ciphertext.enc", True, _methods(_CONTEXT, "encrypt", "encrypt_encoded")),
    _Target(
        "ciphertext.dec", True, _methods(_CONTEXT, "decrypt_encoded", "decrypt_raw")
    ),
    _Target("ciphertext.hadd", True, _methods(_CONTEXT, "add")),
    _Target("ciphertext.scale", True, _methods(_CONTEXT, "scale_to"), _no_scaling),
    _Target("ciphertext.smul", True, _methods(_CONTEXT, "multiply", "multiply_raw")),
    _Target("ciphertext.padd", True, _methods(_CONTEXT, "add_plain", "add_plain_raw")),
    _Target("ciphertext.encrypt_zero", True, _methods(_CONTEXT, "encrypt_zero")),
    _Target("accumulation.finalize", False, _methods(ExponentWorkspace, "finalize")),
    _Target(
        "packing.pack_ciphers",
        False,
        _function(packing, "pack_ciphers", enc_histogram),
        tally=_tally_pack,
    ),
    _Target(
        "packing.unpack_values",
        False,
        _function(packing, "unpack_values", enc_histogram),
    ),
    _Target(
        "enc_histogram.build",
        False,
        _function(enc_histogram, "build_encrypted_histogram", trainer),
        tally=_tally_build,
    ),
    _Target(
        "enc_histogram.pack", False, _function(enc_histogram, "pack_histogram", trainer)
    ),
    _Target(
        "enc_histogram.unpack",
        False,
        _function(enc_histogram, "unpack_histogram", trainer),
    ),
    _Target(
        "enc_histogram.decrypt",
        False,
        _function(enc_histogram, "decrypt_histogram", trainer),
    ),
    _Target(
        "gbdt.build_histogram",
        False,
        _function(gbdt_histogram, "build_histogram", trainer),
    ),
    _Target(
        "gbdt.find_best_split", False, _function(gbdt_split, "find_best_split", trainer)
    ),
    _Target(
        "channel.send", False, _methods(RecordingChannel, "send"), tally=_tally_send
    ),
    _Target("trainer.fit", False, _methods(trainer.FederatedTrainer, "fit")),
)

#: span name -> ``OpStats`` field the program counts the same op in
_OP_STATS_FIELDS = {
    "ciphertext.enc": "encryptions",
    "ciphertext.dec": "decryptions",
    "ciphertext.hadd": "additions",
    "ciphertext.scale": "scalings",
    "ciphertext.smul": "scalar_multiplications",
    "ciphertext.padd": "plain_additions",
}


def crypto_op_counts(crypto_stats: dict) -> dict[str, int]:
    """The program's own op counters, summed over parties, by span name."""
    return {
        name: sum(getattr(stats, field) for stats in crypto_stats.values())
        for name, field in _OP_STATS_FIELDS.items()
    }


@contextlib.contextmanager
def traced(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the layer spans for the duration of the block."""
    installed: list[tuple[object, str, object]] = []
    try:
        for target in _TARGETS:
            # A function imported elsewhere by name is the same object
            # there, so every place it is bound shares one wrapper.
            wrappers: dict[int, Callable] = {}
            for owner, attribute in target.places:
                original = vars(owner)[attribute]
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = wrappers[id(original)] = recorder.wrap(
                        target.name, original, target.leaf, target.skip, target.tally
                    )
                setattr(owner, attribute, wrapper)
                installed.append((owner, attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)
