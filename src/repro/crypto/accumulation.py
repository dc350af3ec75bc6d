"""Re-ordered cipher accumulation (§5.1 of the paper).

Naively accumulating ciphers into a bin scales every addend whose
exponent differs from the running maximum — ``O(N * (E-1)/E)`` scaling
operations when instances arrive in random order (Figure 8).

The re-ordered scheme keeps one *workspace* per distinct exponent,
accumulates each cipher into its own-exponent workspace with **zero**
scalings, then merges the ``E`` workspaces in ascending exponent order
with exactly ``E - 1`` scalings. The paper measures a 4.08x HAdd
throughput gain from this.
"""

from __future__ import annotations

from typing import Iterable

from repro.crypto.ciphertext import PaillierContext

__all__ = ["ExponentWorkspace", "reordered_sum"]


class ExponentWorkspace:
    """Per-exponent partial sums for one histogram bin.

    Mirrors the paper's "allocate individual workspaces for different
    exponential values temporarily, and accumulate the gradient
    statistics to the corresponding one".  It holds operands of the
    context's open :meth:`~PaillierContext.resident` block.
    """

    def __init__(self, context: PaillierContext) -> None:
        self._context = context
        self._partials: dict[int, object] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def exponents(self) -> list[int]:
        """Distinct exponents currently held, ascending."""
        return sorted(self._partials)

    def add(self, number) -> None:
        """Accumulate one operand into its exponent's workspace (no scaling)."""
        existing = self._partials.get(number.exponent)
        if existing is None:
            self._partials[number.exponent] = number
        else:
            # Same exponent: plain HAdd, never a scaling.
            self._partials[number.exponent] = self._context.add(existing, number)
        self._count += 1

    def finalize(self):
        """Merge all workspaces into one operand with ``E - 1`` scalings.

        Merging ascends the exponent ladder so every intermediate scale
        hop is as small as possible.

        Raises:
            ValueError: if nothing was accumulated.
        """
        if not self._partials:
            raise ValueError("workspace is empty")
        total = None
        for exponent in sorted(self._partials):
            part = self._partials[exponent]
            if total is None:
                total = part
            else:
                total = self._context.add(total, part)  # scales `total` up once
        assert total is not None
        return total

    def finalize_or_zero(self, exponent: int):
        """Like :meth:`finalize` but empty workspaces yield E(0)."""
        if not self._partials:
            return self._context.encrypt_zero(exponent)
        return self.finalize()


def reordered_sum(context: PaillierContext, numbers: Iterable):
    """Re-ordered accumulation of operands: group by exponent, then one merge pass."""
    workspace = ExponentWorkspace(context)
    for number in numbers:
        workspace.add(number)
    return workspace.finalize()
