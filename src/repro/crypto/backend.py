"""Pluggable big-integer engines behind the Paillier choke point.

Every modular exponentiation in the crypto layer funnels through
:func:`repro.crypto.math_utils.powmod` (and its sibling
:func:`~repro.crypto.math_utils.invert`).  This module supplies the
*engines* those choke points dispatch to:

* :class:`PythonBackend` — the built-in three-argument ``pow``; the
  default, and the reference every other backend must match bit-for-bit.
* :class:`FastPythonBackend` — still pure Python; adds a cache of
  Lim–Lee fixed-base comb tables (:class:`FixedBaseTable`) for the
  per-key constant bases, which trade one-off table construction for
  ~``w``-fold fewer multiplications on every later exponentiation of
  the same base.
* :class:`Gmpy2Backend` — GMP via ``gmpy2`` when importable; the real
  raw-speed unlock on hosts that have it.  Import-gated: this module
  never imports ``gmpy2`` at module load, and
  :meth:`Gmpy2Backend.is_available` answers without raising.

CRT splitting is not a backend feature: when the caller can supply the
factorization (:class:`CrtParams`, available on the key-holder side),
:meth:`CryptoBackend.powmod_crt` rebuilds the exponentiation modulo
``n^2`` from half-width calls to the backend's own ``powmod`` — for the
obfuscator ``r^n mod n^2`` two steps modulo ``p`` / ``q`` and two modulo
``p^2`` / ``q^2``, each with a half-length exponent (measured 1.9x over
the full-width pow at 512-bit keys, 2.3x at 1024, 2.8x at 2048; see
EXPERIMENTS.md).  ``crt=None`` is the plain reference path.

Backends are *transparent*: for identical inputs every backend returns
the identical integer (CRT reconstruction and comb evaluation are exact
reformulations, not approximations), so ciphertexts, models, and golden
op-count fingerprints are backend-invariant.  The profiler counts one
logical powmod per :func:`~repro.crypto.math_utils.powmod` call no
matter how many internal half-width exponentiations a backend performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "BACKEND_NAMES",
    "CryptoBackend",
    "CrtParams",
    "FastPythonBackend",
    "FixedBaseTable",
    "Gmpy2Backend",
    "PythonBackend",
    "auto_select",
    "available_backends",
    "create_backend",
    "crt_combine",
]


@dataclass(frozen=True)
class CrtParams:
    """Factorization-derived constants for CRT-split powmod mod ``n^2``.

    Only the key holder can build these (they encode ``p`` and ``q``);
    public contexts pass ``crt=None`` and get the plain full-width path.
    Everything but the three constructor arguments is derived, so the
    constants are consistent with each other by construction.

    Attributes:
        p, q: the prime factors of ``n``.
        q_sq_inv: ``invert(q^2, p^2)`` — Garner's recombination constant
            (passed in so the key holder computes it through the
            observed :func:`~repro.crypto.math_utils.invert`).
        n: ``p * q`` — the exponent the p-adic route recognizes.
        p_squared, q_squared: ``p ** 2``, ``q ** 2``.
        modulus: ``n ** 2`` — the modulus these params split; dispatch
            ignores the params when the call's modulus differs.
        exp_p, exp_q: ``q mod (p - 1)`` and ``p mod (q - 1)`` — the
            half-width exponents of ``r^n`` modulo ``p`` and ``q``.
    """

    p: int = field(repr=False)
    q: int = field(repr=False)
    q_sq_inv: int = field(repr=False)
    n: int = field(init=False, repr=False)
    p_squared: int = field(init=False, repr=False)
    q_squared: int = field(init=False, repr=False)
    modulus: int = field(init=False, repr=False)
    exp_p: int = field(init=False, repr=False)
    exp_q: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p, q = self.p, self.q
        n = p * q
        for name, value in (
            ("n", n),
            ("p_squared", p * p),
            ("q_squared", q * q),
            ("modulus", n * n),
            ("exp_p", q % (p - 1)),
            ("exp_q", p % (q - 1)),
        ):
            object.__setattr__(self, name, value)


def crt_combine(residue_p: int, residue_q: int, p: int, q: int, q_inv_p: int) -> int:
    """Combine residues modulo ``p`` and ``q`` into a residue modulo ``p*q``.

    Uses Garner's formula; ``q_inv_p`` must equal ``invert(q, p)`` and is
    passed in so hot paths can precompute it once per key.  The moduli
    only need to be coprime: decryption combines over ``(p, q)``,
    :meth:`CryptoBackend.powmod_crt` over ``(p^2, q^2)``.
    """
    h = (q_inv_p * (residue_p - residue_q)) % p
    return residue_q + h * q


class FixedBaseTable:
    """Lim–Lee comb exponentiation for one fixed ``(base, modulus)``.

    Splits a ``t``-bit exponent into ``window`` rows of span
    ``h = ceil(t / window)`` and precomputes the ``2**window`` products
    of ``base**(2**(i*h))``; each later exponentiation then costs about
    ``2 * t / window`` multiplications instead of the ~``1.3 * t`` of
    square-and-multiply.  Table construction is deferred until
    ``build_after`` calls have been served (early calls fall back to
    the built-in ``pow``), so a base that is only ever exponentiated
    once — a keygen ``h``-function term — never pays for a table.

    Results are bit-identical to ``pow(base, e, modulus)`` for every
    ``0 <= e < 2**max_exponent_bits``; larger exponents fall back.
    """

    def __init__(
        self,
        base: int,
        modulus: int,
        max_exponent_bits: int,
        window: int = 6,
        build_after: int = 1,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if max_exponent_bits < 1:
            raise ValueError("max_exponent_bits must be >= 1")
        self.base = base % modulus
        self.modulus = modulus
        self.max_exponent_bits = max_exponent_bits
        self.window = window
        self._build_after = build_after
        self._calls = 0
        #: h in the comb construction: bits covered by each table row
        self.span = -(-max_exponent_bits // window)
        self._table: list[int] | None = None

    def _build(self) -> None:
        """Precompute ``G[j] = prod(base**(2**(i*span)) for set bits i of j)``."""
        anchors = [self.base]
        for _ in range(self.window - 1):
            value = anchors[-1]
            for _ in range(self.span):
                value = (value * value) % self.modulus
            anchors.append(value)
        table = [1] * (1 << self.window)
        for j in range(1, len(table)):
            low = j & -j  # lowest set bit
            table[j] = (table[j ^ low] * anchors[low.bit_length() - 1]) % self.modulus
        self._table = table

    @property
    def built(self) -> bool:
        """Whether the comb table has been materialized."""
        return self._table is not None

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus``, bit-identical to ``pow``."""
        if exponent < 0 or exponent.bit_length() > self.max_exponent_bits:
            return pow(self.base, exponent, self.modulus)
        self._calls += 1
        if self._table is None:
            if self._calls <= self._build_after:
                return pow(self.base, exponent, self.modulus)
            self._build()
        table = self._table
        result = 1
        for k in range(self.span - 1, -1, -1):
            result = (result * result) % self.modulus
            digit = 0
            for i in range(self.window):
                digit |= ((exponent >> (i * self.span + k)) & 1) << i
            if digit:
                result = (result * table[digit]) % self.modulus
        return result


class CryptoBackend:
    """Interface every Paillier engine implements.

    All methods operate on plain Python integers and must return the
    exact integer the reference backend returns — backends may only
    change *how fast* a result is computed, never *which* result.
    """

    #: registry / CLI name of the backend
    name = "abstract"

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent mod modulus``."""
        raise NotImplementedError

    def powmod_crt(self, base: int, exponent: int, crt: CrtParams) -> int:
        """Exact ``powmod(base, exponent, crt.modulus)`` from half-width steps.

        The obfuscator exponent ``n = p * q`` takes the p-adic route:
        ``x^p mod p^2`` depends only on ``x mod p``, so for a base that
        is a unit modulo ``p``
        ``base^n mod p^2 = ((base mod p)^(q mod (p-1)) mod p)^p mod p^2``
        (Fermat's little theorem inside, the binomial theorem outside),
        and symmetrically for ``q^2`` — two half-width steps with
        half-length exponents per side instead of one full-width pow.
        A base divisible by ``p`` or ``q`` is outside that identity and
        takes the plain path.  Any other exponent is split over
        ``p^2`` / ``q^2`` at full exponent length.  :func:`crt_combine`
        then reconstructs the unique residue modulo ``p^2 * q^2``, so
        the result is bit-identical to the direct pow.
        """
        if exponent == crt.n:
            base_p, base_q = base % crt.p, base % crt.q
            if not (base_p and base_q):
                return self.powmod(base, exponent, crt.modulus)
            xp = self.powmod(
                self.powmod(base_p, crt.exp_p, crt.p), crt.p, crt.p_squared
            )
            xq = self.powmod(
                self.powmod(base_q, crt.exp_q, crt.q), crt.q, crt.q_squared
            )
        else:
            xp = self.powmod(base % crt.p_squared, exponent, crt.p_squared)
            xq = self.powmod(base % crt.q_squared, exponent, crt.q_squared)
        return crt_combine(xp, xq, crt.p_squared, crt.q_squared, crt.q_sq_inv)

    def invert(self, a: int, modulus: int) -> int:
        """Modular inverse; raises :class:`ValueError` when none exists."""
        try:
            return pow(a, -1, modulus)
        except ValueError as exc:
            raise ValueError(f"{a} is not invertible modulo {modulus}") from exc

    def fixed_base(
        self, base: int, modulus: int, max_exponent_bits: int
    ) -> FixedBaseTable:
        """A (possibly cached) fixed-base exponentiator for ``base``."""
        return FixedBaseTable(base, modulus, max_exponent_bits)


class PythonBackend(CryptoBackend):
    """Reference engine: the built-in three-argument ``pow``."""

    name = "python"

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)


class FastPythonBackend(CryptoBackend):
    """Pure-Python fast path: cached fixed-base comb tables."""

    name = "fast"

    #: bound on cached comb tables; per-key constant bases are few
    _CACHE_LIMIT = 16

    def __init__(self) -> None:
        self._tables: dict[tuple[int, int], FixedBaseTable] = {}

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return pow(base, exponent, modulus)

    def fixed_base(
        self, base: int, modulus: int, max_exponent_bits: int
    ) -> FixedBaseTable:
        key = (base % modulus, modulus)
        table = self._tables.get(key)
        if table is None or table.max_exponent_bits < max_exponent_bits:
            if len(self._tables) >= self._CACHE_LIMIT:
                self._tables.clear()
            table = FixedBaseTable(base, modulus, max_exponent_bits)
            self._tables[key] = table
        return table


class Gmpy2Backend(FastPythonBackend):
    """GMP engine via ``gmpy2``; import-gated, bit-identical outputs."""

    name = "gmpy2"

    def __init__(self) -> None:
        super().__init__()
        import gmpy2  # noqa: PLC0415 -- gated: only importable backends load

        self._gmpy2 = gmpy2

    @classmethod
    def is_available(cls) -> bool:
        try:
            import gmpy2  # noqa: F401,PLC0415 -- availability probe only

            return True
        except ImportError:
            return False

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._gmpy2.powmod(base, exponent, modulus))

    def invert(self, a: int, modulus: int) -> int:
        try:
            return int(self._gmpy2.invert(a, modulus))
        except ZeroDivisionError as exc:
            raise ValueError(f"{a} is not invertible modulo {modulus}") from exc


#: selection order of :func:`auto_select`; first available wins
BACKEND_NAMES = ("gmpy2", "fast", "python")

_BACKEND_CLASSES = {
    PythonBackend.name: PythonBackend,
    FastPythonBackend.name: FastPythonBackend,
    Gmpy2Backend.name: Gmpy2Backend,
}


def available_backends() -> tuple[str, ...]:
    """Names of the backends that can run here, selection order first."""
    return tuple(
        name for name in BACKEND_NAMES if _BACKEND_CLASSES[name].is_available()
    )


def create_backend(name: str) -> CryptoBackend:
    """Instantiate a backend by registry name.

    Raises:
        ValueError: unknown name.
        RuntimeError: known backend whose dependency is missing here.
    """
    cls = _BACKEND_CLASSES.get(name)
    if cls is None:
        known = ", ".join(sorted(_BACKEND_CLASSES))
        raise ValueError(f"unknown crypto backend {name!r} (known: {known})")
    if not cls.is_available():
        raise RuntimeError(
            f"crypto backend {name!r} is not available on this host "
            "(is its dependency installed?)"
        )
    return cls()


def auto_select() -> CryptoBackend:
    """The fastest available backend: ``gmpy2`` when importable, else
    the pure-Python fast path."""
    for name in BACKEND_NAMES:
        if _BACKEND_CLASSES[name].is_available():
            return _BACKEND_CLASSES[name]()
    raise RuntimeError("no crypto backend available")  # pragma: no cover
