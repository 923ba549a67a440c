"""Exact 2-adic arithmetic modulo powers of two.

Everything is plain integer arithmetic on canonical representatives in
[0, 2**n).  Quotients such as (1 - 5**(-k*j)) / (1 - 5**(-j)) are never
taken by modular division (the denominator is divisible by 4, hence not
a unit); they are evaluated as explicit geometric or alternating partial
sums, which is also what makes their 2-adic valuations predictable.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResidueSplit:
    """Two-adic split of a residue mod 2**width.

    A zero residue only bounds the valuation of the underlying integer
    from below; ``truncated`` marks that case, and ``two_part`` is then
    reported as the full modulus.
    """

    value: int
    width: int
    two_part: int
    odd_part: int
    truncated: bool


def residue_split(value: int, n: int) -> ResidueSplit:
    """Split ``value mod 2**n``, flagging a truncated valuation on zero."""
    mod = 1 << n
    v = value % mod
    if v == 0:
        return ResidueSplit(0, n, mod, 1, True)
    two = v & -v
    return ResidueSplit(v, n, two, v // two, False)


def pow5(k: int, n: int) -> int:
    """5**k mod 2**n; a negative k resolves through the inverse of 5."""
    if n < 1:
        raise ValueError(f"width must be >= 1, got {n}")
    return pow(5, k, 1 << n)


def geom_series(q: int, k: int, mod: int) -> int:
    """sum(q**s for s in range(k)) mod ``mod``, in O(log k) multiplications.

    Binary splitting of the partial sum: S(2m) = S(m) * (1 + q**m) and
    S(2m+1) = S(2m) + q**(2m).  No division by 1 - q ever happens.
    """
    if k < 0:
        raise ValueError("series length must be >= 0")
    q %= mod
    total, power = 0, 1  # partial sum and q**(terms consumed)
    for bit in bin(k)[2:]:
        total = (total + total * power) % mod
        power = power * power % mod
        if bit == "1":
            total = (total + power) % mod
            power = power * q % mod
    return total


def geom_sum_M(k: int, j: int, n: int) -> ResidueSplit:
    """sum(5**(-s*j) for s in range(k)) mod 2**n with its visible split.

    The 2-part of the sum equals the 2-part of k whenever the modulus is
    wide enough to distinguish it; otherwise the result is truncated.
    """
    _check_kj(k, j)
    return residue_split(geom_series(pow5(-j, n), k, 1 << n), n)


def alt_sum(k: int, j: int, n: int) -> int:
    """sum((-1)**s * 5**(-s*j) for s in range(k)) mod 2**n, any k >= 0."""
    if k < 0:
        raise ValueError("series length must be >= 0")
    mod = 1 << n
    return geom_series((-pow5(-j, n)) % mod, k, mod)


def alt_sum_L(k: int, j: int, n: int) -> ResidueSplit:
    """Alternating counterpart of geom_sum_M; k must be even.

    The 2-part equals 2 * (2-part of k) * (2-part of j) when the modulus
    can see it.  Odd k is a contract violation here; use ``alt_sum`` for
    raw partial sums of any length.
    """
    _check_kj(k, j)
    if k % 2:
        raise ValueError(f"alternating split needs even k, got {k}")
    return residue_split(alt_sum(k, j, n), n)


def _check_kj(k: int, j: int) -> None:
    if k < 1 or j < 1:
        raise ValueError(f"need k >= 1 and j >= 1, got k={k}, j={j}")
