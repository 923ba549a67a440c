"""Exact 2-adic arithmetic modulo powers of two.

Everything is plain integer arithmetic on canonical representatives in
[0, 2**n).  Quotients such as (1 - 5**(-k*j)) / (1 - 5**(-j)) are never
taken by modular division (the denominator is divisible by 4, hence not
a unit); they are evaluated as explicit geometric partial sums, which is
also what makes their 2-adic valuations predictable.  A partial sum is
read off one power lifted to the modulus times q - 1, where the division
by q - 1 is exact on integers (``geom_series``).  An alternating sum
is the geometric sum of the negated ratio, geom_series(-q, k, mod).
"""

from __future__ import annotations


def pow5(k: int, n: int) -> int:
    """5**k mod 2**n; a negative k resolves through the inverse of 5."""
    if n < 1:
        raise ValueError(f"width must be >= 1, got {n}")
    return pow(5, k, 1 << n)


def geom_series(q: int, k: int, mod: int) -> int:
    """sum(q**s for s in range(k)) mod ``mod``, by one lifted power.

    For a reduced q >= 2, r = q**k mod (mod * (q - 1)) is 1 mod q - 1, as
    q**k is; so (r - 1) / (q - 1) is exact on integers, and congruent mod
    ``mod`` to (q**k - 1) / (q - 1), the sum.  No division by 1 - q mod
    ``mod`` ever happens.
    """
    if k < 0:
        raise ValueError("series length must be >= 0")
    q %= mod
    if q < 2:  # the sum 1 + 0 + 0 + ... or 1 + 1 + ... + 1
        return (min(k, 1) if q == 0 else k) % mod
    return (pow(q, k, mod * (q - 1)) - 1) // (q - 1) % mod
