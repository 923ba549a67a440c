"""Exact 2-adic arithmetic modulo powers of two.

Everything is plain integer arithmetic on canonical representatives in
[0, 2**n).  Quotients such as (1 - 5**(-k*j)) / (1 - 5**(-j)) are never
taken by modular division (the denominator is divisible by 4, hence not
a unit); they are evaluated as explicit geometric partial sums, which is
also what makes their 2-adic valuations predictable.  An alternating sum
is the geometric sum of the negated ratio, geom_series(-q, k, mod).
"""

from __future__ import annotations


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
