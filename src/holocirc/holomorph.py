"""Arithmetic in the holomorph of a cyclic group.

An element is an affine permutation of Z_n: g -> (g + t) * m with m a
unit mod n, i.e. "translate, then apply the automorphism".  Composition
reads left to right, giving the law

    (t1, m1) then (t2, m2)  =  (t1 + t2 * m1^-1,  m1 * m2).

For n = 2**e with e >= 3 the unit group splits as <-1> x <5>, so the
automorphism part decomposes uniquely as (-1)**beta * 5**gamma with
0 <= gamma < 2**(e-2); ``HolElem2`` keeps elements in that normal form
(written ``a^alpha * x^beta * y^gamma``).  Every other modulus, widths
e in {1, 2} among them, keeps its elements as plain (t, m) pairs
(``PairArith``).  Prime-power coordinates of Z_n and multiplier
centralizers are plain tuples too.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Collection, Optional, Sequence

from .permgroup import Perm, PermSubgroup, _perm, closure, grow, least_generators


Pair = tuple[int, int]


def pair_perm(n: int, pair: Pair) -> Perm:
    """The permutation g -> (g + t) * m of Z_n given by the pair (t, m)."""
    t, m = pair
    return _perm(tuple([(g + t) * m % n for g in range(n)]))


class PairArith:
    """The affine maps of Z_n as plain (t, m) pairs, reduced mod n with m
    a unit, composed by the law above over one table of unit inverses.
    Nothing is validated: inputs come from reduced pairs."""

    identity: Pair = (0, 1)

    def __init__(self, n: int):
        self.n = n
        self.units = [m for m in range(1, n) if gcd(m, n) == 1]
        self.inv_unit = [0] * n
        for m in self.units:
            self.inv_unit[m] = pow(m, -1, n)

    @cached_property
    def elements(self) -> list[Pair]:
        """Every pair, by (t, m); listed on first use."""
        return [(t, m) for t in range(self.n) for m in self.units]

    def then(self, a: Pair, b: Pair) -> Pair:
        n = self.n
        return ((a[0] + b[0] * self.inv_unit[a[1]]) % n, a[1] * b[1] % n)

    def inverse(self, a: Pair) -> Pair:
        return (-a[0] * a[1] % self.n, self.inv_unit[a[1]])

    def closure(
        self, gens: Sequence[Pair], bound: Optional[int] = None
    ) -> Optional[frozenset[Pair]]:
        """The subgroup generated by ``gens`` (``permgroup.grow``); None as
        soon as it has more than ``bound`` elements."""
        return grow(gens, self.then, self.identity, bound)

    def is_regular(self, elems: Collection[Pair]) -> bool:
        """Whether a subgroup, given as its pairs, is regular: of order n,
        with the orbit {t * m} of 0 all of Z_n."""
        n = self.n
        return len(elems) == n and len({t * m % n for t, m in elems}) == n


class _Slots:
    """The storage of a HolElem2.  ``_reduced`` assigns the fields on a
    bare _Slots, where no ``__setattr__`` guard applies, and then switches
    the object's class to HolElem2: cheaper than going round the guard
    once per field."""

    __slots__ = ("n", "alpha", "beta", "gamma")


class HolElem2(_Slots):
    """Normal form a^alpha * x^beta * y^gamma in the holomorph of Z_{2^n}.

    The represented permutation sends g to (g + alpha) * (-1)**beta *
    5**gamma mod 2**n.  Requires n >= 3 (the unit group of Z_4 and Z_2
    is not <-1> x <5>).  An immutable value: equality and hash are those
    of (n, alpha, beta, gamma).  The constructor validates and reduces;
    products, inverses and powers are built reduced by ``_reduced``.
    """

    __slots__ = ()

    def __new__(cls, n: int, alpha: int, beta: int, gamma: int) -> "HolElem2":
        if n < 3:
            raise ValueError(
                f"normal form needs exponent >= 3, got {n}; "
                "use (t, m) pairs (PairArith) for widths 1 and 2"
            )
        return _reduced(n, alpha % (1 << n), beta % 2, gamma % (1 << (n - 2)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not HolElem2:
            return NotImplemented
        return (self.n, self.alpha, self.beta, self.gamma) == (
            other.n,
            other.alpha,
            other.beta,
            other.gamma,
        )

    def __hash__(self) -> int:
        return hash((self.n, self.alpha, self.beta, self.gamma))

    def __repr__(self) -> str:
        return (
            f"HolElem2(n={self.n}, alpha={self.alpha}, "
            f"beta={self.beta}, gamma={self.gamma})"
        )

    def __reduce__(self):
        return HolElem2, (self.n, self.alpha, self.beta, self.gamma)

    @classmethod
    def identity(cls, n: int) -> "HolElem2":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_pair(cls, n: int, pair: Pair) -> "HolElem2":
        """The element of width n whose map is the pair (t, m) of Z_{2^n}."""
        t, m = pair
        beta = 1 if m % 4 == 3 else 0
        return cls(n, t, beta, _dlog5((-m if beta else m) % (1 << n), n))

    @property
    def modulus(self) -> int:
        return 1 << self.n

    @property
    def multiplier(self) -> int:
        return _signed_pow5(self.n, self.beta, self.gamma)

    @property
    def pair(self) -> Pair:
        return self.alpha, self.multiplier

    def act(self, g: int) -> int:
        return (g + self.alpha) * self.multiplier % (1 << self.n)

    def then(self, other: "HolElem2") -> "HolElem2":
        """Compose in normal form: the x- and y-exponents add, and the
        second translation is pulled through the first automorphism,
        alpha = alpha1 + alpha2 * (-1)**beta1 * 5**(-gamma1)."""
        n = self.n
        if other.n != n:
            raise ValueError("modulus mismatch")
        beta, gamma = self.beta, self.gamma
        return _reduced(
            n,
            (self.alpha + other.alpha * _signed_pow5(n, beta, -gamma)) % (1 << n),
            beta ^ other.beta,
            (gamma + other.gamma) % (1 << (n - 2)),
        )

    def inverse(self) -> "HolElem2":
        n = self.n
        return _reduced(
            n,
            -self.alpha * self.multiplier % (1 << n),
            self.beta,
            -self.gamma % (1 << (n - 2)),
        )

    def is_identity(self) -> bool:
        return self.alpha == 0 and self.beta == 0 and self.gamma == 0

    def as_perm(self) -> Perm:
        return pair_perm(self.modulus, self.pair)

    def __str__(self) -> str:
        return format_element(self)


def _reduced(n: int, alpha: int, beta: int, gamma: int) -> HolElem2:
    """A HolElem2 from exponents already reduced, without the
    constructor's validation (most of the cost of a product)."""
    h = object.__new__(_Slots)
    h.n = n
    h.alpha = alpha
    h.beta = beta
    h.gamma = gamma
    h.__class__ = HolElem2
    return h


# exact 2-adic arithmetic: plain integers on canonical representatives
# in [0, 2**n).  Quotients such as (1 - 5**(-k*j)) / (1 - 5**(-j)) are
# never taken by modular division (the denominator is divisible by 4,
# hence not a unit); they are explicit geometric partial sums, which is
# also what makes their 2-adic valuations predictable.  An alternating
# sum is the geometric sum of the negated ratio, geom_series(-q, k, mod).


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


def _signed_pow5(n: int, beta: int, e: int) -> int:
    """(-1)**beta * 5**e mod 2**n."""
    mod = 1 << n
    u = pow(5, e, mod)  # a unit, so mod - u stays in [1, mod)
    return mod - u if beta else u


def power(h: HolElem2, r: int) -> HolElem2:
    """h**r in closed form: the translation part is alpha times the sum
    of r terms of the ratio (-1)**beta * 5**(-gamma), and the x-part
    survives exactly when beta = 1 and r is odd.  Negative r goes
    through the inverse.
    """
    if r < 0:
        return power(h.inverse(), -r)
    n = h.n
    mod = 1 << n
    s = geom_series(_signed_pow5(n, h.beta, -h.gamma), r, mod)
    return _reduced(n, h.alpha * s % mod, h.beta & r, r * h.gamma % (mod >> 2))


def order(h: HolElem2) -> int:
    """Element order, in closed form from the two-adic parts.

    beta = 0: the order is max(|y^gamma|, |a^alpha|), i.e.
    max(2^(n-2)/gamma_2, 2^n/alpha_2) with absent parts contributing 1.
    beta = 1, gamma = 0: an involution (or the identity written with x).
    beta = 1, gamma != 0: 2^(n-1)/gamma_2 for odd alpha and half that
    for even alpha.
    """
    n = h.n
    if h.beta == 0:
        oy = (1 << (n - 2)) // gcd(1 << (n - 2), h.gamma)
        oa = (1 << n) // gcd(1 << n, h.alpha)
        return max(oy, oa)
    if h.gamma == 0:
        return 2
    gamma2 = h.gamma & -h.gamma
    return (1 << (n - 1)) // (gamma2 * (1 if h.alpha % 2 else 2))


def conj_normal_form(h: HolElem2) -> tuple[HolElem2, HolElem2]:
    """Conjugate h to a form whose translation part is a power of two.

    Returns (nf, rho) with rho a pure automorphism (zero translation)
    satisfying rho * h * rho^-1 = nf; the translation part of nf is the
    2-part of alpha (or 0 when alpha = 0, which is its own form).
    """
    if h.alpha == 0:
        return h, HolElem2.identity(h.n)
    alpha2 = h.alpha & -h.alpha
    odd = h.alpha // alpha2
    rho = HolElem2.from_pair(h.n, (0, odd))
    nf = HolElem2(h.n, alpha2, h.beta, h.gamma)
    return nf, rho


def point_stabilizer(g: int, n: int) -> tuple[HolElem2, HolElem2]:
    """Two generators of the stabilizer of the point g in Hol(Z_{2^n}).

    The stabilizer of 0 is <x, y>; for g != 0 it is the conjugate
    <a^(-2g) x, a^(g*(5^-1 - 1)) y>.
    """
    mod = 1 << n
    if not 0 <= g < mod:
        raise ValueError(f"residue {g} outside [0, {mod})")
    if g == 0:
        return HolElem2(n, 0, 1, 0), HolElem2(n, 0, 0, 1)
    inv5 = pow5(-1, n)
    return HolElem2(n, -2 * g, 1, 0), HolElem2(n, g * (inv5 - 1), 0, 1)


# textual element notation, for output only: "a^3*x*y^2", identity "1"


def format_element(h: HolElem2) -> str:
    parts = []
    if h.alpha:
        parts.append("a" if h.alpha == 1 else f"a^{h.alpha}")
    if h.beta:
        parts.append("x")
    if h.gamma:
        parts.append("y" if h.gamma == 1 else f"y^{h.gamma}")
    return "*".join(parts) if parts else "1"


def holomorph_group(n: int) -> PermSubgroup:
    """Hol(Z_n) as a permutation group on n points, with elements: the
    translation by 1 and the least unit multipliers that generate the
    units (``least_generators``)."""
    arith = PairArith(n)
    scalings = least_generators([(0, u) for u in arith.units], arith.closure)
    return closure([pair_perm(n, g) for g in [(1, 1), *scalings]], degree=n)


# prime-power coordinates


def prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, k) with p**k exactly dividing n: the 2-part, when
    present, first; odd primes follow in increasing order."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    rest, pairs = n, []
    for d in [2, *range(3, n + 1, 2)]:
        if d * d > rest:
            break
        if rest % d == 0:
            k = 0
            while rest % d == 0:
                rest //= d
                k += 1
            pairs.append((d, k))
    if rest > 1:
        pairs.append((rest, 1))
    return tuple(pairs)


def crt_lift(n: int, q: int, a: int, b: int) -> int:
    """The residue x in [0, n) with x = a mod q and x = b mod n/q, for a
    prime power q exactly dividing n."""
    r = n // q
    b %= r
    return b + r * ((a - b) * pow(r, -1, q) % q)


# centralizers of characteristic subgroups inside Aut(Z_n)


def centralizer_in_aut(n: int, m_exps: Sequence[int]) -> tuple[int, ...]:
    """The multipliers of Z_n fixing pointwise its subgroup of order
    prod(p_i ** m_i), one exponent per prime power of n in the order of
    ``prime_powers``; found by exhaustive filtering, in increasing order.

    Each coordinate contributes p**(k-m) multipliers; for p = 2, m = 1
    that count equals the whole unit group of the 2-part.
    """
    parts = prime_powers(n)
    if len(m_exps) != len(parts):
        raise ValueError("one exponent per prime power required")
    sub_order = 1
    for m, (p, k) in zip(m_exps, parts):
        if not 1 <= m <= k:
            raise ValueError(f"exponent {m} out of range for {p}^{k}")
        sub_order *= p**m
    d = n // sub_order  # generator of the subgroup of order sub_order
    return tuple(
        u
        for u in range(1, n)
        if gcd(u, n) == 1 and all(x * u % n == x for x in range(0, n, d))
    )


# discrete log base 5 on the 1-mod-4 units


def _dlog5(u: int, n: int) -> int:
    """The gamma in [0, 2**(n-2)) with 5**gamma = u mod 2**n, bit by bit:
    5**(2**t) is 1 + 2**(t+2) mod 2**(t+3), so bit t of gamma is set
    exactly when the partial power misses u mod 2**(t+3)."""
    if u % 4 != 1:
        raise ValueError(f"{u} is not a power of 5 mod 2^{n}")
    mod = 1 << n
    gamma, v = 0, 1
    for t in range(n - 2):
        if (v - u) % (1 << (t + 3)):
            gamma |= 1 << t
            v = v * pow5(1 << t, n) % mod
    if v != u:
        raise ValueError(f"{u} is not a power of 5 mod 2^{n}")
    return gamma
