"""Arithmetic in the holomorph of a cyclic group.

An element is an affine permutation of Z_n: g -> (g + t) * m with m a
unit mod n, i.e. "translate, then apply the automorphism".  Composition
reads left to right, giving the law

    (t1, m1) then (t2, m2)  =  (t1 + t2 * m1^-1,  m1 * m2).

For n = 2**e with e >= 3 the unit group splits as <-1> x <5>, so the
automorphism part decomposes uniquely as (-1)**beta * 5**gamma with
0 <= gamma < 2**(e-2); ``HolElem2`` keeps elements in that normal form
(written ``a^alpha * x^beta * y^gamma``).  Widths e in {1, 2} have no
such presentation and stay in plain ``AffineMap`` coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from typing import Sequence, Union

from .numtheory import pow5, geom_series, alt_sum
from .permgroup import Perm, PermSubgroup, closure

# Multiplier discrete logs base 5 use a cached table up to this width and
# bitwise Hensel lifting beyond it (a table for large n would not fit).
_DLOG_TABLE_MAX = 16


@dataclass(frozen=True)
class AffineMap:
    """g -> (g + t) * m on Z_n, with m a unit mod n."""

    n: int
    t: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"modulus must be >= 2, got {self.n}")
        object.__setattr__(self, "t", self.t % self.n)
        object.__setattr__(self, "m", self.m % self.n)
        if gcd(self.m, self.n) != 1:
            raise ValueError(f"multiplier {self.m} is not a unit mod {self.n}")

    @classmethod
    def identity(cls, n: int) -> "AffineMap":
        return cls(n, 0, 1)

    @classmethod
    def translation(cls, n: int, t: int) -> "AffineMap":
        return cls(n, t, 1)

    @classmethod
    def multiplier(cls, n: int, m: int) -> "AffineMap":
        return cls(n, 0, m)

    def act(self, g: int) -> int:
        return (g + self.t) * self.m % self.n

    def then(self, other: "AffineMap") -> "AffineMap":
        if other.n != self.n:
            raise ValueError("modulus mismatch")
        m_inv = pow(self.m, -1, self.n)
        return AffineMap(self.n, self.t + other.t * m_inv, self.m * other.m)

    def inverse(self) -> "AffineMap":
        return AffineMap(self.n, -self.t * self.m, pow(self.m, -1, self.n))

    def pow(self, r: int) -> "AffineMap":
        if r < 0:
            return self.inverse().pow(-r)
        acc = AffineMap.identity(self.n)
        base = self
        while r:
            if r & 1:
                acc = acc.then(base)
            base = base.then(base)
            r >>= 1
        return acc

    def is_identity(self) -> bool:
        return self.t == 0 and self.m == 1

    def is_translation(self) -> bool:
        return self.m == 1

    def as_perm(self) -> Perm:
        return Perm((g + self.t) * self.m % self.n for g in range(self.n))


@dataclass(frozen=True)
class HolElem2:
    """Normal form a^alpha * x^beta * y^gamma in the holomorph of Z_{2^n}.

    The represented permutation sends g to (g + alpha) * (-1)**beta *
    5**gamma mod 2**n.  Requires n >= 3 (the unit group of Z_4 and Z_2
    is not <-1> x <5>).
    """

    n: int
    alpha: int
    beta: int
    gamma: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(
                f"normal form needs exponent >= 3, got {self.n}; "
                "use AffineMap for widths 1 and 2"
            )
        object.__setattr__(self, "alpha", self.alpha % (1 << self.n))
        object.__setattr__(self, "beta", self.beta % 2)
        object.__setattr__(self, "gamma", self.gamma % (1 << (self.n - 2)))

    @classmethod
    def identity(cls, n: int) -> "HolElem2":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_affine(cls, aff: AffineMap) -> "HolElem2":
        n = aff.n.bit_length() - 1
        if 1 << n != aff.n:
            raise ValueError(f"modulus {aff.n} is not a power of two")
        beta = 1 if aff.m % 4 == 3 else 0
        u = (-aff.m if beta else aff.m) % aff.n
        return cls(n, aff.t, beta, _dlog5(u, n))

    @property
    def modulus(self) -> int:
        return 1 << self.n

    @cached_property
    def multiplier(self) -> int:
        u = pow5(self.gamma, self.n)
        return (-u if self.beta else u) % self.modulus

    def to_affine(self) -> AffineMap:
        return AffineMap(self.modulus, self.alpha, self.multiplier)

    def act(self, g: int) -> int:
        return (g + self.alpha) * self.multiplier % self.modulus

    def then(self, other: "HolElem2") -> "HolElem2":
        """Compose in normal form: the x- and y-exponents add, and the
        second translation is pulled through the first automorphism,
        alpha = alpha1 + alpha2 * (-1)**beta1 * 5**(-gamma1)."""
        n = self.n
        if other.n != n:
            raise ValueError("modulus mismatch")
        u = _inverse_multiplier(n, self.beta, self.gamma)
        return _reduced(
            n,
            (self.alpha + other.alpha * u) % (1 << n),
            self.beta ^ other.beta,
            (self.gamma + other.gamma) % (1 << (n - 2)),
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
        return self.to_affine().as_perm()

    def __str__(self) -> str:
        return format_element(self)


def _reduced(n: int, alpha: int, beta: int, gamma: int) -> HolElem2:
    """A HolElem2 from exponents already reduced, without the
    constructor's validation (most of the cost of a product)."""
    h = object.__new__(HolElem2)
    fields = h.__dict__
    fields["n"] = n
    fields["alpha"] = alpha
    fields["beta"] = beta
    fields["gamma"] = gamma
    return h


@lru_cache(maxsize=1 << 12)
def _inverse_multiplier(n: int, beta: int, gamma: int) -> int:
    """(-1)**beta * 5**(-gamma) mod 2**n, the inverse automorphism part."""
    u = pow5(-gamma, n)
    return (-u if beta else u) % (1 << n)


HolElement = Union[HolElem2, AffineMap]


def compose(h1: HolElement, h2: HolElement) -> HolElement:
    """The element representing 'apply h1, then h2'."""
    if isinstance(h1, HolElem2) != isinstance(h2, HolElem2):
        raise ValueError("cannot compose mixed element kinds")
    return h1.then(h2)


def act(h: HolElement, g: int) -> int:
    """Image of the residue g under h."""
    n = h.modulus if isinstance(h, HolElem2) else h.n
    if not 0 <= g < n:
        raise ValueError(f"residue {g} outside [0, {n})")
    return h.act(g)


def power(h: HolElem2, r: int) -> HolElem2:
    """h**r in closed form.

    For beta = 0 the translation part is alpha times the geometric sum
    of 5**(-gamma); for beta = 1 it is alpha times the alternating sum,
    with the x-part surviving exactly when r is odd.  Negative r goes
    through the inverse.
    """
    if r < 0:
        return power(h.inverse(), -r)
    n, mod = h.n, h.modulus
    if h.beta == 0:
        s = geom_series(pow5(-h.gamma, n), r, mod)
        return HolElem2(n, h.alpha * s, 0, r * h.gamma)
    s = alt_sum_len(r, h.gamma, n)
    return HolElem2(n, h.alpha * s, r & 1, r * h.gamma)


def alt_sum_len(r: int, gamma: int, n: int) -> int:
    """sum((-1)**s * 5**(-s*gamma) for s in range(r)) mod 2**n."""
    if gamma == 0:
        return r & 1  # the sum telescopes to 0 or 1
    return alt_sum(r, gamma, n)


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
    rho = HolElem2.from_affine(AffineMap.multiplier(h.modulus, odd))
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


# textual element notation: "a^3*x*y^2", identity "1"


def format_element(h: HolElem2) -> str:
    parts = []
    if h.alpha:
        parts.append("a" if h.alpha == 1 else f"a^{h.alpha}")
    if h.beta:
        parts.append("x")
    if h.gamma:
        parts.append("y" if h.gamma == 1 else f"y^{h.gamma}")
    return "*".join(parts) if parts else "1"


def parse_element(text: str, n: int) -> HolElem2:
    """Parse "a^alpha*x^beta*y^gamma" notation (any factor optional).

    Factors compose left to right, so non-canonical orderings like
    "x*a^3" mean exactly what they say as group words.
    """
    text = text.strip()
    if text in ("1", ""):
        return HolElem2.identity(n)
    result = HolElem2.identity(n)
    for token in text.split("*"):
        token = token.strip()
        name, _, exp = token.partition("^")
        try:
            e = int(exp) if exp else 1
        except ValueError:
            raise ValueError(f"bad exponent in {token!r}") from None
        if name == "a":
            factor = HolElem2(n, e, 0, 0)
        elif name == "x":
            factor = HolElem2(n, 0, e, 0)
        elif name == "y":
            factor = HolElem2(n, 0, 0, e)
        else:
            raise ValueError(f"unknown factor {token!r}")
        result = result.then(factor)
    return result


def holomorph_group(n: int, element_bound: int = 1 << 16) -> PermSubgroup:
    """Hol(Z_n) as a permutation group on n points, with elements."""
    gens = [AffineMap.translation(n, 1).as_perm()]
    for u in _unit_group_generators(n):
        gens.append(AffineMap.multiplier(n, u).as_perm())
    group = closure(gens, degree=n, element_bound=element_bound)
    return group


def holomorph_elements(n: int) -> list[AffineMap]:
    """All affine maps of Z_n, ordered by (t, m)."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    return [
        AffineMap(n, t, m)
        for t in range(n)
        for m in range(1, n)
        if gcd(m, n) == 1
    ]


def _unit_group_generators(n: int) -> list[int]:
    """A small generating set of the units mod n (via CRT coordinates)."""
    frame = crt_decompose(n)
    gens = []
    for (p, k), q in zip(frame.prime_powers, frame.moduli):
        if p == 2:
            if k >= 3:
                for local in (q - 1, 5):
                    gens.append(frame.from_coords(_unit_vector(frame, q, local)))
            elif k == 2:
                gens.append(frame.from_coords(_unit_vector(frame, q, 3)))
        else:
            g = _primitive_root(p, q)
            gens.append(frame.from_coords(_unit_vector(frame, q, g)))
    return [g for g in gens if g % n != 1]


def _unit_vector(frame: "CrtFrame", q: int, local: int) -> list[int]:
    return [local % qq if qq == q else 1 for qq in frame.moduli]


def _primitive_root(p: int, q: int) -> int:
    """A generator of the units mod q = p**k, p odd."""
    phi = q // p * (p - 1)
    factors = _prime_factors(phi)
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, phi // f, q) != 1 for f in factors):
            return g
    raise RuntimeError(f"no primitive root mod {q}")  # unreachable for p odd


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# CRT frames


@dataclass(frozen=True)
class CrtFrame:
    """Coordinates of Z_n as a product of its prime-power parts.

    The 2-part, when present, comes first; odd primes follow in
    increasing order.  Affine maps split coordinatewise and the group
    law commutes with the splitting.
    """

    n: int
    prime_powers: tuple[tuple[int, int], ...]

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(p**k for p, k in self.prime_powers)

    def to_coords(self, g: int) -> tuple[int, ...]:
        return tuple(g % q for q in self.moduli)

    def from_coords(self, coords: Sequence[int]) -> int:
        g = 0
        for q, c in zip(self.moduli, coords):
            rest = self.n // q
            g = (g + c * rest * pow(rest, -1, q)) % self.n
        return g

    def split_map(self, aff: AffineMap) -> tuple[AffineMap, ...]:
        if aff.n != self.n:
            raise ValueError("modulus mismatch")
        return tuple(AffineMap(q, aff.t % q, aff.m % q) for q in self.moduli)

    def lift_map(self, parts: Sequence[AffineMap]) -> AffineMap:
        if tuple(p.n for p in parts) != self.moduli:
            raise ValueError("coordinate moduli mismatch")
        t = self.from_coords([p.t for p in parts])
        m = self.from_coords([p.m for p in parts])
        return AffineMap(self.n, t, m)

    def lift_multiplier(self, locals_: Sequence[int]) -> int:
        return self.from_coords([u % q for u, q in zip(locals_, self.moduli)])


def crt_decompose(n: int) -> CrtFrame:
    """Factor n into prime powers, 2-part first."""
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
    pairs.sort(key=lambda pk: (pk[0] != 2, pk[0]))
    return CrtFrame(n, tuple(pairs))


def crt_map(aff: AffineMap) -> tuple[AffineMap, ...]:
    """Coordinatewise image of an affine map under the CRT frame of its n."""
    return crt_decompose(aff.n).split_map(aff)


# centralizers of characteristic subgroups inside Aut(Z_n)


@dataclass(frozen=True)
class CentralizerFactor:
    p: int
    k: int
    m: int
    order: int
    full_aut: bool  # p = 2, m = 1: the whole unit group, not cyclic


@dataclass(frozen=True)
class Centralizer:
    """Multipliers of Z_n acting trivially on a chosen subgroup."""

    n: int
    subgroup_generator: int
    multipliers: tuple[int, ...]
    factors: tuple[CentralizerFactor, ...]

    @property
    def order(self) -> int:
        return len(self.multipliers)


def centralizer_in_aut(m_exps: Sequence[int], frame: CrtFrame) -> Centralizer:
    """Pointwise stabilizer in Aut(Z_n) of the subgroup of order
    prod(p_i ** m_i), found by exhaustive multiplier filtering.

    Each coordinate contributes p**(k-m) multipliers; for p = 2, m = 1
    that count equals the whole unit group of the 2-part.
    """
    if len(m_exps) != len(frame.prime_powers):
        raise ValueError("one exponent per prime power required")
    for m, (p, k) in zip(m_exps, frame.prime_powers):
        if not 1 <= m <= k:
            raise ValueError(f"exponent {m} out of range for {p}^{k}")
    n = frame.n
    sub_order = 1
    for m, (p, _k) in zip(m_exps, frame.prime_powers):
        sub_order *= p**m
    d = n // sub_order  # generator of the subgroup of order sub_order
    fixing = tuple(
        u
        for u in range(1, n)
        if gcd(u, n) == 1 and all(x * u % n == x for x in range(0, n, d))
    )
    factors = tuple(
        CentralizerFactor(p, k, m, p ** (k - m), p == 2 and m == 1 and k >= 2)
        for m, (p, k) in zip(m_exps, frame.prime_powers)
    )
    return Centralizer(n, d, fixing, factors)


# discrete log base 5 on the 1-mod-4 units


@lru_cache(maxsize=None)
def _dlog_table(n: int) -> dict[int, int]:
    mod = 1 << n
    table = {}
    v = 1
    for e in range(1 << (n - 2)):
        table[v] = e
        v = v * 5 % mod
    return table


def _dlog5(u: int, n: int) -> int:
    if u % 4 != 1:
        raise ValueError(f"{u} is not a power of 5 mod 2^{n}")
    if n <= _DLOG_TABLE_MAX:
        return _dlog_table(n)[u]
    mod = 1 << n
    gamma, v = 0, 1
    for t in range(n - 2):
        if (v - u) % (1 << (t + 3)):
            gamma |= 1 << t
            v = v * pow5(1 << t, n) % mod
    if v != u:
        raise ValueError(f"{u} is not a power of 5 mod 2^{n}")
    return gamma
