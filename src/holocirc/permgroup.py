"""Permutation subgroups on {0..n-1}.

The package's one bounded closure (``grow``) and one generator search
(``least_generators``), for any element type; orbits, transitivity/
semiregularity/regularity, normality, exhaustive conjugacy, a
deterministic stabilizer chain, and recognition of the 2-group families
with a cyclic subgroup of index two.

Composition reads left to right: ``p.then(q)`` applies p first.  A group
is kept one way, as its full element set; the stabilizer chain is the
tests' independent route to orders and membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Collection, Iterable, Optional, Sequence, TypeVar

T = TypeVar("T")


class NotSubgroupError(ValueError):
    """A containment S <= T required by an operation does not hold."""


class Perm:
    """An immutable permutation of {0..n-1}, stored by its image tuple.

    The constructor checks that the images form a bijection; products,
    inverses and the identity are bijections by construction and are
    built by ``_perm`` without the check."""

    __slots__ = ("images", "_hash")

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError("images are not a bijection on {0..n-1}")
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "_hash", hash(imgs))

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return _perm(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def act(self, point: int) -> int:
        return self.images[point]

    def then(self, other: "Perm") -> "Perm":
        """The permutation 'apply self, then other'."""
        return _perm(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return _perm(tuple(inv))

    def conjugated_by(self, w: "Perm") -> "Perm":
        """w^-1 * self * w (left-to-right application order)."""
        return w.inverse().then(self).then(w)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycle_lengths(self) -> list[int]:
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i]:
                continue
            length, j = 0, i
            while not seen[j]:
                seen[j] = True
                length += 1
                j = self.images[j]
            out.append(length)
        return out

    def order(self) -> int:
        o = 1
        for c in self.cycle_lengths():
            o = o * c // gcd(o, c)
        return o

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Perm{self.images}"


def _perm(images: tuple[int, ...]) -> Perm:
    """A Perm from an image tuple known to be a bijection, without the
    constructor's check (most of the cost of a product)."""
    p = object.__new__(Perm)
    p.images = images
    p._hash = hash(images)
    return p


class StabChain:
    """Deterministic stabilizer chain (Schreier-Sims, full Schreier set).

    Generators are stored at the deepest level whose base prefix they
    fix; the group stabilizing ``base[:i]`` is generated by everything
    stored at levels >= i.  After every insertion the chain is brought
    back to a fixpoint where all Schreier generators sift to the
    identity, which is what makes orbit sizes multiply to the order.
    Adequate for the desk-scale degrees used here.
    """

    def __init__(self, degree: int, generators: Iterable[Perm] = ()):
        self.degree = degree
        self.base: list[int] = []
        self.level_gens: list[list[Perm]] = []
        self.transversals: list[dict[int, Perm]] = []
        for g in generators:
            self.extend(g)

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def contains(self, p: Perm) -> bool:
        return self._sift(p, 0) is None

    def extend(self, g: Perm) -> None:
        if g.is_identity() or self.contains(g):
            return
        self._place(g)
        self._refresh()

    # internals

    def _effective_gens(self, level: int) -> list[Perm]:
        return [g for lvl in self.level_gens[level:] for g in lvl]

    def _sift(self, g: Perm, level: int) -> Optional[Perm]:
        """Reduce g by transversals; None means membership."""
        for i in range(level, len(self.base)):
            if g.is_identity():
                return None
            target = g.images[self.base[i]]
            rep = self.transversals[i].get(target)
            if rep is None:
                return g
            g = g.then(rep.inverse())
        return None if g.is_identity() else g

    def _place(self, g: Perm) -> None:
        """Store g at the deepest level whose base prefix it fixes."""
        i = 0
        while True:
            if i == len(self.base):
                b = min(p for p in range(self.degree) if g.images[p] != p)
                self.base.append(b)
                self.level_gens.append([])
                self.transversals.append({b: Perm.identity(self.degree)})
            b = self.base[i]
            target = g.images[b]
            if target == b:
                i += 1
                continue
            rep = self.transversals[i].get(target)
            if rep is None:
                self.level_gens[i].append(g)
                return
            g = g.then(rep.inverse())
            if g.is_identity():
                return
            i += 1

    def _refresh(self) -> None:
        """Recompute orbits and re-verify Schreier conditions to a fixpoint."""
        while True:
            for i in range(len(self.base)):
                self._orbit(i)
            residue = self._bad_schreier()
            if residue is None:
                return
            self._place(residue)

    def _orbit(self, level: int) -> None:
        b = self.base[level]
        gens = self._effective_gens(level)
        trans = {b: Perm.identity(self.degree)}
        queue = [b]
        while queue:
            p = queue.pop()
            u = trans[p]
            for s in gens:
                q = s.images[p]
                if q not in trans:
                    trans[q] = u.then(s)
                    queue.append(q)
        self.transversals[level] = trans

    def _bad_schreier(self) -> Optional[Perm]:
        """First Schreier generator that fails to sift, if any."""
        for i in range(len(self.base)):
            gens = self._effective_gens(i)
            trans = self.transversals[i]
            for p, u in trans.items():
                for s in gens:
                    rep = trans[s.images[p]]
                    schreier = u.then(s).then(rep.inverse())
                    residue = self._sift(schreier, i + 1)
                    if residue is not None:
                        return residue
        return None


@dataclass(frozen=True)
class IsoType:
    """Recognition tag for the group families that matter here."""

    kind: str  # cyclic | dihedral | generalized_quaternion | quasidihedral
    #          | modular_maximal_cyclic | Z2_x_cyclic | other
    order: int

    def __str__(self) -> str:
        return f"{self.kind}({self.order})"


@dataclass(frozen=True)
class PermSubgroup:
    """A subgroup of Sym({0..n-1}) with its element set."""

    degree: int
    generators: tuple[Perm, ...]
    elements: frozenset[Perm]
    order: int

    def contains(self, p: Perm) -> bool:
        return p in self.elements

    def sorted_elements(self) -> list[Perm]:
        return sorted(self.elements)

    def orbits(self) -> list[set[int]]:
        return orbits(self.degree, self.generators)


def grow(
    generators: Sequence[T],
    then: Callable[[T, T], T],
    identity: T,
    bound: Optional[int] = None,
) -> Optional[frozenset[T]]:
    """The group generated by ``generators`` under the product ``then``,
    grown breadth-first from ``identity``; None as soon as it has more
    than ``bound`` elements."""
    elems = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                f = then(e, g)
                if f not in elems:
                    if bound is not None and len(elems) >= bound:
                        return None
                    elems.add(f)
                    nxt.append(f)
        frontier = nxt
    return frozenset(elems)


def least_generators(
    elements: Collection[T], close: Callable[[list[T]], frozenset[T]]
) -> list[T]:
    """Generators of the group ``elements``, each the least element
    outside ``close`` of those chosen before, until they generate it."""
    gens: list[T] = []
    have = close(gens)
    for e in sorted(elements):
        if len(have) == len(elements):
            break
        if e not in have:
            gens.append(e)
            have = close(gens)
    return gens


def closure(generators: Sequence[Perm], degree: Optional[int] = None) -> PermSubgroup:
    """The group a generating set spans, its element set grown by ``grow``."""
    gens = [g for g in generators if not g.is_identity()]
    if degree is None:
        if not gens:
            raise ValueError("degree needed for an empty generating set")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators act on different point sets")
    elems = grow(gens, Perm.then, Perm.identity(degree))
    return PermSubgroup(degree, tuple(gens), elems, len(elems))


def from_elements(
    elements: Iterable[Perm], generators: Optional[Sequence[Perm]] = None
) -> PermSubgroup:
    """Wrap a known-closed element set, finding a small generating set."""
    elems = frozenset(elements)
    degree = next(iter(elems)).degree
    if generators is None:
        generators = least_generators(elems, lambda gens: closure(gens, degree).elements)
    return PermSubgroup(degree, tuple(generators), elems, len(elems))


def orbits(degree: int, gens: Sequence[Perm]) -> list[set[int]]:
    seen = [False] * degree
    out = []
    for start in range(degree):
        if seen[start]:
            continue
        orb = {start}
        queue = [start]
        seen[start] = True
        while queue:
            p = queue.pop()
            for g in gens:
                q = g.images[p]
                if not seen[q]:
                    seen[q] = True
                    orb.add(q)
                    queue.append(q)
        out.append(orb)
    return out


def is_transitive(sub: PermSubgroup) -> bool:
    return len(sub.orbits()) <= 1


def is_semiregular(sub: PermSubgroup) -> bool:
    """True iff every point stabilizer is trivial (all orbits full-size)."""
    return all(len(o) == sub.order for o in sub.orbits())


def is_regular(sub: PermSubgroup) -> bool:
    return is_transitive(sub) and sub.order == sub.degree


def is_normal_in(sub: PermSubgroup, ambient: PermSubgroup) -> bool:
    """Whether sub is normal in ambient; raises if sub is not contained."""
    for g in sub.generators:
        if not ambient.contains(g):
            raise NotSubgroupError("first group is not contained in the second")
    for t in ambient.generators:
        for s in sub.generators:
            if not sub.contains(s.conjugated_by(t)):
                return False
    return True


def are_conjugate(
    sub: PermSubgroup, other: PermSubgroup, ambient: PermSubgroup
) -> Optional[Perm]:
    """Exhaustive search for w in ambient with sub^w = other; the witness
    (when any) is the least such w in image order."""
    if sub.order != other.order:
        return None
    for w in ambient.sorted_elements():
        w_inv = w.inverse()
        if all(
            other.contains(w_inv.then(g).then(w)) for g in sub.generators
        ):
            return w
    return None


def iso_type(
    elements: Iterable[T],
    generators: Sequence[T],
    then: Callable[[T, T], T],
    order: Callable[[T], int],
) -> IsoType:
    """Recognize the isomorphism type among the families used here, of
    the group with the given elements and generators under the product
    ``then`` (left to right), with element orders from ``order``.  A Perm
    group passes ``Perm.then`` and ``Perm.order``; a group of affine
    pairs passes its pair product and an order of its own.

    Cyclic and Z2 x Z_{2^(k-1)} are decided from element orders; for a
    nonabelian 2-group with a cyclic subgroup of index two, the action of
    an outside element t on a maximal-order element s decides the family:
    s^t = s^-1 with t^2 = 1 is dihedral, s^t = s^-1 with t^2 the unique
    involution of <s> is generalized quaternion, s^t = s^(|s|/2 - 1) is
    quasidihedral and s^t = s^(|s|/2 + 1) is the modular family.
    """
    elems = sorted(elements)
    m = len(elems)
    if m == 1:
        return IsoType("cyclic", 1)
    orders = {e: order(e) for e in elems}
    max_order = max(orders.values())
    if max_order == m:
        return IsoType("cyclic", m)
    abelian = all(then(g, h) == then(h, g) for g in generators for h in generators)
    two_power = m & (m - 1) == 0
    if abelian:
        if two_power and 2 * max_order == m:
            return IsoType("Z2_x_cyclic", m)
        return IsoType("other", m)
    if not two_power or 2 * max_order != m or m < 8:
        return IsoType("other", m)

    sigma = next(e for e in elems if orders[e] == max_order)
    sigma_powers: dict[T, int] = {}
    p = sigma
    for e in range(1, max_order + 1):
        sigma_powers[p] = e % max_order
        p = then(p, sigma)
    tau = next(e for e in elems if e not in sigma_powers)
    # sigma^tau = x exactly when sigma * tau = tau * x
    target = then(sigma, tau)
    e = next((k for x, k in sigma_powers.items() if then(tau, x) == target), None)
    if e is None:
        return IsoType("other", m)
    half = max_order  # |sigma| = m/2
    tau_sq = sigma_powers.get(then(tau, tau))
    if e == half - 1:  # sigma^tau = sigma^-1
        if tau_sq == 0:
            return IsoType("dihedral", m)
        if tau_sq == half // 2:
            return IsoType("generalized_quaternion", m)
        return IsoType("other", m)
    if e == half // 2 - 1:
        return IsoType("quasidihedral", m)
    if e == half // 2 + 1:
        return IsoType("modular_maximal_cyclic", m)
    return IsoType("other", m)
