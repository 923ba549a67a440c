"""The reference engine for regular subgroups at widths 3..5: index-two
coset growth over the multiplication table of the whole holomorph of
Z_{2^n}, pruned only by brute-force fixed-point-freeness.

The library enumerates by gamma functions alone; the tests compare its
sets and generators with this engine, and read the engine's subgroup
lattice (unpruned) at width 3.  ``searched_generators`` is the reference
for the library's greedy walk: a breadth-first search over every
index-two chain inside one subgroup.
"""

from __future__ import annotations

from array import array
from typing import Optional

from holocirc.holomorph import Pair, PairArith

TABLE_MAX_N = 5


class HolTable:
    """Integer-indexed multiplication table of the holomorph of Z_{2^n}.

    Element id = t * 2^(n-1) + (m >> 1) over pairs (t, m) with m odd; the
    rows are arrays of unsigned shorts (ids stay below 2^(2n-1) <= 2^9).
    """

    def __init__(self, n: int):
        self.n = n
        mod = self.mod = 1 << n
        pairs = PairArith(mod)
        inv_unit = pairs.inv_unit
        self.elements = pairs.elements
        half = 1 << (n - 1)
        size = len(self.elements)
        mul = []
        for t1, m1 in self.elements:
            mi = inv_unit[m1]
            row = [0] * size
            j = 0
            for t2 in range(mod):
                tt = (t1 + t2 * mi) % mod * half
                for m2 in range(1, mod, 2):
                    row[j] = tt + (m1 * m2 % mod >> 1)
                    j += 1
            mul.append(array("H", row))
        self.mul = mul
        self.inv = [t * half + (m >> 1) for t, m in map(pairs.inverse, self.elements)]
        self.identity = 0  # (t=0, m=1)
        self.fpf = [self._fixed_point_free(t, m) for t, m in self.elements]

    def _fixed_point_free(self, t: int, m: int) -> bool:
        if t == 0 and m == 1:
            return False  # the identity fixes everything
        return all((g + t) * m % self.mod != g for g in range(self.mod))


def semiregular_subgroup_levels(
    table: HolTable,
    prune_semiregular: bool = True,
    depth: Optional[int] = None,
) -> list[dict[frozenset[int], tuple[int, ...]]]:
    """Subgroups of order 2^level grown by index-two coset extensions,
    level by level up to 2^depth (default 2^n); optionally restricted
    to fixed-point-free (semiregular) subgroups, which loses no regular
    subgroup.  Each subgroup keeps the generators of the first path to
    it."""
    n = table.n
    mul, inv, fpf = table.mul, table.inv, table.fpf
    size = len(table.elements)
    levels = [{frozenset([table.identity]): ()}]
    for _ in range(depth if depth is not None else n):
        nxt: dict[frozenset[int], tuple[int, ...]] = {}
        for sub, gens in levels[-1].items():
            mask = 0
            for e in sub:
                mask |= 1 << e
            for g in range(size):
                if mask >> g & 1:
                    continue
                if prune_semiregular and not fpf[g]:
                    continue
                if not mask >> mul[g][g] & 1:
                    continue  # g^2 must land back in the subgroup
                gi = inv[g]
                if any(not mask >> mul[mul[gi][s]][g] & 1 for s in gens):
                    continue  # g must normalize the subgroup
                coset = [mul[s][g] for s in sub]
                if prune_semiregular and not all(fpf[c] for c in coset):
                    continue
                grown = frozenset([*sub, *coset])
                if grown not in nxt:
                    nxt[grown] = (*gens, g)
        levels.append(nxt)
    return levels


def regular_subgroup_sets(
    n: int, prune_semiregular: bool = True
) -> dict[frozenset[Pair], tuple[Pair, ...]]:
    """All regular subgroups at width n <= 5 as pair sets with generators:
    those of order 2^n whose images t*m of 0 cover Z_{2^n}."""
    if not 3 <= n <= TABLE_MAX_N:
        raise ValueError(f"the table engine supports widths 3..{TABLE_MAX_N}")
    table = HolTable(n)
    elements = table.elements
    mod = table.mod
    out = {}
    for sub, gens in semiregular_subgroup_levels(table, prune_semiregular)[-1].items():
        pairs = frozenset(elements[e] for e in sub)
        if len(pairs) == mod and len({t * m % mod for t, m in pairs}) == mod:
            out[pairs] = tuple(elements[g] for g in gens)
    return out


def searched_generators(arith: PairArith, sub: frozenset[Pair]) -> tuple[Pair, ...]:
    """Generators of ``sub`` from a chain of index-two subgroups, grown
    from the identity one level at a time: each subgroup H of a level, in
    the order met, is joined by each g of ``sub`` in (t, m) order with g
    outside H, g^2 in H and g normalizing H, and the first path to each
    H u Hg is kept, which is the lexicographically least chain."""
    then = arith.then
    order = sorted(sub)
    level = {frozenset([arith.identity]): ()}
    while sub not in level:
        grown: dict[frozenset[Pair], tuple[Pair, ...]] = {}
        for h, gens in level.items():
            for g in order:
                if g in h or then(g, g) not in h:
                    continue
                gi = arith.inverse(g)
                if any(then(then(gi, s), g) not in h for s in gens):
                    continue  # g must normalize h
                grown.setdefault(h.union([then(s, g) for s in h]), (*gens, g))
        level = grown
    return level[sub]
