"""Regular subgroups of the holomorph of Z_{2^n}.

Four services: a closed-form semiregularity test for single elements,
construction of the canonical regular-subgroup representatives (seven
families, one carrying a parameter), exhaustive enumeration of all
regular subgroups at small widths with a conjugacy witness for every
match, and the closed-form normality answer for the cyclic regular
subgroups inside the full holomorph.

The enumeration is deliberately independent of the closed forms it is
used to check.  One engine serves every width: it lists the gamma
functions, which are in bijection with the regular subgroups (Guarnieri
and Vendramin, Math. Comp. 86 (2017); Rump, Classification of cyclic
braces, JPAA 209 (2007)), checking each newly set point against the
chosen points only.  At the widths ``classify`` enumerates, up to
FULL_ENUM_MAX_N, the generators come from one greedy walk up a chain of
index-two subgroups inside each subgroup; above, each is the least pair
outside the closure of those before.  The tests keep index-two coset
growth over the whole holomorph as the reference engine at widths 3..5.
Representatives and enumerations are built once per width and process,
and one matcher conjugates every find onto its representative by
solving congruences.  The records are built from the pairs too; no
claim builds a permutation group on 2^n points from them, and
``ClassificationRecord.perm_group`` gives one to the tests' brute
checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from math import gcd
from typing import Collection, Optional, Sequence

from .holomorph import HolElem2, Pair, PairArith, format_element, pair_perm, pow5
from .permgroup import IsoType, Perm, PermSubgroup, from_elements, iso_type, least_generators

MIN_WIDTH = 3  # the normal form a^alpha*x^beta*y^gamma needs n >= 3
FULL_ENUM_MAX_N = 5  # widths classify enumerates, generators from the walk
ENUM_MAX_N = 8

_KINDS = (
    "translations",
    "twisted_cyclic",
    "dihedral",
    "quaternion",
    "direct_product",
    "quasidihedral",
    "modular",
)


@dataclass(frozen=True)
class RegularType:
    """A family tag for regular subgroups, with the twist parameter t
    for the non-translation cyclic family."""

    kind: str
    t: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if (self.kind == "twisted_cyclic") != (self.t is not None):
            raise ValueError("exactly the twisted_cyclic kind carries t")
        if self.t is not None and self.t < 0:
            raise ValueError(f"twist parameter must be >= 0, got {self.t}")

    @property
    def index(self) -> int:
        return _KINDS.index(self.kind) + 1

    def label(self) -> str:
        if self.kind == "twisted_cyclic":
            return f"twisted_cyclic(t={self.t})"
        return self.kind


@dataclass(frozen=True)
class ClassificationRecord:
    """A regular subgroup of the holomorph at width n, as its set of
    (t, m) pairs and generator pairs, together with its family,
    isomorphism type, intersection with the translation group, and (when
    it was matched by search) a verified conjugating pair w, with
    w^-1 R w the representative."""

    n: int
    elements: frozenset[Pair]
    generators: tuple[Pair, ...]
    rtype: RegularType
    iso: IsoType
    intersection_exponent: int
    conjugator: Optional[Pair]

    def perm_group(self) -> PermSubgroup:
        """The subgroup as permutations of Z_{2^n}, built on each call."""
        mod = 1 << self.n
        return from_elements(
            (pair_perm(mod, pair) for pair in self.elements),
            [pair_perm(mod, g) for g in self.generators],
        )

    def to_dict(self) -> dict:
        n = self.n
        return {
            "type_index": self.rtype.index,
            "type": self.rtype.label(),
            "order": len(self.elements),
            "iso": str(self.iso),
            "generators": [
                format_element(HolElem2.from_pair(n, g)) for g in self.generators
            ],
            "intersection_with_translations": f"a^{self.intersection_exponent}",
            "conjugator": None
            if self.conjugator is None
            else list(pair_perm(1 << n, self.conjugator).images),
            "n": n,
        }


def _is_regular(elems: Collection[Pair], mod: int) -> bool:
    """Whether a subgroup of the holomorph of Z_mod, given as its pairs,
    is regular: of order mod, with the orbit {t * m} of 0 all of Z_mod."""
    return len(elems) == mod and len({t * m % mod for t, m in elems}) == mod


def pair_from_perm(p: Perm) -> Pair:
    """Recover the pair (t, m) of a permutation known to be affine."""
    n = p.degree
    m = (p.images[1] - p.images[0]) % n
    if gcd(m, n) != 1:
        raise ValueError("permutation is not an affine map")
    pair = (p.images[0] * pow(m, -1, n) % n, m)
    if pair_perm(n, pair) != p:
        raise ValueError("permutation is not an affine map")
    return pair


def is_semiregular_closed_form(h: HolElem2) -> bool:
    """Semiregularity of a single holomorph element, without orbits.

    Conjugating by an automorphism brings the translation part down to
    its 2-part 2**t (``conj_normal_form``); then h is semiregular exactly
    when it is a pure translation, or has no flip and 2**t < 4 * (2-part
    of gamma), or has a flip and odd translation part.
    """
    alpha2 = h.alpha & -h.alpha
    if alpha2 == 0:
        return h.is_identity()  # any other element fixes 0
    if h.beta == 0:
        return h.gamma == 0 or alpha2 < 4 * (h.gamma & -h.gamma)
    return alpha2 == 1


def is_normal_cyclic_regular_in_hol(rtype: RegularType, n: int) -> bool:
    """Normality in the full holomorph, for the cyclic families only:
    the translation group always, the twisted family exactly at the
    maximal twist n - 3."""
    _check_n(n)
    if rtype.kind == "translations":
        return True
    if rtype.kind == "twisted_cyclic":
        _check_twist(rtype.t, n)
        return rtype.t == n - 3
    raise ValueError(f"{rtype.label()} is not one of the cyclic families")


def representative_types(n: int) -> list[RegularType]:
    """The family tags that actually occur at width n: every family but
    the modular one at n = 3, where it does not exist (``_family``)."""
    _check_n(n)
    types = [RegularType("translations")]
    types += [RegularType("twisted_cyclic", t) for t in range(n - 2)]
    types += [RegularType(kind) for kind in _KINDS[2:] if kind != "modular" or n >= 4]
    return types


def _family(
    rtype: RegularType, n: int
) -> tuple[tuple[tuple[int, int, int], ...], str, int]:
    """Thm 1.4's row for one family at width n: the exponents (alpha,
    beta, gamma) of the representative's literal generators, the
    isomorphism type it must realize, and the d with R .intersect.
    translations = <a^d>.  Width 3 has two rules: the quasidihedral
    generators give Z2 x Z4, the direct-product subgroup, and the modular
    family does not exist (its would-be generators give a non-regular
    group of order 4)."""
    _check_n(n)
    if rtype.kind == "twisted_cyclic":
        _check_twist(rtype.t, n)
        return ((1, 0, 1 << rtype.t),), "cyclic", 1 << (n - rtype.t - 2)
    if rtype.kind == "modular" and n < 4:
        raise ValueError("the modular family is degenerate at width 3")
    # a2 is 2 * 5^-1, and y^y_top is the involution of <y>
    ax, y_top, a2 = (1, 1, 0), 1 << (n - 3), 2 * pow5(-1, n)
    return {
        "translations": (((1, 0, 0),), "cyclic", 1),
        "dihedral": (((2, 0, 0), ax), "dihedral", 2),
        "quaternion": (((2, 0, 0), (1, 1, y_top)), "generalized_quaternion", 2),
        "direct_product": (((a2, 0, 1), ax), "Z2_x_cyclic", 1 << (n - 1)),
        "quasidihedral": (
            ((2, 0, y_top), ax),
            "Z2_x_cyclic" if n == 3 else "quasidihedral",
            4,
        ),
        "modular": (
            ((a2 + (1 << (n - 2)), 0, 1), ax),
            "modular_maximal_cyclic",
            1 << (n - 1),
        ),
    }[rtype.kind]


def representative_generators(rtype: RegularType, n: int) -> list[HolElem2]:
    """The literal generating set of the canonical representative."""
    return [HolElem2(n, *exps) for exps in _family(rtype, n)[0]]


def expected_intersection_exponent(rtype: RegularType, n: int) -> int:
    """The d with R .intersect. translations = <a^d>."""
    return _family(rtype, n)[2]


def representative(rtype: RegularType, n: int) -> ClassificationRecord:
    """Build the canonical representative, the pair closure of its literal
    generators, and check the contract of its ``_family`` row: regular,
    the stated intersection exponent, the stated iso type.  An element's
    order is found by repeated squaring, the holomorph being a 2-group;
    the translations in the subgroup are the pairs (t, 1), a cyclic group
    <a^d> with d the gcd of their t and 2^n."""
    exps, want_kind, want_d = _family(rtype, n)
    mod = 1 << n
    arith = PairArith(mod)
    gens = tuple(HolElem2(n, *e).pair for e in exps)
    elems = arith.closure(gens)
    if not _is_regular(elems, mod):
        raise RuntimeError(f"representative {rtype.label()} is not regular at n={n}")

    def order(h: Pair) -> int:
        k = 1
        while h != arith.identity:
            h = arith.then(h, h)
            k <<= 1
        return k

    d = gcd(mod, *(t for t, m in elems if m == 1))
    if d != want_d:
        raise RuntimeError(
            f"{rtype.label()} at n={n}: intersection a^{d}, expected a^{want_d}"
        )
    iso = iso_type(elems, gens, arith.then, order)
    if iso.kind != want_kind:
        raise RuntimeError(
            f"{rtype.label()} at n={n}: iso {iso.kind}, expected {want_kind}"
        )
    return ClassificationRecord(n, elems, gens, rtype, iso, d, None)


@cache
def representatives(n: int) -> tuple[ClassificationRecord, ...]:
    """The canonical representatives at width n, built once per width."""
    return tuple(representative(rt, n) for rt in representative_types(n))


def canonical_classes(
    records: Sequence[ClassificationRecord],
) -> list[tuple[ClassificationRecord, list[RegularType]]]:
    """The given representative records up to equal pair sets, in order:
    the first record of each set, with the family tags of every record
    that realizes it.  Tags coincide only at n = 3, where the
    direct-product and quasidihedral representatives are one subgroup."""
    seen: dict[frozenset[Pair], tuple[ClassificationRecord, list[RegularType]]] = {}
    for rec in records:
        seen.setdefault(rec.elements, (rec, []))[1].append(rec.rtype)
    return list(seen.values())


def intersection_with_translations(sub: PermSubgroup) -> int:
    """The exponent d such that the translations inside the permutation
    group sub are <a^d>: the brute route for a record's exponent."""
    mod = sub.degree
    d = mod
    for p in sub.sorted_elements():
        im = p.images
        shift = im[0]
        if all((g + shift) % mod == im[g] for g in range(mod)):
            d = gcd(d, shift)
    return d if d else mod


@cache
def enumerate_regular_subgroups(n: int) -> tuple[ClassificationRecord, ...]:
    """Every regular subgroup of the holomorph at width n, in order of its
    sorted pairs, matched to the one canonical representative it is
    conjugate to by the first conjugator w in (t, m) order, a witness.
    The subgroups are those of ``gamma_regular_sets(n)``; each width is
    enumerated once per process.  A record takes its iso type and
    intersection exponent from its representative: both are conjugacy
    invariants, the translations being normal in the holomorph.
    """
    _check_n(n)
    if n > ENUM_MAX_N:
        raise ValueError(f"enumeration supports widths {MIN_WIDTH}..{ENUM_MAX_N}")
    classes = canonical_classes(representatives(n))
    arith = PairArith(1 << n)
    records = []
    for sub, gens in sorted(gamma_regular_sets(n).items(), key=lambda kv: sorted(kv[0])):
        matches = [
            (rep, min(sols)[:2])
            for rep, _ in classes
            if (sols := _conjugators(arith, gens, rep))
        ]
        if len(matches) != 1:
            raise RuntimeError(f"subgroup matched {len(matches)} canonical representatives")
        rep, w = matches[0]
        records.append(replace(rep, elements=sub, generators=gens, conjugator=w))
    return tuple(records)


def _conjugators(
    arith: PairArith, gens: Sequence[Pair], rep: ClassificationRecord
) -> list[tuple[int, int, int]]:
    """Each unit u for which some w = (s, u) has w^-1 g w in ``rep`` for
    every g in ``gens``, as (s0, u, step): those s are s0 mod step.  As
    w^-1 (t, m) w = (u*t + s*u*(m^-1 - 1), m), and the pairs of ``rep``
    with multiplier m are one coset c_m + <d>, d its intersection
    exponent, each g asks for t + s*(m^-1 - 1) = c_m * u^-1 (mod d)."""
    inv, d = arith.inv_unit, rep.intersection_exponent
    starts = {m: t for t, m in rep.elements}
    if any(m not in starts for _, m in gens):
        return []  # conjugation keeps every multiplier
    out = []
    for u in arith.units:
        s0, step = 0, 1
        for t, m in gens:
            a, b = (inv[m] - 1) % d, (starts[m] * inv[u] - t) % d
            k = gcd(a, d)
            mod = d // k
            r = b // k * pow(a // k, -1, mod) % mod
            if b % k or (r - s0) % min(mod, step):
                break  # no s, or none shared: one modulus divides the other
            if mod > step:
                s0, step = r, mod
        else:
            out.append((s0, u, step))
    return out


def normalizer_index(rec: ClassificationRecord) -> int:
    """[Hol : N(R)] for the record's subgroup R, the size of its conjugacy
    class: N(R) has 2^n / step pairs (s, u) for each (s0, u, step) that
    ``_conjugators`` gives for R's generators into R."""
    mod = 1 << rec.n
    arith = PairArith(mod)
    sols = _conjugators(arith, rec.generators, rec)
    return mod * len(arith.units) // sum(mod // step for _, _, step in sols)


def cyclic_regular_affine_subgroups(
    n: int, elements: Sequence[Pair]
) -> list[tuple[Pair, frozenset[Pair]]]:
    """All cyclic regular subgroups generated by one of the given affine
    pairs (t, m) of Z_n, as (first generator met, element set).

    An affine map generates a regular cyclic group exactly when it is a
    single n-cycle, i.e. when 0 has a full orbit under it.
    """
    pairs = PairArith(n)
    found: dict[frozenset[Pair], Pair] = {}
    covered: set[Pair] = set()
    for h in elements:
        if h in covered:
            continue  # a power of an n-cycle met before
        t, m = h
        g, steps = t * m % n, 1
        while g != 0:
            g = (g + t) * m % n
            steps += 1
        if steps != n:
            continue
        cyc = pairs.closure([h])
        found[cyc] = h
        covered |= cyc
    return [(gen, elems) for elems, gen in found.items()]


# the enumeration engine


def gamma_regular_sets(n: int) -> dict[frozenset[Pair], tuple[Pair, ...]]:
    """All regular subgroups at width n as pair sets with generators: one
    {(x * g(x)^-1, g(x))} for each gamma function g: Z_N -> Z_N^*, N = 2^n,
    g(0) = 1 and g(x + g(x)*y) = g(x)*g(y).  Backtracks over g(x) at the
    least unset x, closing the law after each choice from a work queue of
    newly set points, which is also the trail that undoes the choice.

    Each new point is composed, on both sides, with the chosen points
    only, not with every set point.  The pair of x is the map
    y -> x + g(x)*y, and every word in the chosen pairs is reached from
    its last-chosen letter by multiplying by chosen letters on the left
    and the right.  So a closed table is the group the chosen points
    generate, with its elements at distinct points, and a choice fails
    exactly when the law over all set points would.

    Generators: at widths up to FULL_ENUM_MAX_N, by a greedy walk up an
    index-two chain inside the subgroup (``_grown_generators``); above,
    each is the least pair not in the closure of those before.
    """
    _check_n(n)
    mod = 1 << n
    arith = PairArith(mod)
    inv = arith.inv_unit
    g = [1] + [0] * (mod - 1)  # g(0) = 1; 0 marks an unset point
    trail = [0]
    chosen: list[int] = []
    out: dict[frozenset[Pair], tuple[Pair, ...]] = {}

    def propagate(i: int) -> bool:
        while i < len(trail):
            p = trail[i]
            gp = g[p]
            for y in chosen:
                gy = g[y]
                v = gp * gy % mod
                for z in ((p + gp * y) % mod, (y + gy * p) % mod):
                    if not g[z]:
                        g[z] = v
                        trail.append(z)
                    elif g[z] != v:
                        return False
            i += 1
        return True

    def search(x: int) -> None:
        while x < mod and g[x]:
            x += 1
        if x == mod:
            sub = frozenset((y * inv[g[y]] % mod, g[y]) for y in range(mod))
            if n <= FULL_ENUM_MAX_N:
                out[sub] = _grown_generators(arith, sub)
            else:
                out[sub] = tuple(least_generators(sub, arith.closure))
            return
        mark = len(trail)
        chosen.append(x)
        for u in arith.units:
            g[x] = u
            trail.append(x)
            if propagate(mark):
                search(x + 1)
            for p in trail[mark:]:
                g[p] = 0
            del trail[mark:]
        chosen.pop()

    search(1)
    return out


def _grown_generators(arith: PairArith, sub: frozenset[Pair]) -> tuple[Pair, ...]:
    """Generators of ``sub`` from a chain of index-two subgroups, grown
    from the identity: H is joined by the least g of ``sub`` in (t, m)
    order with g outside H, g^2 in H and g normalizing H, until H u Hg is
    ``sub``.  In a 2-group every proper subgroup lies properly inside its
    normalizer, so each step finds such a g, and the walk gives the
    lexicographically least chain: the generators of the coset growth
    over the whole holomorph, which the tests keep as the reference
    engine."""
    then = arith.then
    order = sorted(sub)
    h = frozenset([arith.identity])
    gens: tuple[Pair, ...] = ()
    while len(h) < len(sub):
        for g in order:
            if g in h or then(g, g) not in h:
                continue
            gi = arith.inverse(g)
            if all(then(then(gi, s), g) in h for s in gens):
                break  # g normalizes h
        h = h.union([then(s, g) for s in h])
        gens = (*gens, g)
    return gens


def _check_n(n: int) -> None:
    if n < MIN_WIDTH:
        raise ValueError(f"width must be >= {MIN_WIDTH}, got {n}")


def _check_twist(t: Optional[int], n: int) -> None:
    if t is None or not 0 <= t <= n - 3:
        raise ValueError(f"twist parameter {t} outside 0..{n - 3}")
