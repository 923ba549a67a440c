"""Circulant graphs and their normality analysis.

A circulant is held as a modulus n and an inverse-closed connection set
S (no zero), with adjacency kept as per-vertex bitmasks.  On top of the
graph sit: an exact automorphism-group computation (twin vertices
quotiented out by Sabidussi's wreath product, then backtracking with
iterated neighborhood refinement, order via the point-stabilizer
chain), the normality test for the translation group, multiplier
stabilizers of S, the cyclic regular subgroups of a normal circulant in
closed form (the nnn verdict), coset-stable subgroups of S, the integer
inequality behind the lexicographic non-normality bound, explicit
stabilizer witnesses certifying non-normality, and the abelian
regular-subgroup scan for moduli not divisible by 8, which reads the
census stream.  Automorphisms, the witnesses among them, are plain
tuples of the images of 0..n-1.
"""

from __future__ import annotations

from array import array
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache
from itertools import islice
from math import factorial, gcd
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from .holomorph import Pair, PairArith, crt_lift, prime_powers

if TYPE_CHECKING:
    from concurrent.futures import Executor

DEFAULT_MAX_DEGREE = 32


class DegreeBoundError(ValueError):
    """A graph exceeds the configured vertex-count bound."""


class WitnessVerificationError(RuntimeError):
    """A constructed stabilizer witness failed its re-verification."""


_SCOPED_BOUND: ContextVar[float] = ContextVar("degree_bound", default=DEFAULT_MAX_DEGREE)


@contextmanager
def using_degree_bound(bound: float) -> Iterator[None]:
    """Inside the block, automorphism_group bounds graphs by ``bound``
    vertices rather than DEFAULT_MAX_DEGREE; ``math.inf`` lifts it.
    The CLI resolves the bound once per invocation and runs the command
    here, so claims see the same bound as the command's own check, and
    the worker processes of a parallel scan enter it again."""
    token = _SCOPED_BOUND.set(bound)
    try:
        yield
    finally:
        _SCOPED_BOUND.reset(token)


@dataclass(frozen=True)
class Circulant:
    """A graph on Z_n with g ~ g + s for every s in the connection set."""

    n: int
    conn: frozenset[int]

    @property
    def adjacency(self) -> tuple[int, ...]:
        rows = []
        for g in range(self.n):
            row = 0
            for s in self.conn:
                row |= 1 << ((g + s) % self.n)
            rows.append(row)
        return tuple(rows)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for g in range(self.n):
            for s in self.conn:
                h = (g + s) % self.n
                if g < h:
                    out.append((g, h))
        return sorted(out)

    def is_connected(self) -> bool:
        d = self.n
        for s in self.conn:
            d = gcd(d, s)
        return d == 1

    def is_degenerate(self) -> bool:
        """Empty set, or the single self-paired involution {n/2}."""
        return not self.conn or self.conn == frozenset([self.n // 2])


def build(n: int, conn: Iterable[int]) -> Circulant:
    """Validate and build: no zero, all in [1, n-1], inverse-closed."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    s = frozenset(int(c) % n for c in conn)
    if 0 in s:
        raise ValueError("connection set must not contain 0")
    for c in s:
        if (n - c) % n not in s:
            raise ValueError(f"connection set is not inverse-closed: missing {n - c}")
    return Circulant(n, s)


@dataclass(frozen=True)
class AutResult:
    """Automorphism group: exact order, generators, whether the group
    lies inside the holomorph (affine maps only), and the multipliers
    that preserve S (aut_G_S), which seed the generators.  A generator is
    the tuple of the images of 0..n-1."""

    order: int
    generators: tuple[tuple[int, ...], ...]
    within_holomorph: bool
    multipliers: tuple[int, ...]


def aut_G_S(circ: Circulant) -> tuple[int, ...]:
    """Multipliers m (units mod n) with m*S = S, sorted."""
    n = circ.n
    out = []
    for m in range(1, n):
        if gcd(m, n) != 1:
            continue
        if {s * m % n for s in circ.conn} == circ.conn:
            out.append(m)
    return tuple(out)


def automorphism_group(circ: Circulant) -> AutResult:
    """Exact automorphism group, by the twin quotient where the graph has
    twin vertices and by the stabilizer-chain search where it has none.

    Twins are vertices with the same neighbourhood, open (false twins) or
    closed (true twins).  In Cay(Z_n, S) the false twins of 0 are the
    periods {d : S + d = S} and the true twins those of S + {0}; each is
    a subgroup <d> of Z_n with d | n.  No graph has both kinds: for a
    false twin p and a true twin q of 0, p - q lies in S as -q does, so p
    lies in S + {0} + q = S + {0}, yet p is not 0 and not in S (else
    0 = p - p would be).  When <d> has h = n/d > 1 elements, the twin
    classes are its cosets, each an empty or a complete graph, and two
    classes are joined all or nothing as in Q = Cay(Z_d, (S mod d) - {0}).
    So the graph is the lexicographic product of Q with the empty or the
    complete graph on h vertices, and as the classes are maximal,
    Aut = Sym(h) wr Aut(Q) (G. Sabidussi, *The lexicographic product of
    graphs*, Duke Math. J. 28 (1961) 573-578): automorphisms permute the
    classes as Aut(Q) does, and any permutation inside each class is
    one.  The order is (h!)^d * |Aut(Q)|, and Q is reduced the same way
    in turn.
    The generators are the affine symmetries, each generator sigma of
    Aut(Q) lifted to x -> sigma(x mod d) + x - (x mod d), the
    transposition (0 d) and, when h > 2, the h-cycle x -> x + d on <d>:
    the lifts map onto Aut(Q), and the translations carry Sym(<d>) to
    every class.

    A graph without twins goes to _searched_group, whose generators are
    the affine symmetries and the coset representatives it finds (a
    strong generating set).

    The vertex bound is the one set by using_degree_bound(), else
    DEFAULT_MAX_DEGREE.
    """
    n = circ.n
    bound = _SCOPED_BOUND.get()
    if n > bound:
        raise DegreeBoundError(f"{n} vertices exceeds the bound {bound}")
    return _automorphism_group(circ)


def _automorphism_group(circ: Circulant) -> AutResult:
    """automorphism_group without the bound, which a quotient keeps."""
    n = circ.n
    bits = sum(1 << s for s in circ.conn)
    d = _period(n, bits)
    if d == n:
        d = _period(n, bits | 1)
        if d == n:
            return _searched_group(circ)
    h = n // d
    mults = aut_G_S(circ)
    gens = _affine_generators(n, mults)
    order = factorial(h) ** d
    if d > 1:
        quotient = _automorphism_group(
            Circulant(d, frozenset(s % d for s in circ.conn) - {0})
        )
        order *= quotient.order
        gens += [
            tuple(sigma[x % d] + x - x % d for x in range(n))
            for sigma in quotient.generators
        ]
    gens.append(tuple(d if x == 0 else 0 if x == d else x for x in range(n)))
    if h > 2:
        gens.append(tuple((x + d) % n if x % d == 0 else x for x in range(n)))
    return AutResult(order, tuple(gens), order == n * len(mults), mults)


def _period(n: int, bits: int) -> int:
    """The least d dividing n such that the subset of Z_n with bitmask
    ``bits`` is fixed by adding d: its stabilizer is <d>."""
    return next((d for d in range(1, n) if n % d == 0 and _fixed_by(n, bits, d)), n)


def _fixed_by(n: int, bits: int, d: int) -> bool:
    """Whether the subset of Z_n with bitmask ``bits`` is fixed by adding
    d: rotating the mask by d bits leaves it as it is."""
    return (bits << d | bits >> (n - d)) & ((1 << n) - 1) == bits


def _affine_generators(n: int, mults: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Translation by 1 and the multipliers other than 1, as image tuples."""
    gens = [tuple((g + 1) % n for g in range(n))]
    gens += [tuple(g * m % n for g in range(n)) for m in mults if m != 1]
    return gens


def _searched_group(circ: Circulant) -> AutResult:
    """The automorphism group by individualisation and refinement along
    the point-stabilizer chain, for any circulant.

    Level k keeps one colouring: the coarsest equitable colouring with
    0..k-1 individualised, which every automorphism fixing 0..k-1
    preserves.  The orbit of k under that stabilizer is grown from known
    generators; only the vertices c of k's cell can join it.  The domain
    colouring (k individualised, refined once per level) is matched
    against c's colouring, and c is dropped when their cell sizes differ;
    otherwise a backtracking search settles it.  The domain colouring is
    the next level's colouring, and every colouring is refined from its
    parent level rather than from scratch.  Once a level colouring is
    discrete the remaining stabilizer is trivial and the chain stops.
    The order is the product of orbit sizes; the generators are the
    affine symmetries and the coset representatives found."""
    n = circ.n
    adj = circ.adjacency
    nbrs = [[(g + s) % n for s in circ.conn] for g in range(n)]
    mults = aut_G_S(circ)
    gens = _affine_generators(n, mults)

    order = 1
    level = [0] * n  # a circulant is vertex-transitive: one cell
    for k in range(n):
        if len(set(level)) == n:
            break  # discrete: only the identity fixes 0..k-1
        dom = _individualise(nbrs, level, k)
        local = [g for g in gens if all(g[j] == j for j in range(k))]
        orbit = _orbit_of(k, local, n)
        for c in range(k + 1, n):
            if c in orbit or level[c] != level[k]:
                continue
            found = _search_automorphism(adj, nbrs, level, dom, k, c)
            if found is not None:
                gens.append(found)
                local.append(found)
                orbit = _orbit_of(k, local, n)
        order *= len(orbit)
        level = dom
    return AutResult(order, tuple(gens), order == n * len(mults), mults)


def _orbit_of(point: int, gens: list[tuple[int, ...]], n: int) -> set[int]:
    orbit = {point}
    queue = [point]
    while queue:
        p = queue.pop()
        for g in gens:
            q = g[p]
            if q not in orbit:
                orbit.add(q)
                queue.append(q)
    return orbit


def _individualise(
    nbrs: list[list[int]], colors: list[int], v: int
) -> list[int]:
    """``colors`` with v moved to a cell of its own, then refined."""
    seeded = list(colors)
    seeded[v] = max(colors) + 1  # a name no cell has
    return _refine(nbrs, seeded)


def _refine(nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """The coarsest equitable colouring finer than ``colors``.

    Each round splits cells by the sorted colours of their neighbours
    and renames the cells by the sorted order of these signatures, so
    the names are canonical: an automorphism carrying one seeded
    colouring to another carries the refinements name for name.  The
    number of cells only grows, and the colouring is equitable once it
    stops growing."""
    cells = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[w] for w in row])))
            for v, row in enumerate(nbrs)
        ]
        names = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(names) == cells:
            return colors
        colors = [names[s] for s in sigs]
        cells = len(names)


def _search_automorphism(
    adj: tuple[int, ...],
    nbrs: list[list[int]],
    level: list[int],
    dom_colors: list[int],
    k: int,
    c: int,
) -> Optional[tuple[int, ...]]:
    """One automorphism fixing 0..k-1 pointwise with k -> c, or None.

    ``level`` is the level colouring (0..k-1 individualised) and
    ``dom_colors`` its refinement with k individualised."""
    n = len(adj)
    im_colors = _individualise(nbrs, level, c)
    if sorted(im_colors) != sorted(dom_colors):
        return None  # cell sizes differ, so no automorphism matches them
    full = (1 << n) - 1
    img = list(range(k)) + [-1] * (n - k)
    img[k] = c
    used = ((1 << k) - 1) | (1 << c)

    color_mask: dict[int, int] = {}
    for u in range(n):
        color_mask[im_colors[u]] = color_mask.get(im_colors[u], 0) | (1 << u)

    cand: dict[int, int] = {}
    for v in range(k + 1, n):
        m = color_mask.get(dom_colors[v], 0) & ~used & full
        for w in range(k + 1):
            m &= adj[img[w]] if adj[v] >> w & 1 else ~adj[img[w]]
        m &= full
        if not m:
            return None
        cand[v] = m

    def dfs(cand: dict[int, int]) -> bool:
        if not cand:
            return True
        v = min(cand, key=lambda w: cand[w].bit_count())
        m = cand[v]
        while m:
            b = m & -m
            m ^= b
            u = b.bit_length() - 1
            img[v] = u
            nxt = {}
            ok = True
            for w, cw in cand.items():
                if w == v:
                    continue
                cw &= (adj[u] if adj[v] >> w & 1 else ~adj[u]) & ~(1 << u) & full
                if not cw:
                    ok = False
                    break
                nxt[w] = cw
            if ok and dfs(nxt):
                return True
            img[v] = -1
        return False

    if dfs(cand):
        return tuple(img)
    return None


def is_normal_cayley(circ: Circulant, aut: Optional[AutResult] = None) -> bool:
    """Whether the translation group is normal in the full automorphism
    group: its generator x -> x + 1 must stay a translation under
    conjugation by every automorphism generator w.  The conjugate sends
    w(x) to w(x + 1), so it is a translation exactly when w(x + 1) - w(x)
    is the same for every x."""
    if aut is None:
        aut = automorphism_group(circ)
    n = circ.n
    for w in aut.generators:
        shift = (w[1 % n] - w[0]) % n
        if any((w[(x + 1) % n] - w[x]) % n != shift for x in range(n)):
            return False
    return True


@dataclass(frozen=True)
class CyclicCopy:
    """One cyclic regular subgroup of the automorphism group, with the
    affine pair (t, m) of the first generator met."""

    generator: Pair
    normal_in_aut: bool
    is_translation_group: bool


@dataclass(frozen=True)
class NnnVerdict:
    """Outcome of the normal/non-normal double-role test.

    ``nnn`` is true when the graph is normal for the translations while
    some other cyclic regular subgroup of the automorphism group is
    non-normal in it.  No separate "not conjugate to the translations"
    reading is needed: Z_n^* is abelian, so conjugating a copy by an
    automorphism keeps its multiplier, and a copy is conjugate to the
    translations only if it is the translation group itself.  The
    witness is the pair of generators (translation by 1, the first
    non-normal copy).
    """

    is_normal_for_GR: bool
    regular_cyclic: tuple[CyclicCopy, ...]
    nnn: bool
    witness: Optional[tuple[Pair, Pair]]


def cyclic_copies(n: int, mults: Iterable[int]) -> tuple[CyclicCopy, ...]:
    """The cyclic regular subgroups of the affine maps (t, m) of Z_n with
    m in the unit group ``mults``: one copy <(1, m)> for each m in
    ``mults``, in increasing order, such that every prime of n divides
    m - 1, and 4 does when 4 divides n.

    That is the full-period test of Hull and Dobell (*Random number
    generators*, SIAM Review 4, 1962): x -> (x + 1) * m = m*x + m is then
    an n-cycle.  A regular copy holds exactly one map sending -1 to 0,
    which is (1, m) for its multiplier m.  It generates the copy: if the
    copy is <x -> a*x + b> and the map is its k-th power, then modulo
    each prime p of n, a = 1 and b*k = 1, so k is prime to n.  So the
    copies are exactly these, and (1, m) is also the first generator met
    when the pairs are walked by t, then m.  The translations of <(1, m)>
    are generated by d = ord_n(m), which divides n.  Conjugating by (0, u)
    moves (1, m) by the translation m*(u - 1), and conjugating by a
    translation moves it by a multiple of m - 1, with m in ``mults``.  So
    the copy is normal exactly when d divides u - 1 for every u in
    ``mults``.
    """
    mults = sorted(mults)
    primes = [p for p, _k in prime_powers(n)]
    copies = []
    for m in mults:
        if any((m - 1) % p for p in primes) or (n % 4 == 0 and (m - 1) % 4):
            continue
        d, power = 1, m
        while power != 1:
            power = power * m % n
            d += 1
        normal = all((u - 1) % d == 0 for u in mults)
        copies.append(CyclicCopy((1, m), normal, m == 1))
    return tuple(copies)


def nnn_verdict(circ: Circulant, aut: Optional[AutResult] = None) -> NnnVerdict:
    """Decide the double-role property for one circulant.

    A normal graph pins its automorphism group to the affine maps whose
    multiplier preserves S, so its cyclic regular subgroups and their
    normality follow by arithmetic (cyclic_copies) from aut_G_S, which
    ``aut`` carries.
    """
    if aut is None:
        aut = automorphism_group(circ)
    if not is_normal_cayley(circ, aut):
        return NnnVerdict(False, (), False, None)
    copies = cyclic_copies(circ.n, aut.multipliers)
    bad = [c.generator for c in copies if not c.normal_in_aut]
    witness = ((1, 1), bad[0]) if bad else None
    return NnnVerdict(True, copies, bool(bad), witness)


def w_subgroups(circ: Circulant) -> list[int]:
    """Divisors d (1 < d < n) whose subgroup <d> leaves S - <d> a union
    of <d>-cosets, that is S - <d> fixed by adding d (``_fixed_by``, the
    period's test); a nonempty answer certifies a lexicographic-product
    structure over that subgroup."""
    n = circ.n
    bits = sum(1 << s for s in circ.conn)
    # the mask of <d> is the n/d-term geometric series 1 + 2^d + 2^2d + ...
    return [
        d for d in range(2, n)
        if n % d == 0 and _fixed_by(n, bits & ~(((1 << n) - 1) // ((1 << d) - 1)), d)
    ]


def lex_exponent(k: int, t: int) -> int:
    """The exponent 2^(k-t) * t + k - t from the wreath lower bound on
    the automorphism group of a lexicographic product on 2^k vertices
    split at 2^t."""
    return (1 << (k - t)) * t + k - t


def theta_witness_p_odd(circ: Circulant, p: int) -> Optional[tuple[int, ...]]:
    """Non-normality witness for odd p with p^2 | n.

    Requires the order-p coordinate automorphism (multiplier congruent
    to p^(k-1)+1 on the p-part, 1 elsewhere) to preserve S; then the
    permutation adding the order-p subgroup generator exactly on the
    residues congruent to 2 mod p is a graph automorphism that fixes 0
    and the generator 1 but is no group automorphism.  Returns None
    when the multiplier precondition fails; raises if the constructed
    witness does not verify.
    """
    n = circ.n
    if p < 3 or p % 2 == 0 or prime_powers(p) != ((p, 1),):
        raise ValueError(f"{p} is not an odd prime")
    if n % (p * p):
        raise ValueError(f"{p}^2 does not divide {n}")
    k = dict(prime_powers(n))[p]
    phi = crt_lift(n, p**k, p ** (k - 1) + 1, 1)
    return _coset_twist(circ, phi, n // p, p)  # n/p generates the order-p subgroup


def theta_witness_2part(circ: Circulant) -> Optional[tuple[int, ...]]:
    """Non-normality witness for moduli whose 2-part 2^k has k >= 4.

    Requires the multiplier congruent to 5^(2^(k-4)) on the 2-part and
    1 on the odd part to preserve S; then adding the involution of the
    2-part exactly on the coset whose 2-coordinate is 2 mod 4 is a
    graph automorphism fixing 0 and 1 but no group automorphism.
    Returns None when the multiplier precondition fails; raises if the
    constructed witness does not verify.
    """
    n = circ.n
    k = (n & -n).bit_length() - 1
    if k < 4:
        raise ValueError(f"2-part of {n} is 2^{k}, need k >= 4")
    two_part = 1 << k
    rho = crt_lift(n, two_part, pow(5, 1 << (k - 4), two_part), 1)
    return _coset_twist(circ, rho, n // 2, 4)  # n/2 is the 2-part's involution


def _coset_twist(
    circ: Circulant, multiplier: int, shift: int, q: int
) -> Optional[tuple[int, ...]]:
    """The coset-twist witness: None unless ``multiplier`` preserves S;
    else the permutation adding ``shift`` exactly on the residues 2 mod
    ``q``, verified (``_verify_witness``)."""
    n = circ.n
    if {s * multiplier % n for s in circ.conn} != circ.conn:
        return None
    theta = tuple((x + shift) % n if x % q == 2 else x for x in range(n))
    _verify_witness(circ, theta)
    return theta


def _verify_witness(circ: Circulant, theta: tuple[int, ...]) -> None:
    """A bijection, edge-preserving, fixing 0 and 1, not the identity."""
    n = circ.n
    if sorted(theta) != list(range(n)):
        raise WitnessVerificationError("witness is not a bijection")
    if theta == tuple(range(n)):
        raise WitnessVerificationError("witness collapsed to the identity")
    if theta[0] != 0 or theta[1 % n] != 1 % n:
        raise WitnessVerificationError("witness moves 0 or the generator")
    for g in range(n):
        for s in circ.conn:
            u, v = theta[g], theta[(g + s) % n]
            if (v - u) % n not in circ.conn:
                raise WitnessVerificationError(
                    f"witness breaks the edge ({g}, {(g + s) % n})"
                )


# abelian regular subgroups at moduli not divisible by 8


def abelian_regular_scan(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each normal circulant on Z_n (8 must not divide n), in census
    order, as its connection set S and the sorted indices [T : R ∩ T] of
    the abelian regular subgroups R of its automorphism group in the
    translations T.  Normality comes from the census stream (scan_range),
    which searches each class under units and complementation once."""
    if n % 8 == 0:
        raise ValueError(f"modulus {n} is divisible by 8")
    out = []
    # a normal circulant's group is Z_n x| aut_G_S: the indices depend on
    # the multiplier group only, and few groups occur
    by_mults: dict[tuple[int, ...], tuple[int, ...]] = {}
    for record in scan_range(n):
        if record["normal"]:
            conn = tuple(record["S"])
            mults = aut_G_S(Circulant(n, frozenset(conn)))
            if mults not in by_mults:
                subs = _abelian_regular_subgroups(n, [(t, m) for t in range(n) for m in mults])
                by_mults[mults] = tuple(sorted(n // sum(m == 1 for _t, m in h) for h in subs))
            out.append((conn, by_mults[mults]))
    return out


def _abelian_regular_subgroups(
    n: int, elements: list[Pair]
) -> list[frozenset[Pair]]:
    """Abelian transitive subgroups of order n generated by at most two
    of the given affine pairs (two generators suffice: an abelian group
    of order not divisible by 8 has rank at most two)."""
    pairs = PairArith(n)
    ident = pairs.identity
    found = set()
    pool = [e for e in elements if e != ident]
    for i, h1 in enumerate(pool):
        for h2 in [ident, *pool[i:]]:
            if pairs.then(h1, h2) != pairs.then(h2, h1):
                continue
            elems = pairs.closure([h1, h2], n)
            if elems is not None and pairs.is_regular(elems):
                found.add(elems)
    return sorted(found, key=sorted)


# census machinery: connection sets indexed by inverse-pair orbits


@cache
def pair_orbits(n: int) -> tuple[tuple[int, ...], ...]:
    """The orbits {s, n-s}, ordered by smallest member; the self-paired
    involution n/2 (n even) is its own orbit.  Computed once per modulus:
    every census mask reads it."""
    return tuple((s,) if s == n - s else (s, n - s) for s in range(1, n // 2 + 1))


def connection_set(n: int, mask: int) -> frozenset[int]:
    orbits = pair_orbits(n)
    if mask >> len(orbits):
        raise ValueError(f"mask {mask} outside census of {len(orbits)} orbits")
    out = set()
    for i, orbit in enumerate(orbits):
        if mask >> i & 1:
            out.update(orbit)
    return frozenset(out)


def census_size(n: int) -> int:
    return 1 << len(pair_orbits(n))


def scan_record(n: int, mask: int) -> dict:
    """One census entry, JSON-ready; deterministic for a given (n, mask).
    A mask's connection set is a union of inverse pairs, so it needs none
    of build()'s checks."""
    circ = Circulant(n, connection_set(n, mask))
    aut = automorphism_group(circ)
    verdict = nnn_verdict(circ, aut)
    witnesses = None
    if verdict.witness is not None:
        normal_gen, bad_gen = verdict.witness
        witnesses = {"normal_copy": list(normal_gen), "non_normal_copy": list(bad_gen)}
    class_fields = (
        aut.order,
        verdict.is_normal_for_GR,
        aut.within_holomorph,
        w_subgroups(circ),
        verdict.nnn,
        witnesses,
    )
    return _census_record(circ, mask, class_fields)


# the record fields that are the same on a whole census class
_CLASS_FIELDS = ("aut_order", "normal", "within_holomorph", "w_subgroups", "nnn", "witnesses")


def _census_record(circ: Circulant, mask: int, class_fields: tuple) -> dict:
    """A census record: the fields read off the connection set itself,
    and those of _CLASS_FIELDS from ``class_fields``, in that order."""
    record = {"n": circ.n, "mask": mask, "S": sorted(circ.conn)}
    record.update(zip(_CLASS_FIELDS, class_fields))
    record["connected"] = circ.is_connected()
    record["degenerate"] = circ.is_degenerate()
    return record


SCAN_CHUNK = 32  # class leaders per task of a parallel scan


def _census_class(n: int) -> Callable[[int], set[int]]:
    """The map from a census mask to its class: the masks of uS and of
    u(S^c) over the units u of Z_n, where S is the mask's connection set
    and S^c = (Z_n - {0}) - S its complement, whose mask is
    mask ^ (census_size(n) - 1)."""
    orbits = pair_orbits(n)
    full = (1 << len(orbits)) - 1
    index = {s: i for i, orbit in enumerate(orbits) for s in orbit}
    # a unit permutes the inverse pairs; u and -u permute them alike
    actions = {
        tuple(1 << index[orbit[0] * u % n] for orbit in orbits)
        for u in range(1, n)
        if gcd(u, n) == 1
    }

    def census_class(mask: int) -> set[int]:
        members = [i for i in range(len(orbits)) if mask >> i & 1]
        images = {sum(action[i] for i in members) for action in actions}
        return images | {image ^ full for image in images}

    return census_class


def _connected_mask(n: int) -> Callable[[int], bool]:
    """The map from a census mask to whether its circulant is connected:
    S generates Z_n unless some prime of n divides all of S."""
    orbits = pair_orbits(n)
    coprime = [
        sum(1 << i for i, orbit in enumerate(orbits) if orbit[0] % p)
        for p, _k in prime_powers(n)
    ]
    return lambda mask: all(mask & members for members in coprime)


def scan_range(
    n: int,
    start: int = 0,
    stop: Optional[int] = None,
    connected_only: bool = False,
    jobs: int = 1,
) -> Iterator[dict]:
    """Scan one contiguous mask range (a shard), the whole census unless
    a range is given, yielding each record in census order as soon as it
    is known.

    Multiplying by a unit u maps Cay(Z_n, S) isomorphically onto
    Cay(Z_n, uS) and normalises the translations.  The complement
    S^c = (Z_n - {0}) - S gives the complement graph, which has the same
    automorphisms, and a unit keeps S exactly when it keeps S^c, because
    it permutes Z_n - {0}.  So the automorphism order, normality,
    holomorph containment and the multiplier group aut_G_S are the same
    on each class of connection sets under units and complementation
    (Z_n^* is abelian, so m keeps uS exactly when it keeps S).  So are
    the nnn verdict and its witnesses, ((1, 1), (1, m)) with m read off
    aut_G_S by cyclic_copies, and the coset-stable subgroups: u<d> = <d>,
    and S^c - <d> is a union of <d>-cosets exactly when S - <d> is.

    The scan walks the range in mask order like a sieve.  The first mask
    of a class that the scan emits is the class's leader: the class is
    built once, from the leader, and each member that the range holds
    and the scan emits is marked with the leader.  Only leaders are
    searched (scan_record); every other member copies the class fields
    from its leader's record and reads the rest off its own mask, and
    the fields are dropped after the class's last member.  With
    ``connected_only`` a disconnected mask is skipped and is no member:
    the complement of a disconnected graph is connected, so a class may
    hold both kinds.

    With ``jobs`` above 1 a pool of that many worker processes searches
    the leaders in batches of SCAN_CHUNK, in order, while this process
    walks the range and builds every record, so the records come out in
    the same order with the same bytes, each worker under the bound of
    using_degree_bound() that holds when the scan starts.  A range of at
    most SCAN_CHUNK masks runs without a pool.  Close the iterator to stop
    the workers early.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if stop is None:
        stop = census_size(n)
    return _scan(n, start, stop, connected_only, jobs)


def _scan(n: int, start: int, stop: int, connected_only: bool, jobs: int) -> Iterator[dict]:
    census_class = _census_class(n)
    connected = _connected_mask(n)
    # owner[mask - start] is a member's leader, which is below the member,
    # or a leader's last member in the range, which is not below it; -1
    # for a mask that is no member of a class met so far
    owner = array("q", [-1]) * (stop - start)

    def emitted(mask: int) -> bool:
        return not connected_only or connected(mask)

    def leaders() -> Iterator[int]:
        for mask in range(start, stop):
            if owner[mask - start] < 0 and emitted(mask):
                members = [m for m in census_class(mask) if start <= m < stop and emitted(m)]
                for m in members:
                    owner[m - start] = mask
                owner[mask - start] = max(members)
                yield mask

    pool = None
    if jobs == 1 or stop - start <= SCAN_CHUNK:
        found = (scan_record(n, mask) for mask in leaders())
    else:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        walk = leaders()
        batches = iter(lambda: list(islice(walk, SCAN_CHUNK)), [])
        pool = ProcessPoolExecutor(jobs, mp_context=get_context("spawn"))
        # a bounded window of batches in flight keeps memory flat when the
        # reader of the records is slower than the workers; each batch
        # carries the scope's bound, as a worker starts outside the scope
        bound = _SCOPED_BOUND.get()
        found = _in_order(pool, ((n, batch, bound) for batch in batches), 4 * jobs)
    classes: dict[int, tuple] = {}
    try:
        for mask in range(start, stop):
            leader = owner[mask - start]
            if 0 <= leader < mask:
                circ = Circulant(n, connection_set(n, mask))
                record = _census_record(circ, mask, classes[leader])
                if owner[leader - start] == mask:
                    del classes[leader]
            elif emitted(mask):
                # no earlier leader's class holds the mask, so it leads
                # the next class, whose record ``found`` gives next
                record = next(found)
                if owner[mask - start] > mask:
                    classes[mask] = tuple(record[f] for f in _CLASS_FIELDS)
            else:
                continue
            yield record
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _in_order(pool: Executor, tasks: Iterable[tuple], ahead: int) -> Iterator[dict]:
    """The records of each task's leaders in task order, with at most
    ``ahead`` tasks submitted to ``pool`` and not yet read."""
    queued: deque = deque()
    for task in tasks:
        queued.append(pool.submit(_scan_leaders, task))
        if len(queued) == ahead:
            yield from queued.popleft().result()
    while queued:
        yield from queued.popleft().result()


def _scan_leaders(task: tuple) -> list[dict]:
    """The records of one batch of class leaders: (n, masks, degree bound)."""
    n, masks, bound = task
    with using_degree_bound(bound):
        return [scan_record(n, mask) for mask in masks]


def shard_bounds(total: int, shard: int, shards: int) -> tuple[int, int]:
    if shards < 1 or not 0 <= shard < shards:
        raise ValueError(f"bad shard {shard}/{shards}")
    return total * shard // shards, total * (shard + 1) // shards
