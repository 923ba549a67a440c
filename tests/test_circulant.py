import hashlib
import itertools
import json
import math
import random
import concurrent.futures
from concurrent.futures import Future
from dataclasses import replace

import pytest

import holocirc.circulant as circulant
import holocirc.regular_classify as regular_classify
from holocirc.circulant import (
    DEFAULT_MAX_DEGREE,
    AutResult,
    CyclicCopy,
    DegreeBoundError,
    abelian_regular_scan,
    aut_G_S,
    automorphism_group,
    build,
    census_size,
    connection_set,
    cyclic_copies,
    is_normal_cayley,
    lex_exponent,
    nnn_verdict,
    pair_orbits,
    scan_range,
    scan_record,
    shard_bounds,
    theta_witness_2part,
    theta_witness_p_odd,
    using_degree_bound,
    w_subgroups,
    _census_class,
    _individualise,
    _refine,
)
from holocirc.cli import main
from holocirc.holomorph import PairArith, holomorph_group, pair_perm, prime_powers
from holocirc.permgroup import Perm, StabChain, closure, is_normal_in
from holocirc.regular_classify import (
    cyclic_regular_affine_subgroups,
    enumerate_regular_subgroups,
    is_normal_cyclic_regular_in_hol,
)


def brute_aut_order(circ):
    """Filter all n! permutations; only sane for n <= 8."""
    n, adj = circ.n, circ.adjacency
    count = 0
    for p in itertools.permutations(range(n)):
        if all(
            adj[p[g]] >> p[(g + s) % n] & 1
            for g in range(n)
            for s in circ.conn
        ):
            count += 1
    return count


def brute_stabilizer_order(circ):
    """|Aut_0| by plain backtracking, independent of the search: vertices
    1..n-1 are mapped in turn, each to an unused vertex whose adjacency to
    the images of the vertices already mapped matches theirs.  There is no
    refinement and no other pruning."""
    n, adj = circ.n, circ.adjacency
    full = (1 << n) - 1
    img = [0] * n

    def extend(v, used):
        if v == n:
            return 1
        cand = full & ~used
        for w in range(v):
            cand &= adj[img[w]] if adj[v] >> w & 1 else ~adj[img[w]]
        count = 0
        while cand:
            low = cand & -cand
            cand ^= low
            img[v] = low.bit_length() - 1
            count += extend(v + 1, used | low)
        return count

    return extend(1, 1)


def has_twins(circ):
    """Whether some vertex has the open or the closed neighbourhood of 0."""
    adj = circ.adjacency
    return any(adj[v] == adj[0] or adj[v] | 1 << v == adj[0] | 1 for v in range(1, circ.n))


def test_build_validation():
    c = build(8, {1, 7})
    assert c.conn == frozenset({1, 7})
    with pytest.raises(ValueError):
        build(8, {0, 1, 7})
    with pytest.raises(ValueError):
        build(8, {1, 2})  # 6 missing
    with pytest.raises(ValueError):
        build(1, set())


def test_adjacency_shapes():
    cycle = build(8, {1, 7})
    assert all(bin(row).count("1") == 2 for row in cycle.adjacency)
    k44 = build(8, {1, 3, 5, 7})
    # complete bipartite between evens and odds
    evens = sum(1 << v for v in range(0, 8, 2))
    for g in range(8):
        want = (0xFF ^ evens) if g % 2 == 0 else evens
        assert k44.adjacency[g] == want
    assert cycle.edges()[0] == (0, 1)


def test_degenerate_and_connected_flags():
    assert build(8, set()).is_degenerate()
    assert build(8, {4}).is_degenerate()
    assert not build(8, {4}).is_connected()
    assert build(8, {1, 7}).is_connected()
    assert not build(8, {2, 6}).is_connected()


def test_aut_orders_match_brute_force():
    for S, want in [({1, 7}, 16), ({1, 3, 5, 7}, 1152), ({4}, 384)]:
        c = build(8, S)
        assert automorphism_group(c).order == want == brute_aut_order(c)


def test_aut_orders_whole_census_width8():
    for mask in range(census_size(8)):
        c = build(8, connection_set(8, mask))
        assert automorphism_group(c).order == brute_aut_order(c)


def test_aut_generators_generate_stated_order():
    for S in [{1, 7}, {1, 3, 5, 7}, {2, 6}, {4}, {1, 4, 7}]:
        c = build(8, S)
        res = automorphism_group(c)
        chain = StabChain(8, map(Perm, res.generators))
        assert chain.order() == res.order


def test_aut_generators_generate_stated_order_whole_census():
    for n in range(2, 13):
        for mask in range(census_size(n)):
            res = automorphism_group(build(n, connection_set(n, mask)))
            assert StabChain(n, map(Perm, res.generators)).order() == res.order, (n, mask)


def test_twin_quotient_agrees_with_the_search_whole_census():
    # the twin quotient decides the order by formula; the stabilizer-chain
    # search, run on every graph, must find the same group
    for n in range(2, 17):
        for mask in range(census_size(n)):
            c = build(n, connection_set(n, mask))
            reduced = automorphism_group(c)
            searched = circulant._searched_group(c)
            assert reduced.order == searched.order, (n, mask)
            assert is_normal_cayley(c, reduced) == is_normal_cayley(c, searched), (n, mask)


def test_search_matches_plain_backtracking_on_twin_free_classes():
    # n * |Aut_0| from refinement-free backtracking, against both the
    # public route and the stabilizer-chain search, on one graph per class
    twin_free = {}
    for n in range(2, 17):
        key = _census_class(n)
        twin_free[n] = 0
        for mask in sorted({min(key(m)) for m in range(census_size(n))}):
            c = build(n, connection_set(n, mask))
            if has_twins(c):
                continue
            twin_free[n] += 1
            order = n * brute_stabilizer_order(c)
            assert automorphism_group(c).order == order, (n, mask)
            assert circulant._searched_group(c).order == order, (n, mask)
    assert twin_free[16] == 32  # 12 of the 44 classes of Z_16 have twins


@pytest.mark.parametrize(
    "n, conn, bound, order",
    [
        # K_{2,2,2}: false twins over K_3, whose vertices are all true twins
        (6, {1, 2, 4, 5}, None, 48),
        # Z_16 mask 0, the empty graph
        (16, set(), None, math.factorial(16)),
        # K_16 minus a perfect matching: false twins over K_8
        (16, set(range(1, 16)) - {8}, None, 10_321_920),
        # K_{4,4,4,4}: false twins over K_4
        (16, connection_set(16, 119), None, 7_962_624),
        (64, set(), 64, math.factorial(64)),
        (64, set(range(1, 64)), 64, math.factorial(64)),
    ],
)
def test_twin_quotient_orders(n, conn, bound, order):
    with using_degree_bound(bound or DEFAULT_MAX_DEGREE):
        res = automorphism_group(build(n, conn))
    assert res.order == order
    if n <= 16:
        assert StabChain(n, map(Perm, res.generators)).order() == order


def test_level_colourings_refine_incrementally_to_the_from_scratch_partition():
    # each level refines the one above; it must reach the same coarsest
    # equitable partition as refining 0..k individualised from one cell
    def cells(colors):
        out = {}
        for v, c in enumerate(colors):
            out.setdefault(c, []).append(v)
        return sorted(out.values())

    for n in range(2, 13):
        for mask in range(census_size(n)):
            conn = connection_set(n, mask)
            nbrs = [[(g + s) % n for s in conn] for g in range(n)]
            level = [0] * n
            for k in range(n):
                level = _individualise(nbrs, level, k)
                seeded = [0] * n
                for i in range(k + 1):
                    seeded[i] = i + 1
                assert cells(level) == cells(_refine(nbrs, seeded)), (n, mask, k)


# sha256 of the sorted-key NDJSON of every census up to Z_16, as the
# from-scratch refinement search produced it: any change to the
# automorphism search that moves one byte of a scan fails here.
CENSUS_SHA256 = {
    2: "e13300c4b8706e15d016ae382a281dc9f79f8598db8500b8bd1ffb49eb19da19",
    3: "512ec5a913588485c676a61146c9fb1f81b8d5c74e66fe5f1e9c974c733c7652",
    4: "d8e1eaa12a0f4d2265482d00d290e3bcf5fd6d0b18a2d18b38699ed22fad7411",
    5: "6d4ec33f14b228979a84157175d1c1ccbaac4d1f13994f09fdd1d79998a6385d",
    6: "fc25e5f3347cd758fd307496cf165de24b490727ef095c1a0307813cb173482d",
    7: "ac1e498eee0dd6a3071e1b083bcaeeaddc78d4f5c0f31bcb89f3f492d37f29a3",
    8: "6a01c355bdc16c513896a196cf5928b714f8bd3863a54386c53a846908242485",
    9: "836d8c0dd09c0cba5d3f066c00af3dd968711f65a25cae082d9a1bb98b193d26",
    10: "7866f6a6a3ac45d9c336457eb75ed382ff2fde5112240999cf5d3832f3733bcd",
    11: "573cc30f684376af27cb0c718b96b60f0a0da2e8fdde80e12cbc5b821e1dd9e8",
    12: "cf24a2ebb69ec819f2316b719e6c9b0279e07f24acec6b733f96a283695ff9a4",
    13: "8af986e6e916fb8f8aa628b9f8a4c29f9fb14b655f062f9153fd5865b5e16b28",
    14: "06abe8411cc67d48cf0fe9835c775fea44ad7a8e9f82cb5e33ff9fd9f35d5a13",
    15: "68d9fa4ef071351ddbf3dd437c4808cfb63db8e63fb2ad6844031f7b302249b2",
    16: "56a5623507d9a0f591d84a6f3da1cf024653674b3f7b416cfa14ae995f3d6fdf",
}


def test_census_bytes_pinned():
    for n, want in CENSUS_SHA256.items():
        for jobs in (1, 2):
            digest = hashlib.sha256()
            for record in scan_range(n, 0, census_size(n), jobs=jobs):
                digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
            assert digest.hexdigest() == want, (n, jobs)


def test_aut_order_invariant_under_relabeling():
    rng = random.Random(5)
    for n in (9, 12):
        for _ in range(6):
            orbits = pair_orbits(n)
            mask = rng.randrange(1 << len(orbits))
            c = build(n, connection_set(n, mask))
            base = automorphism_group(c).order
            u = rng.choice([m for m in range(1, n) if __import__("math").gcd(m, n) == 1])
            relabeled = build(n, {s * u % n for s in c.conn})
            assert automorphism_group(relabeled).order == base


def test_degree_bound():
    with pytest.raises(DegreeBoundError):
        automorphism_group(build(64, {1, 63}))
    with using_degree_bound(64):
        assert automorphism_group(build(64, {1, 63})).order == 128
    # leaving the scope restores the default bound
    with pytest.raises(DegreeBoundError, match="64 vertices exceeds the bound 32"):
        automorphism_group(build(64, {1, 63}))


def test_normality_examples():
    assert is_normal_cayley(build(8, {1, 7})) is True
    assert is_normal_cayley(build(8, {1, 3, 5, 7})) is False
    # the 4-cycle: rotations have index 2 in its dihedral group, hence normal
    assert is_normal_cayley(build(4, {1, 3})) is True


def test_normality_iff_order_identity():
    # normal <=> |Aut| = n * |multiplier stabilizer| <=> Aut inside holomorph
    for n in (8, 12):
        for mask in range(census_size(n)):
            c = build(n, connection_set(n, mask))
            res = automorphism_group(c)
            normal = is_normal_cayley(c, res)
            assert normal == (res.order == n * len(aut_G_S(c)))
            assert normal == res.within_holomorph


def test_aut_G_S_examples():
    assert aut_G_S(build(8, {1, 7})) == (1, 7)
    assert aut_G_S(build(8, {1, 3, 5, 7})) == (1, 3, 5, 7)
    assert aut_G_S(build(16, {1, 15})) == (1, 15)


def test_w_subgroups():
    k44 = build(8, {1, 3, 5, 7})
    assert 2 in w_subgroups(k44)
    assert w_subgroups(build(8, {1, 7})) == []
    # the empty set is coset-stable for every proper divisor, vacuously
    assert w_subgroups(build(8, set())) == [2, 4]


def test_w_subgroup_implies_nonnormal_width8():
    for mask in range(census_size(8)):
        c = build(8, connection_set(8, mask))
        if w_subgroups(c):
            assert not is_normal_cayley(c), sorted(c.conn)


def test_lex_exponent_values():
    assert lex_exponent(3, 1) == 6
    assert lex_exponent(3, 2) == 5
    assert lex_exponent(4, 2) == 10


def test_lex_bound_holds_with_equality_at_top():
    for k in range(2, 21):
        for t in range(1, k):
            value = lex_exponent(k, t)
            assert value >= 2 * k - 1
            assert (value == 2 * k - 1) == (t == k - 1)


def test_theta_p_odd():
    c9 = build(9, {1, 2, 4, 5, 7, 8})
    theta = theta_witness_p_odd(c9, 3)
    assert theta is not None
    assert theta[0] == 0 and theta[1] == 1
    assert theta != tuple(range(9))
    # edge preservation, re-checked here
    for g in range(9):
        for s in c9.conn:
            assert (theta[(g + s) % 9] - theta[g]) % 9 in c9.conn
    assert theta_witness_p_odd(build(9, {1, 8}), 3) is None
    for p in (1, 2):
        with pytest.raises(ValueError):
            theta_witness_p_odd(c9, p)
    with pytest.raises(ValueError):
        theta_witness_p_odd(build(81, {1, 80}), 9)  # 81 = 9^2, but 9 is composite
    with pytest.raises(ValueError):
        theta_witness_p_odd(build(15, {1, 14}), 3)  # 9 does not divide 15


def test_theta_p_odd_census():
    n = 9
    built = 0
    for mask in range(census_size(n)):
        c = build(n, connection_set(n, mask))
        theta = theta_witness_p_odd(c, 3)
        if theta is not None:
            built += 1
            assert not is_normal_cayley(c)
    assert built > 0


def test_theta_2part():
    c16 = build(16, {1, 3, 5, 7, 9, 11, 13, 15})
    theta = theta_witness_2part(c16)
    assert theta is not None
    assert theta[0] == 0 and theta[1] == 1
    moved = [g for g in range(16) if theta[g] != g]
    assert moved == [g for g in range(16) if g % 4 == 2]
    assert theta_witness_2part(build(16, {1, 15})) is None
    with pytest.raises(ValueError):
        theta_witness_2part(build(8, {1, 7}))


def test_theta_2part_on_composite_modulus():
    # 2-part 16, odd part 3: the multiplier must act trivially mod 3
    n = 48
    conn = {s for s in range(1, 48) if s % 2 == 1}
    c = build(n, conn)
    theta = theta_witness_2part(c)
    assert theta is not None
    assert theta[0] == 0 and theta[1] == 1
    for g in range(n):
        for s in c.conn:
            assert (theta[(g + s) % n] - theta[g]) % n in c.conn


def test_theta_witnesses_certify_every_non_normal_copy_up_to_32():
    # the paper's route: a multiplier group with a non-normal cyclic copy
    # makes the graph non-normal, and a coset twist witnesses it; at 18
    # the odd witness lifts its multiplier across a nontrivial 2-part
    members = {}
    for n in range(2, 33):
        key = _census_class(n)
        seen = set()
        for mask in range(census_size(n)):
            if mask in seen:
                continue
            cls = key(mask)
            seen |= cls
            mults = aut_G_S(build(n, connection_set(n, mask)))
            if all(copy.normal_in_aut for copy in cyclic_copies(n, mults)):
                continue
            odd = [p for p, k in prime_powers(n) if p % 2 and k >= 2]
            for member in cls:
                c = build(n, connection_set(n, member))
                thetas = [theta_witness_p_odd(c, p) for p in odd]  # raises if one fails
                if n % 16 == 0:
                    thetas.append(theta_witness_2part(c))
                assert any(theta is not None for theta in thetas), (n, member)
                assert not is_normal_cayley(c), (n, member)
            members[n] = members.get(n, 0) + len(cls)
    assert members == {9: 4, 16: 16, 18: 32, 25: 16, 27: 128, 32: 256}


def _conjugation_normality(circ, aut):
    # the reference test: conjugate the translation by 1 by each generator
    # as a Perm and check that the result is a translation
    n = circ.n
    rot = pair_perm(n, (1, 1))
    for w in aut.generators:
        conj = rot.conjugated_by(Perm(w))
        shift = conj.images[0]
        if any(conj.images[g] != (g + shift) % n for g in range(n)):
            return False
    return True


def test_normality_matches_conjugating_the_translation():
    # generator by generator, so that one generator's answer cannot hide
    # another's
    for n in range(2, 17):
        for mask in range(census_size(n)):
            c = build(n, connection_set(n, mask))
            for aut in (automorphism_group(c), circulant._searched_group(c)):
                for w in aut.generators:
                    one = replace(aut, generators=(w,))
                    assert is_normal_cayley(c, one) == _conjugation_normality(c, one), (n, mask, w)


def test_nnn_verdict_structure():
    verdict = nnn_verdict(build(8, {1, 7}))
    assert verdict.is_normal_for_GR
    assert not verdict.nnn and verdict.witness is None
    assert any(c.is_translation_group for c in verdict.regular_cyclic)
    # non-normal graph short-circuits
    verdict = nnn_verdict(build(8, {1, 3, 5, 7}))
    assert not verdict.is_normal_for_GR and not verdict.nnn


def test_nnn_verdict_reads_the_multipliers_off_the_group(monkeypatch):
    # the search computes aut_G_S once and the AutResult carries it
    for conn in ({1, 15}, {1, 7, 9, 15}, {2, 14}, set(range(1, 16))):
        c = build(16, conn)
        aut = automorphism_group(c)
        assert aut.multipliers == aut_G_S(c)

        def never(circ):
            raise AssertionError("aut_G_S called")

        with monkeypatch.context() as patched:
            patched.setattr(circulant, "aut_G_S", never)
            verdict = nnn_verdict(c, aut)
        assert verdict == nnn_verdict(c)


def _copy_elements(n, copy):
    return closure([pair_perm(n, copy.generator)], degree=n).elements


@pytest.mark.parametrize("k", [3, 4, 5])
def test_copy_normality_in_full_affine_group(k):
    # No normal circulant has a non-normal copy, so the census never
    # exercises a "not normal" answer.  The verdict reads the automorphism
    # group only through its generators and aut_G_S; the empty set on
    # Z_{2^k} has every unit as multiplier, so with the holomorph as its
    # group the verdict tests the copies of the full affine group, where
    # the twists below the maximal one are not normal.
    n = 1 << k
    hol = holomorph_group(n)
    empty = build(n, [])
    gens = tuple(g.images for g in hol.generators)
    aut = AutResult(hol.order, gens, True, aut_G_S(empty))
    verdict = nnn_verdict(empty, aut)
    cyclic = {
        rec.perm_group().elements: rec
        for rec in enumerate_regular_subgroups(k)
        if rec.iso.kind == "cyclic"
    }
    copies = {_copy_elements(n, c): c for c in verdict.regular_cyclic}
    assert copies.keys() == cyclic.keys()
    for elements, copy in copies.items():
        rec = cyclic[elements]
        assert copy.normal_in_aut == is_normal_in(rec.perm_group(), hol)
        assert copy.normal_in_aut == is_normal_cyclic_regular_in_hol(rec.rtype, k)
        assert copy.is_translation_group == (rec.rtype.kind == "translations")
    bad = [c.generator for c in verdict.regular_cyclic if not c.normal_in_aut]
    # twisted_cyclic(t) is normal only at t = k - 3, so Z_8 has no bad copy
    assert verdict.nnn == bool(bad) == (k > 3)
    assert verdict.witness == (((1, 1), bad[0]) if bad else None)


def test_copies_of_normal_circulants_match_perm_level_brute_route():
    # brute route: the n-cycles of the closure of the automorphism
    # generators, each cyclic group tested with permgroup.is_normal_in
    normal = 0
    for n in range(3, 17):
        for mask in range(census_size(n)):
            circ = build(n, connection_set(n, mask))
            aut = automorphism_group(circ)
            if not is_normal_cayley(circ, aut):
                continue
            normal += 1
            group = closure([Perm(w) for w in aut.generators], degree=n)
            brute = {}
            for p in group.elements:
                if p.cycle_lengths() == [n]:
                    sub = closure([p], degree=n)
                    brute.setdefault(sub.elements, is_normal_in(sub, group))
            verdict = nnn_verdict(circ, aut)
            got = {_copy_elements(n, c): c.normal_in_aut for c in verdict.regular_cyclic}
            assert len(got) == len(verdict.regular_cyclic), (n, mask)
            assert got == brute, (n, mask)
    assert normal == 596


def _enumerated_copies(n, mults):
    # the brute route: close every n-cycle among the pairs (t, m) with m in
    # mults, and call a copy normal when conjugating its generator by each
    # generator of the group, (1, 1) and (0, u), lands inside it
    pairs = PairArith(n)
    conjugators = [(1, 1)] + [(0, u) for u in mults]
    copies = []
    for gen, elems in cyclic_regular_affine_subgroups(
        n, [(t, m) for t in range(n) for m in mults]
    ):
        normal = all(
            pairs.then(pairs.then(pairs.inverse(w), gen), w) in elems
            for w in conjugators
        )
        copies.append(CyclicCopy(gen, normal, gen[1] == 1))
    return tuple(copies)


def test_cyclic_copies_match_the_enumeration():
    # every distinct aut_G_S of the censuses n = 2..24, and the whole unit
    # group for n = 2..64, where some copies are not normal
    groups = set()
    for n in range(2, 25):
        for mask in range(census_size(n)):
            groups.add((n, aut_G_S(build(n, connection_set(n, mask)))))
    for n in range(2, 65):
        groups.add((n, tuple(u for u in range(1, n) if math.gcd(u, n) == 1)))
    copies = non_normal = 0
    for n, mults in sorted(groups):
        got = cyclic_copies(n, mults)
        assert got == _enumerated_copies(n, mults), (n, mults)
        copies += len(got)
        non_normal += sum(not c.normal_in_aut for c in got)
    # 64 of the copies are not normal, so both branches of the flag are met
    assert (len(groups), copies, non_normal) == (95, 169, 64)


def test_census_and_graph_never_enumerate_copies(monkeypatch, capsys):
    from test_claims_cli import GRAPH_CENSUS_SHA256

    def refuse(*args):
        raise AssertionError("the copy enumeration is a brute route for tests")

    monkeypatch.setattr(regular_classify, "cyclic_regular_affine_subgroups", refuse)
    digest = hashlib.sha256()
    for record in scan_range(16, 0, 256):
        digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == CENSUS_SHA256[16]
    digest = hashlib.sha256()
    for mask in range(census_size(16)):
        conn = sorted(connection_set(16, mask))
        assert main(["graph", "--modulus", "16", "--set", ",".join(map(str, conn))]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == GRAPH_CENSUS_SHA256[16]


def test_nnn_census_small():
    for n in (8, 9):
        for mask in range(census_size(n)):
            record = scan_record(n, mask)
            assert record["nnn"] is False


def census_by_set(n):
    """Each census record of Z_n keyed by its connection set, in census order."""
    return {tuple(r["S"]): r for r in scan_range(n, 0, census_size(n))}


def test_abelian_scan_uniqueness():
    for n in (9, 10):
        scan = abelian_regular_scan(n)
        census = census_by_set(n)
        assert [conn for conn, _ in scan] == [s for s, r in census.items() if r["normal"]]
        for _conn, indices in scan:
            assert len(indices) == 1
            assert indices == (1,)


def test_abelian_scan_indices_two_power():
    for n in (12, 20):
        scan = abelian_regular_scan(n)
        census = census_by_set(n)
        assert [conn for conn, _ in scan] == [s for s, r in census.items() if r["normal"]]
        seen_two = False
        for conn, indices in scan:
            assert all(i & (i - 1) == 0 for i in indices)
            assert not census[conn]["nnn"]
            seen_two |= len(indices) > 1
        assert seen_two, n  # 4 | n allows a second abelian regular subgroup


def test_abelian_scan_searches_once_per_multiplier_group(monkeypatch):
    # the subgroups are searched once per distinct aut_G_S, and each
    # normal circulant reads what a search of its own mask would give
    search = circulant._abelian_regular_subgroups
    calls = []

    def counted(n, elements):
        calls.append(n)
        return search(n, elements)

    monkeypatch.setattr(circulant, "_abelian_regular_subgroups", counted)
    for n, searches in ((12, 2), (9, 1), (10, 1)):
        calls.clear()
        scan = abelian_regular_scan(n)
        assert len(calls) == searches, n
        for conn, indices in scan:
            mults = aut_G_S(build(n, conn))
            subs = search(n, [(t, m) for t in range(n) for m in mults])
            want = sorted(n // sum(m == 1 for _t, m in h) for h in subs)
            assert len(indices) == len(subs)
            assert list(indices) == want


def test_abelian_scan_rejects_eights():
    with pytest.raises(ValueError):
        abelian_regular_scan(16)


def test_pair_orbits_and_census():
    assert pair_orbits(8) == ((1, 7), (2, 6), (3, 5), (4,))
    assert pair_orbits(9) == ((1, 8), (2, 7), (3, 6), (4, 5))
    assert census_size(8) == 16
    assert census_size(12) == 64
    assert census_size(16) == 256
    assert connection_set(8, 0b1001) == frozenset({1, 7, 4})
    with pytest.raises(ValueError):
        connection_set(8, 1 << 4)


def test_shard_bounds_partition():
    total = census_size(9)
    pieces = [shard_bounds(total, i, 3) for i in range(3)]
    assert pieces[0][0] == 0 and pieces[-1][1] == total
    covered = [m for lo, hi in pieces for m in range(lo, hi)]
    assert covered == list(range(total))
    with pytest.raises(ValueError):
        shard_bounds(total, 3, 3)


def test_scan_records_deterministic_and_sharded():
    full = list(scan_range(9, 0, census_size(9)))
    again = list(scan_range(9, 0, census_size(9)))
    assert full == again
    lo, hi = shard_bounds(census_size(9), 0, 2)
    assert list(scan_range(9, lo, hi)) == full[lo:hi]
    connected = list(scan_range(9, 0, census_size(9), connected_only=True))
    assert all(r["connected"] for r in connected)
    assert len(connected) < len(full)


def test_census_class_key_is_least_unit_or_complement_image():
    for n in (9, 12, 16):
        census_class = _census_class(n)
        mask_of = {connection_set(n, mask): mask for mask in range(census_size(n))}
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        nonzero = frozenset(range(1, n))
        for conn, mask in mask_of.items():
            least = min(
                mask_of[frozenset(s * u % n for s in side)]
                for side in (conn, nonzero - conn)
                for u in units
            )
            assert min(census_class(mask)) == least


def test_scan_range_shards_concatenate_to_census():
    # contiguous shards cut census classes, so a later member of a
    # class may sit in a shard without its first member
    total = census_size(16)
    full = list(scan_range(16, 0, total))
    for shards in (2, 3, 5, 7, 16):
        pieces = [list(scan_range(16, *shard_bounds(total, i, shards))) for i in range(shards)]
        assert [r for piece in pieces for r in piece] == full, shards


def test_scan_range_equals_per_mask_records():
    for n in (18, 20):
        direct = [scan_record(n, mask) for mask in range(census_size(n))]
        assert list(scan_range(n, 0, census_size(n))) == direct, n
    # with no range given the scan covers the whole census
    for n in (8, 12, 16):
        assert list(scan_range(n)) == list(scan_range(n, 0, census_size(n))), n


def test_complement_keeps_the_class_fields():
    # searched on both sides: S and its complement (Z_n - {0}) - S share
    # the fields that the census copies across a class, and the census,
    # which copies them across units too, equals a search of every mask
    fields = circulant._CLASS_FIELDS
    for n in range(2, 17):
        full = census_size(n) - 1
        records = [scan_record(n, mask) for mask in range(full + 1)]
        for mask, record in enumerate(records):
            other = records[mask ^ full]
            assert [record[f] for f in fields] == [other[f] for f in fields], (n, mask)
        assert list(scan_range(n, 0, full + 1)) == records, n


def test_scan_range_searches_once_per_orbit(monkeypatch):
    # the 256 connection sets of Z_16 fall into 44 orbits under units and
    # complementation
    calls = []
    search = circulant.automorphism_group

    def counted(circ):
        calls.append(circ.conn)
        return search(circ)

    monkeypatch.setattr(circulant, "automorphism_group", counted)
    list(scan_range(16, 0, census_size(16)))
    assert len(calls) == 44


def _burnside_orbit_count(n):
    """The number of classes of census masks under units and
    complementation by Burnside's lemma.  The group is the distinct
    permutations sigma of the inverse pairs by units, and each of them
    followed by the complement.  sigma fixes 2^(number of cycles) masks;
    complement o sigma fixes the masks that alternate along every cycle,
    so 2^(number of cycles) when every cycle has even length, and none
    otherwise.  The count is the mean over the group."""
    pairs = pair_orbits(n)
    where = {s: i for i, pair in enumerate(pairs) for s in pair}
    actions = {
        tuple(where[pair[0] * u % n] for pair in pairs)
        for u in range(1, n)
        if math.gcd(u, n) == 1
    }
    total = 0
    for perm in actions:
        seen, lengths = set(), []
        for i in range(len(perm)):
            if i not in seen:
                lengths.append(0)
            while i not in seen:
                seen.add(i)
                lengths[-1] += 1
                i = perm[i]
        total += 2 ** len(lengths)
        if all(length % 2 == 0 for length in lengths):
            total += 2 ** len(lengths)
    assert total % (2 * len(actions)) == 0
    return total // (2 * len(actions))


def test_orbit_keys_match_burnside_count():
    assert _burnside_orbit_count(16) == 44
    for n in range(2, 25):
        census_class = _census_class(n)
        keys = {min(census_class(mask)) for mask in range(census_size(n))}
        assert len(keys) == _burnside_orbit_count(n), n


class _InlinePool:
    """Stands in for the process pool: runs each task when submitted."""

    def __init__(self, *args, **kwargs):
        self.submitted = 0

    def submit(self, fn, task):
        self.submitted += 1
        done = Future()
        done.set_result(fn(task))
        return done

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize("size", [1, 3, 64])
def test_chunked_scan_searches_each_orbit_once(monkeypatch, size):
    # serial, or with batches of ``size`` leaders through a pool, the scan
    # builds the class of each leader once and searches it once, over
    # ranges that cut classes and with connected-only dropping members
    n = 16
    total = census_size(n)
    expected = list(scan_range(n, 0, total))
    mask_of = {connection_set(n, mask): mask for mask in range(total)}
    key = _census_class(n)
    built, searched = [], []
    make_class = circulant._census_class
    search = circulant.automorphism_group

    def counted_class(n):
        census_class = make_class(n)

        def counted(mask):
            built.append(mask)
            return census_class(mask)

        return counted

    def counted_search(circ):
        searched.append(mask_of[circ.conn])
        return search(circ)

    monkeypatch.setattr(circulant, "_census_class", counted_class)
    monkeypatch.setattr(circulant, "automorphism_group", counted_search)
    monkeypatch.setattr(circulant, "SCAN_CHUNK", size)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    for connected_only in (False, True):
        for start, stop in ((0, total), (37, 201)):
            want = [r for r in expected[start:stop] if r["connected"] or not connected_only]
            classes = sorted({min(key(r["mask"])) for r in want})
            for jobs in (1, 2):
                built.clear()
                searched.clear()
                got = list(scan_range(n, start, stop, connected_only, jobs=jobs))
                assert got == want, (connected_only, start, jobs)
                assert sorted(min(key(mask)) for mask in built) == classes
                assert sorted(min(key(mask)) for mask in searched) == classes
            if (start, stop) == (0, total):
                assert len(searched) == _burnside_orbit_count(n)


def test_connected_only_scan_is_the_filtered_census():
    for n in range(2, 17):
        total = census_size(n)
        connected = [r for r in scan_range(n, 0, total) if r["connected"]]
        assert list(scan_range(n, 0, total, connected_only=True)) == connected, n
        # a range that cuts classes: the first member inside it is searched
        inner = [r for r in connected if 0 < r["mask"] < total - 1]
        assert list(scan_range(n, 1, total - 1, True)) == inner, n


def test_connected_only_scan_searches_connected_orbits_only(monkeypatch):
    # a disconnected mask is neither searched nor recorded; the complement
    # of a disconnected graph is connected, so each of the 44 classes of
    # Z_16 has a connected member, searched once
    scanned = []
    scan = circulant.scan_record

    def counted(n, mask):
        scanned.append(mask)
        return scan(n, mask)

    monkeypatch.setattr(circulant, "scan_record", counted)
    records = list(scan_range(16, 0, census_size(16), connected_only=True))
    assert len(scanned) == 44
    assert len(records) == 240 and all(r["connected"] for r in records)


def test_in_order_keeps_a_bounded_window():
    pool = _InlinePool()
    read = []
    tasks = ((8, [mask], DEFAULT_MAX_DEGREE) for mask in range(10))
    for record in circulant._in_order(pool, tasks, 3):
        read.append(record)
        assert pool.submitted - len(read) < 3
    assert read == [scan_record(8, mask) for mask in range(10)]


def test_scan_range_copies_an_nnn_record_and_its_witness(monkeypatch):
    # the witness ((1, 1), (1, m)) is read off aut_G_S, which is the same
    # on a whole class, so an nnn record is copied like any other
    scanned = []
    scan = circulant.scan_record
    witnesses = {"normal_copy": [1, 1], "non_normal_copy": [1, 5]}

    def nnn_everywhere(n, mask):
        scanned.append(mask)
        return dict(scan(n, mask), nnn=True, witnesses=witnesses)

    monkeypatch.setattr(circulant, "scan_record", nnn_everywhere)
    records = list(scan_range(16, 0, census_size(16)))
    assert len(scanned) == 44
    assert len(records) == 256
    assert all(r["nnn"] and r["witnesses"] == witnesses for r in records)


def test_census_masks_skip_build_and_share_the_pair_orbits(monkeypatch):
    # a mask's set is inverse-closed by construction, and its pair orbits
    # are computed once per modulus, not once per mask
    def never(*args):
        raise AssertionError("build called")

    monkeypatch.setattr(circulant, "build", never)
    pair_orbits.cache_clear()
    assert len(list(scan_range(16, 0, census_size(16)))) == 256
    assert pair_orbits.cache_info().misses == 1


def test_scan_record_fields():
    record = scan_record(8, 1)  # S = {1, 7}
    assert record["S"] == [1, 7]
    assert record["aut_order"] == 16
    assert record["normal"] is True
    assert record["nnn"] is False
    assert record["witnesses"] is None
    assert record["degenerate"] is False
