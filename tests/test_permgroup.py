import math
import random

import pytest

from holocirc.holomorph import PairArith, holomorph_group, pair_perm
from holocirc.permgroup import (
    NotSubgroupError,
    Perm,
    StabChain,
    are_conjugate,
    closure,
    from_elements,
    is_normal_in,
    is_regular,
    is_semiregular,
    is_transitive,
    iso_type,
    orbits,
)
from table_engine import HolTable, semiregular_subgroup_levels


def perm_iso_type(sub):
    return iso_type(sub.elements, sub.generators, Perm.then, Perm.order)


def rotation(n, k=1):
    return Perm((i + k) % n for i in range(n))


def cocycle_group(nhalf, e, c):
    """Regular model of <s, t | s^nhalf, t^2 = s^(c*nhalf/2), s^t = s^e>."""
    elems = [(i, j) for j in (0, 1) for i in range(nhalf)]
    idx = {el: k for k, el in enumerate(elems)}

    def mul(a, b):
        i, j = a
        k, l = b
        ii = (i + k * pow(e, j, nhalf)) % nhalf
        if j == 1 and l == 1 and c:
            ii = (ii + nhalf // 2) % nhalf
        return (ii, (j + l) % 2)

    return from_elements(
        Perm(idx[mul(g, h)] for g in elems) for h in elems
    )


def test_perm_validation_and_basics():
    for images in ([0, 0, 1], [0, 0], [1, 2]):
        with pytest.raises(ValueError):
            Perm(images)
    p = Perm([1, 2, 0, 3])
    assert p.order() == 3
    assert p.then(p.inverse()).is_identity()
    assert p.cycle_lengths() == [3, 1]
    q = Perm([1, 0, 2, 3])
    assert p.then(q).images == tuple(q.images[i] for i in p.images)


def test_closure_rotation_is_regular():
    G = closure([rotation(8)])
    assert G.order == 8
    assert is_regular(G) and is_transitive(G) and is_semiregular(G)


def test_multiplier_subgroup_fixes_zero():
    y16 = closure([pair_perm(16, (0, 5))])
    assert not is_semiregular(y16)  # stabilizes 0
    assert not is_transitive(y16)


def test_closure_empty_generators():
    G = closure([], degree=5)
    assert G.order == 1 and is_semiregular(G) and not is_transitive(G)


def test_chain_orders_on_known_groups():
    assert StabChain(4, [Perm([1, 0, 2, 3]), Perm([1, 2, 3, 0])]).order() == 24
    assert StabChain(4, [Perm([1, 2, 0, 3]), Perm([0, 2, 3, 1])]).order() == 12
    assert StabChain(16, [Perm([1, 0] + list(range(2, 16))), rotation(16)]).order() == math.factorial(16)


def test_chain_order_equals_element_count():
    for gens in (
        [rotation(12)],
        [rotation(6), Perm([0, 5, 4, 3, 2, 1])],
        [pair_perm(16, (1, 1)), pair_perm(16, (0, 5))],
    ):
        G = closure(gens)
        chain = StabChain(G.degree, G.generators)
        assert chain.order() == G.order
        assert all(chain.contains(e) for e in G.elements)


def test_closure_idempotent():
    G = closure([rotation(8), Perm([0, 7, 6, 5, 4, 3, 2, 1])])
    H = closure(sorted(G.elements), degree=8)
    assert H.elements == G.elements


def test_orbits():
    G = closure([Perm([1, 0, 2, 3, 4, 5])], degree=6)
    assert sorted(map(sorted, orbits(6, G.generators))) == [[0, 1], [2], [3], [4], [5]]


def test_regular_iff_semiregular_and_transitive_over_all_subgroups():
    # every subgroup of the order-32 holomorph at width 3
    table = HolTable(3)
    levels = semiregular_subgroup_levels(table, prune_semiregular=False, depth=5)
    seen = 0
    for level in levels:
        for ids in level:
            pairs = (table.elements[i] for i in ids)
            sub = from_elements(pair_perm(8, pair) for pair in pairs)
            assert is_regular(sub) == (is_semiregular(sub) and is_transitive(sub))
            seen += 1
    assert seen > 50  # the lattice is not trivial
    assert sum(len(level) for level in levels) == seen


def test_is_normal_in():
    H = holomorph_group(16)
    GR = closure([rotation(16)])
    assert is_normal_in(GR, H)
    ay = pair_perm(16, (1, 5))  # twist with t = 0 < n - 3
    assert not is_normal_in(closure([ay]), H)
    # maximal twist: multiplier 5^(2^(n-3)) = 5^2
    ay_max = pair_perm(16, (1, pow(5, 2, 16)))
    assert is_normal_in(closure([ay_max]), H)
    with pytest.raises(NotSubgroupError):
        is_normal_in(closure([Perm([1, 0] + list(range(2, 16)))]), H)


def test_are_conjugate_identity_and_witness():
    amb = holomorph_group(8)
    S = closure([pair_perm(8, (2, 1))])
    w = are_conjugate(S, S, amb)
    assert w is not None and w.is_identity()
    T = closure([pair_perm(8, (6, 1))])
    w = are_conjugate(S, T, amb)
    assert w is not None
    wi = w.inverse()
    assert frozenset(wi.then(g).then(w) for g in S.elements) == T.elements


def test_are_conjugate_distinct_iso_types_fail():
    amb = holomorph_group(16)
    dihedral = closure([pair_perm(16, (2, 1)), pair_perm(16, (1, 15))])
    quat = closure(
        [pair_perm(16, (2, 1)), pair_perm(16, (1, (-pow(5, 2, 16)) % 16))]
    )
    assert perm_iso_type(dihedral).kind == "dihedral"
    assert perm_iso_type(quat).kind == "generalized_quaternion"
    assert are_conjugate(dihedral, quat, amb) is None


def test_conjugate_twisted_generators_found():
    # twist exponent 3 reduces to its 2-part inside the holomorph
    n = 32
    amb = holomorph_group(n)
    S = closure([pair_perm(n, (1, pow(5, 3, n)))])
    T = closure([pair_perm(n, (1, pow(5, 1, n)))])
    w = are_conjugate(S, T, amb)
    assert w is not None


def test_iso_type_models():
    expectations = [
        (cocycle_group(8, 7, 0), "dihedral"),
        (cocycle_group(8, 7, 1), "generalized_quaternion"),
        (cocycle_group(8, 3, 0), "quasidihedral"),
        (cocycle_group(8, 5, 0), "modular_maximal_cyclic"),
        (cocycle_group(8, 1, 0), "Z2_x_cyclic"),
        (closure([rotation(16)]), "cyclic"),
        (cocycle_group(16, 15, 0), "dihedral"),
        (cocycle_group(16, 15, 1), "generalized_quaternion"),
        (cocycle_group(16, 7, 0), "quasidihedral"),
        (cocycle_group(16, 9, 0), "modular_maximal_cyclic"),
        (cocycle_group(4, 3, 0), "dihedral"),
        (cocycle_group(4, 3, 1), "generalized_quaternion"),
        (cocycle_group(4, 1, 0), "Z2_x_cyclic"),
    ]
    for sub, want in expectations:
        got = perm_iso_type(sub)
        assert got.kind == want and got.order == sub.order


def test_iso_type_other_cases():
    klein_cube = from_elements(
        Perm([i ^ mask for i in range(8)]) for mask in range(8)
    )
    assert perm_iso_type(klein_cube).kind == "other"  # Z_2^3 has no index-2 cyclic
    s3 = closure([Perm([1, 0, 2]), Perm([1, 2, 0])])
    assert perm_iso_type(s3).kind == "other"
    assert perm_iso_type(closure([], degree=4)).kind == "cyclic"


def test_iso_type_is_conjugation_invariant():
    rng = random.Random(3)
    amb = holomorph_group(16)
    ambient_elems = sorted(amb.elements)
    for gens in ([(2, 1), (1, 15)], [(1, 5)]):
        sub = closure([pair_perm(16, g) for g in gens])
        tag = perm_iso_type(sub)
        for _ in range(5):
            w = rng.choice(ambient_elems)
            wi = w.inverse()
            conj = from_elements(wi.then(p).then(w) for p in sub.elements)
            assert perm_iso_type(conj) == tag


def _assert_validated(p):
    """p equals, and hashes like, the Perm its images validate to."""
    built = Perm(list(p.images))
    assert type(p.images) is tuple
    assert p == built and hash(p) == hash(built)


def test_trusted_perm_results_equal_validated_perms():
    rng = random.Random(5)
    for degree in (1, 2, 5, 8, 16):
        _assert_validated(Perm.identity(degree))
        assert Perm.identity(degree) == Perm(range(degree))
        for _ in range(200):
            p = Perm(rng.sample(range(degree), degree))
            q = Perm(rng.sample(range(degree), degree))
            pq = p.then(q)
            _assert_validated(pq)
            assert pq.images == tuple(q.images[i] for i in p.images)
            inv = p.inverse()
            _assert_validated(inv)
            assert p.then(inv).is_identity() and inv.then(p).is_identity()


def test_pair_perm_equals_validated_perm():
    for n in (2, 8, 12, 16):
        for t, m in PairArith(n).elements:
            p = pair_perm(n, (t, m))
            _assert_validated(p)
            assert p == Perm((g + t) * m % n for g in range(n))
