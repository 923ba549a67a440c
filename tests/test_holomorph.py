import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocirc.holomorph import (
    HolElem2,
    PairArith,
    centralizer_in_aut,
    conj_normal_form,
    crt_lift,
    format_element,
    holomorph_group,
    order,
    pair_perm,
    point_stabilizer,
    pow5,
    power,
    prime_powers,
)
from holocirc.permgroup import closure


def all_elements(n):
    return [
        HolElem2(n, a, b, g)
        for a in range(1 << n)
        for b in (0, 1)
        for g in range(1 << (n - 2))
    ]


def test_affine_composition_law():
    pairs = PairArith(16)
    a, b = (3, 5), (7, 3)
    p, q, pq = (pair_perm(16, x) for x in (a, b, pairs.then(a, b)))
    for g in range(16):
        assert pq.act(g) == q.act(p.act(g))
    assert pairs.then(a, pairs.inverse(a)) == pairs.identity


@pytest.mark.parametrize("n", [2, 8, 9, 12, 15, 16])
def test_pair_arith_matches_affine_maps(n):
    # the pair law against pointwise composition of the maps as Perms
    pairs = PairArith(n)
    units = [m for m in range(1, n) if math.gcd(m, n) == 1]
    assert pairs.elements == [(t, m) for t in range(n) for m in units]
    perms = {a: pair_perm(n, a) for a in pairs.elements}
    for a, p in perms.items():
        assert perms[pairs.inverse(a)] == p.inverse()
        for b, q in perms.items():
            assert perms[pairs.then(a, b)] == p.then(q)


def test_pair_closure_matches_perm_closure_and_honours_its_bound():
    n = 12
    pairs = PairArith(n)
    for gens in ([], [(1, 1)], [(0, 5)], [(3, 7)], [(1, 1), (0, 5)], [(2, 7), (4, 1)]):
        group = pairs.closure(gens)
        perms = closure([pair_perm(n, g) for g in gens], degree=n)
        assert {pair_perm(n, e) for e in group} == perms.elements, gens
        assert pairs.closure(gens, len(group)) == group
        if len(group) > 1:
            assert pairs.closure(gens, len(group) - 1) is None


def test_hol_elem_requires_width_3():
    with pytest.raises(ValueError):
        HolElem2(2, 0, 0, 0)


def test_compose_examples():
    ay = HolElem2(4, 1, 0, 1)
    sq = ay.then(ay)
    assert (sq.alpha, sq.beta, sq.gamma) == (14, 0, 2)  # 1 + 5^-1 = 14 mod 16
    h = HolElem2(5, 3, 1, 2)
    assert h.then(HolElem2.identity(5)) == h
    assert HolElem2.identity(5).then(h) == h
    ax = HolElem2(4, 1, 1, 0)
    assert ax.then(ax).is_identity()


def test_compose_modulus_mismatch():
    with pytest.raises(ValueError):
        HolElem2(4, 1, 0, 0).then(HolElem2(5, 1, 0, 0))
    with pytest.raises(ValueError):
        HolElem2(5, 3, 1, 2).inverse().then(HolElem2(4, 3, 1, 2))


def test_compose_matches_pointwise_permutation_composition():
    for n in (3, 4):
        elems = all_elements(n)
        rng = random.Random(7)
        sample = rng.sample(elems, 40) if n == 4 else elems
        for h1 in sample:
            for h2 in rng.sample(elems, 25):
                h12 = h1.then(h2)
                for g in range(1 << n):
                    assert h12.act(g) == h2.act(h1.act(g))


def test_compose_associative_exhaustive_width3():
    elems = all_elements(3)
    for h1 in elems:
        for h2 in elems:
            h12 = h1.then(h2)
            for h3 in elems[::5]:
                assert h12.then(h3) == h1.then(h2.then(h3))


@settings(max_examples=250, deadline=None)
@given(st.integers(4, 8), st.data())
def test_compose_associative_randomized(n, data):
    def elem():
        return HolElem2(
            n,
            data.draw(st.integers(0, (1 << n) - 1)),
            data.draw(st.integers(0, 1)),
            data.draw(st.integers(0, (1 << (n - 2)) - 1)),
        )

    h1, h2, h3 = elem(), elem(), elem()
    assert h1.then(h2).then(h3) == h1.then(h2.then(h3))


def affine_then(h1, h2):
    """The reference product: compose the (t, m) pairs by the affine law,
    then recover the normal form by a discrete log base 5."""
    mod = h1.modulus
    (t1, m1), (t2, m2) = h1.pair, h2.pair
    return HolElem2.from_pair(h1.n, ((t1 + t2 * pow(m1, -1, mod)) % mod, m1 * m2 % mod))


def affine_inverse(h):
    mod = h.modulus
    t, m = h.pair
    return HolElem2.from_pair(h.n, (-t * m % mod, pow(m, -1, mod)))


def random_element(rng, n):
    return HolElem2(n, rng.randrange(1 << n), rng.randrange(2), rng.randrange(1 << (n - 2)))


def assert_reduced(h, n):
    assert h.n == n
    assert 0 <= h.alpha < 1 << n
    assert h.beta in (0, 1)
    assert 0 <= h.gamma < 1 << (n - 2)
    built = HolElem2(n, h.alpha, h.beta, h.gamma)
    assert h == built and hash(h) == hash(built)


def test_normal_form_then_matches_affine_route_exhaustive():
    # against pointwise composition of the elements as Perms
    for n in (3, 4, 5):
        elems = all_elements(n)
        perms = {h: h.as_perm() for h in elems}
        for h1, p1 in perms.items():
            inv = h1.inverse()
            assert perms[inv] == p1.inverse()
            assert inv == affine_inverse(h1)
            assert_reduced(inv, n)
            for h2, p2 in perms.items():
                assert perms[h1.then(h2)] == p1.then(p2)


@pytest.mark.parametrize("n", [8, 20, 24])
def test_normal_form_then_matches_affine_route_sampled(n):
    # widths 20 and 24 give the reference route's Hensel lifting logs of
    # up to 22 bits, past every exhaustively tested width
    rng = random.Random(n)
    for _ in range(400):
        h1, h2 = random_element(rng, n), random_element(rng, n)
        prod = h1.then(h2)
        assert prod == affine_then(h1, h2)
        assert_reduced(prod, n)
        inv = h1.inverse()
        assert inv == affine_inverse(h1)
        assert_reduced(inv, n)
        assert h1.then(inv).is_identity() and inv.then(h1).is_identity()


def test_normal_form_products_are_reduced():
    # the largest exponents, so every sum has to wrap
    for n in (3, 6, 24):
        top = HolElem2(n, -1, 1, -1)
        for h in (top.then(top), top.inverse(), top.then(top.inverse())):
            assert_reduced(h, n)
        assert top.then(top.inverse()) == HolElem2.identity(n)


def _trusted_pairs():
    """Every pair at widths 3 and 4; 2,000 seeded pairs at widths 5..7
    and at the wide widths 20 and 24."""
    for n in (3, 4):
        elems = all_elements(n)
        yield n, [(h1, h2) for h1 in elems for h2 in elems]
    for n in (5, 6, 7, 20, 24):
        rng = random.Random(1000 + n)
        yield n, [(random_element(rng, n), random_element(rng, n)) for _ in range(2000)]


def test_trusted_products_and_inverses_equal_validated_elements():
    # powers are built unvalidated too, at exponents that wrap the modulus
    # and through the inverse
    for n, pairs in _trusted_pairs():
        exponents = (0, 1, 2, (1 << n) - 1, 1 << n, -3)
        for h1, h2 in pairs:
            for h in (h1.then(h2), h1.inverse(), *(power(h1, r) for r in exponents)):
                assert type(h) is HolElem2
                assert_reduced(h, n)


def test_multiplier_matches_pow5_route():
    for n in (3, 4, 5, 8, 16, 17, 20, 24):
        mod = 1 << n
        rng = random.Random(n)
        elems = all_elements(n) if n <= 5 else [random_element(rng, n) for _ in range(500)]
        for h in elems:
            want = (-1) ** h.beta * pow5(h.gamma, n) % mod
            assert h.multiplier == want
            assert h.inverse().multiplier * want % mod == 1
            assert h.pair == (h.alpha, want)
            assert HolElem2.from_pair(n, h.pair) == h


def test_hol_elem_is_immutable_and_slotted():
    h = HolElem2(5, 3, 1, 2)
    for name in ("n", "alpha", "beta", "gamma"):
        with pytest.raises(AttributeError):
            setattr(h, name, 1)
        with pytest.raises(AttributeError):
            delattr(h, name)
    with pytest.raises(AttributeError):
        h.extra = 1
    assert not hasattr(h, "__dict__")
    assert (h.n, h.alpha, h.beta, h.gamma) == (5, 3, 1, 2)
    assert pickle.loads(pickle.dumps(h)) == h
    assert h != (5, 3, 1, 2) and h != HolElem2(6, 3, 1, 2)


def test_trusted_affine_products_equal_validated_maps():
    # products and inverses of pairs are never validated, so they must
    # come out reduced: t in [0, n) and m a unit in [1, n)
    for n in (2, 8, 12):
        pairs = PairArith(n)
        valid = set(pairs.elements)
        for a in pairs.elements:
            assert pairs.inverse(a) in valid
            for b in pairs.elements:
                assert pairs.then(a, b) in valid


def test_power_examples():
    assert power(HolElem2(4, 1, 0, 1), 2) == HolElem2(4, 14, 0, 2)
    assert power(HolElem2(4, 1, 1, 0), 2).is_identity()
    # (a x y^(2^(n-3)))^2 = a^(2^(n-1)) at n = 4
    assert power(HolElem2(4, 1, 1, 2), 2) == HolElem2(4, 8, 0, 0)


def test_power_matches_fold_exhaustive_width3():
    for h in all_elements(3):
        acc = HolElem2.identity(3)
        for r in range(1, 9):
            acc = acc.then(h)
            assert power(h, r) == acc


def test_negative_powers():
    h = HolElem2(5, 3, 1, 2)
    assert power(h, -3).then(power(h, 3)).is_identity()
    assert power(h, -1) == h.inverse()


def test_order_examples():
    assert order(HolElem2(4, 1, 0, 0)) == 16
    assert order(HolElem2(4, 2, 0, 2)) == 8  # max(4/2, 16/2)
    assert order(HolElem2(4, 1, 1, 1)) == 8  # 2^(n-1)/gamma_2, odd translation


def test_order_matches_brute_force_small():
    for n in (3, 4, 5):
        for h in all_elements(n):
            if h.is_identity():
                continue
            acc, r = h, 1
            while not acc.is_identity():
                acc = acc.then(h)
                r += 1
            assert order(h) == r, h


def test_conj_normal_form_examples():
    nf, rho = conj_normal_form(HolElem2(4, 6, 1, 1))
    assert (nf.alpha, nf.beta, nf.gamma) == (2, 1, 1)
    nf, _ = conj_normal_form(HolElem2(4, 3, 0, 0))
    assert nf == HolElem2(4, 1, 0, 0)
    zero, rho = conj_normal_form(HolElem2(4, 0, 1, 3))
    assert zero == HolElem2(4, 0, 1, 3) and rho.is_identity()


def test_conj_normal_form_witness_exhaustive():
    for n in (3, 4, 5, 6):
        for h in all_elements(n):
            nf, rho = conj_normal_form(h)
            assert rho.alpha == 0  # pure automorphism part
            assert rho.then(h).then(rho.inverse()) == nf
            assert nf.alpha == 0 or nf.alpha & (nf.alpha - 1) == 0


def test_act_examples():
    n = 4
    fixer = HolElem2(n, 1 << (n - 1), 0, 1 << (n - 3))
    assert fixer.act(1) == 1
    assert HolElem2.identity(n).act(5) == 5
    assert HolElem2(n, 1, 1, 0).act(0) == (1 << n) - 1


def test_act_equation_all_widths():
    # the element a^(2^(n-1)) y^(2^(n-3)) fixes the generator
    for n in range(3, 9):
        fixer = HolElem2(n, 1 << (n - 1), 0, 1 << (n - 3))
        assert fixer.act(1) == 1


def test_point_stabilizer_at_zero():
    x, y = point_stabilizer(0, 4)
    assert x == HolElem2(4, 0, 1, 0)
    assert y == HolElem2(4, 0, 0, 1)


def test_point_stabilizer_fixes_and_spans():
    for n in (3, 4):
        for g in range(1 << n):
            g1, g2 = point_stabilizer(g, n)
            assert g1.act(g) == g and g2.act(g) == g
            sub = closure([g1.as_perm(), g2.as_perm()], degree=1 << n)
            assert sub.order == 1 << (n - 1)
            brute = {h.as_perm() for h in all_elements(n) if h.act(g) == g}
            assert sub.elements == frozenset(brute)


def test_parse_format_roundtrip():
    h = HolElem2(5, 3, 1, 2)
    assert format_element(h) == "a^3*x*y^2"
    assert format_element(HolElem2(4, 1, 0, 1)) == "a*y"
    assert format_element(HolElem2.identity(4)) == "1"
    # a non-canonical word prints in its normal form
    hx = HolElem2(4, 0, 1, 0).then(HolElem2(4, 3, 0, 0))
    assert format_element(hx) == "a^13*x"


def test_crt_frame_examples():
    assert tuple(p**k for p, k in prime_powers(12)) == (4, 3)


def test_prime_powers_and_crt_lift_up_to_600():
    for n in range(2, 601):
        # trial division by every d = 2, 3, 4, ..., which meets the primes
        # in increasing order, 2 first
        want, rest = [], n
        for d in range(2, n + 1):
            k = 0
            while rest % d == 0:
                rest //= d
                k += 1
            if k:
                want.append((d, k))
        assert prime_powers(n) == tuple(want), n
        for p, k in want:
            q, r = p**k, n // p**k
            for a, b in ((1, 0), (0, 1), (q - 1, r + 2), (p + 1, 1)):
                x = crt_lift(n, q, a, b)
                assert 0 <= x < n and (x - a) % q == 0 and (x - b) % r == 0, (n, q, a, b)


def test_centralizer_examples():
    assert len(centralizer_in_aut(9, [1])) == 3
    c16 = centralizer_in_aut(16, [1])
    assert len(c16) == 8  # the whole unit group of Z_16
    c = centralizer_in_aut(16, [2])
    assert len(c) == 4 and c == (1, 5, 9, 13)
    with pytest.raises(ValueError):
        centralizer_in_aut(16, [5])


def test_centralizer_composite():
    c = centralizer_in_aut(36, [1, 1])  # 36 = 4 * 9
    # exhaustive filtering against the subgroup of order 2 * 3 = 6
    d = 36 // 6
    brute = [
        u
        for u in range(1, 36)
        if __import__("math").gcd(u, 36) == 1
        and all(x * u % 36 == x for x in range(0, 36, d))
    ]
    assert list(c) == brute
    assert len(c) == 2 * 3


def test_holomorph_group_orders():
    # n * phi(n) for every modulus, odd prime powers and mixed ones among them
    for n in range(2, 41):
        phi = sum(1 for u in range(1, n + 1) if math.gcd(u, n) == 1)
        assert holomorph_group(n).order == n * phi, n
    assert len(PairArith(12).elements) == 48


def test_x_y_span_the_automorphisms():
    x = HolElem2(4, 0, 1, 0).as_perm()
    y = HolElem2(4, 0, 0, 1).as_perm()
    assert closure([x, y]).order == 8
