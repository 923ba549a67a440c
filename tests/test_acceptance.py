"""Acceptance suite: ten exit criteria, each exact and time-bounded.

Every criterion pits a closed-form route against an independent
brute-force route (repeated composition, orbit walks, exhaustive
filters, full censuses) over its stated range, and reports one
pass/fail line with the elapsed time.
"""

import random
import time

from conftest import record_criterion

from holocirc.circulant import (
    abelian_regular_scan,
    build,
    census_size,
    connection_set,
    lex_exponent,
    scan_record,
    theta_witness_2part,
    theta_witness_p_odd,
)
from holocirc.holomorph import (
    HolElem2,
    geom_series,
    holomorph_group,
    order,
    pair_perm,
    point_stabilizer,
    power,
    pow5,
)
from holocirc.permgroup import closure, is_normal_in
from holocirc.regular_classify import (
    canonical_classes,
    enumerate_regular_subgroups,
    is_normal_cyclic_regular_in_hol,
    is_semiregular_closed_form,
    pair_from_perm,
    representative,
    representatives,
)

SEED = 987654321


class Budget:
    def __init__(self, number: int, title: str, seconds: float):
        self.number = number
        self.title = title
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, detail: str) -> None:
        elapsed = time.perf_counter() - self.start
        status = "PASS" if elapsed < self.seconds else "FAIL(time)"
        record_criterion(
            f"{status} criterion {self.number} ({self.title}): {detail} "
            f"[{elapsed:.1f}s < {self.seconds:.0f}s]"
        )
        assert elapsed < self.seconds, f"criterion {self.number} over budget"


def all_elements(n):
    return [
        HolElem2(n, a, b, g)
        for a in range(1 << n)
        for b in (0, 1)
        for g in range(1 << (n - 2))
    ]


def test_criterion_1_number_theory():
    budget = Budget(1, "2-adic sums", 5)
    n = 20
    for t in range(18):  # 0..17 = n-3
        v = pow5(1 << t, n)
        assert v % (1 << (t + 2)) == 1
        assert v % (1 << (t + 3)) != 1
    rng = random.Random(SEED)
    width = 40
    truncated = 0
    for _ in range(10_000):
        k = rng.randint(1, 1 << 10)
        j = rng.randint(1, 1 << 10)
        m = geom_series(pow5(-j, width), k, 1 << width)
        if m == 0:  # a zero residue only bounds the valuation
            truncated += 1
        else:
            assert m & -m == k & -k
        ke = k + (k & 1)
        l = geom_series(-pow5(-j, width), ke, 1 << width)  # the alternating sum L
        if l == 0:
            truncated += 1
        else:
            assert l & -l == 2 * (ke & -ke) * (j & -j)
    budget.done(f"18 congruences + 10^4 random valuations, {truncated} truncated")


def _check_power_and_order(h: HolElem2, r: int, inv: dict) -> None:
    mod = h.modulus
    ht, hm = h.alpha, h.multiplier
    t, m = 0, 1
    for _ in range(r):
        t = (t + ht * inv[m]) % mod
        m = m * hm % mod
    hp = power(h, r)
    assert (hp.alpha, hp.multiplier) == (t, m), (h, r)


def _brute_order(h: HolElem2, inv: dict) -> int:
    mod = h.modulus
    ht, hm = h.alpha, h.multiplier
    t, m, steps = ht, hm, 1
    while (t, m) != (0, 1):
        t = (t + ht * inv[m]) % mod
        m = m * hm % mod
        steps += 1
    return steps


def test_criterion_2_powers_and_orders():
    budget = Budget(2, "closed-form powers and orders", 60)
    checked = 0
    for n in (3, 4, 5):
        mod = 1 << n
        inv = {u: pow(u, -1, mod) for u in range(1, mod, 2)}
        for h in all_elements(n):
            ht, hm = h.alpha, h.multiplier
            t, m = 0, 1
            for r in range(1, mod + 1):
                t = (t + ht * inv[m]) % mod
                m = m * hm % mod
                hp = power(h, r)
                assert (hp.alpha, hp.multiplier) == (t, m), (h, r)
                checked += 1
            if not h.is_identity():
                assert order(h) == _brute_order(h, inv)
    rng = random.Random(SEED)
    per_n = 100_000 // 3
    for n in (6, 7, 8):
        mod = 1 << n
        inv = {u: pow(u, -1, mod) for u in range(1, mod, 2)}
        for _ in range(per_n):
            h = HolElem2(
                n,
                rng.randrange(mod),
                rng.randrange(2),
                rng.randrange(mod >> 2),
            )
            r = rng.randint(1, mod)
            _check_power_and_order(h, r, inv)
            if not h.is_identity():
                assert order(h) == _brute_order(h, inv)
            checked += 1
    budget.done(f"{checked} power comparisons, zero mismatches")


def test_criterion_3_semiregular_classification():
    budget = Budget(3, "semiregular classification", 120)
    checked = 0
    for n in range(3, 8):
        mod = 1 << n
        for h in all_elements(n):
            images = [h.act(g) for g in range(mod)]
            seen = [False] * mod
            sizes = set()
            for start in range(mod):
                if seen[start]:
                    continue
                size, g = 0, start
                while not seen[g]:
                    seen[g] = True
                    size += 1
                    g = images[g]
                sizes.add(size)
            assert is_semiregular_closed_form(h) == (len(sizes) == 1), h
            checked += 1
    budget.done(f"{checked} elements over widths 3..7, zero mismatches")


def test_criterion_4_regular_classification():
    budget = Budget(4, "regular-subgroup classification", 600)
    expected_counts = {3: 6, 4: 16, 5: 28}
    for n in range(3, 9):
        recs = representatives(n)  # raises unless regular + stated data
        # n-2 twisted-cyclic types, plus translations and the four
        # two-generator families (modular only exists for n >= 4)
        assert len(recs) == (6 if n == 3 else (n - 2) + 6)
    classes = canonical_classes(representatives(3))
    assert [[t.kind for t in g] for _, g in classes if len(g) > 1] == [
        ["direct_product", "quasidihedral"]
    ]
    total = 0
    for n in (3, 4, 5):
        records = enumerate_regular_subgroups(n)
        assert len(records) == expected_counts[n]
        for rec in records:
            w = pair_perm(1 << n, rec.conjugator)
            rep = representative(rec.rtype, n)
            conj = frozenset(
                w.inverse().then(p).then(w) for p in rec.perm_group().elements
            )
            assert conj == rep.perm_group().elements
            total += 1
    budget.done(
        f"{total} regular subgroups matched with verified conjugators; "
        "representatives checked for widths 3..8"
    )


def test_criterion_5_normality_in_holomorph():
    budget = Budget(5, "cyclic normality", 60)
    checked = 0
    for n in (3, 4, 5, 6):
        ambient = holomorph_group(1 << n)
        for rec in enumerate_regular_subgroups(n):
            if rec.iso.kind != "cyclic":
                continue
            brute = is_normal_in(rec.perm_group(), ambient)
            closed = is_normal_cyclic_regular_in_hol(rec.rtype, n)
            assert brute == closed, (n, rec.rtype.label())
            checked += 1
    budget.done(f"{checked} cyclic regular subgroups, brute == closed form")


def test_criterion_6_no_nnn_census():
    budget = Budget(6, "census: no double-role circulant", 600)
    sizes = {8: 16, 9: 16, 10: 32, 12: 64, 16: 256}
    scanned = 0
    for n, want in sizes.items():
        assert census_size(n) == want
        for mask in range(want):
            record = scan_record(n, mask)
            assert record["nnn"] is False, record
            scanned += 1
    budget.done(f"{scanned} circulants over Z_8..Z_16, zero double-role graphs")


def test_criterion_7_abelian_uniqueness_and_index():
    budget = Budget(7, "abelian regular subgroups", 300)
    normal_seen = 0
    for n in (9, 10):
        for conn, indices in abelian_regular_scan(n):
            assert len(indices) == 1, conn
            normal_seen += 1
    for conn, indices in abelian_regular_scan(12):
        assert all(i & (i - 1) == 0 for i in indices), (conn, indices)
        normal_seen += 1
    budget.done(f"{normal_seen} normal circulants checked")


def test_criterion_8_theta_witnesses():
    budget = Budget(8, "coset-twist witnesses", 120)
    built = 0
    for mask in range(census_size(9)):
        c = build(9, connection_set(9, mask))
        theta = theta_witness_p_odd(c, 3)  # raises if a witness fails
        if theta is not None:
            built += 1
            _reverify(c, theta)
    for mask in range(census_size(16)):
        c = build(16, connection_set(16, mask))
        theta = theta_witness_2part(c)
        if theta is not None:
            built += 1
            _reverify(c, theta)
    assert built > 0
    budget.done(f"{built} witnesses constructed, zero failures")


def _reverify(circ, theta):
    n = circ.n
    assert theta[0] == 0 and theta[1] == 1
    assert theta != tuple(range(n))
    for g in range(n):
        for s in circ.conn:
            assert (theta[(g + s) % n] - theta[g]) % n in circ.conn


def test_criterion_9_lexicographic_bound():
    budget = Budget(9, "lexicographic bound", 1)
    for k in range(2, 21):
        for t in range(1, k):
            value = lex_exponent(k, t)
            assert value >= 2 * k - 1
            assert (value == 2 * k - 1) == (t == k - 1)
    budget.done("all splits for widths up to 20, equality only at the top")


def test_criterion_10_point_stabilizers():
    budget = Budget(10, "point stabilizers", 30)
    checked = 0
    for n in (3, 4, 5, 6):
        mod = 1 << n
        brute_all = [h.pair for h in all_elements(n)]
        for g in range(mod):
            g1, g2 = point_stabilizer(g, n)
            sub = closure([g1.as_perm(), g2.as_perm()], degree=mod)
            assert sub.order == 1 << (n - 1)
            got = set(map(pair_from_perm, sub.elements))
            want = {(t, m) for t, m in brute_all if (g + t) * m % mod == g}
            assert got == want, (n, g)
            checked += 1
    budget.done(f"{checked} points across widths 3..6")
