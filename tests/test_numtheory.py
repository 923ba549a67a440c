import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocirc.holomorph import geom_series, pow5


def M(k, j, n):
    """sum(5**(-s*j) for s in range(k)) mod 2**n, the paper's M."""
    return geom_series(pow5(-j, n), k, 1 << n)


def alt_sum(k, j, n):
    """sum((-1)**s * 5**(-s*j) for s in range(k)) mod 2**n, the paper's L:
    the geometric sum of the negated ratio."""
    return geom_series(-pow5(-j, n), k, 1 << n)


def test_pow5_small_cases():
    assert pow5(2, 3) == 1  # 25 = 1 mod 8
    assert pow5(2, 4) == 9  # 25 = 9 mod 16, not 1
    # solve 5*z = 1 mod 16 by exhaustive search
    inverse = next(z for z in range(16) if 5 * z % 16 == 1)
    assert inverse == 13
    assert pow5(-1, 4) == 13


def test_pow5_double_congruence_exhaustive():
    # both directions, all widths up to 20
    for n in range(3, 21):
        for t in range(n - 2):
            v = pow5(1 << t, n)
            assert v % (1 << (t + 2)) == 1
            assert v % (1 << (t + 3)) != 1


def test_geom_series_matches_naive():
    # the ratios 0 and 1 mod the modulus take their own route; the others
    # include 2 (where the lifted power can be 0), negatives and mod - 1
    for mod in (1, 9, 12, 1 << 9, 1 << 40):
        for q in (0, 1, 2, 3, 5, 13, -1, -5, mod - 1):
            for k in range(70):
                naive = sum(pow(q, s, mod) for s in range(k)) % mod
                assert geom_series(q, k, mod) == naive, (q, k, mod)


def test_geom_sum_M_examples():
    one = M(1, 7, 6)
    assert one == 1 and one & -one == 1
    m = M(4, 1, 6)
    # direct summation 1 + 13 + 41 + 21 = 76 = 12 mod 64
    assert m == (1 + 13 + 41 + 21) % 64 == 12
    assert m & -m == 4


def test_alt_sum_L_examples():
    l = alt_sum(2, 1, 5)
    assert l == (1 - 13) % 32 == 20
    assert l & -l == 4  # 2 * k2 * j2 = 2 * 2 * 1
    l = alt_sum(2, 2, 6)
    assert l & -l == 8  # 2 * 2 * 2
    assert alt_sum(2, 1, 2) == 0  # the modulus cannot see the 2-part


def test_contract_errors():
    with pytest.raises(ValueError):
        geom_series(5, -1, 64)
    with pytest.raises(ValueError):
        alt_sum(-1, 1, 6)
    with pytest.raises(ValueError):
        pow5(1, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 10), st.integers(1, 1 << 10))
def test_sum_valuations_at_width_40(k, j):
    # a zero residue only bounds the valuation from below
    n = 40
    m = M(k, j, n)
    if m:
        assert m & -m == k & -k
    ke = k + (k & 1)
    l = alt_sum(ke, j, n)
    if l:
        assert l & -l == 2 * (ke & -ke) * (j & -j)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 12), st.integers(1, 1 << 12), st.integers(3, 40))
def test_defining_identity_multiplication_form(k, j, n):
    # sum * (1 - 5^-j) = 1 - 5^-kj, valid although 1 - 5^-j is no unit
    mod = 1 << n
    assert M(k, j, n) * (1 - pow5(-j, n)) % mod == (1 - pow5(-k * j, n)) % mod


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1 << 12), st.integers(1, 1 << 12), st.integers(3, 40))
def test_alternating_identity_multiplication_form(k, j, n):
    mod = 1 << n
    value = alt_sum(k, j, n)
    sign = -1 if k % 2 else 1
    assert value * (1 + pow5(-j, n)) % mod == (1 - sign * pow5(-k * j, n)) % mod

