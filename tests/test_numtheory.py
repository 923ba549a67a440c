import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holocirc.numtheory import (
    alt_sum,
    alt_sum_L,
    geom_series,
    geom_sum_M,
    pow5,
    residue_split,
)


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
    for q in (1, 3, 13, 5):
        for k in range(40):
            naive = sum(pow(q, s, 1 << 9) for s in range(k)) % (1 << 9)
            assert geom_series(q, k, 1 << 9) == naive


def test_geom_sum_M_examples():
    one = geom_sum_M(1, 7, 6)
    assert one.value == 1 and one.two_part == 1
    m = geom_sum_M(4, 1, 6)
    # direct summation 1 + 13 + 41 + 21 = 76 = 12 mod 64
    assert m.value == (1 + 13 + 41 + 21) % 64 == 12
    assert m.two_part == 4


def test_alt_sum_L_examples():
    l = alt_sum_L(2, 1, 5)
    assert l.value == (1 - 13) % 32 == 20
    assert l.two_part == 4  # 2 * k2 * j2 = 2 * 2 * 1
    assert alt_sum_L(2, 2, 6).two_part == 8  # 2 * 2 * 2
    truncated = alt_sum_L(2, 1, 2)
    assert truncated.truncated and truncated.value == 0


def test_alt_sum_L_rejects_odd_k():
    with pytest.raises(ValueError):
        alt_sum_L(3, 1, 6)


def test_contract_errors():
    with pytest.raises(ValueError):
        geom_sum_M(0, 1, 6)
    with pytest.raises(ValueError):
        geom_sum_M(1, 0, 6)
    with pytest.raises(ValueError):
        pow5(1, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 10), st.integers(1, 1 << 10))
def test_sum_valuations_at_width_40(k, j):
    n = 40
    m = geom_sum_M(k, j, n)
    if not m.truncated:
        assert m.two_part == k & -k
    ke = k + (k & 1)
    l = alt_sum_L(ke, j, n)
    if not l.truncated:
        assert l.two_part == 2 * (ke & -ke) * (j & -j)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 1 << 12), st.integers(1, 1 << 12), st.integers(3, 40))
def test_defining_identity_multiplication_form(k, j, n):
    # sum * (1 - 5^-j) = 1 - 5^-kj, valid although 1 - 5^-j is no unit
    mod = 1 << n
    m = geom_sum_M(k, j, n)
    assert m.value * (1 - pow5(-j, n)) % mod == (1 - pow5(-k * j, n)) % mod


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1 << 12), st.integers(1, 1 << 12), st.integers(3, 40))
def test_alternating_identity_multiplication_form(k, j, n):
    mod = 1 << n
    value = alt_sum(k, j, n)
    sign = -1 if k % 2 else 1
    assert value * (1 + pow5(-j, n)) % mod == (1 - sign * pow5(-k * j, n)) % mod


def test_residue_split_flags_zero():
    r = residue_split(0, 6)
    assert r.truncated and r.two_part == 64 and r.odd_part == 1
    r = residue_split(48, 6)
    assert not r.truncated and r.two_part == 16 and r.odd_part == 3
