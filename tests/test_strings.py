import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from palmpc._kernels import njit
from palmpc.oracle import oracle_lcp, oracle_maximal_palindromes
from palmpc.strings import (
    Center,
    DoubledView,
    Text,
    manacher,
    maximal_palindrome_via_lcp,
    prefix_palindromes_in_range,
    smallest_period,
)


def test_center_half_index_encoding():
    c = Center.checked(4, 5)
    assert c.is_odd_length and c.left_position == 2
    c = Center.checked(5, 5)
    assert not c.is_odd_length and c.left_position == 2
    with pytest.raises(ValueError):
        Center.checked(9, 5)
    with pytest.raises(ValueError):
        Center.checked(-1, 5)


def test_manacher_examples():
    t = manacher("aba")
    assert t.odd.tolist() == [1, 3, 1] and t.even.tolist() == [0, 0]
    t = manacher("abaab")
    assert t.odd.tolist() == [1, 3, 1, 1, 1] and t.even.tolist() == [0, 0, 4, 0]


def test_manacher_empty():
    t = manacher("")
    assert t.odd.tolist() == [] and t.even.tolist() == []


def test_smallest_period_examples():
    assert smallest_period("aaaa") == 1
    assert smallest_period("abaab") == 3
    assert smallest_period("abc") == 3


def test_smallest_period_rejects_empty():
    with pytest.raises(ValueError):
        smallest_period("")


def test_smallest_period_definition():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        s = rng.integers(0, 2, n)
        p = smallest_period(s)
        assert 1 <= p <= n
        assert all(s[i] == s[i + p] for i in range(n - p))
        for q in range(1, p):
            assert any(s[i] != s[i + q] for i in range(n - q))


def test_text_validates_alphabet():
    Text(np.array([0, 1, 2]), sigma=3)
    with pytest.raises(ValueError):
        Text(np.array([0, 3]), sigma=3)
    with pytest.raises(ValueError):
        Text(np.array([-1]), sigma=3)


def test_doubled_view_reads():
    d = DoubledView("abaab")
    assert len(d) == 10
    word = "".join(chr(d.read(k)) for k in range(10))
    assert word == "abaabbaaba"
    with pytest.raises(IndexError):
        d.read(10)


def test_doubled_view_mirror_identity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        d = DoubledView(rng.integers(0, 3, n))
        for k in range(2 * n):
            assert d.read(k) == d.read(2 * n - 1 - k)


def test_doubled_view_materialize_matches_reads():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        d = DoubledView(rng.integers(0, 3, n))
        lo = int(rng.integers(0, 2 * n))
        hi = int(rng.integers(lo, 2 * n + 1))
        assert d.materialize(lo, hi).tolist() == [d.read(k) for k in range(lo, hi)]


def test_via_lcp_examples():
    d = DoubledView("abaab")
    lcp = lambda a, b: oracle_lcp(d, a, b)
    assert oracle_lcp(d, 3, 7) == 2
    assert maximal_palindrome_via_lcp(5, 5, lcp) == 4
    assert oracle_lcp(d, 1, 8) == 2
    assert maximal_palindrome_via_lcp(2, 5, lcp) == 3
    d1 = DoubledView("a")
    assert maximal_palindrome_via_lcp(0, 1, lambda a, b: oracle_lcp(d1, a, b)) == 1


def test_via_lcp_clamps_at_right_edge():
    # without the cap the mirrored half continues the match: "aa" center 1
    d = DoubledView("aa")
    lcp = lambda a, b: oracle_lcp(d, a, b)
    assert maximal_palindrome_via_lcp(2, 2, lcp) == 1


def test_via_lcp_equals_manacher():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        s = rng.integers(0, int(rng.choice([2, 3])), n)
        d = DoubledView(s)
        lcp = lambda a, b: oracle_lcp(d, a, b)
        table = manacher(s)
        for u in range(2 * n - 1):
            assert maximal_palindrome_via_lcp(u, n, lcp) == table.length_at(u)


def test_prefix_palindromes_examples():
    assert prefix_palindromes_in_range("aaaa", 1) == [3, 4]
    assert prefix_palindromes_in_range("abca", 1) == []
    assert prefix_palindromes_in_range("abab", 1) == [3]


def test_prefix_palindromes_rejects_bad_length():
    with pytest.raises(ValueError):
        prefix_palindromes_in_range("abc", 1)


def test_prefix_palindromes_definition():
    rng = np.random.default_rng(4)
    for _ in range(200):
        bl = int(rng.integers(1, 6))
        frag = rng.integers(0, 2, 4 * bl)
        got = prefix_palindromes_in_range(frag, bl)
        want = []
        for length in range(1, 4 * bl + 1):
            pref = frag[:length]
            if np.array_equal(pref, pref[::-1]) and bl <= (length - 1) / 2 < 2 * bl:
                want.append(length)
        assert got == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=0, max_size=64))
def test_manacher_matches_oracle(symbols):
    s = np.asarray(symbols, dtype=np.int64)
    assert manacher(s) == oracle_maximal_palindromes(s)


def test_table_entries_are_maximal_palindromes():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 50))
        s = rng.integers(0, 2, n)
        table = manacher(s)
        for u in range(2 * n - 1):
            lam = table.length_at(u)
            lo = (u - lam + 1) // 2
            hi = (u + lam - 1) // 2
            frag = s[lo : hi + 1]
            assert np.array_equal(frag, frag[::-1])
            if lo > 0 and hi < n - 1:
                assert s[lo - 1] != s[hi + 1]


def test_lengths_by_center_interleaves():
    t = manacher("abaab")
    flat = t.lengths_by_center()
    assert flat.tolist() == [1, 0, 3, 0, 1, 4, 1, 0, 1]
    assert t.center_count == 9


@njit
def _fact1_period_prefix_scan(max_len):
    """For every binary palindrome V and proper prefix U:
    |V|-|U| is a period of V iff U is a palindrome. Returns violations."""
    bad = 0
    for length in range(1, max_len + 1):
        half = (length + 1) // 2
        v = np.empty(length, np.int64)
        for code in range(1 << half):
            for j in range(half):
                v[j] = (code >> j) & 1
                v[length - 1 - j] = v[j]
            for ulen in range(1, length):
                period = length - ulen
                is_per = True
                for i in range(length - period):
                    if v[i] != v[i + period]:
                        is_per = False
                        break
                is_pal = True
                for i in range(ulen // 2):
                    if v[i] != v[ulen - 1 - i]:
                        is_pal = False
                        break
                if is_per != is_pal:
                    bad += 1
    return bad


def test_period_prefix_duality_exhaustive():
    assert _fact1_period_prefix_scan(32) == 0
