import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from palmpc.mpc import _materialize_doubled
from palmpc.oracle import oracle_lcp, oracle_maximal_palindromes
from palmpc.strings import (
    Text,
    _prefix_pal_lengths_from_tables,
    as_symbols,
    leftmost_longest,
    lps_index,
    manacher,
)
from palmpc.structural import InconsistentMergeError, Query, _center, settle


def _via_lcp(u, n, text):
    """Maximal palindrome length at center u from one oracle LCP query, as the pipelines ask it."""
    q = _center(u, n)
    [(center_u, length)] = settle([q], [oracle_lcp(text, q.p1, q.p2)], n)
    assert center_u == u
    return length


def _prefix_pals(fragment, block_len):
    """Palindromic prefix lengths of a 4-block fragment centered in its second block."""
    lengths = manacher(fragment).lengths_by_center()
    return _prefix_pal_lengths_from_tables(lengths, 2 * block_len, 4 * block_len).tolist()


def test_manacher_examples():
    t = manacher("aba")
    assert t.odd.tolist() == [1, 3, 1] and t.even.tolist() == [0, 0]
    t = manacher("abaab")
    assert t.odd.tolist() == [1, 3, 1, 1, 1] and t.even.tolist() == [0, 0, 4, 0]


def test_manacher_empty():
    t = manacher("")
    assert t.odd.tolist() == [] and t.even.tolist() == []


def test_text_validates_alphabet():
    Text(np.array([0, 1, 2]), sigma=3)
    with pytest.raises(ValueError):
        Text(np.array([0, 3]), sigma=3)
    with pytest.raises(ValueError):
        Text(np.array([-1]), sigma=3)


# the doubled text (text followed by its reverse) as the pipelines read it,
# through mpc._materialize_doubled over a placed slice holding the whole text

def test_doubled_view_reads():
    s = as_symbols("abaab")
    assert "".join(map(chr, _materialize_doubled(s, 0, 5, 0, 10))) == "abaabbaaba"
    with pytest.raises(InconsistentMergeError, match=r"\[0, 11\) escapes"):
        _materialize_doubled(s, 0, 5, 0, 11)


def test_doubled_view_mirror_identity():
    # positions k and 2n - 1 - k read the same symbol
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        whole = _materialize_doubled(rng.integers(0, 3, n), 0, n, 0, 2 * n)
        assert np.array_equal(whole, whole[::-1])


def test_doubled_view_materialize_matches_reads():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        s = rng.integers(0, 3, n)
        lo = int(rng.integers(0, 2 * n))
        hi = int(rng.integers(lo, 2 * n + 1))
        assert _materialize_doubled(s, 0, n, lo, hi).tolist() == \
            np.concatenate((s, s[::-1]))[lo:hi].tolist()


def test_via_lcp_examples():
    assert _center(5, 5) == Query("center", 3, 7, 5)
    assert oracle_lcp("abaab", 3, 7) == 2
    assert _via_lcp(5, 5, "abaab") == 4
    assert _center(2, 5) == Query("center", 1, 8, 2)
    assert oracle_lcp("abaab", 1, 8) == 2
    assert _via_lcp(2, 5, "abaab") == 3
    assert _via_lcp(0, 1, "a") == 1


def test_via_lcp_clamps_at_right_edge():
    # without the cap the mirrored half continues the match: "aa" center 1
    assert _via_lcp(2, 2, "aa") == 1


def test_via_lcp_equals_manacher():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        s = rng.integers(0, int(rng.choice([2, 3])), n)
        lengths = manacher(s).lengths_by_center()
        for u in range(2 * n - 1):
            assert _via_lcp(u, n, s) == lengths[u]


def test_prefix_palindromes_examples():
    assert _prefix_pals("aaaa", 1) == [3, 4]
    assert _prefix_pals("abca", 1) == []
    assert _prefix_pals("abab", 1) == [3]


def test_prefix_palindromes_definition():
    rng = np.random.default_rng(4)
    for _ in range(200):
        bl = int(rng.integers(1, 6))
        frag = rng.integers(0, 2, 4 * bl)
        got = _prefix_pals(frag, bl)
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
        lengths = manacher(s).lengths_by_center()
        for u in range(2 * n - 1):
            lam = int(lengths[u])
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


def test_lps_rule_takes_the_leftmost_of_equal_lengths():
    assert lps_index([3, 5, 5, 2], [0, 9, 4, 1]) == 2
    assert lps_index(np.array([5, 5, 5]), np.array([7, 2, 2])) == 1
    # "abacdc": "aba" (u=2) and "cdc" (u=8) tie at length 3
    table = manacher("abacdc")
    assert leftmost_longest(table.lengths_by_center(), 0) == (0, 3)
    assert leftmost_longest(table.lengths_by_center()[3:], 3) == (3, 3)


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
