import numpy as np
import pytest

from palmpc.oracle import oracle_lcp, oracle_maximal_palindromes
from palmpc.strings import DoubledView, as_symbols, manacher
from palmpc.structural import (
    CenterResult,
    EmptyCase,
    InconsistentMergeError,
    PeriodicCase,
    SingleCase,
    SuperblockView,
    _merge_b2,
    classify,
    merge_with_local,
    plan_queries,
    resolve_prefix_touching,
)


def view(text, start=0, block_len=1):
    return SuperblockView(start=start, block_len=block_len, letters=as_symbols(text))


def counting_lcp(text):
    d = DoubledView(text)
    calls = []

    def lcp(p1, p2):
        calls.append((p1, p2))
        return oracle_lcp(d, p1, p2)

    return lcp, calls


def test_classify_examples():
    assert classify(view("abca")) == EmptyCase()
    single = classify(view("abab"))
    assert isinstance(single, SingleCase)
    assert single.center_u == 2 and single.prefix_length == 3
    periodic = classify(view("aaaa"))
    assert isinstance(periodic, PeriodicCase)
    assert periodic.period == 1 and periodic.prefix_lengths == (3, 4)


def test_superblock_view_validates():
    with pytest.raises(ValueError):
        SuperblockView(start=0, block_len=1, letters=as_symbols("abc"))
    with pytest.raises(ValueError):
        SuperblockView(start=-1, block_len=1, letters=as_symbols("abcd"))


def test_worked_periodic_example():
    # S = "baaaab", fragment "aaaa" at position 1: the period probes give
    # left 0 and right 4, one center needs its own query and one is settled
    # by arithmetic
    lcp, calls = counting_lcp("baaaab")
    res = resolve_prefix_touching(view("aaaa", start=1), 6, lcp)
    assert sorted(res) == [CenterResult(4, 3), CenterResult(5, 6)]
    assert calls[0] == (10, 11) and calls[1] == (1, 2)
    assert (3, 9) in calls
    assert len(calls) == 3


def test_empty_issues_no_queries():
    lcp, calls = counting_lcp("abcaxx")
    assert resolve_prefix_touching(view("abca"), 6, lcp) == []
    assert calls == []


def test_single_issues_one_query():
    lcp, calls = counting_lcp("ababxx")
    res = resolve_prefix_touching(view("abab"), 6, lcp)
    assert len(calls) == 1
    orc = oracle_maximal_palindromes("ababxx")
    assert res == [CenterResult(2, orc.length_at(2))]


def test_plan_queries_shapes():
    assert plan_queries(EmptyCase(), 3, 10) == []
    single = plan_queries(SingleCase(center_u=8, prefix_length=5), 2, 10)
    assert len(single) == 1 and single[0][0] == "center"
    per = plan_queries(PeriodicCase(period=2, prefix_lengths=(5, 7)), 3, 10)
    assert [kind for kind, _, _ in per] == ["left", "right"]
    assert per[0][1:] == (2 * 10 - 3 - 2, 2 * 10 - 3)
    assert per[1][1:] == (3, 5)
    # fragment at the very start has nothing to its left
    assert [kind for kind, _, _ in plan_queries(
        PeriodicCase(period=2, prefix_lengths=(5, 7)), 0, 10)] == ["right"]


def test_budget_never_exceeds_three():
    rng = np.random.default_rng(8)
    for _ in range(300):
        bl = int(rng.integers(1, 5))
        n = int(rng.integers(4 * bl, 40))
        i = int(rng.integers(0, n - 4 * bl + 1))
        s = rng.integers(0, 2, n)
        lcp, calls = counting_lcp(s)
        resolve_prefix_touching(SuperblockView(i, bl, s[i : i + 4 * bl]), n, lcp)
        case = classify(SuperblockView(i, bl, s[i : i + 4 * bl]))
        assert len(calls) <= 3
        if isinstance(case, EmptyCase):
            assert len(calls) == 0
        elif isinstance(case, SingleCase):
            assert len(calls) == 1


def test_merge_worked_example():
    s = as_symbols("baaaab")
    v = view("aaaa", start=1)
    lcp, _ = counting_lcp(s)
    res = resolve_prefix_touching(v, 6, lcp)
    u_lo, lengths = merge_with_local(v, manacher(v.letters), res)
    assert u_lo == 4 and lengths.tolist() == [3, 6]


def test_merge_uses_local_when_not_prefix():
    # no prefix palindromes in range: merged output equals the local scan
    rng = np.random.default_rng(9)
    hits = 0
    for _ in range(200):
        bl = int(rng.integers(1, 4))
        n = int(rng.integers(4 * bl, 30))
        i = int(rng.integers(0, n - 4 * bl + 1))
        s = rng.integers(0, 3, n)
        v = SuperblockView(i, bl, s[i : i + 4 * bl])
        if not isinstance(classify(v), EmptyCase):
            continue
        hits += 1
        local = manacher(v.letters)
        u_lo, lengths = merge_with_local(v, local, [])
        for j, u in enumerate(range(u_lo, u_lo + lengths.size)):
            assert lengths[j] == local.length_at(u - 2 * i)
    assert hits > 20


def test_merge_missing_entry_raises():
    v = view("aaaa", start=1)
    with pytest.raises(InconsistentMergeError):
        merge_with_local(v, manacher(v.letters), [])


def _merge_b2_linear_scan(odd_f, even_f, start, block_len, resolved_u, resolved_len):
    # reference: each prefix-touching center scans the resolved list for its first entry
    lo = 2 * (start + block_len)
    hi = 2 * (start + 2 * block_len)
    out = np.empty(hi - lo, np.int64)
    missing_u = -1
    for u_abs in range(lo, hi):
        u_loc = u_abs - 2 * start
        lam = odd_f[u_loc // 2] if u_loc % 2 == 0 else even_f[(u_loc - 1) // 2]
        if (u_loc - lam + 1) // 2 > 0:
            out[u_abs - lo] = lam
            continue
        found = -1
        for t in range(resolved_u.size):
            if resolved_u[t] == u_abs:
                found = resolved_len[t]
                break
        if found < 0 and missing_u < 0:
            missing_u = u_abs
        out[u_abs - lo] = found
    return out, missing_u


def test_merge_lookup_equals_linear_scan():
    rng = np.random.default_rng(12)
    shapes = {"duplicate": 0, "outside": 0, "missing": 0}
    for _ in range(300):
        bl = int(rng.integers(1, 7))
        start = int(rng.integers(0, 20))
        local = manacher(rng.integers(0, 2, 4 * bl))
        lo, hi = 2 * (start + bl), 2 * (start + 2 * bl)
        touching = [u for u in range(lo, hi)
                    if (u - 2 * start - local.length_at(u - 2 * start) + 1) // 2 <= 0]
        res_u, res_len = [], []
        for u in touching:
            if rng.random() < 0.3:
                shapes["missing"] += 1
                continue
            copies = int(rng.integers(1, 4))
            shapes["duplicate"] += copies > 1
            res_u += [u] * copies
            res_len += rng.integers(0, 50, copies).tolist()
        for _ in range(int(rng.integers(0, 4))):
            shapes["outside"] += 1
            res_u.append(int(rng.choice([rng.integers(0, lo + 1) - 1, rng.integers(hi, hi + 9)])))
            res_len.append(int(rng.integers(0, 50)))
        order = rng.permutation(len(res_u))
        res_u = np.asarray(res_u, np.int64)[order]
        res_len = np.asarray(res_len, np.int64)[order]
        args = (local.odd, local.even, start, bl, res_u, res_len)
        want_out, want_missing = _merge_b2_linear_scan(*args)
        got_out, got_missing = _merge_b2(*args)
        assert got_out.tolist() == want_out.tolist()
        assert int(got_missing) == want_missing
    assert min(shapes.values()) >= 10, shapes


def test_right_touch_implies_left_touch():
    # an owned center whose in-fragment palindrome reaches the right edge of
    # the fragment always reaches position 0 too; merge relies on this
    rng = np.random.default_rng(10)
    for _ in range(400):
        bl = int(rng.integers(1, 5))
        frag = rng.integers(0, 2, 4 * bl)
        local = manacher(frag)
        for u in range(2 * bl, 4 * bl):
            lam = local.length_at(u)
            if (u + lam - 1) // 2 == 4 * bl - 1:
                assert (u - lam + 1) // 2 == 0


def test_exhaustive_small_binary_against_oracle():
    # every binary string up to length 12, every valid view
    for n in range(4, 13):
        for code in range(1 << n):
            s = np.array([(code >> j) & 1 for j in range(n)], dtype=np.int64)
            orc = oracle_maximal_palindromes(s)
            d = DoubledView(s)
            lcp = lambda a, b: oracle_lcp(d, a, b)
            for bl in range(1, n // 4 + 1):
                for i in range(0, n - 4 * bl + 1):
                    v = SuperblockView(i, bl, s[i : i + 4 * bl])
                    res = resolve_prefix_touching(v, n, lcp)
                    u_lo, lengths = merge_with_local(v, manacher(v.letters), res)
                    for j, u in enumerate(range(u_lo, u_lo + lengths.size)):
                        assert lengths[j] == orc.length_at(u), (s.tolist(), i, bl, u)


def _binary_palindromes(max_len):
    for length in range(1, max_len + 1):
        half = (length + 1) // 2
        for code in range(1 << half):
            v = np.empty(length, dtype=np.int64)
            for j in range(half):
                v[j] = (code >> j) & 1
                v[length - 1 - j] = v[j]
            yield v


def _has_period(s, p):
    return all(s[i] == s[i + p] for i in range(len(s) - p))


def test_periodic_extension_preserves_palindromes():
    # palindrome P with period p: if cPc' keeps period p it is a palindrome
    for pal in _binary_palindromes(14):
        for p in range(1, len(pal) + 1):
            if not _has_period(pal, p):
                continue
            for c in (0, 1):
                for c2 in (0, 1):
                    ext = np.concatenate(([c], pal, [c2]))
                    if _has_period(ext, p):
                        assert np.array_equal(ext, ext[::-1])


def test_periodicity_break_breaks_palindrome():
    # palindrome P with period p: if cP keeps p but Pc' does not, cPc' is not
    # a palindrome
    for pal in _binary_palindromes(14):
        for p in range(1, len(pal) + 1):
            if not _has_period(pal, p):
                continue
            for c in (0, 1):
                if not _has_period(np.concatenate(([c], pal)), p):
                    continue
                for c2 in (0, 1):
                    if _has_period(np.concatenate((pal, [c2])), p):
                        continue
                    ext = np.concatenate(([c], pal, [c2]))
                    assert not np.array_equal(ext, ext[::-1])


def test_periodic_prefixes_share_the_period():
    # whenever classification is periodic, every recorded prefix palindrome
    # carries the period, checked literally
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(500):
        bl = int(rng.integers(1, 5))
        frag = rng.integers(0, 2, 4 * bl)
        case = classify(SuperblockView(0, bl, frag))
        if not isinstance(case, PeriodicCase):
            continue
        hits += 1
        for length in case.prefix_lengths:
            assert _has_period(frag[:length], case.period)
    assert hits > 20
