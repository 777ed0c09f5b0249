
import numpy as np
import pytest

from palmpc import mpc
from palmpc.engine import RunStats, StepContext
from palmpc.inputs import unary_text
from palmpc.mpc import MpcPalindromes, superblock_waves
from palmpc.oracle import oracle_lcp, oracle_maximal_palindromes
from palmpc.strings import _prefix_pal_lengths_from_tables, as_symbols, manacher
from palmpc.structural import (
    InconsistentMergeError,
    Query,
    _merge_b2,
    _periodic_resolve,
    case_name,
    first_wave,
    settle,
)

from exhaustive_views import sweep_views


def prefix_lens(frag, block_len):
    lengths = manacher(as_symbols(frag)).lengths_by_center()
    return _prefix_pal_lengths_from_tables(lengths, 2 * block_len, 4 * block_len)


def owned_lengths(frag, block_len):
    """Local maximal palindrome lengths of a fragment's 2b owned centers."""
    return manacher(as_symbols(frag)).lengths_by_center()[2 * block_len : 4 * block_len]


def resolve(s, start, block_len, lcp):
    """Both query waves of the superblock of s at ``start``, answered by ``lcp``."""
    plens = prefix_lens(as_symbols(s)[start : start + 4 * block_len], block_len)
    waves = superblock_waves(plens, start, len(s), RunStats())
    wave = next(waves)
    wave = waves.send([lcp(q.p1, q.p2) for q in wave])
    return waves.send([lcp(q.p1, q.p2) for q in wave])


def merge(s, start, block_len, resolved):
    """(first owned center, owned lengths) from the local lengths and the resolved centers."""
    own = owned_lengths(as_symbols(s)[start : start + 4 * block_len], block_len)
    return 2 * (start + block_len), _merge_b2(own, start, block_len, resolved)


def counting_lcp(text):
    calls = []

    def lcp(p1, p2):
        calls.append((p1, p2))
        return oracle_lcp(text, p1, p2)

    return lcp, calls


def test_classify_examples():
    assert case_name(prefix_lens("abca", 1)) == "empty"
    single = prefix_lens("abab", 1)
    assert case_name(single) == "single" and single.tolist() == [3]
    assert first_wave(single, 0, 4)[0].center_u == 2
    periodic = prefix_lens("aaaa", 1)
    assert case_name(periodic) == "periodic" and periodic.tolist() == [3, 4]
    assert first_wave(periodic, 0, 4) == [Query("right", 0, 1)]    # period 1


def test_worked_periodic_example():
    # S = "baaaab", fragment "aaaa" at position 1: the period probes give
    # left 0 and right 4, one center needs its own query and one is settled
    # by arithmetic
    lcp, calls = counting_lcp("baaaab")
    res = resolve("baaaab", 1, 1, lcp)
    assert sorted(res) == [(4, 3), (5, 6)]
    assert calls[0] == (10, 11) and calls[1] == (1, 2)
    assert (3, 9) in calls
    assert len(calls) == 3


def test_empty_issues_no_queries():
    lcp, calls = counting_lcp("abcaxx")
    assert resolve("abcaxx", 0, 1, lcp) == []
    assert calls == []


def test_single_issues_one_query():
    lcp, calls = counting_lcp("ababxx")
    res = resolve("ababxx", 0, 1, lcp)
    assert len(calls) == 1
    orc = oracle_maximal_palindromes("ababxx")
    assert res == [(2, orc.lengths_by_center()[2])]


def test_plan_queries_shapes():
    assert first_wave(np.empty(0, np.int64), 3, 10) == []
    assert first_wave(np.array([5]), 2, 10) == [Query("center", *_pair(8, 10), 8)]
    per = first_wave(np.array([5, 7]), 3, 10)
    assert [q.kind for q in per] == ["left", "right"]
    assert per[0][1:3] == (2 * 10 - 3 - 2, 2 * 10 - 3)
    assert per[1][1:3] == (3, 5)
    # fragment at the very start has nothing to its left
    assert [q.kind for q in first_wave(np.array([5, 7]), 0, 10)] == ["right"]


def _pair(u, n):
    # center u = 2c (odd palindrome) or 2c - 1 (even): suffix c against the mirror
    c = (u + 1) // 2
    return (c, 2 * n - c - 1) if u % 2 == 0 else (c, 2 * n - c)


def test_settle_checks_answers_and_resolve_errors():
    wave = [Query("center", *_pair(8, 10), 8)]
    assert settle(wave, [3], 10) == [(8, 5)]
    with pytest.raises(InconsistentMergeError):
        settle(wave, [-1], 10)
    # two prefix palindromes of one length both reach the run's two ends
    with pytest.raises(AssertionError, match="two centers"):
        _periodic_resolve(np.array([5, 5], np.int64), 1, 20, 0, 5)
    # prefix palindromes 3 and 5 at start 1 (period 2): where the two caps
    # tie (length 3 with the run 1 left and 4 right of the start), the
    # center takes its own query instead of a cap
    plens = np.array([3, 5], np.int64)
    assert _periodic_resolve(plens, 1, 20, 1, 2) == ([(6, 3)], 4)
    assert _periodic_resolve(plens, 1, 20, 0, 3) == ([(4, 3)], 6)
    # the driver turns the one center no cap settles into the second wave,
    # and that center query's answer settles it
    stats = RunStats()
    waves = superblock_waves(plens, 1, 20, stats)
    assert next(waves) == [Query("left", 37, 39), Query("right", 1, 3)]
    assert waves.send([0, 3]) == [Query("center", *_pair(6, 20), 6)]
    assert waves.send([2]) == [(4, 3), (6, 3)]
    assert stats.counters == {"classified_periodic": 1, "lcp_queries": 3,
                              "simultaneous_centers": 1}


def test_budget_never_exceeds_three():
    rng = np.random.default_rng(8)
    for _ in range(300):
        bl = int(rng.integers(1, 5))
        n = int(rng.integers(4 * bl, 40))
        i = int(rng.integers(0, n - 4 * bl + 1))
        s = rng.integers(0, 2, n)
        lcp, calls = counting_lcp(s)
        resolve(s, i, bl, lcp)
        case = case_name(prefix_lens(s[i : i + 4 * bl], bl))
        assert len(calls) <= 3
        if case == "empty":
            assert len(calls) == 0
        elif case == "single":
            assert len(calls) == 1


def test_merge_worked_example():
    lcp, _ = counting_lcp("baaaab")
    u_lo, lengths = merge("baaaab", 1, 1, resolve("baaaab", 1, 1, lcp))
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
        if case_name(prefix_lens(s[i : i + 4 * bl], bl)) != "empty":
            continue
        hits += 1
        local = manacher(s[i : i + 4 * bl]).lengths_by_center()
        u_lo, lengths = merge(s, i, bl, [])
        for j, u in enumerate(range(u_lo, u_lo + lengths.size)):
            assert lengths[j] == local[u - 2 * i]
    assert hits > 20


def test_merge_missing_entry_raises():
    # "aaaa" at position 1: owned center 4 reaches the fragment start, and
    # with nothing resolved the merge names it and raises
    with pytest.raises(InconsistentMergeError, match=r"center u=4 "):
        _merge_b2(owned_lengths("aaaa", 1), 1, 1, [])
    # a pipeline's middle machine raises before it replaces its local
    # lengths: machine 1 of a unary text owns block 1 of the 8-letter blocks,
    # whose first center u=16 reaches its superblock's start
    run = MpcPalindromes(unary_text(64).symbols, 0.5)
    run.cluster.run_round(run._r1_local)
    ctx = StepContext(run.cluster, 1, {})
    local = ctx.payload["own_lengths"]
    with pytest.raises(InconsistentMergeError, match=r"center u=16 "):
        run._keep_merged(ctx, [])
    assert ctx.payload["own_lengths"] is local


def test_merge_result_does_not_share_memory_with_lengths():
    # the pipelines keep the local lengths as payload state ("own_lengths")
    # until the merge replaces them, so the result must be a copy whether or
    # not a center touches
    untouched = owned_lengths("abcd", 1)
    out = _merge_b2(untouched, 0, 1, [])
    assert out.tolist() == untouched.tolist()
    assert not np.shares_memory(out, untouched)
    touched = owned_lengths("aaaa", 1)
    out = _merge_b2(touched, 1, 1, [(4, 7), (5, 8)])     # both owned centers touch
    assert out.tolist() == [7, 8]
    assert not np.shares_memory(out, touched)


def _merge_b2_linear_scan(own, start, block_len, resolved_u, resolved_len):
    # reference: each prefix-touching center scans the resolved list for its first entry
    lo = 2 * (start + block_len)
    hi = 2 * (start + 2 * block_len)
    out = np.empty(hi - lo, np.int64)
    missing_u = -1
    for u_abs in range(lo, hi):
        u_loc = u_abs - 2 * start
        lam = own[u_abs - lo]
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
        own = owned_lengths(rng.integers(0, 2, 4 * bl), bl)
        lo, hi = 2 * (start + bl), 2 * (start + 2 * bl)
        touching = [u for u in range(lo, hi) if (u - 2 * start - own[u - lo] + 1) // 2 <= 0]
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
        want_out, want_missing = _merge_b2_linear_scan(own, start, bl, res_u, res_len)
        resolved = list(zip(res_u.tolist(), res_len.tolist()))
        if want_missing >= 0:
            with pytest.raises(InconsistentMergeError, match=rf"center u={want_missing} "):
                _merge_b2(own, start, bl, resolved)
            continue
        got_out = _merge_b2(own, start, bl, resolved)
        assert got_out.tolist() == want_out.tolist()
    assert min(shapes.values()) >= 10, shapes


def test_right_touch_implies_left_touch():
    # an owned center whose in-fragment palindrome reaches the right edge of
    # the fragment always reaches position 0 too; merge relies on this
    rng = np.random.default_rng(10)
    for _ in range(400):
        bl = int(rng.integers(1, 5))
        frag = rng.integers(0, 2, 4 * bl)
        local = manacher(frag).lengths_by_center()
        for u in range(2 * bl, 4 * bl):
            lam = int(local[u])
            if (u + lam - 1) // 2 == 4 * bl - 1:
                assert (u - lam + 1) // 2 == 0


def test_exhaustive_small_binary_against_oracle():
    # every binary string up to length 12, every valid view
    for n in range(4, 13):
        for code in range(1 << n):
            s = np.array([(code >> j) & 1 for j in range(n)], dtype=np.int64)
            orc = oracle_maximal_palindromes(s).lengths_by_center()
            lcp = lambda a, b: oracle_lcp(s, a, b)
            for bl in range(1, n // 4 + 1):
                for i in range(0, n - 4 * bl + 1):
                    u_lo, lengths = merge(s, i, bl, resolve(s, i, bl, lcp))
                    for j, u in enumerate(range(u_lo, u_lo + lengths.size)):
                        assert lengths[j] == orc[u], (s.tolist(), i, bl, u)


def test_sweep_runs_the_shared_resolver(monkeypatch):
    # the exhaustive sweep must fail when the driver the pipelines run is wrong
    real_settle = mpc.settle

    def off_by_one(*args):
        return [(u, length + 1) for u, length in real_settle(*args)]

    def drop_one(*args):
        return real_settle(*args)[1:]

    assert sweep_views(8, 2)["mismatches"] == 0
    monkeypatch.setattr(mpc, "settle", off_by_one)
    assert sweep_views(8, 2)["mismatches"] > 0
    monkeypatch.setattr(mpc, "settle", drop_one)
    with pytest.raises(InconsistentMergeError, match="reaches its fragment start unresolved"):
        sweep_views(8, 2)


def test_sweep_runs_the_shared_local_scan(monkeypatch):
    # the exhaustive sweep must fail when the local phase the pipelines run
    # is wrong: here it drops each superblock's longest prefix palindrome
    real_prefix_pals = mpc._prefix_pal_lengths_from_tables

    def drop_longest(*args):
        return real_prefix_pals(*args)[:-1]

    monkeypatch.setattr(mpc, "_prefix_pal_lengths_from_tables", drop_longest)
    with pytest.raises(InconsistentMergeError, match="reaches its fragment start unresolved"):
        sweep_views(8, 2)


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
        plens = prefix_lens(frag, bl)
        if case_name(plens) != "periodic":
            continue
        hits += 1
        period = int(plens[-1] - plens[-2])
        for length in plens.tolist():
            assert _has_period(frag[:length], period)
    assert hits > 20
