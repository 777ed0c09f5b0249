"""Exhaustive small-instance sweeps against the brute-force oracle.

Two levels. ``sweep_views`` drives the per-superblock machinery (local scan,
classification, bounded queries against a literal-comparison oracle, merge)
over every fragment position and block length of every string up to a size
bound, comparing each owned center against expansion ground truth and
counting queries; it composes the same compiled routines the pipelines run,
so the check exercises production logic at full speed. ``sweep_pipeline``
runs the whole distributed solver per string instead, which is slower but
covers placement, routing, and reduction too.
"""

import numpy as np

from ._kernels import lcp_doubled, manacher_tables, njit
from .oracle import _expand_all_centers, oracle_lps, oracle_maximal_palindromes
from .strings import _prefix_pal_lengths_from_tables
from .structural import _center_length, _center_query, _merge_b2, _periodic_resolve


@njit
def _check_all_views(sym, odd_oracle, even_oracle):
    """All (start, block_len) views of one string: (views, mismatches, max_queries)."""
    L = sym.size
    views = 0
    mism = 0
    maxq = 0
    for bl in range(1, L // 4 + 1):
        for i in range(0, L - 4 * bl + 1):
            views += 1
            frag = sym[i : i + 4 * bl]
            f_odd, f_even, _ = manacher_tables(frag)
            plens = _prefix_pal_lengths_from_tables(f_odd, f_even, 2 * bl, 4 * bl)
            m = plens.size
            queries = 0
            res_u = np.empty(m + 1, np.int64)
            res_len = np.empty(m + 1, np.int64)
            cnt = 0
            if m == 1:
                u = 2 * i + plens[0] - 1
                p1, p2 = _center_query(u, L)
                raw = lcp_doubled(sym, p1, p2)
                queries += 1
                res_u[0] = u
                res_len[0] = _center_length(u, raw, L)
                cnt = 1
            elif m >= 2:
                period = plens[m - 1] - plens[m - 2]
                raw_a = np.int64(0)
                if i > 0:
                    raw_a = lcp_doubled(sym, 2 * L - i - period, 2 * L - i)
                    queries += 1
                raw_b = lcp_doubled(sym, i, i + period)
                queries += 1
                centers, lens_, center_u, err = _periodic_resolve(plens, i, L, raw_a, raw_b)
                if err != 0:
                    mism += 1
                for t in range(m):
                    res_u[t] = centers[t]
                    res_len[t] = lens_[t]
                cnt = m
                if center_u >= 0:
                    p1, p2 = _center_query(center_u, L)
                    raw = lcp_doubled(sym, p1, p2)
                    queries += 1
                    for t in range(m):
                        if res_u[t] == center_u:
                            res_len[t] = _center_length(center_u, raw, L)
            merged, missing = _merge_b2(f_odd, f_even, i, bl, res_u[:cnt], res_len[:cnt])
            if missing >= 0:
                mism += 1
            else:
                lo_u = 2 * (i + bl)
                for j in range(merged.size):
                    u_abs = lo_u + j
                    if u_abs % 2 == 0:
                        want = odd_oracle[u_abs // 2]
                    else:
                        want = even_oracle[(u_abs - 1) // 2]
                    if merged[j] != want:
                        mism += 1
            if queries > maxq:
                maxq = queries
    return views, mism, maxq


@njit
def _sweep_length(length, sigma):
    """All sigma**length strings of one length: (strings, views, mismatches, max_queries)."""
    total_views = 0
    total_mism = 0
    max_q = 0
    count = 1
    for _ in range(length):
        count *= sigma
    sym = np.empty(length, np.int64)
    for code in range(count):
        c = code
        for j in range(length):
            sym[j] = c % sigma
            c //= sigma
        odd_o, even_o = _expand_all_centers(sym)
        v, mm, q = _check_all_views(sym, odd_o, even_o)
        total_views += v
        total_mism += mm
        if q > max_q:
            max_q = q
    return count, total_views, total_mism, max_q


def sweep_views(max_len: int, sigma: int = 2) -> dict:
    """Check the superblock machinery on every string and view up to max_len."""
    strings = views = mismatches = 0
    max_queries = 0
    for length in range(1, max_len + 1):
        c, v, mm, q = _sweep_length(length, sigma)
        strings += int(c)
        views += int(v)
        mismatches += int(mm)
        max_queries = max(max_queries, int(q))
    return {"strings": strings, "views": views, "mismatches": mismatches,
            "max_queries_per_view": max_queries}


def sweep_pipeline(max_len: int, sigma: int, solver, progress=None) -> dict:
    """Run a full solver over every string up to max_len, diffing against the oracle.

    ``solver(symbols)`` returns an object with .table, .lps_start, .lps_length.
    """
    strings = 0
    mismatches = 0
    sym = np.empty(max_len, dtype=np.int64)
    for length in range(1, max_len + 1):
        for code in range(sigma ** length):
            c = code
            for j in range(length):
                sym[j] = c % sigma
                c //= sigma
            s = sym[:length].copy()
            result = solver(s)
            want_table = oracle_maximal_palindromes(s)
            want_lps = oracle_lps(s)
            if not (result.table == want_table) or \
                    (result.lps_start, result.lps_length) != want_lps:
                mismatches += 1
            strings += 1
        if progress is not None:
            progress(length, strings)
    return {"strings": strings, "mismatches": mismatches}
