"""Exhaustive small-instance sweeps against the brute-force oracle.

Two levels. ``sweep_views`` drives the per-superblock machinery (local scan,
classification, bounded queries answered by literal comparison, merge) over
every fragment position and block length of every string up to a size
bound, comparing each owned center against the oracle's table and counting
queries; it calls the same kernels and resolution steps the pipelines run.
``sweep_pipeline`` runs the whole distributed solver per string instead,
which is slower but covers placement, routing, and reduction too.
"""

import itertools

import numpy as np

from ._kernels import lcp_doubled, manacher_tables
from .oracle import oracle_lps, oracle_maximal_palindromes
from .strings import _prefix_pal_lengths_from_tables
from .structural import _center_length, _center_query, _merge_b2, _periodic_resolve


def _all_strings(max_len: int, sigma: int):
    """Every string over [0, sigma) of length 1 to max_len, as int64 arrays."""
    for length in range(1, max_len + 1):
        for letters in itertools.product(range(sigma), repeat=length):
            yield np.array(letters, np.int64)


def _check_all_views(sym: np.ndarray, want: np.ndarray) -> tuple[int, int, int]:
    """All (start, block_len) views of one string: (views, mismatches, max_queries).

    ``want`` holds the string's maximal palindrome lengths by center half-index.
    """
    n = sym.size
    views = mismatches = max_queries = 0
    for bl in range(1, n // 4 + 1):
        for i in range(n - 4 * bl + 1):
            views += 1
            f_odd, f_even, _ = manacher_tables(sym[i : i + 4 * bl])
            plens = _prefix_pal_lengths_from_tables(f_odd, f_even, 2 * bl, 4 * bl)
            centers = lengths = np.empty(0, np.int64)
            queries = 0
            if plens.size == 1:
                u = 2 * i + int(plens[0]) - 1
                centers = np.array([u])
                lengths = np.array([_center_length(u, lcp_doubled(sym, *_center_query(u, n)), n)])
                queries = 1
            elif plens.size > 1:
                period = int(plens[-1] - plens[-2])
                left = 0
                if i > 0:
                    left = lcp_doubled(sym, 2 * n - i - period, 2 * n - i)
                    queries += 1
                right = lcp_doubled(sym, i, i + period)
                queries += 1
                centers, lengths, center_u, err = _periodic_resolve(plens, i, n, left, right)
                mismatches += int(err != 0)
                if center_u >= 0:
                    raw = lcp_doubled(sym, *_center_query(center_u, n))
                    lengths[centers == center_u] = _center_length(center_u, raw, n)
                    queries += 1
            max_queries = max(max_queries, queries)
            merged, missing = _merge_b2(f_odd, f_even, i, bl, centers, lengths)
            if missing >= 0:
                mismatches += 1
            else:
                lo = 2 * (i + bl)
                mismatches += int(np.count_nonzero(merged != want[lo : lo + 2 * bl]))
    return views, mismatches, max_queries


def sweep_views(max_len: int, sigma: int = 2) -> dict:
    """Check the superblock machinery on every string and view up to max_len."""
    strings = views = mismatches = max_queries = 0
    for sym in _all_strings(max_len, sigma):
        v, mm, q = _check_all_views(sym, oracle_maximal_palindromes(sym).lengths_by_center())
        strings += 1
        views += v
        mismatches += mm
        max_queries = max(max_queries, q)
    return {"strings": strings, "views": views, "mismatches": mismatches,
            "max_queries_per_view": max_queries}


def sweep_pipeline(max_len: int, sigma: int, solver) -> dict:
    """Run a full solver over every string up to max_len, diffing against the oracle.

    ``solver(symbols)`` returns an object with .table, .lps_start, .lps_length.
    """
    strings = mismatches = 0
    for sym in _all_strings(max_len, sigma):
        result = solver(sym)
        if not (result.table == oracle_maximal_palindromes(sym)) or \
                (result.lps_start, result.lps_length) != oracle_lps(sym):
            mismatches += 1
        strings += 1
    return {"strings": strings, "mismatches": mismatches}
