"""Exhaustive sweep of the per-superblock machinery against the brute-force oracle.

``sweep_views`` runs, over every fragment position and block length of every
string up to a size bound, the local phase the pipelines run
(``mpc.superblock_scan``), the ``mpc.superblock_waves`` driver with its
queries answered by literal comparison (``doubled_lcp``), and ``_merge_b2``.
It compares each owned center against the oracle's table and counts queries;
a violation the driver's steps detect raises here too.
"""

import operator

import numpy as np

from palmpc.engine import RunStats
from palmpc.exhaustive import _all_strings
from palmpc.mpc import superblock_scan, superblock_waves
from palmpc.oracle import doubled_lcp, oracle_maximal_palindromes
from palmpc.structural import _merge_b2


def _check_all_views(sym: np.ndarray, want: list) -> tuple[int, int, int]:
    """All (start, block_len) views of one string: (views, mismatches, max_queries).

    Each view runs ``superblock_scan`` and drives ``superblock_waves`` as
    ``AmpcPalindromes`` does, with every LCP query answered by literal
    comparison. ``want`` holds the string's maximal palindrome lengths by
    center half-index.
    """
    n = sym.size
    doubled = sym.tolist() + sym[::-1].tolist()
    views = mismatches = max_queries = 0
    for bl in range(1, n // 4 + 1):
        for i in range(n - 4 * bl + 1):
            views += 1
            own, plens, _ = superblock_scan(sym[i : i + 4 * bl], bl)
            stats = RunStats()
            waves = superblock_waves(plens, i, n, stats)
            wave = next(waves)
            wave = waves.send([doubled_lcp(doubled, q.p1, q.p2) for q in wave])
            settled = waves.send([doubled_lcp(doubled, q.p1, q.p2) for q in wave])
            max_queries = max(max_queries, stats.counters.get("lcp_queries", 0))
            merged = _merge_b2(own, i, bl, settled)
            lo = 2 * (i + bl)
            mismatches += sum(map(operator.ne, merged.tolist(), want[lo : lo + 2 * bl]))
    return views, mismatches, max_queries


def sweep_views(max_len: int, sigma: int = 2) -> dict:
    """Check the superblock machinery on every string and view up to max_len."""
    strings = views = mismatches = max_queries = 0
    for sym in _all_strings(max_len, sigma):
        want = oracle_maximal_palindromes(sym).lengths_by_center().tolist()
        v, mm, q = _check_all_views(sym, want)
        strings += 1
        views += v
        mismatches += mm
        max_queries = max(max_queries, q)
    return {"strings": strings, "views": views, "mismatches": mismatches,
            "max_queries_per_view": max_queries}
