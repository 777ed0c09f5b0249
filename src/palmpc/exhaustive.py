"""Exhaustive small-instance sweep of a whole solver against the brute-force oracle.

``sweep_pipeline`` runs the distributed solver on every string up to a size
bound, covering placement, routing, the superblock machinery and reduction,
and counts the strings whose table or longest palindrome differs from the
oracle's.
"""

import itertools

import numpy as np

from .oracle import oracle_lps, oracle_maximal_palindromes


def _all_strings(max_len: int, sigma: int):
    """Every string over [0, sigma) of length 1 to max_len, as int64 arrays."""
    for length in range(1, max_len + 1):
        for letters in itertools.product(range(sigma), repeat=length):
            yield np.array(letters, np.int64)


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
