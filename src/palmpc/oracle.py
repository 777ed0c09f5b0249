"""Brute-force reference implementations used as ground truth in tests.

Deliberately shares no code with the production string routines: the
expansion loops below are written from the definitions alone, so agreement
between the two is meaningful evidence of correctness.
"""

import numpy as np

from .strings import PalindromeTable, as_symbols


def _expand_all_centers(sym):
    """Odd and even maximal palindrome lengths of a list of symbols."""
    n = len(sym)
    odd = np.empty(n, np.int64)
    even = np.empty(max(n - 1, 0), np.int64)
    for c in range(n):
        lo = c - 1
        hi = c + 1
        while lo >= 0 and hi < n and sym[lo] == sym[hi]:
            lo -= 1
            hi += 1
        odd[c] = hi - lo - 1
    for m in range(n - 1):
        lo = m
        hi = m + 1
        while lo >= 0 and hi < n and sym[lo] == sym[hi]:
            lo -= 1
            hi += 1
        even[m] = hi - lo - 1
    return odd, even


def oracle_maximal_palindromes(text) -> PalindromeTable:
    """Expand around every center; quadratic worst case, definitionally maximal."""
    sym = as_symbols(text)
    odd, even = _expand_all_centers(sym.tolist())
    return PalindromeTable(odd=odd, even=even)


def oracle_lcp(text, p1: int, p2: int) -> int:
    """Symbol-by-symbol longest common prefix of two suffixes of text . reverse(text)."""
    sym = as_symbols(text).tolist()
    return doubled_lcp(sym + sym[::-1], p1, p2)


def doubled_lcp(doubled: list, p1: int, p2: int) -> int:
    """Longest common prefix of two suffixes of ``doubled``, a prebuilt list of symbols."""
    total = len(doubled)
    if not (0 <= p1 <= total and 0 <= p2 <= total):
        raise ValueError("suffix positions out of range")
    length = 0
    while p1 + length < total and p2 + length < total:
        if doubled[p1 + length] != doubled[p2 + length]:
            break
        length += 1
    return length


def oracle_lps(text) -> tuple[int, int]:
    """Leftmost longest palindromic fragment, as (start, length)."""
    sym = as_symbols(text)
    if sym.size == 0:
        raise ValueError("longest palindromic substring of empty text is undefined")
    table = oracle_maximal_palindromes(sym)
    odd, even = table.odd.tolist(), table.even.tolist()
    best_len = 0
    best_start = 0
    for u in range(2 * sym.size - 1):
        length = even[u // 2] if u % 2 else odd[u // 2]
        start = (u - length + 1) // 2
        if length > best_len or (length == best_len and start < best_start):
            best_len = length
            best_start = start
    return best_start, best_len
