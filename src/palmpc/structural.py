"""Per-superblock palindrome structure and the bounded-query resolution step.

A superblock is a fragment F = S[i .. i+4b-1] split into four blocks of
length b. The centers owned by the superblock live in its second block.
Every maximal palindrome owned there either stays strictly inside F (its
length is known from a local scan) or is a palindromic *prefix* of F, in
which case it may extend beyond F and its true length needs longest-common-
prefix queries on the doubled string.

The prefix palindromes of a superblock are either absent, unique, or all
share one period p (the difference of the two longest). That trichotomy is
what keeps the query count per superblock at three or fewer:

* no prefix palindrome  -> nothing to resolve;
* exactly one           -> one center query;
* two or more           -> one query for how far the period extends left of
  F, one for how far it extends right, and at most one center query for the
  single center whose palindrome hits both ends of the periodic run
  simultaneously. Every other center is settled by arithmetic: the side
  where periodicity breaks first caps the palindrome.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ._kernels import njit
from .strings import as_symbols, manacher, PalindromeTable, _prefix_pal_lengths_from_tables


class InconsistentMergeError(RuntimeError):
    """A center whose local palindrome is a fragment prefix has no resolved entry."""


class CenterResult(NamedTuple):
    center_u: int   # absolute center half-index in S
    length: int     # maximal palindrome length in S


@dataclass(frozen=True)
class SuperblockView:
    start: int            # position i of the fragment in S
    block_len: int        # b
    letters: np.ndarray   # the 4b symbols of S[i .. i+4b-1]

    def __post_init__(self):
        sym = as_symbols(self.letters)
        object.__setattr__(self, "letters", sym)
        if self.block_len < 1:
            raise ValueError("block length must be >= 1")
        if sym.size != 4 * self.block_len:
            raise ValueError("superblock must contain exactly 4 blocks")
        if self.start < 0:
            raise ValueError("superblock start must be >= 0")


@dataclass(frozen=True)
class EmptyCase:
    pass


@dataclass(frozen=True)
class SingleCase:
    center_u: int        # absolute half-index of the lone prefix palindrome
    prefix_length: int


@dataclass(frozen=True)
class PeriodicCase:
    period: int
    prefix_lengths: tuple[int, ...]   # ascending
    left_ext: int | None = None       # symbols the period extends left of F
    right_ext: int | None = None      # length of the periodic run right of position i


StructuralCase = EmptyCase | SingleCase | PeriodicCase


def classify(view: SuperblockView) -> StructuralCase:
    """Trichotomy of the superblock by its in-range prefix palindromes.

    Local work only, no queries: one linear palindrome scan of the fragment.
    """
    table = manacher(view.letters)
    lengths = _prefix_pal_lengths_from_tables(
        table.odd, table.even, 2 * view.block_len, 4 * view.block_len
    )
    if lengths.size == 0:
        return EmptyCase()
    if lengths.size == 1:
        length = int(lengths[0])
        return SingleCase(center_u=2 * view.start + length - 1, prefix_length=length)
    period = int(lengths[-1] - lengths[-2])
    return PeriodicCase(period=period, prefix_lengths=tuple(int(v) for v in lengths))


@njit
def _center_query(u, n):
    """Doubled-string suffix pair whose LCP yields the maximal length at center u."""
    if u % 2 == 0:
        c = u // 2
        return c, 2 * n - c - 1
    c = (u + 1) // 2
    return c, 2 * n - c


@njit
def _center_length(u, lcp_value, n):
    """Palindrome length at center u from its raw center-query LCP value.

    The doubled text has no separator at the text boundary, so a palindrome
    touching the right edge can keep matching into the mirrored half; the
    right arm is capped at the room it actually has.
    """
    if u % 2 == 0:
        c = u // 2
        capped = min(lcp_value, n - c)
        return 2 * capped - 1
    c = (u + 1) // 2
    capped = min(lcp_value, n - c)
    return 2 * capped


@njit
def _periodic_resolve(prefix_lengths, start, left_ext, right_ext):
    """Settle every prefix palindrome from the periodic-run extents.

    Returns (centers, lengths, center_query_u, err). A length of -1 marks the
    center that needs its own query (both run boundaries reached at once);
    there can be at most one such center, and a tie between the two
    arithmetic caps cannot occur elsewhere -- err flags either violation.
    """
    m = prefix_lengths.size
    centers = np.empty(m, np.int64)
    lengths = np.empty(m, np.int64)
    center_query_u = np.int64(-1)
    err = 0
    for idx in range(m):
        length = prefix_lengths[idx]
        u = 2 * start + length - 1
        centers[idx] = u
        if length == right_ext - left_ext:
            if center_query_u >= 0:
                err = 1
            center_query_u = u
            lengths[idx] = -1
        else:
            capped_left = length + 2 * left_ext
            capped_right = 2 * right_ext - length
            if capped_left == capped_right:
                err = 2
            lengths[idx] = min(capped_left, capped_right)
    return centers, lengths, center_query_u, err


def plan_queries(case: StructuralCase, start: int, n: int) -> list[tuple[str, int, int]]:
    """First wave of LCP queries for a superblock: (purpose, p1, p2) triples.

    Periodic superblocks probe the periodic run in both directions; the left
    probe is skipped when the fragment starts at position 0 (nothing lies to
    the left). A single prefix palindrome needs only its center query.
    """
    if isinstance(case, EmptyCase):
        return []
    if isinstance(case, SingleCase):
        p1, p2 = _center_query(case.center_u, n)
        return [("center", int(p1), int(p2))]
    queries = []
    if start > 0:
        queries.append(("left", 2 * n - start - case.period, 2 * n - start))
    queries.append(("right", start, start + case.period))
    return queries


def resolve_prefix_touching(view: SuperblockView, n: int, lcp) -> list[CenterResult]:
    """True in-S lengths for every owned center whose palindrome is a prefix of F.

    ``lcp(p1, p2)`` answers longest-common-prefix queries on the doubled
    string of length 2n. At most 3 queries are issued per call.
    """
    case = classify(view)
    if isinstance(case, EmptyCase):
        return []
    if isinstance(case, SingleCase):
        p1, p2 = _center_query(case.center_u, n)
        return [CenterResult(case.center_u,
                             int(_center_length(case.center_u, int(lcp(p1, p2)), n)))]

    i = view.start
    p = case.period
    left_ext = int(lcp(2 * n - i - p, 2 * n - i)) if i > 0 else 0
    # the right probe runs on the doubled string and can sail past the text's
    # end when the tail is fully periodic; the periodic run lives in the text
    right_ext = min(p + int(lcp(i, i + p)), n - i)
    case = replace(case, left_ext=left_ext, right_ext=right_ext)

    lens = np.asarray(case.prefix_lengths, dtype=np.int64)
    centers, lengths, center_query_u, err = _periodic_resolve(lens, i, left_ext, right_ext)
    _check_resolve_err(err)
    out = []
    for u, length in zip(centers.tolist(), lengths.tolist()):
        if length < 0:
            p1, p2 = _center_query(u, n)
            length = int(_center_length(u, int(lcp(p1, p2)), n))
        out.append(CenterResult(int(u), int(length)))
    return out


def _check_resolve_err(err: int) -> None:
    if err == 1:
        raise AssertionError("two centers claim both periodic-run boundaries at once")
    if err == 2:
        raise AssertionError("arithmetic tie between the two periodicity caps")


@njit
def _merge_b2(odd_f, even_f, start, block_len, resolved_u, resolved_len):
    """Final lengths for the owned centers of one superblock.

    Owned centers are the half-indices u in [2(start+b), 2(start+2b)). A
    center whose local maximal palindrome does not reach the fragment's left
    edge is already globally maximal (a palindrome of an owned center that
    touches the fragment's right edge necessarily touches the left one too);
    the rest take their resolved lengths. Returns (lengths, missing_u) with
    missing_u >= 0 flagging a prefix-touching center with no resolved entry.
    """
    lo = 2 * (start + block_len)
    hi = 2 * (start + 2 * block_len)
    # resolved length per owned center; filled backwards so the first entry wins
    known = np.full(hi - lo, -1, np.int64)
    for t in range(resolved_u.size - 1, -1, -1):
        if lo <= resolved_u[t] < hi:
            known[resolved_u[t] - lo] = resolved_len[t]
    out = np.empty(hi - lo, np.int64)
    missing_u = np.int64(-1)
    for u_abs in range(lo, hi):
        u_loc = u_abs - 2 * start
        if u_loc % 2 == 0:
            lam = odd_f[u_loc // 2]
        else:
            lam = even_f[(u_loc - 1) // 2]
        if (u_loc - lam + 1) // 2 > 0:
            out[u_abs - lo] = lam
        else:
            found = known[u_abs - lo]
            if found < 0 and missing_u < 0:
                missing_u = u_abs
            out[u_abs - lo] = found
    return out, missing_u


def merge_with_local(
    view: SuperblockView, local: PalindromeTable, resolved: list[CenterResult]
) -> tuple[int, np.ndarray]:
    """Combine the local palindrome table of F with the resolved prefix centers.

    Returns (u_lo, lengths) where lengths[j] is the maximal palindrome length
    in S at center half-index u_lo + j, covering exactly the second block.
    """
    res_u = np.asarray([r.center_u for r in resolved], dtype=np.int64)
    res_len = np.asarray([r.length for r in resolved], dtype=np.int64)
    out, missing_u = _merge_b2(
        local.odd, local.even, view.start, view.block_len, res_u, res_len
    )
    if missing_u >= 0:
        raise InconsistentMergeError(
            f"center u={int(missing_u)} reaches the fragment start but has no resolved length"
        )
    return 2 * (view.start + view.block_len), out
