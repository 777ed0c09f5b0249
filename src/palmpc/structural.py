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

The case analysis is written once, as pure steps: ``first_wave`` lists a
superblock's first queries, ``_periodic_resolve`` settles a periodic run from
its probe answers, ``settle`` turns a wave's center answers into settled
(u, length) pairs, and ``_merge_b2`` merges them with the local lengths. Each
step raises on the violation it can see. Their input is the output of
``mpc.local_scan`` on a middle machine, the one local phase: the local
maximal palindrome lengths of the superblock's owned centers, and its prefix
palindromes.
One driver sequences the steps, ``mpc.superblock_waves``, and every caller
runs scan and driver: both pipelines, which differ only in how they answer
the queries, and the test suite's exhaustive sweep over every superblock view
(``sweep_views`` in ``tests/exhaustive_views.py``), which answers them by
literal comparison (``oracle.doubled_lcp``).
"""

from typing import NamedTuple

import numpy as np


class InconsistentMergeError(RuntimeError):
    """A center whose local palindrome is a fragment prefix has no resolved entry."""


class Query(NamedTuple):
    """One LCP query on the doubled string: (p1, p2) and what its answer settles."""
    kind: str       # "left" | "right" (period probes) | "center"
    p1: int
    p2: int
    center_u: int = -1


def case_name(prefix_lens) -> str:
    """The superblock's case: "empty", "single" or "periodic" prefix palindromes."""
    return ("empty", "single", "periodic")[min(len(prefix_lens), 2)]


def _center(u: int, n: int) -> Query:
    """Doubled-string suffix pair whose LCP yields the maximal length at center u.

    Center u = 2c (odd palindrome) or 2c - 1 (even) compares the text read
    rightward from c with the text read leftward from c (odd) or c - 1 (even).
    """
    c = (u + 1) // 2
    return Query("center", c, 2 * n - c - 1 + u % 2, u)


def first_wave(prefix_lens, start: int, n: int) -> list[Query]:
    """First wave of LCP queries for the superblock at ``start`` of a length-n text.

    ``prefix_lens`` are the ascending lengths of the in-range prefix
    palindromes. A single one needs only its center query. Periodic
    superblocks probe the periodic run in both directions; the left probe is
    skipped when the fragment starts at position 0 (nothing lies to the left).
    """
    if len(prefix_lens) == 0:
        return []
    if len(prefix_lens) == 1:
        return [_center(2 * start + int(prefix_lens[0]) - 1, n)]
    period = int(prefix_lens[-1] - prefix_lens[-2])
    wave = [Query("left", 2 * n - start - period, 2 * n - start)] if start > 0 else []
    return wave + [Query("right", start, start + period)]


def _periodic_resolve(prefix_lens, start, n, left_lcp, right_lcp):
    """Settle every prefix palindrome from the raw answers of the period probes.

    The period is the difference of the two longest prefix palindromes. The
    run extends ``left_lcp`` symbols left of the fragment (0 at start 0, where
    there is no left probe and ``left_lcp`` is ignored) and ``period +
    right_lcp`` symbols right of its start. The right probe runs on the
    doubled string and can sail past the text's end when the tail is fully
    periodic; the periodic run lives in the text, so it is clamped there.

    Returns (resolved, center_query_u): the (u, length) pairs settled by
    arithmetic, and the center that needs its own query because its
    palindrome reaches both run boundaries at once (-1 if none). There can be
    at most one such center; a second one raises ``AssertionError``. The two
    arithmetic caps, length + 2*left and 2*right - length, are equal only
    where length == right - left, which is that center, so every other
    center has one strictly smaller cap.
    """
    lens = prefix_lens.tolist()
    period = lens[-1] - lens[-2]
    left_ext = int(left_lcp) if start > 0 else 0
    right_ext = min(period + int(right_lcp), n - start)
    resolved = []
    center_query_u = -1
    for length in lens:
        u = 2 * start + length - 1
        if length == right_ext - left_ext:
            if center_query_u >= 0:
                raise AssertionError("two centers claim both periodic-run boundaries at once")
            center_query_u = u
            continue
        resolved.append((u, min(length + 2 * left_ext, 2 * right_ext - length)))
    return resolved, center_query_u


def settle(wave, answers, n: int) -> list[tuple[int, int]]:
    """The (u, length) pairs that one wave's LCP answers settle.

    Each center query settles its own center; period probes settle nothing
    by themselves. The doubled text has no separator at the text boundary,
    so a palindrome touching the right edge can keep matching into the
    mirrored half; the right arm is capped at the n - c symbols it actually
    has.
    """
    if answers and min(answers) < 0:
        raise InconsistentMergeError("LCP query left unanswered")
    return [(q.center_u, 2 * min(int(a), n - q.p1) - 1 + q.center_u % 2)
            for q, a in zip(wave, answers) if q.kind == "center"]


def _merge_b2(own, start, block_len, resolved):
    """Final lengths for the owned centers of one superblock.

    ``own`` holds the local maximal palindrome lengths of the superblock's
    2b owned centers, the half-indices u in [2(start+b), 2(start+2b)). A
    center whose local maximal palindrome does not reach the fragment's left
    edge is already globally maximal (a palindrome of an owned center that
    touches the fragment's right edge necessarily touches the left one too);
    the rest take their lengths from ``resolved``, a list of (u, length)
    pairs. A prefix-touching center with no resolved entry raises
    ``InconsistentMergeError``. The result is a new int64 array, sharing no
    memory with ``own``.
    """
    lo = 2 * (start + block_len)
    count = 2 * block_len
    # owned center j sits at local half-index count + j; a local palindrome
    # shorter than that starts after the fragment's left edge
    touch = np.flatnonzero(own >= np.arange(count, 2 * count))
    out = own.astype(np.int64)        # a copy: the result must not alias ``own``
    if touch.size == 0:
        return out
    # resolved length per owned center; filled backwards so the first entry wins
    known = [-1] * count
    for u, length in reversed(resolved):
        if lo <= u < lo + count:
            known[u - lo] = length
    picked = np.array(known, np.int64)[touch]
    if picked.min() < 0:
        missing = lo + int(touch[np.argmax(picked < 0)])
        raise InconsistentMergeError(f"center u={missing} reaches its fragment start unresolved")
    out[touch] = picked
    return out
