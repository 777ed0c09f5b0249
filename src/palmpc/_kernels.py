"""Hot numeric kernels: scalar loops on Python ints and numpy array code.

* The scalar loops (Manacher, the leaf prefix scan) read their input through
  ``tolist()`` and keep their working values in Python lists, which Python
  indexes several times faster than numpy scalars.
* The window fingerprint scan is array code in the prefix-difference form,
  on uint64 values modulo the Mersenne prime 2**61 - 1. One call fuses all
  of a machine's scan buffers as zero-padded rows. Its prefix sums are
  unreduced running sums of 31- and 30-bit limbs, and each window is reduced
  once, by :func:`_fold61`. Multiplication goes through :func:`mulmod61`,
  the only operation whose intermediates would not fit in 64 bits.

Both fingerprint scans read power tables that each run builds once with
:func:`power_tables`.
"""

import numpy as np

M61 = (1 << 61) - 1

# read by solvebench for its records' numba_enabled field; no kernel is JIT-compiled
NUMBA_ENABLED = False


# uint64 constants; mixing uint64 with signed operands promotes to float64 in
# numpy, so every operand is pre-cast once here.
_U1 = np.uint64(1)
_U30 = np.uint64(30)
_U31 = np.uint64(31)
_U61 = np.uint64(61)
_MASK30 = np.uint64((1 << 30) - 1)
_MASK31 = np.uint64((1 << 31) - 1)
_M61_U = np.uint64(M61)


def mulmod61(a, b):
    """(a * b) mod (2**61 - 1) for 0 <= a, b < 2**61, elementwise, without int128.

    Operands are uint64 arrays or scalars, or Python ints; the result is
    uint64. Splits into 31-bit limbs; every intermediate stays below 2**64.
    """
    a1 = a >> _U31
    a0 = a & _MASK31
    b1 = b >> _U31
    b0 = b & _MASK31
    # a*b = a1*b1*2**62 + mid*2**31 + a0*b0, and 2**61 == 1 (mod M61)
    mid = a1 * b0 + a0 * b1               # < 2**62
    acc = (a1 * b1) << _U1                # < 2**61
    acc += mid >> _U30
    acc += (mid & _MASK30) << _U31        # < 2**61
    acc += a0 * b0                        # < 2**62; acc < 2**63
    return _fold61(acc)


def _fold61(v):
    """v mod 2**61 - 1 for uint64 v: one Mersenne fold, one conditional subtract.

    The fold leaves v at most 2**61 + 6, so one subtract of 2**61 - 1 finishes.
    """
    v = (v & _M61_U) + (v >> _U61)
    return v - _M61_U * (v >= _M61_U)


def power_tables(bases, size: int) -> tuple[np.ndarray, np.ndarray]:
    """x**i and x**-i mod 2**61 - 1 for i in [0, size), one row per base.

    Two uint64 arrays of shape (len(bases), size), filled by doubling: the
    filled prefix [0, k) times x**k gives [k, 2k).
    """
    pows = np.ones((len(bases), size), np.uint64)
    inv = np.ones((len(bases), size), np.uint64)
    for row, x in enumerate(bases):
        for table, base in ((pows[row], x), (inv[row], pow(x, M61 - 2, M61))):
            k = 1
            while k < size:
                step = min(k, size - k)
                table[k : k + step] = mulmod61(table[:step], np.uint64(pow(base, k, M61)))
                k *= 2
    return pows, inv


def manacher_tables(sym, hi=None):
    """Maximal palindrome lengths of ``sym`` at its first ``hi`` centers, odd and even.

    Returns (odd, even, ops): odd[c] is the length of the longest palindrome
    of ``sym`` centered at position c (always odd, >= 1); even[m] the length
    of the longest palindrome centered between positions m and m+1 (even,
    >= 0). No sentinel transform, so indices equal text positions. ``ops``
    counts two per center and one per matched letter pair.

    ``hi`` (in [0, ``len(sym)``], the default ``len(sym)``) stops both scans
    after their first ``hi`` center iterations: odd is returned for c < hi
    and even for m < hi - 1, the gaps left of position hi - 1. Arms still run
    over the whole of ``sym``, and every mirror a center copies lies left of
    it, so each scanned value equals the full scan's and the scan stays
    linear in ``len(sym)``; ops never exceed the full scan's. A bound on the
    left end would not: a center past it whose mirror lies before it must
    extend its arm from scratch, which is quadratic on a long run.

    Only centers whose first letter pair matches are visited. Any other
    center (odd with s[i-1] != s[i+1], even with s[i-1] != s[i], or one with
    no room for an arm) ends at arm 1 (odd) or 0 (even) whatever the scan
    state: a mirror inside the current palindrome would carry the same
    mismatch, so the scan also starts it at that arm, matches no pair and
    spends exactly its 2 ops. Its reach, i (odd) or i - 1 (even), lies left
    of every later center, so it never changes where a later center starts.
    The tables are therefore prefilled with those arms, ``ops`` starts at the
    2 per center of both scans, and each visited center adds its matched
    pairs.
    """
    n = len(sym)
    if hi is None:
        hi = n
    if not 0 <= hi <= n:
        raise ValueError(f"hi={hi} is outside [0, {n}]")
    s = sym.tolist()
    ops = 4 * hi
    # odd centers: d[i] = arm length k, palindrome s[i-k+1 .. i+k-1];
    # centers 1 .. top - 1 have room for an arm
    top = max(min(hi, n - 1), 1)
    d = [1] * n
    left = 0
    right = -1
    for i in (np.flatnonzero(sym[: top - 1] == sym[2 : top + 1]) + 1).tolist():
        if i > right:
            k = 1
        else:
            k = d[left + right - i]
            if k > right - i + 1:
                k = right - i + 1
        k0 = k
        room = n - i                  # k < room keeps both arms inside s
        if room > i + 1:
            room = i + 1
        while k < room and s[i - k] == s[i + k]:
            k += 1
        d[i] = k
        ops += k - k0
        if i + k - 1 > right:
            left = i - k + 1
            right = i + k - 1
    odd = np.array(d if hi == n else d[:hi], np.int64)
    odd *= 2
    odd -= 1
    # even centers: d[i] = arm length k, palindrome s[i-k .. i+k-1]
    top = max(hi, 1)
    d = [0] * n
    left = 0
    right = -1
    for i in (np.flatnonzero(sym[: top - 1] == sym[1:top]) + 1).tolist():
        if i > right:
            k = 0
        else:
            k = d[left + right - i + 1]
            if k > right - i + 1:
                k = right - i + 1
        k0 = k
        room = n - i
        if room > i:
            room = i
        while k < room and s[i - k - 1] == s[i + k]:
            k += 1
        d[i] = k
        ops += k - k0
        if i + k - 1 > right:
            left = i - k
            right = i + k - 1
    even = np.array(d[1:hi], np.int64)
    even *= 2
    return odd, even, np.int64(ops)


def fragment_fp_scan(bufs, width, pows, inv_pows, out):
    """Sliding-window fingerprints of each buffer of ``bufs``, one row per hash layer.

    out[l, r, j] = layer-l fingerprint of bufs[r][j : j + width], cut at the
    buffer's end, for j in [0, span); out.shape == (layers, len(bufs), span).
    A buffer holds at most span + width - 1 letters (else ``ValueError``).
    ``pows``/``inv_pows`` are :func:`power_tables` tables at least that many
    and span columns wide.

    Rows are zero-padded to span + width - 1 letters; a zero letter adds
    nothing to a fingerprint, so a buffer that ends early gets its short
    windows. With C[k] the fingerprint of a row's first k letters, out[j] =
    (C[j + width] - C[j]) * x**-j. The prefix sums are plain cumulative sums
    of each term's low 31 and high 30 bits (below 2**52 for rows under 2**21
    letters), and each difference is reduced once, with 2**61 == 1. Two
    modular multiplications per unpadded letter and layer, which is what the
    returned ``ops`` counts.
    """
    layers, rows, span = out.shape
    size = span + width - 1
    if len(bufs) != rows or max(buf.size for buf in bufs) > size:
        raise ValueError(f"want {rows} buffers of at most {size} letters")
    letters = np.zeros((rows, size), np.uint64)
    total = 0
    for row, buf in zip(letters, bufs):
        row[: buf.size] = buf
        total += buf.size
    terms = mulmod61(letters, pows[:layers, None, :size])
    # limbs[0] and limbs[1]: running sums of the terms' low and high limbs
    limbs = np.zeros((2, layers, rows, size + 1), np.uint64)
    np.bitwise_and(terms, _MASK31, out=limbs[0, :, :, 1:])
    np.right_shift(terms, _U31, out=limbs[1, :, :, 1:])
    np.cumsum(limbs, axis=3, out=limbs)
    lo, hi = limbs[:, :, :, width:] - limbs[:, :, :, :span]
    sums = _fold61(lo + ((hi & _MASK30) << _U31) + (hi >> _U30))
    out[:] = mulmod61(sums, inv_pows[:layers, None, :span])
    return np.int64(2 * total * layers)


def prefix_fp_scan(letters, pows, out):
    """Prefix fingerprints, one row per hash layer: out[l, j] = fp_l(letters[0..j]).

    ``pows`` is the table of :func:`power_tables`, at least ``len(letters)``
    columns wide. Two modular operations per position and layer, which is
    what the returned ``ops`` counts.
    """
    syms = letters.tolist()
    n = len(syms)
    layers = out.shape[0]
    for l, row in enumerate(pows[:layers, :n].tolist()):
        acc, vals = 0, []
        for s, p in zip(syms, row):
            acc = (acc + s * p) % M61
            vals.append(acc)
        out[l] = vals
    return np.int64(2 * n * layers)


def first_unequal_run(eq_flags):
    """Length of the leading all-true run, and whether any later flag is true.

    Used by the in-window refinement scan: a true flag after the first false
    one contradicts prefix monotonicity and indicates a hash collision.
    """
    unequal = np.flatnonzero(~eq_flags)
    run = int(unequal[0]) if unequal.size else eq_flags.size
    return run, bool(eq_flags[run:].any())
