"""Sequential string primitives over integer alphabets.

Text positions are plain integers. Palindrome centers are encoded as integer
half-indices u = 2c in [0, 2n-2]: even u is the odd-length center at position
u/2, odd u the even-length center between positions (u-1)/2 and (u+1)/2.
This keeps every formula in exact integer arithmetic.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import kmp_smallest_period, manacher_tables, njit


def as_symbols(text) -> np.ndarray:
    """Coerce str / bytes / sequence / Text to a contiguous int64 symbol array."""
    if isinstance(text, Text):
        return text.symbols
    if isinstance(text, np.ndarray):
        return np.ascontiguousarray(text, dtype=np.int64)
    if isinstance(text, str):
        return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int64)
    if isinstance(text, (bytes, bytearray)):
        return np.frombuffer(bytes(text), dtype=np.uint8).astype(np.int64)
    return np.asarray(list(text), dtype=np.int64)


def pipeline_symbols(text) -> np.ndarray:
    """``as_symbols`` for the distributed pipelines: nonempty, every symbol >= 0."""
    sym = as_symbols(text)
    if sym.size < 1:
        raise ValueError("text must be nonempty")
    negative = np.flatnonzero(sym < 0)
    if negative.size:
        pos = int(negative[0])
        raise ValueError(f"symbol {int(sym[pos])} at position {pos} is negative; "
                         "the distributed pipelines need symbols >= 0")
    return sym


@dataclass(frozen=True)
class Text:
    """A sequence of symbols over the integer alphabet [0, sigma)."""

    symbols: np.ndarray
    sigma: int = 256

    def __post_init__(self):
        sym = np.ascontiguousarray(self.symbols, dtype=np.int64)
        sym.setflags(write=False)
        object.__setattr__(self, "symbols", sym)
        if self.sigma < 1:
            raise ValueError("alphabet size must be positive")
        if sym.size and (sym.min() < 0 or sym.max() >= self.sigma):
            raise ValueError("symbol outside alphabet [0, sigma)")

    def __len__(self) -> int:
        return int(self.symbols.size)


class Center(NamedTuple):
    """Palindrome center as the integer half-index u = 2c.

    Even u: odd-length palindrome centered at position u/2. Odd u:
    even-length palindrome centered between positions (u-1)/2 and (u+1)/2.
    """

    half_index: int

    @classmethod
    def checked(cls, u: int, n: int) -> "Center":
        if not 0 <= u <= 2 * n - 2:
            raise ValueError(f"center half-index {u} out of range for n={n}")
        return cls(u)

    @property
    def is_odd_length(self) -> bool:
        return self.half_index % 2 == 0

    @property
    def left_position(self) -> int:
        """Text position of (or just left of) the center."""
        return self.half_index // 2


@dataclass(frozen=True)
class PalindromeTable:
    """Maximal palindrome lengths: odd[c] per position, even[m] per gap."""

    odd: np.ndarray
    even: np.ndarray

    def length_at(self, u: int) -> int:
        """Length of the maximal palindrome at center half-index u."""
        if u % 2 == 0:
            return int(self.odd[u // 2])
        return int(self.even[(u - 1) // 2])

    @property
    def center_count(self) -> int:
        return int(self.odd.size + self.even.size)

    def lengths_by_center(self) -> np.ndarray:
        """All 2n-1 lengths ordered by center half-index."""
        out = np.empty(self.center_count, dtype=np.int64)
        out[0::2] = self.odd
        out[1::2] = self.even
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PalindromeTable)
            and np.array_equal(self.odd, other.odd)
            and np.array_equal(self.even, other.even)
        )


class DoubledView:
    """Read-only view of text . reverse(text), without materializing the reverse.

    Position k < n reads the base text at k; position k >= n reads it at
    2n - 1 - k, so positions k and 2n - 1 - k always see the same symbol.
    """

    __slots__ = ("base", "n")

    def __init__(self, text):
        self.base = as_symbols(text)
        self.n = int(self.base.size)

    def __len__(self) -> int:
        return 2 * self.n

    def read(self, k: int) -> int:
        if not 0 <= k < 2 * self.n:
            raise IndexError(f"doubled position {k} out of range")
        if k < self.n:
            return int(self.base[k])
        return int(self.base[2 * self.n - 1 - k])

    def materialize(self, lo: int, hi: int) -> np.ndarray:
        """Symbols of the half-open doubled range [lo, hi) as a fresh array.

        Intended for machine-local fragments only; never the whole view.
        """
        if not 0 <= lo <= hi <= 2 * self.n:
            raise IndexError("doubled range out of bounds")
        n = self.n
        if hi <= n:
            return self.base[lo:hi].copy()
        if lo >= n:
            return self.base[2 * n - hi : 2 * n - lo][::-1].copy()
        return np.concatenate([self.base[lo:n], self.base[2 * n - hi : n][::-1]])


def manacher(text) -> PalindromeTable:
    """All maximal palindromes of ``text`` in linear time."""
    sym = as_symbols(text)
    odd, even, _ = manacher_tables(sym)
    return PalindromeTable(odd=odd, even=even)


def smallest_period(text) -> int:
    """Least p >= 1 with text[i] == text[i+p] for all valid i."""
    sym = as_symbols(text)
    if sym.size == 0:
        raise ValueError("period of the empty string is undefined")
    period, _ = kmp_smallest_period(sym)
    return int(period)


def maximal_palindrome_via_lcp(u: int, n: int, lcp) -> int:
    """Maximal palindrome length at center u, from one LCP query on the doubled text.

    ``lcp(p1, p2)`` must answer longest-common-prefix queries between suffixes
    of the doubled text of length 2n. The raw match can run past the text's
    right edge into the mirrored half (the doubled text carries no separator),
    so the value is capped at the room the right arm actually has.
    """
    if not 0 <= u <= 2 * n - 2:
        raise ValueError(f"center half-index {u} out of range for n={n}")
    if u % 2 == 0:
        c = u // 2
        return 2 * min(int(lcp(c, 2 * n - c - 1)), n - c) - 1
    c_up = (u + 1) // 2
    return 2 * min(int(lcp(c_up, 2 * n - c_up)), n - c_up)


def prefix_palindromes_in_range(fragment, block_len: int) -> list[int]:
    """Lengths L of palindromic prefixes of ``fragment`` centered in its second block.

    The fragment must have length exactly 4 * block_len. A prefix of length L
    qualifies when its center offset (L-1)/2 lies in [block_len, 2*block_len),
    i.e. L - 1 is a center half-index in [2*block_len, 4*block_len). One
    linear pass: the length-L prefix is a palindrome iff the maximal
    palindrome at center L - 1 reaches position 0.
    """
    sym = as_symbols(fragment)
    if block_len < 1:
        raise ValueError("block length must be >= 1")
    if sym.size != 4 * block_len:
        raise ValueError(f"fragment length {sym.size} != 4 * {block_len}")
    table = manacher(sym)
    out = []
    for u in range(2 * block_len, 4 * block_len):
        if table.length_at(u) >= u + 1:
            out.append(u + 1)
    return out


@njit
def _prefix_pal_lengths_from_tables(odd, even, lo_u, hi_u):
    """Center half-indices u in [lo_u, hi_u) whose maximal palindrome reaches position 0."""
    count = 0
    buf = np.empty(hi_u - lo_u, np.int64)
    for u in range(lo_u, hi_u):
        if u % 2 == 0:
            length = odd[u // 2]
        else:
            length = even[(u - 1) // 2]
        if length >= u + 1:
            buf[count] = u + 1
            count += 1
    return buf[:count]
