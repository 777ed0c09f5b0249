"""Sequential string primitives over integer alphabets.

Text positions are plain integers. Palindrome centers are encoded as integer
half-indices u = 2c in [0, 2n-2]: even u is the odd-length center at position
u/2, odd u the even-length center between positions (u-1)/2 and (u+1)/2.
This keeps every formula in exact integer arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import manacher_tables, njit


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


def leftmost_longest(lengths: np.ndarray, first_u: int, n: int) -> tuple[int, int]:
    """(start, length) of the leftmost-longest palindrome, from the lengths of
    the consecutive centers first_u, first_u + 1, ... of a text of length n.
    """
    us = np.arange(first_u, first_u + lengths.size, dtype=np.int64)
    starts = (us - lengths + 1) // 2
    best = int(np.argmax(lengths * (2 * n) - starts))
    return int(starts[best]), int(lengths[best])


def manacher(text) -> PalindromeTable:
    """All maximal palindromes of ``text`` in linear time."""
    sym = as_symbols(text)
    odd, even, _ = manacher_tables(sym)
    return PalindromeTable(odd=odd, even=even)


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
