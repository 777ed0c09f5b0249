"""Sequential string primitives over integer alphabets.

Text positions are plain integers. Palindrome centers are encoded as integer
half-indices u = 2c in [0, 2n-2]: even u is the odd-length center at position
u/2, odd u the even-length center between positions (u-1)/2 and (u+1)/2.
This keeps every formula in exact integer arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import M61, manacher_tables


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
    """``as_symbols`` for the distributed pipelines: nonempty, every symbol in [0, 2**61 - 1)."""
    sym = as_symbols(text)
    if sym.size < 1:
        raise ValueError("text must be nonempty")
    bad = np.flatnonzero((sym < 0) | (sym >= M61))
    if bad.size:
        pos = int(bad[0])
        raise ValueError(f"symbol {int(sym[pos])} at position {pos} is outside [0, 2**61 - 1); "
                         "the distributed pipelines fingerprint symbols modulo 2**61 - 1")
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


def lengths_by_center(odd: np.ndarray, even: np.ndarray) -> np.ndarray:
    """Odd-center and even-center lengths interleaved by center half-index u:
    odd[c] at u = 2c, even[m] at u = 2m + 1."""
    out = np.empty(odd.size + even.size, dtype=np.int64)
    out[0::2] = odd
    out[1::2] = even
    return out


@dataclass(frozen=True)
class PalindromeTable:
    """Maximal palindrome lengths: odd[c] per position, even[m] per gap."""

    odd: np.ndarray
    even: np.ndarray

    def lengths_by_center(self) -> np.ndarray:
        """All 2n-1 lengths ordered by center half-index."""
        return lengths_by_center(self.odd, self.even)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PalindromeTable)
            and np.array_equal(self.odd, other.odd)
            and np.array_equal(self.even, other.even)
        )


def lps_index(lengths, starts) -> int:
    """Index of the longest palindrome among (lengths[i], starts[i]), the leftmost
    (smallest start) among equal lengths."""
    lengths = np.asarray(lengths)
    ties = np.flatnonzero(lengths == lengths.max())
    return int(ties[np.argmin(np.asarray(starts)[ties])])


def leftmost_longest(lengths: np.ndarray, first_u: int) -> tuple[int, int]:
    """(start, length) of the leftmost-longest palindrome, from the lengths of
    the consecutive centers first_u, first_u + 1, ...
    """
    starts = (np.arange(first_u, first_u + lengths.size, dtype=np.int64) - lengths + 1) // 2
    best = lps_index(lengths, starts)
    return int(starts[best]), int(lengths[best])


def manacher(text) -> PalindromeTable:
    """All maximal palindromes of ``text`` in linear time."""
    sym = as_symbols(text)
    odd, even, _ = manacher_tables(sym)
    return PalindromeTable(odd=odd, even=even)


def _prefix_pal_lengths_from_tables(lengths, lo_u, hi_u):
    """Center half-indices u in [lo_u, hi_u) whose maximal palindrome reaches position 0.

    ``lengths`` holds the maximal palindrome lengths by center half-index.
    Returned as u + 1, the length of that prefix palindrome, in ascending order.
    """
    return np.array([u + 1 for u, lam in enumerate(lengths[lo_u:hi_u].tolist(), lo_u)
                     if lam > u], np.int64)
