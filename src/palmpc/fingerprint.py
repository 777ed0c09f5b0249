"""Karp-Rabin fingerprints modulo the Mersenne prime 2**61 - 1, as flat int64 nodes.

A scheme draws one random base x per independent hash layer. Under base x the
fingerprint of S is sum(S[i] * x**i) mod 2**61 - 1, so concatenation takes
constant time per layer: fp(UV) = fp(U) + x**|U| * fp(V).

A *node* holds what that identity needs, as one read-only int64 array
``[len, x_1**len .. x_L**len, fp_1 .. fp_L]``: 1 + 2L words, which is also
its metered size. ``running_folds`` folds nodes left to right on Python ints
and keeps every prefix fold; ``concat`` is the last fold. ``fragments_equal``
compares two fragments read off prefix fingerprints, cross-multiplied by
the powers at their starts or by the one power between them, so no modular
inverse is ever needed.

Layers multiply: two layers square the per-comparison failure probability at
the cost of twice the words. The default is two.
"""

import random
from dataclasses import dataclass

import numpy as np

from ._kernels import M61

DEFAULT_LAYERS = 2

# Largest n with n**3 <= 2**61 - 1; beyond this the fixed prime no longer
# meets the collision bound and scheme_init refuses.
MAX_SUPPORTED_N = 1_321_122


@dataclass(frozen=True)
class FingerprintScheme:
    bases: tuple[int, ...]

    def __post_init__(self):
        if not self.bases:
            raise ValueError("at least one hash layer required")
        for x in self.bases:
            if not 1 <= x < M61:
                raise ValueError("base outside [1, 2**61 - 1)")

    @property
    def layers(self) -> int:
        return len(self.bases)


def scheme_init(n: int, sigma: int, layers: int = DEFAULT_LAYERS, seed: int = 0) -> FingerprintScheme:
    """Scheme valid for texts up to length ``n`` over [0, sigma); deterministic in seed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if layers < 1:
        raise ValueError("layers must be >= 1")
    if n > MAX_SUPPORTED_N:
        raise ValueError(
            f"n={n} exceeds the supported maximum {MAX_SUPPORTED_N} for the fixed 61-bit prime"
        )
    if sigma > M61:
        raise ValueError("alphabet does not fit the modulus")
    rng = random.Random(seed)
    bases = []
    while len(bases) < layers:
        x = rng.randrange(1, M61)
        if x not in bases:
            bases.append(x)
    return FingerprintScheme(bases=tuple(bases))


def node(length: int, pows, vals) -> np.ndarray:
    """The read-only node ``[length, pows.., vals..]``."""
    out = np.array([length, *pows, *vals], np.int64)
    out.setflags(write=False)
    return out


def _folds(nodes, layers: int) -> list[list[int]]:
    """The k + 1 prefix folds of k nodes, as flat node lists of Python ints."""
    folds = [[0] + [1] * layers + [0] * layers]
    for nd in nodes:
        nd = nd.tolist()
        fold = folds[-1][:]
        fold[0] += nd[0]
        for l in range(1, layers + 1):
            fold[layers + l] = (fold[layers + l] + fold[l] * nd[layers + l]) % M61
            fold[l] = fold[l] * nd[l] % M61
        folds.append(fold)
    return folds


def running_folds(nodes, layers: int) -> np.ndarray:
    """The k + 1 prefix folds of k nodes, as one read-only (k + 1, 1 + 2L) array.

    Row j is the node of the concatenation of ``nodes[:j]``: row 0 is the
    empty node and row k the node of them all.
    """
    out = np.array(_folds(nodes, layers), np.int64)
    out.setflags(write=False)
    return out


def concat(nodes, layers: int) -> np.ndarray:
    """Node of the concatenation of ``nodes`` in order; the empty node if there are none."""
    fold = _folds(nodes, layers)[-1]
    return node(fold[0], fold[1 : 1 + layers], fold[1 + layers :])


def fragments_equal(end_a, start_a, pow_a, end_b, start_b, pow_b) -> bool:
    """Whether two equal-length fragments have equal fingerprints in every layer.

    A fragment S[p:e] is given by the per-layer prefix fingerprints
    ``end`` = fp(S[:e]) and ``start`` = fp(S[:p]), so fp(S[p:e]) =
    (end - start) * x**-p. Equality is tested as (end_a - start_a) * pow_b
    == (end_b - start_b) * pow_a. The powers may be x**p_a and x**p_b or,
    for p_a <= p_b, the single-power form pow_a = 1 and pow_b = x**(p_b - p_a):
    x**p_a is invertible, so both decide alike. The caller checks that the
    lengths agree.
    """
    for ea, sa, pa, eb, sb, pb in zip(end_a, start_a, pow_a, end_b, start_b, pow_b):
        if (ea - sa) * pb % M61 != (eb - sb) * pa % M61:
            return False
    return True
