"""Karp-Rabin fingerprints with constant-time concatenation and splitting.

A scheme fixes one word-friendly prime modulus (the Mersenne prime 2**61 - 1
for production schemes) and draws one random base per independent hash layer.
A fingerprint carries, per layer, the value of sum(S[i] * x**i) mod q, plus
the shared length and the powers x**len and x**-len needed to compose and
split fingerprints without any modular exponentiation.

Layers multiply: two layers square the per-comparison failure probability at
the cost of twice the words. The default is two.
"""

import random
from dataclasses import dataclass, field

from ._kernels import M61
from .strings import as_symbols

DEFAULT_LAYERS = 2

# Largest n with n**3 <= 2**61 - 1; beyond this the fixed prime no longer
# meets the collision bound and scheme_init refuses.
MAX_SUPPORTED_N = 1_321_122


@dataclass(frozen=True)
class FingerprintScheme:
    modulus: int
    bases: tuple[int, ...]
    seed: int | None = None
    max_n: int | None = None
    inv_bases: tuple[int, ...] = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be a prime >= 2")
        if not self.bases:
            raise ValueError("at least one hash layer required")
        for x in self.bases:
            if not 1 <= x < self.modulus:
                raise ValueError("base outside [1, modulus)")
        if self.inv_bases is None:
            inv = tuple(pow(x, self.modulus - 2, self.modulus) for x in self.bases)
            object.__setattr__(self, "inv_bases", inv)

    @property
    def layers(self) -> int:
        return len(self.bases)

    def pow_of(self, exponent: int) -> tuple[int, ...]:
        """x**exponent mod q per layer (exponent may be negative)."""
        if exponent >= 0:
            return tuple(pow(x, exponent, self.modulus) for x in self.bases)
        return tuple(pow(x, -exponent, self.modulus) for x in self.inv_bases)

    def empty(self) -> "Fingerprint":
        ones = (1,) * self.layers
        return Fingerprint(self, 0, (0,) * self.layers, ones, ones)


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
    return FingerprintScheme(modulus=M61, bases=tuple(bases), seed=seed, max_n=n)


@dataclass(frozen=True)
class Fingerprint:
    scheme: FingerprintScheme
    length: int
    values: tuple[int, ...]
    pow_len: tuple[int, ...]      # x**length per layer
    inv_pow_len: tuple[int, ...]  # x**-length per layer

    def __post_init__(self):
        q = self.scheme.modulus
        if len(self.values) != self.scheme.layers:
            raise ValueError("layer count mismatch")
        for v in self.values:
            if not 0 <= v < q:
                raise ValueError("fingerprint value outside [0, modulus)")

    def words(self) -> int:
        """Metered size: values, both power tuples, and the length."""
        return 3 * len(self.values) + 1


def fp_of(text, scheme: FingerprintScheme) -> Fingerprint:
    """Fingerprint of a whole text under ``scheme``."""
    sym = as_symbols(text)
    if sym.size and int(sym.max()) >= scheme.modulus:
        raise ValueError("symbol value not below the modulus")
    n = int(sym.size)
    q = scheme.modulus
    values = []
    for x in scheme.bases:
        acc = 0
        for s in reversed(sym.tolist()):
            acc = (acc * x + s) % q
        values.append(acc)
    return Fingerprint(scheme, n, tuple(values), scheme.pow_of(n), scheme.pow_of(-n))


def fp_solve_third(
    *,
    u: Fingerprint | None = None,
    v: Fingerprint | None = None,
    w: Fingerprint | None = None,
) -> Fingerprint:
    """Complete the identity fp(U) . fp(V) = fp(W) given exactly two of the three.

    Constant time per layer: only modular additions and multiplications by the
    stored length powers.
    """
    given = [p for p in (u, v, w) if p is not None]
    if len(given) != 2:
        raise ValueError("exactly two fingerprints must be given")
    scheme = given[0].scheme
    if given[1].scheme is not scheme and given[1].scheme != scheme:
        raise ValueError("fingerprints from different schemes")
    q = scheme.modulus

    if w is None:
        vals = tuple((u.values[l] + u.pow_len[l] * v.values[l]) % q for l in range(scheme.layers))
        pw = tuple((u.pow_len[l] * v.pow_len[l]) % q for l in range(scheme.layers))
        ipw = tuple((u.inv_pow_len[l] * v.inv_pow_len[l]) % q for l in range(scheme.layers))
        return Fingerprint(scheme, u.length + v.length, vals, pw, ipw)

    if v is None:
        if u.length > w.length:
            raise ValueError(f"prefix longer than whole: {u.length} > {w.length}")
        vals = tuple(
            ((w.values[l] - u.values[l]) * u.inv_pow_len[l]) % q for l in range(scheme.layers)
        )
        pw = tuple((w.pow_len[l] * u.inv_pow_len[l]) % q for l in range(scheme.layers))
        ipw = tuple((w.inv_pow_len[l] * u.pow_len[l]) % q for l in range(scheme.layers))
        return Fingerprint(scheme, w.length - u.length, vals, pw, ipw)

    if v.length > w.length:
        raise ValueError(f"suffix longer than whole: {v.length} > {w.length}")
    pw = tuple((w.pow_len[l] * v.inv_pow_len[l]) % q for l in range(scheme.layers))
    ipw = tuple((w.inv_pow_len[l] * v.pow_len[l]) % q for l in range(scheme.layers))
    vals = tuple((w.values[l] - pw[l] * v.values[l]) % q for l in range(scheme.layers))
    return Fingerprint(scheme, w.length - v.length, vals, pw, ipw)


def fp_eq(a: Fingerprint, b: Fingerprint) -> bool:
    """True iff lengths and all layer values agree. Schemes must match."""
    if a.scheme is not b.scheme and a.scheme != b.scheme:
        raise ValueError("fingerprints from different schemes are not comparable")
    return a.length == b.length and a.values == b.values
