"""Reference fingerprints for the tests: whole-text nodes by Horner's rule."""

from palmpc._kernels import M61
from palmpc.fingerprint import FingerprintScheme, node
from palmpc.strings import as_symbols


def fp_of(text, scheme: FingerprintScheme):
    """Node of a whole text under ``scheme``, by Horner's rule on Python ints."""
    sym = as_symbols(text)
    if sym.size and int(sym.max()) >= M61:
        raise ValueError("symbol value not below the modulus")
    values = []
    for x in scheme.bases:
        acc = 0
        for s in reversed(sym.tolist()):
            acc = (acc * x + s) % M61
        values.append(acc)
    return node(sym.size, [pow(x, int(sym.size), M61) for x in scheme.bases], values)
