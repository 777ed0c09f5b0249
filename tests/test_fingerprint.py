import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from palmpc._kernels import M61, fragment_fp_scan, mulmod61, power_tables
from palmpc.fingerprint import (
    MAX_SUPPORTED_N,
    FingerprintScheme,
    fp_eq,
    fp_of,
    fp_solve_third,
    scheme_init,
)

TOY = FingerprintScheme(modulus=97, bases=(10,))


def test_mulmod61_matches_bigint():
    rng = np.random.default_rng(0)
    for _ in range(5000):
        a = int(rng.integers(0, M61))
        b = int(rng.integers(0, M61))
        assert int(mulmod61(a, b)) == (a * b) % M61


def test_mulmod61_on_arrays_matches_bigint():
    rng = np.random.default_rng(1)
    edges = [0, 1, 2, (1 << 29) - 1, 1 << 29, (1 << 32) - 1, 1 << 32, 1 << 60, M61 - 2, M61 - 1]
    a = np.concatenate([np.repeat(edges, len(edges)), rng.integers(0, M61, 5000)])
    b = np.concatenate([np.tile(edges, len(edges)), rng.integers(0, M61, 5000)])
    want = [(x * y) % M61 for x, y in zip(a.tolist(), b.tolist())]
    a, b = a.astype(np.uint64), b.astype(np.uint64)
    got = mulmod61(a, b)
    assert got.dtype == np.uint64 and got.tolist() == want
    # one scalar operand broadcasts, as a Python int or a numpy scalar
    for scalar in (M61 - 1, np.uint64(M61 - 1)):
        assert mulmod61(a, scalar).tolist() == [(x * (M61 - 1)) % M61 for x in a.tolist()]
        assert mulmod61(scalar, b).tolist() == [(x * (M61 - 1)) % M61 for x in b.tolist()]
    assert int(mulmod61(np.uint64(M61 - 1), np.uint64(M61 - 1))) == 1


def test_fp_of_toy_examples():
    assert fp_of([0, 1], TOY).values == (10,)      # "ab" with a=0, b=1
    assert fp_of([1, 0], TOY).values == (1,)       # "ba"
    empty = fp_of([], TOY)
    assert empty.values == (0,) and empty.length == 0


def test_solve_third_toy_examples():
    fa, fb = fp_of([0], TOY), fp_of([1], TOY)
    w = fp_solve_third(u=fa, v=fb)
    assert w.values == (10,) and w.length == 2
    assert TOY.inv_bases == (68,)                  # 10 * 68 = 1 mod 97
    v = fp_solve_third(w=fp_of([0, 1], TOY), u=fa)
    assert v.values == (1,) and v.length == 1
    whole = fp_of([0, 1], TOY)
    u = fp_solve_third(w=whole, v=whole)
    assert u.values == (0,) and u.length == 0


def test_solve_third_rejects_bad_roles():
    a, ab = fp_of([0], TOY), fp_of([0, 1], TOY)
    with pytest.raises(ValueError):
        fp_solve_third(u=a)
    with pytest.raises(ValueError):
        fp_solve_third(u=ab, w=a)   # prefix longer than whole
    with pytest.raises(ValueError):
        fp_solve_third(v=ab, w=a)


def test_fp_eq_examples():
    sch = scheme_init(64, 256, 2, seed=3)
    assert fp_eq(fp_of("aba", sch), fp_of("aba", sch))
    assert not fp_eq(fp_of([0, 1], TOY), fp_of([1, 0], TOY))
    assert not fp_eq(fp_of("a", sch), fp_of("aa", sch))


def test_fp_eq_rejects_scheme_mismatch():
    sch = scheme_init(64, 256, 1, seed=3)
    with pytest.raises(ValueError):
        fp_eq(fp_of([0], TOY), fp_of([0], sch))


def test_scheme_init_bounds_and_determinism():
    big = scheme_init(10**6, 256, layers=2, seed=7)
    assert big.layers == 2 and big.modulus >= 10**18
    assert all(big.modulus >= max(256, (10**6) ** 3) for _ in big.bases)
    small = scheme_init(16, 2, layers=1, seed=1)
    assert small.modulus >= 16**3 >= 4096
    assert scheme_init(10**6, 256, 2, 7).bases == big.bases
    assert scheme_init(10**6, 256, 2, 8).bases != big.bases
    with pytest.raises(ValueError):
        scheme_init(MAX_SUPPORTED_N + 1, 2)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=0, max_size=256), st.integers(0, 2**30))
def test_solve_third_roundtrips_every_split(symbols, cut_seed):
    sch = scheme_init(256, 256, 2, seed=11)
    s = np.asarray(symbols, dtype=np.int64)
    whole = fp_of(s, sch)
    cut = cut_seed % (len(symbols) + 1)
    u, v = fp_of(s[:cut], sch), fp_of(s[cut:], sch)
    assert fp_eq(fp_solve_third(u=u, v=v), whole)
    assert fp_eq(fp_solve_third(w=whole, u=u), v)
    assert fp_eq(fp_solve_third(w=whole, v=v), u)


def test_concatenation_is_associative():
    sch = scheme_init(128, 4, 2, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = fp_of(rng.integers(0, 4, int(rng.integers(0, 20))), sch)
        b = fp_of(rng.integers(0, 4, int(rng.integers(0, 20))), sch)
        c = fp_of(rng.integers(0, 4, int(rng.integers(0, 20))), sch)
        left = fp_solve_third(u=fp_solve_third(u=a, v=b), v=c)
        right = fp_solve_third(u=a, v=fp_solve_third(u=b, v=c))
        assert fp_eq(left, right)


def test_powers_stay_consistent():
    sch = scheme_init(512, 2, 2, seed=9)
    fp = fp_of(np.ones(37, dtype=np.int64), sch)
    for l in range(sch.layers):
        assert fp.pow_len[l] * fp.inv_pow_len[l] % sch.modulus == 1


def test_fingerprint_word_accounting():
    sch = scheme_init(16, 2, 2, seed=0)
    assert fp_of([1, 0, 1], sch).words() == 3 * 2 + 1


def _fragment_values(sym: np.ndarray, length: int, scheme, tables) -> np.ndarray:
    """All fragment fingerprints of one length, via the sliding-window kernel."""
    out = np.empty((scheme.layers, sym.size - length + 1), np.int64)
    fragment_fp_scan(sym, sym.size - length + 1, length, *tables, out)
    return out


def test_collision_audit_desk_scale():
    # all fragment pairs of 200 random length-512 strings, two layers:
    # equal fingerprints must mean equal content
    sch = scheme_init(1024, 4, 2, seed=42)
    rng = np.random.default_rng(42)
    tables = power_tables(sch.bases, 512)
    collisions = 0
    for _ in range(200):
        s = rng.integers(0, 4, 512).astype(np.int64)
        for length in range(1, 513):
            vals = _fragment_values(s, length, sch, tables)
            order = np.lexsort(vals)
            svals = vals[:, order]
            same = np.flatnonzero(np.all(svals[:, 1:] == svals[:, :-1], axis=0))
            for k in same:
                i, j = int(order[k]), int(order[k + 1])
                if not np.array_equal(s[i : i + length], s[j : j + length]):
                    collisions += 1
    assert collisions == 0
