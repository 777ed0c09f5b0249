import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from palmpc._kernels import M61, fragment_fp_scan, mulmod61, power_tables
from palmpc.engine import words_of
from palmpc.fingerprint import (
    MAX_SUPPORTED_N,
    FingerprintScheme,
    concat,
    fragments_equal,
    node,
    running_folds,
    scheme_init,
)

from fingerprint_ref import fp_of

TOY = FingerprintScheme(bases=(10,))


def _vals(nd) -> tuple:
    layers = (nd.size - 1) // 2
    return tuple(nd[1 + layers :].tolist())


def _pows(nd) -> tuple:
    layers = (nd.size - 1) // 2
    return tuple(nd[1 : 1 + layers].tolist())


def _same(a, b) -> bool:
    """Two standalone strings' nodes compared as fragments at offset 0."""
    ones = (1,) * len(_vals(a))
    zeros = (0,) * len(ones)
    return int(a[0]) == int(b[0]) and fragments_equal(_vals(a), zeros, ones,
                                                      _vals(b), zeros, ones)


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
    assert fp_of([0, 1], TOY).tolist() == [2, 100, 10]   # "ab" with a=0, b=1
    assert fp_of([1, 0], TOY).tolist() == [2, 100, 1]    # "ba"
    assert fp_of([], TOY).tolist() == [0, 1, 0]
    nd = fp_of([1, 0], TOY)
    assert nd.dtype == np.int64 and not nd.flags.writeable


def test_concat_toy_examples():
    fa, fb = fp_of([0], TOY), fp_of([1], TOY)
    w = concat([fa, fb], 1)
    assert w.tolist() == [2, 100, 10] and not w.flags.writeable
    assert concat([], 1).tolist() == [0, 1, 0]
    assert concat([w, fp_of([], TOY)], 1).tolist() == [2, 100, 10]
    # fragment [1, 2) of "ab", read off prefix nodes, against "b" itself
    assert fragments_equal(_vals(w), _vals(fa), _pows(fa), _vals(fb), (0,), (1,))
    assert not fragments_equal(_vals(w), _vals(fa), _pows(fa), _vals(fa), (0,), (1,))
    # values near the modulus wrap
    big = FingerprintScheme(bases=(M61 - 1,))
    assert concat([fp_of([M61 - 1], big)] * 2, 1).tolist() == fp_of([M61 - 1] * 2, big).tolist()


def test_running_folds_are_the_prefix_concatenations():
    sch = scheme_init(128, 4, 2, seed=12)
    rng = np.random.default_rng(13)
    for k in (0, 1, 2, 7):
        texts = [rng.integers(0, 4, int(rng.integers(0, 12))) for _ in range(k)]
        folds = running_folds([fp_of(t, sch) for t in texts], 2)
        assert folds.shape == (k + 1, 5) and folds.dtype == np.int64
        assert not folds.flags.writeable
        assert folds[0].tolist() == fp_of([], sch).tolist() == [0, 1, 1, 0, 0]
        for j in range(k + 1):
            prefix = np.concatenate([np.zeros(0, np.int64), *texts[:j]])
            assert np.array_equal(folds[j], fp_of(prefix, sch)), (k, j)
        assert np.array_equal(concat([fp_of(t, sch) for t in texts], 2), folds[-1])


def test_fp_eq_examples():
    sch = scheme_init(64, 256, 2, seed=3)
    assert _same(fp_of("aba", sch), fp_of("aba", sch))
    assert not _same(fp_of([0, 1], TOY), fp_of([1, 0], TOY))
    assert not _same(fp_of("a", sch), fp_of("aa", sch))


def test_single_power_form_decides_as_the_two_power_form():
    # a base of multiplicative order 3 makes unequal fragments match often,
    # so both outcomes occur; the forms must agree on every pair
    x = pow(37, (M61 - 1) // 3, M61)
    sch = FingerprintScheme(bases=(x,))
    rng = np.random.default_rng(21)
    s = rng.integers(0, 2, 40)
    prefix = [_vals(fp_of(s[:e], sch)) for e in range(41)]
    outcomes = set()
    for _ in range(2000):
        length = int(rng.integers(0, 10))
        pa, pb = sorted(rng.integers(0, 41 - length, 2).tolist())
        a, b = (prefix[pa + length], prefix[pa]), (prefix[pb + length], prefix[pb])
        two = fragments_equal(*a, (pow(x, pa, M61),), *b, (pow(x, pb, M61),))
        one = fragments_equal(*a, (1,), *b, (pow(x, pb - pa, M61),))
        assert one == two, (pa, pb, length)
        equal = s[pa : pa + length].tolist() == s[pb : pb + length].tolist()
        assert one or not equal
        outcomes.add((one, equal))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_scheme_rejects_bases_outside_the_field():
    for bases in ((0,), (M61,), (2, M61), (-1,), ()):
        with pytest.raises(ValueError):
            FingerprintScheme(bases=bases)
    assert FingerprintScheme(bases=(1, M61 - 1)).layers == 2


def test_scheme_init_bounds_and_determinism():
    big = scheme_init(10**6, 256, layers=2, seed=7)
    assert big.layers == 2 and M61 >= 10**18
    assert M61 >= max(256, (10**6) ** 3)
    assert all(1 <= x < M61 for x in big.bases)
    small = scheme_init(16, 2, layers=1, seed=1)
    assert small.layers == 1 and 1 <= small.bases[0] < M61
    assert scheme_init(10**6, 256, 2, 7).bases == big.bases
    assert scheme_init(10**6, 256, 2, 8).bases != big.bases
    assert scheme_init(10**6, 256, seed=7) == big       # two layers by default
    with pytest.raises(ValueError):
        scheme_init(MAX_SUPPORTED_N + 1, 2)


def _check_split(s, cut, sch):
    """The three identities of one split S = U V, through concat and fragments_equal."""
    layers = sch.layers
    ones, zeros = (1,) * layers, (0,) * layers
    whole, u, v = fp_of(s, sch), fp_of(s[:cut], sch), fp_of(s[cut:], sch)
    # concatenation
    assert np.array_equal(concat([u, v], layers), whole)
    # V from W and U: the fragment after prefix U of S, against V at offset 0
    assert whole[0] - u[0] == v[0]
    assert fragments_equal(_vals(whole), _vals(u), _pows(u), _vals(v), zeros, ones)
    # U from W and V: U at offset 0 of S, against U at offset |V| of V U
    vu = concat([v, u], layers)
    assert vu[0] - v[0] == u[0] == cut
    assert fragments_equal(_vals(u), zeros, ones, _vals(vu), _vals(v), _pows(v))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=0, max_size=256), st.integers(0, 2**30))
def test_concat_roundtrips_every_split(symbols, cut_seed):
    sch = scheme_init(256, 256, 2, seed=11)
    s = np.asarray(symbols, dtype=np.int64)
    _check_split(s, cut_seed % (len(symbols) + 1), sch)


def test_concatenation_is_associative():
    sch = scheme_init(128, 4, 2, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = fp_of(rng.integers(0, 4, int(rng.integers(0, 20))), sch)
        b = fp_of(rng.integers(0, 4, int(rng.integers(0, 20))), sch)
        c = fp_of(rng.integers(0, 4, int(rng.integers(0, 20))), sch)
        left = concat([concat([a, b], 2), c], 2)
        right = concat([a, concat([b, c], 2)], 2)
        assert np.array_equal(left, right)
        assert np.array_equal(left, concat([a, b, c], 2))


def test_powers_stay_consistent():
    sch = scheme_init(512, 2, 2, seed=9)
    nd = fp_of(np.ones(37, dtype=np.int64), sch)
    _, inv = power_tables(sch.bases, 38)
    for l, x in enumerate(sch.bases):
        assert _pows(nd)[l] == pow(x, 37, M61)
        assert _pows(nd)[l] * int(inv[l, 37]) % M61 == 1
    halves = concat([fp_of(np.ones(20, np.int64), sch), fp_of(np.ones(17, np.int64), sch)], 2)
    assert _pows(halves) == _pows(nd)


def test_fingerprint_word_accounting():
    sch = scheme_init(16, 2, 2, seed=0)
    nd = fp_of([1, 0, 1], sch)
    assert nd.shape == (1 + 2 * 2,) and words_of(nd) == 1 + 2 * 2
    assert words_of(node(3, _pows(nd), _vals(nd))) == words_of(concat([nd], 2)) == 5


def _fragment_values(sym: np.ndarray, length: int, scheme, tables) -> np.ndarray:
    """All fragment fingerprints of one length, via the sliding-window kernel."""
    out = np.empty((scheme.layers, 1, sym.size - length + 1), np.int64)
    fragment_fp_scan([sym], length, *tables, out)
    return out[:, 0]


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
