"""The kernels against references: Python-bigint fingerprints and the array-loop scalar kernels."""

import numpy as np
import pytest

import palmpc.ampc as ampc
import palmpc.mpc as mpc
from palmpc._kernels import (
    M61,
    fragment_fp_scan,
    manacher_tables,
    power_tables,
    prefix_fp_scan,
)
from palmpc.ampc import _offset_leaves
from palmpc.fingerprint import node, scheme_init
from palmpc.inputs import alternating_text, fibonacci_text, thue_morse_text
from palmpc.oracle import oracle_lcp

# ---------------------------------------------------------------------------
# fingerprint kernels against Python bigints


def _window_ref(letters, span, width, x):
    total = len(letters)
    return [sum(letters[j + i] * pow(x, i, M61) for i in range(min(width, total - j))) % M61
            for j in range(span)]


def _prefix_ref(letters, x):
    out, acc = [], 0
    for j, s in enumerate(letters):
        acc = (acc + s * pow(x, j, M61)) % M61
        out.append(acc)
    return out


BASES = (1, 2, M61 - 1, 1_234_567_891_011, (1 << 61) - 3)


def _symbol_sets(rng):
    yield [0]
    yield [M61 - 1]
    yield [int(v) for v in rng.integers(0, 4, 7)]
    yield [int(v) for v in rng.integers(0, M61, 40)]
    yield [M61 - 1] * 33
    yield [int(v) for v in rng.integers(M61 - 8, M61, 300)]


def test_window_scan_matches_bigint():
    rng = np.random.default_rng(3)
    for letters in _symbol_sets(rng):
        total = len(letters)
        sym = np.asarray(letters, np.int64)
        pows, inv = power_tables(BASES, 2 * total + 5)
        shapes = {(total, 1), (total, total), (1, total), (total, total + 5),
                  (max(total // 2, 1), 3), (max(total - 2, 1), max(total - 1, 1))}
        for span, width in sorted(shapes):
            buf = sym[: span + width - 1]                # the letters the windows reach
            out = np.full((len(BASES), 1, span), -1, np.int64)
            ops = fragment_fp_scan([buf], width, pows, inv, out)
            for row, x in enumerate(BASES):
                assert out[row, 0].tolist() == _window_ref(letters, span, width, x), (x, span, width)
            assert ops == 2 * buf.size * len(BASES)
            one = np.full((1, 1, span), -1, np.int64)    # a single layer: the first row
            assert fragment_fp_scan([buf], width, pows, inv, one) == 2 * buf.size
            assert one[0].tolist() == out[0].tolist()


def test_window_scan_rejects_buffers_that_do_not_fit():
    # a buffer past span + width - 1 letters would be counted but not read,
    # and a buffer count unequal to the output's rows would be cut silently
    pows, inv = power_tables(BASES, 8)
    out = np.full((len(BASES), 2, 4), -1, np.int64)
    buf = np.arange(6, dtype=np.int64)                   # span 4 + width 3 - 1
    assert fragment_fp_scan([buf, buf[:2]], 3, pows, inv, out) == 2 * 8 * len(BASES)
    for bufs in ([buf, np.arange(7, dtype=np.int64)], [buf], [buf, buf, buf]):
        with pytest.raises(ValueError, match="want 2 buffers of at most 6 letters"):
            fragment_fp_scan(bufs, 3, pows, inv, out)


def test_fused_rows_match_bigint():
    # rows of different lengths in one call, as a machine's block and image
    # buffers: full, ragged (ending inside the last windows), and shorter
    # than the span; letters 0 and M61 - 1; widths below, at and past the span
    rng = np.random.default_rng(6)
    for span in (1, 2, 5, 16):
        for width in sorted({1, max(span - 1, 1), span, span + 3, 3 * span}):
            size = span + width - 1
            lengths = sorted({size, max(size - width // 2, 1), max(span - 1, 1), 1})
            rows = [rng.choice([0, 1, M61 - 1], size=k) for k in lengths]
            rows.append(np.full(size, M61 - 1, np.int64))
            rows.append(np.zeros(size, np.int64))
            pows, inv = power_tables(BASES, size)
            out = np.full((len(BASES), len(rows), span), -1, np.int64)
            ops = fragment_fp_scan(rows, width, pows, inv, out)
            assert ops == 2 * sum(row.size for row in rows) * len(BASES)
            for r, row in enumerate(rows):
                for l, x in enumerate(BASES):
                    want = _window_ref(row.tolist(), span, width, x)
                    assert out[l, r].tolist() == want, (span, width, r, x)


def test_prefix_scan_matches_bigint():
    rng = np.random.default_rng(4)
    for letters in _symbol_sets(rng):
        n = len(letters)
        sym = np.asarray(letters, np.int64)
        pows, _ = power_tables(BASES, n + 3)             # tables may be wider
        out = np.full((len(BASES), n), -1, np.int64)
        ops = prefix_fp_scan(sym, pows, out)
        for row, x in enumerate(BASES):
            assert out[row].tolist() == _prefix_ref(letters, x), x
        assert ops == 2 * n * len(BASES)
        assert prefix_fp_scan(sym, pows, out[:1]) == 2 * n


def test_offset_leaves_matches_bigint():
    # Context nodes arrive as int64 arrays and the local values sit near
    # M61 - 1, so any product of two numpy int64 scalars would overflow
    # silently; the offset must multiply Python ints. Base M61 - 1 gives the
    # multiplier M61 - 1 at every odd length.
    rng = np.random.default_rng(5)
    bases = (1, 2, M61 - 1)
    layers = len(bases)
    for width in range(1, 149):
        lefts = []
        for _ in range(2):
            length = int(rng.integers(1, 1 << 20))
            vals = (M61 - 1 - rng.integers(0, 8, layers)).tolist()
            lefts.append(node(length, [pow(x, length, M61) for x in bases], vals))
        entries = np.empty((2 * width, 1 + layers), np.int64)
        entries[:, 0] = rng.integers(0, 4, len(entries))
        entries[:, 1:] = rng.integers(M61 - 8, M61, (len(entries), layers))
        entries[::7, 1:] = rng.integers(0, M61, (len(entries[::7]), layers))
        before = entries.tolist()
        ops = _offset_leaves(entries, lefts, layers)
        assert ops == layers * len(entries)
        for row, left in zip((0, width), lefts):
            left = left.tolist()
            for got, old in zip(entries[row : row + width].tolist(),
                                before[row : row + width]):
                assert got[0] == old[0]
                assert got[1:] == [(left[1 + layers + l] + left[1 + l] * old[1 + l]) % M61
                                   for l in range(layers)], width


def test_power_tables_match_pow():
    bases = (1, 3, M61 - 1, 987_654_321)
    for size in (0, 1, 2, 3, 64, 100):
        pows, inv = power_tables(bases, size)
        assert pows.shape == inv.shape == (len(bases), size)
        for row, x in enumerate(bases):
            assert pows[row].tolist() == [pow(x, i, M61) for i in range(size)]
            assert inv[row].tolist() == [pow(x, -i, M61) for i in range(size)]


def test_scheme_rejects_alphabets_beyond_the_modulus():
    assert scheme_init(16, M61).layers == 2
    with pytest.raises(ValueError):
        scheme_init(16, M61 + 1)


# ---------------------------------------------------------------------------
# scalar kernels against the array loops they replaced


def _manacher_ref(sym, hi=None):
    n = sym.size
    hi = n if hi is None else hi
    odd = np.empty(hi, np.int64)
    even = np.empty(max(hi - 1, 0), np.int64)
    ops = np.int64(0)
    d1 = np.empty(n, np.int64)
    left, right = 0, -1
    for i in range(hi):
        k = 1 if i > right else min(d1[left + right - i], right - i + 1)
        while i - k >= 0 and i + k < n and sym[i - k] == sym[i + k]:
            k += 1
            ops += 1
        d1[i] = k
        ops += 2
        if i + k - 1 > right:
            left, right = i - k + 1, i + k - 1
        odd[i] = 2 * k - 1
    d2 = np.empty(n, np.int64)
    left, right = 0, -1
    for i in range(hi):
        k = 0 if i > right else min(d2[left + right - i + 1], right - i + 1)
        while i - k - 1 >= 0 and i + k < n and sym[i - k - 1] == sym[i + k]:
            k += 1
            ops += 1
        d2[i] = k
        ops += 2
        if i + k - 1 > right:
            left, right = i - k, i + k - 1
    for m in range(hi - 1):
        even[m] = 2 * d2[m + 1]
    return odd, even, ops


def _lcp_ref(base, p1, p2):
    n = base.size
    total = 2 * n
    length = np.int64(0)
    while p1 + length < total and p2 + length < total:
        pa, pb = p1 + length, p2 + length
        sa = base[pa] if pa < n else base[total - 1 - pa]
        sb = base[pb] if pb < n else base[total - 1 - pb]
        if sa != sb:
            break
        length += 1
    return length


SIZES = tuple(range(0, 24)) + (31, 64, 100, 257, 1000, 3000)


def _texts(n):
    rng = np.random.default_rng(n)
    yield "random", rng.integers(0, 3, n).astype(np.int64)
    yield "unary", np.zeros(n, np.int64)
    yield "fibonacci", fibonacci_text(n).symbols if n else np.zeros(0, np.int64)


@pytest.mark.parametrize("n", SIZES)
def test_scalar_kernels_equal_the_array_loops(n):
    rng = np.random.default_rng(1000 + n)
    for family, sym in _texts(n):
        odd, even, ops = manacher_tables(sym)
        w_odd, w_even, w_ops = _manacher_ref(sym)
        assert odd.dtype == even.dtype == np.int64, family
        assert np.array_equal(odd, w_odd) and np.array_equal(even, w_even), family
        assert ops == w_ops, family
        pairs = [(0, 0), (0, 2 * n), (2 * n, 2 * n)]
        pairs += [tuple(int(v) for v in rng.integers(0, 2 * n + 1, 2)) for _ in range(20)]
        for p1, p2 in pairs:
            assert oracle_lcp(sym, p1, p2) == _lcp_ref(sym, p1, p2), (family, p1, p2)


def _bounded_families(n):
    """The texts the bounded scan is pinned on: every shape of mirror and arm."""
    rng = np.random.default_rng(2000 + n)
    yield "random-2", rng.integers(0, 2, n).astype(np.int64)
    yield "random-3", rng.integers(0, 3, n).astype(np.int64)
    yield "unary", np.zeros(n, np.int64)
    yield "fibonacci", fibonacci_text(n).symbols if n else np.zeros(0, np.int64)
    yield "thue-morse", thue_morse_text(n).symbols if n else np.zeros(0, np.int64)
    yield "alternating", alternating_text(n).symbols if n else np.zeros(0, np.int64)
    run = np.zeros(n, np.int64)                 # a run, then a break, then noise
    run[n // 2 :] = rng.integers(0, 2, n - n // 2)
    if n:
        run[n // 2] = 1
    yield "run-then-break", run
    periodic = (np.arange(n) % 3 == 0).astype(np.int64)
    for flips in (1, 2, 3):
        text = periodic.copy()
        if n:
            text[rng.integers(0, n, flips)] ^= 1
        yield f"periodic-{flips}-flips", text


def _assert_bounded_equals_ref(sym, hi, family):
    odd, even, ops = manacher_tables(sym, hi)
    w_odd, w_even, w_ops = _manacher_ref(sym, hi)
    assert odd.tolist() == w_odd.tolist(), (family, hi)
    assert even.tolist() == w_even.tolist(), (family, hi)
    assert ops == w_ops, (family, hi)


@pytest.mark.parametrize("n", range(24))
def test_bounded_manacher_is_a_prefix_of_the_full_scan(n):
    for family, sym in _bounded_families(n):
        odd, even, ops = manacher_tables(sym)
        for hi in range(n + 1):
            h_odd, h_even, h_ops = manacher_tables(sym, hi)
            assert h_odd.tolist() == odd[:hi].tolist(), (family, hi)
            assert h_even.tolist() == even[: max(hi - 1, 0)].tolist(), (family, hi)
            assert h_ops <= ops, (family, hi)
            _assert_bounded_equals_ref(sym, hi, family)


@pytest.mark.parametrize("b", [12, 128])
def test_bounded_manacher_ops_equal_the_reference_on_superblocks(b):
    # a middle machine's scan: 2b + 1 letter centers of a 4b-letter superblock
    for family, sym in _bounded_families(4 * b):
        _assert_bounded_equals_ref(sym, 2 * b + 1, family)


def test_manacher_rejects_a_bound_outside_the_text():
    sym = np.array([0, 1, 1, 0], np.int64)
    for hi in (-1, 5):
        with pytest.raises(ValueError, match=f"hi={hi} "):
            manacher_tables(sym, hi)
    with pytest.raises(ValueError):
        manacher_tables(np.zeros(0, np.int64), 1)


def test_bounded_manacher_stays_linear_on_a_run_then_break():
    # The bound is on the right end only. A scan that also skipped the
    # centers left of some lo would find no mirror for a center past lo; with
    # lo = b here, each center of the zero run right of b extends its arm from
    # scratch, about b**2 letter pairs in all instead of a few per letter.
    b = 1024
    sym = np.random.default_rng(6).integers(0, 2, 4 * b).astype(np.int64)
    sym[0], sym[1 : 2 * b], sym[2 * b] = 1, 0, 1
    odd, even, _ = manacher_tables(sym)
    h_odd, h_even, ops = manacher_tables(sym, 2 * b + 1)
    assert h_odd.tolist() == odd[: 2 * b + 1].tolist()
    assert h_even.tolist() == even[: 2 * b].tolist()
    assert ops <= 4 * sym.size


# ---------------------------------------------------------------------------
# power tables: once per run


def _count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("solve, module, scan, eps", [
    (mpc.solve_mpc, mpc, "fragment_fp_scan", 0.5),
    (ampc.solve_ampc, ampc, "prefix_fp_scan", 0.75),
])
def test_power_tables_are_built_once_per_run(monkeypatch, solve, module, scan, eps):
    tables = _count_calls(monkeypatch, module, "power_tables")
    scans = _count_calls(monkeypatch, module, scan)
    sym = np.random.default_rng(2).integers(0, 2, 2048).astype(np.int64)
    for runs in (1, 2):
        solve(sym, eps, seed=runs)
        assert len(tables) == runs
    assert len(scans) > 20 * len(tables)
