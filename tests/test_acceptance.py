"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The equivalence grid (criterion 1) is shared with the resource-bound
checks (criterion 4) through a session fixture so the heavy sweep runs once.
"""

import time

import numpy as np
import pytest

from palmpc.ampc import solve_ampc
from palmpc.engine import CollisionAbort
from palmpc.fingerprint import concat, fragments_equal, scheme_init
from palmpc.inputs import alternating_text, fibonacci_text, thue_morse_text, unary_text
from palmpc.mpc import solve_mpc
from palmpc.oracle import oracle_lps, oracle_maximal_palindromes

from exhaustive_views import sweep_views
from fingerprint_ref import fp_of

GRID_SIZES = (256, 1024, 4096)
GRID_SIGMAS = (2, 4, 26)
GRID_EPSILONS = (0.3, 0.4, 0.5)
GRID_SEEDS = 200


def _line(ok: bool, criterion: str, detail: str) -> None:
    # visible with `pytest -s`; the verbose test names carry the verdicts too
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}", flush=True)


@pytest.fixture(scope="session")
def equivalence_grid():
    """Criterion-1 sweep; also records the resource peaks criterion 4 needs."""
    rng_global = np.random.default_rng(20240001)
    table_mismatches = 0
    lps_mismatches = 0
    collision_aborts = 0
    runs = 0
    max_constant = 0
    max_total_ratio = 0.0
    t0 = time.time()
    for n in GRID_SIZES:
        for sigma in GRID_SIGMAS:
            for eps in GRID_EPSILONS:
                for seed in range(GRID_SEEDS):
                    s = rng_global.integers(0, sigma, n).astype(np.int64)
                    try:
                        res = solve_mpc(s, eps, seed=seed)
                    except CollisionAbort:
                        collision_aborts += 1
                        continue
                    runs += 1
                    if not (res.table == oracle_maximal_palindromes(s)):
                        table_mismatches += 1
                    if (res.lps_start, res.lps_length) != oracle_lps(s):
                        lps_mismatches += 1
                    max_constant = max(max_constant,
                                       res.stats.observed_memory_constant())
                    max_total_ratio = max(max_total_ratio,
                                          res.stats.total_memory_peak / n)
    return {
        "runs": runs,
        "table_mismatches": table_mismatches,
        "lps_mismatches": lps_mismatches,
        "collision_aborts": collision_aborts,
        "max_constant": max_constant,
        "max_total_ratio": max_total_ratio,
        "elapsed_s": time.time() - t0,
    }


def test_criterion_1_oracle_equivalence(equivalence_grid):
    g = equivalence_grid
    expected = len(GRID_SIZES) * len(GRID_SIGMAS) * len(GRID_EPSILONS) * GRID_SEEDS
    ok = (g["runs"] == expected and g["table_mismatches"] == 0
          and g["lps_mismatches"] == 0 and g["collision_aborts"] == 0)
    _line(ok, "criterion 1 (oracle equivalence)",
          f"{g['runs']}/{expected} runs exact, {g['table_mismatches']} table diffs, "
          f"{g['lps_mismatches']} lps diffs, {g['elapsed_s']:.0f}s")
    assert g["runs"] == expected
    assert g["table_mismatches"] == 0
    assert g["lps_mismatches"] == 0


def test_criterion_2_exhaustive_small_instances():
    t0 = time.time()
    rep = sweep_views(16, 2)
    ok = rep["mismatches"] == 0 and rep["max_queries_per_view"] <= 3
    _line(ok, "criterion 2 (exhaustive views <= 16)",
          f"{rep['strings']} strings, {rep['views']} views, "
          f"{rep['mismatches']} mismatches, max {rep['max_queries_per_view']} "
          f"queries/view, {time.time() - t0:.0f}s")
    assert rep["mismatches"] == 0
    assert rep["max_queries_per_view"] <= 3


def test_criterion_3_round_constancy():
    rng = np.random.default_rng(3)
    mpc_rounds = set()
    for n in (2**10, 2**12, 2**14, 2**16):
        s = rng.integers(0, 4, n).astype(np.int64)
        mpc_rounds.add(solve_mpc(s, 0.5, seed=1).stats.rounds)
    ampc_rounds = set()
    for n in (2**10, 2**12, 2**14, 2**16):
        s = rng.integers(0, 4, n).astype(np.int64)
        ampc_rounds.add(solve_ampc(s, 0.75, seed=1).stats.rounds)
    ok = (len(mpc_rounds) == 1 and max(mpc_rounds) <= 10
          and len(ampc_rounds) == 1 and max(ampc_rounds) <= 10)
    _line(ok, "criterion 3 (round constancy)",
          f"messaging R0={sorted(mpc_rounds)} adaptive R0={sorted(ampc_rounds)}"
          f" over n in 2^10..2^16")
    assert mpc_rounds == {10}
    assert len(ampc_rounds) == 1 and max(ampc_rounds) <= 10


def test_criterion_4_memory_bounds(equivalence_grid):
    g = equivalence_grid
    ok = g["max_constant"] <= 64 and g["max_total_ratio"] <= 64
    _line(ok, "criterion 4 (memory bounds)",
          f"per-machine C={g['max_constant']} (cap 64), "
          f"total C'={g['max_total_ratio']:.1f}n (cap 64n)")
    assert g["max_constant"] <= 64
    assert g["max_total_ratio"] <= 64


def test_criterion_5_work_linearity():
    rng = np.random.default_rng(5)
    works = {}
    for n in (2**12, 2**13, 2**14, 2**15):
        total = 0
        for seed in range(5):
            s = rng.integers(0, 4, n).astype(np.int64)
            total += solve_mpc(s, 0.5, seed=seed).stats.total_work
        works[n] = total / 5
    ratios = [works[2 * n] / works[n] for n in (2**12, 2**13, 2**14)]
    ok = all(1.7 <= r <= 2.4 for r in ratios)
    _line(ok, "criterion 5 (work linearity)",
          "W(2n)/W(n) = " + ", ".join(f"{r:.3f}" for r in ratios))
    for r in ratios:
        assert 1.7 <= r <= 2.4


def test_criterion_6_adaptive_mode_bypasses_epsilon_bound():
    rng = np.random.default_rng(6)
    n = 4096
    checked = []
    for eps in (0.6, 0.75, 0.8):
        with pytest.raises(ValueError):
            solve_mpc(np.zeros(n, np.int64), eps, seed=1)
        s = rng.integers(0, 4, n).astype(np.int64)
        res = solve_ampc(s, eps, seed=2)
        table_ok = res.table == oracle_maximal_palindromes(s)
        cap_ok = res.stats.peak_memory_words <= res.stats.cap_words
        checked.append((eps, table_ok, cap_ok))
    ok = all(t and c for _, t, c in checked)
    _line(ok, "criterion 6 (adaptive epsilon > 0.5)",
          "; ".join(f"eps={e}: table {'ok' if t else 'DIFF'}, caps "
                    f"{'ok' if c else 'OVER'}" for e, t, c in checked))
    assert ok


def test_criterion_7_periodic_torture():
    n = 4096
    cases = {
        "unary": unary_text(n),
        "alternating": alternating_text(n),
        "fibonacci": fibonacci_text(n),
        "thue-morse": thue_morse_text(n),
    }
    periodic_fired = {}
    all_ok = True
    for name, text in cases.items():
        res = solve_mpc(text.symbols, 0.5, seed=7)
        exact = res.table == oracle_maximal_palindromes(text.symbols)
        all_ok &= exact
        periodic_fired[name] = res.stats.counters.get("classified_periodic", 0)
        assert exact, name
    ok = all_ok and periodic_fired["unary"] >= 1 and periodic_fired["fibonacci"] >= 1
    _line(ok, "criterion 7 (periodic torture)",
          "exact on all four; periodic branch fired " +
          ", ".join(f"{k}:{v}" for k, v in periodic_fired.items()))
    assert periodic_fired["unary"] >= 1
    assert periodic_fired["fibonacci"] >= 1


def test_criterion_8_fingerprint_scheme(equivalence_grid):
    rng = np.random.default_rng(8)
    scheme = scheme_init(256, 256, layers=2, seed=88)
    ones, zeros = (1, 1), (0, 0)
    for _ in range(500):
        n = int(rng.integers(1, 257))
        s = rng.integers(0, 256, n).astype(np.int64)
        whole = fp_of(s, scheme)
        for cut in range(n + 1):
            # nodes are [len, x**len per layer, fp per layer]; Python ints
            # for fragments_equal, which multiplies two 61-bit residues
            u = fp_of(s[:cut], scheme)
            v = fp_of(s[cut:], scheme)
            assert np.array_equal(concat([u, v], 2), whole)
            w_, u_, v_ = whole.tolist(), u.tolist(), v.tolist()
            # V from W and U: the fragment after prefix U of S equals V
            assert w_[0] - u_[0] == v_[0]
            assert fragments_equal(w_[3:], u_[3:], u_[1:3], v_[3:], zeros, ones)
            # U from W and V: U at offset 0 of S equals U at offset |V| of V U
            vu = concat([v, u], 2).tolist()
            assert vu[0] - v_[0] == u_[0]
            assert fragments_equal(u_[3:], zeros, ones, vu[3:], v_[3:], v_[1:3])
    deterministic = scheme_init(256, 256, 2, 88).bases == scheme.bases
    ok = deterministic and equivalence_grid["collision_aborts"] == 0
    _line(ok, "criterion 8 (fingerprint scheme)",
          f"round-trips on all splits of 500 strings; "
          f"{equivalence_grid['collision_aborts']} collision aborts across the "
          f"grid; deterministic under fixed seed: {deterministic}")
    assert deterministic
    assert equivalence_grid["collision_aborts"] == 0


def _binary_palindromes(max_len):
    for length in range(1, max_len + 1):
        half = (length + 1) // 2
        for code in range(1 << half):
            v = np.empty(length, dtype=np.int64)
            for j in range(half):
                v[j] = (code >> j) & 1
                v[length - 1 - j] = v[j]
            yield v


def _has_period(s, p):
    return all(s[i] == s[i + p] for i in range(len(s) - p))


def test_criterion_9_period_palindrome_facts():
    t0 = time.time()
    checked = 0
    for pal in _binary_palindromes(14):
        # prefix/period duality: |V|-|U| is a period of V iff U is a palindrome
        for ulen in range(1, len(pal)):
            u = pal[:ulen]
            is_pal = np.array_equal(u, u[::-1])
            assert _has_period(pal, len(pal) - ulen) == is_pal
            checked += 1
        for p in range(1, len(pal) + 1):
            if not _has_period(pal, p):
                continue
            for c in (0, 1):
                c_keeps = _has_period(np.concatenate(([c], pal)), p)
                for c2 in (0, 1):
                    ext = np.concatenate(([c], pal, [c2]))
                    keeps = _has_period(ext, p)
                    right_keeps = _has_period(np.concatenate((pal, [c2])), p)
                    if keeps:
                        assert np.array_equal(ext, ext[::-1])
                    if c_keeps and not right_keeps:
                        assert not np.array_equal(ext, ext[::-1])
                    checked += 1
    _line(True, "criterion 9 (periodicity facts <= 14)",
          f"{checked} instances exhaustively verified, {time.time() - t0:.0f}s")
