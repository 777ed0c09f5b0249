import numpy as np
import pytest

from palmpc._kernels import first_unequal_run
from palmpc.engine import CollisionAbort, StepContext
from palmpc.fingerprint import FingerprintScheme, fp_of, scheme_init
from palmpc.inputs import fibonacci_text, thue_morse_text, unary_text
from palmpc.mpc import (
    DistributedLcp,
    MpcPalindromes,
    distributed_lcp,
    plan_decomposition,
    solve_mpc,
)
from palmpc.oracle import oracle_lcp, oracle_lps, oracle_maximal_palindromes
from palmpc.strings import DoubledView
from palmpc.structural import InconsistentMergeError


def test_plan_example_n16():
    plan = plan_decomposition(16, 0.5)
    assert plan.block_len == 4 and plan.block_count == 4
    kinds = [r.kind for r in plan.roles]
    assert kinds == ["first", "middle", "store", "last"]
    # the lone middle machine's superblock is the whole text
    assert (plan.roles[1].letters_lo, plan.roles[1].letters_hi) == (0, 16)
    assert plan.roles[3].own_u_lo == 2 * plan.tail_block * 4


def test_plan_example_n64():
    plan = plan_decomposition(64, 0.5)
    assert plan.block_len == 8
    middles = [m for m, r in enumerate(plan.roles) if r.kind == "middle"]
    assert middles == [1, 2, 3, 4, 5]
    for m in middles:
        role = plan.roles[m]
        assert role.letters_hi - role.letters_lo == 32
        if m > 1:
            prev = plan.roles[m - 1]
            overlap = prev.letters_hi - role.letters_lo
            assert overlap == 24     # consecutive superblocks share 3 blocks


@pytest.mark.parametrize("eps", [0.3, 0.4, 0.5])
def test_plan_covers_every_center_once(eps):
    for n in [1, 2, 3, 5, 16, 17, 64, 100, 255, 256, 1000]:
        plan = plan_decomposition(n, eps)
        owned = np.zeros(2 * n - 1, dtype=np.int64)
        for role in plan.roles:
            owned[role.own_u_lo : role.own_u_hi] += 1
        assert (owned == 1).all(), (n, eps)


def test_plan_window_never_exceeds_block():
    for n in [1, 2, 16, 100, 4096, 65536]:
        for eps in (0.3, 0.4, 0.5):
            plan = plan_decomposition(n, eps)
            assert plan.window <= plan.block_len


def _installed_store(s, epsilon, seed):
    """A run after its scan and install rounds, whose machines hold both window stores."""
    run = MpcPalindromes(s, epsilon, seed=seed)
    run.cluster.run_round(run._r1_local)
    run.cluster.run_round(run.lcp.install)
    return run


def _class_positions(run, m):
    # machine m keeps the windows at doubled positions p with p mod w == m
    count = run.cluster.machines[m].payload["cls_vals"].shape[1]
    return m + run.plan.window * np.arange(count, dtype=np.int64)


def test_store_snapshot_residue_classes():
    # n=16, eps=0.5 gives window 4: machine 1 holds positions 1, 5, 9, ...
    s = (np.arange(16) % 7).astype(np.int64)
    run = _installed_store(s, 0.5, seed=1)
    assert _class_positions(run, 1).tolist() == [1, 5, 9, 13, 17, 21, 25, 29]
    total = sum(_class_positions(run, m).size for m in range(run.plan.machine_count))
    assert total == 32      # one window fingerprint per doubled position


def test_store_values_match_direct_fingerprints():
    rng = np.random.default_rng(2)
    s = rng.integers(0, 4, 64).astype(np.int64)
    run = _installed_store(s, 0.5, seed=3)
    scheme = scheme_init(128, 4, 2, seed=3)
    d = DoubledView(s)
    w = run.plan.window
    checked = 0
    for m in range(run.plan.machine_count):
        values = run.cluster.machines[m].payload["cls_vals"]
        for k, pos in enumerate(_class_positions(run, m).tolist()):
            frag = d.materialize(pos, min(pos + w, 128))
            want = tuple(fp_of(frag, scheme)[3:].tolist())
            assert tuple(int(v) for v in values[:, k]) == want
            checked += 1
    assert checked == 128


def test_letter_getter_raises_for_letters_not_held():
    # n=64, eps=0.5: machine 1 places S[0, 32) and receives no shipped tail
    s = (np.arange(64) % 5).astype(np.int64)
    run = _installed_store(s, 0.5, seed=0)
    ctx = StepContext(run.cluster, 1, {})
    assert run.lcp.letters(ctx, 28, 32).tolist() == s[28:32].tolist()
    assert run.lcp.letters(ctx, 96, 128).tolist() == s[:32][::-1].tolist()
    for lo, hi in ((30, 34), (94, 96)):
        with pytest.raises(InconsistentMergeError, match=rf"\[{lo}, {hi}\) escapes"):
            run.lcp.letters(ctx, lo, hi)


def test_distributed_lcp_examples():
    answers, stats = distributed_lcp("abaab", [(3, 7), (2, 2), (0, 5)], 0.5)
    assert answers == [2, 8, 0]


def test_distributed_lcp_identical_suffix_shortcut():
    answers, stats = distributed_lcp("abcabc", [(k, k) for k in range(12)], 0.5)
    assert answers == [12 - k for k in range(12)]
    assert stats.counters.get("lcp_queries", 0) == 0


def test_distributed_lcp_random_queries_match_oracle():
    rng = np.random.default_rng(4)
    for n in (100, 512):
        s = rng.integers(0, 3, n).astype(np.int64)
        queries = [(int(rng.integers(0, 2 * n)), int(rng.integers(0, 2 * n)))
                   for _ in range(120)]
        answers, _ = distributed_lcp(s, queries, 0.5, seed=5)
        d = DoubledView(s)
        for a, (p1, p2) in zip(answers, queries):
            assert a == oracle_lcp(d, p1, p2)


def test_distributed_lcp_rejects_positions_outside_the_doubled_text():
    with pytest.raises(ValueError, match=r"\(0, 7\)"):
        DistributedLcp("abc", [(0, 7)], 0.5)


def _weak_lcp_run(trial):
    # base 1 makes a window fingerprint a symbol sum, so collisions are common
    rng = np.random.default_rng(trial)
    n = int(rng.integers(40, 160))
    s = rng.integers(0, 2, n).astype(np.int64)
    queries = [(int(a), int(b)) for a, b in rng.integers(0, 2 * n, (40, 2))]
    return DistributedLcp(s, queries, 0.5, seed=0, scheme=FingerprintScheme(bases=(1,))).run()


@pytest.mark.parametrize("trial, message", [
    (30, r"answer 8 for \(93, 41\) fails the letter spot-check"),
    (0, r"refinement scan at \(125, 134\) is not prefix-monotone"),
])
def test_distributed_lcp_detects_collisions(trial, message):
    with pytest.raises(CollisionAbort, match=message):
        _weak_lcp_run(trial)


def test_pipeline_worked_example():
    r = solve_mpc("baaaab", 0.5, seed=1)
    assert (r.lps_start, r.lps_length) == (0, 6)
    assert r.table == oracle_maximal_palindromes("baaaab")


def test_pipeline_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(6)
    for trial in range(40):
        n = int(rng.integers(1, 200))
        sigma = int(rng.choice([2, 4, 26]))
        s = rng.integers(0, sigma, n).astype(np.int64)
        for eps in (0.3, 0.5):
            r = solve_mpc(s, eps, seed=trial)
            assert r.table == oracle_maximal_palindromes(s), (n, eps)
            assert (r.lps_start, r.lps_length) == oracle_lps(s)


def test_pipeline_round_count_is_fixed():
    rng = np.random.default_rng(7)
    rounds = set()
    for n in (2**8, 2**10, 2**12):
        s = rng.integers(0, 2, n).astype(np.int64)
        r = solve_mpc(s, 0.5, seed=1)
        rounds.add(r.stats.rounds)
    assert rounds == {MpcPalindromes.ROUNDS} == {10}


def test_pipeline_torture_inputs():
    for text in (unary_text(512), fibonacci_text(512), thue_morse_text(512)):
        r = solve_mpc(text.symbols, 0.5, seed=2)
        assert r.table == oracle_maximal_palindromes(text.symbols)


def test_pipeline_deterministic_across_reruns():
    rng = np.random.default_rng(8)
    s = rng.integers(0, 2, 300).astype(np.int64)
    a = solve_mpc(s, 0.4, seed=9)
    b = solve_mpc(s, 0.4, seed=9)
    assert a.table == b.table
    assert (a.lps_start, a.lps_length) == (b.lps_start, b.lps_length)
    assert a.stats.to_dict() == b.stats.to_dict()


def test_query_budget_instrumented():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(64, 400))
        s = rng.integers(0, 2, n).astype(np.int64)
        run = MpcPalindromes(s, 0.5, seed=3)
        run.run()
        issued = run.cluster.stats.counters.get("lcp_queries", 0)
        assert issued <= 3 * run.plan.machine_count
        for m, per in run.lcp.queries.items():
            assert len(per) <= 3


def test_edge_machines_finish_locally_without_queries():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(64, 400))
        s = rng.integers(0, 2, n).astype(np.int64)
        run = MpcPalindromes(s, 0.5, seed=3)
        run.run()
        for m, role in enumerate(run.plan.roles):
            if role.kind in ("first", "last", "store"):
                assert m not in run.lcp.queries or not run.lcp.queries[m]


def test_table_slices_cover_the_string():
    s = np.tile(np.array([0, 1, 1], dtype=np.int64), 40)
    run = MpcPalindromes(s, 0.5, seed=4)
    run.run()
    flat = np.full(2 * s.size - 1, -1, np.int64)
    for m, role in enumerate(run.plan.roles):
        lengths = run.cluster.machines[m].payload.get("own_lengths", np.empty(0, np.int64))
        assert lengths.size == role.own_u_hi - role.own_u_lo
        flat[role.own_u_lo : role.own_u_hi] = lengths
    want = oracle_maximal_palindromes(s).lengths_by_center()
    assert np.array_equal(flat, want)
    assert run.cluster.stats.exported_outside_run is False
    run.export_table()
    assert run.cluster.stats.exported_outside_run is True


def test_memory_caps_hold_across_modes_and_sizes():
    rng = np.random.default_rng(10)
    for n in (256, 1024):
        for eps in (0.3, 0.5):
            s = rng.integers(0, 4, n).astype(np.int64)
            r = solve_mpc(s, eps, seed=11)
            assert r.stats.peak_memory_words <= r.stats.cap_words
            assert r.stats.observed_memory_constant() <= 64


def test_refinement_monotonicity_detector():
    run, tainted = first_unequal_run(np.array([True, True, False, False]))
    assert (run, tainted) == (2, False)
    run, tainted = first_unequal_run(np.array([True, False, True]))
    assert (run, tainted) == (1, True)
    run, tainted = first_unequal_run(np.zeros(0, dtype=bool))
    assert (run, tainted) == (0, False)


def test_degenerate_scheme_on_random_binary_text_aborts_or_is_exact():
    # a one-layer scheme with base 1 reduces every window fingerprint to a
    # symbol sum; over this fixed set of uniform random binary texts the
    # pipeline must either abort on a detected contradiction or still produce
    # the exact table. These texts rarely issue an LCP query. Near-periodic
    # texts do go silently wrong under this scheme (the README gives the
    # figures), so this is no guarantee for arbitrary input.
    weak = FingerprintScheme(bases=(1,))
    rng = np.random.default_rng(12)
    for trial in range(40):
        n = int(rng.integers(50, 400))
        s = rng.integers(0, 2, n).astype(np.int64)
        try:
            r = solve_mpc(s, 0.5, seed=trial, scheme=weak)
        except CollisionAbort:
            continue
        assert r.table == oracle_maximal_palindromes(s)


def test_pipelines_reject_negative_symbols_with_position():
    from palmpc.ampc import solve_ampc
    from palmpc.strings import manacher

    text = np.array([2, 1, 2, 0, -1, 7], np.int64)
    for call in (lambda: solve_mpc(text, 0.5), lambda: solve_ampc(text, 0.5),
                 lambda: distributed_lcp(text, [(0, 1)], 0.5)):
        with pytest.raises(ValueError, match="position 4"):
            call()
    # the sequential primitives accept any integers
    assert manacher(text) == oracle_maximal_palindromes(text)
