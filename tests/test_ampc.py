import math

import numpy as np
import pytest

from palmpc._kernels import M61
from palmpc.ampc import (
    AmpcPalindromes,
    PrefixStore,
    _offset_leaves,
    ampc_lcp,
    fan_in,
    round_count,
    solve_ampc,
)
from palmpc.engine import (
    Cluster,
    ClusterConfig,
    CollisionAbort,
    StepContext,
    ceil_power,
    words_of,
)
from palmpc.fingerprint import FingerprintScheme, fragments_equal, scheme_init
from palmpc.inputs import fibonacci_text, unary_text
from palmpc.mpc import BlockPlan, MpcPalindromes, plan_decomposition, solve_mpc
from palmpc.oracle import oracle_lcp, oracle_lps, oracle_maximal_palindromes

from fingerprint_ref import fp_of


def _built(s, epsilon, seed):
    """A run after the rounds that publish the prefix entries, and a store view over them."""
    run = AmpcPalindromes(s, epsilon, seed=seed)
    run.build_prefix_entries()
    store = PrefixStore(run.cluster.shared.snapshot_get, run.leaf_starts, run.n)
    return run, store


def _leaves(run):
    """Each leaf's doubled-string range, from its start to the next leaf's."""
    return list(zip(run.leaf_starts, run.leaf_starts[1:] + [2 * run.n]))


def _published(run):
    """Every tree node, running fold and prefix entry the build publishes, read by key.

    The store's total words must equal theirs, so no other key is published.
    """
    shared = run.cluster.shared
    keys = [("t", level, idx) for level in range(run.depth)
            for idx in range(run.tree_sizes[level])]
    keys += [("f", level, idx) for level in range(1, run.depth)
             for idx in range(run.tree_sizes[level])]
    keys += [("p", leaf) for leaf in range(2 * run.plan.block_count)]
    values = {key: shared.snapshot_get(key) for key in keys}
    assert all(value is not None for value in values.values())
    assert shared.total_words == sum(words_of(value) for value in values.values())
    return values


def test_shared_store_snapshot_discipline():
    # a write in round r is invisible in round r and visible in round r+1
    cl = Cluster(ClusterConfig(n=16, epsilon=0.75, mode="ampc"))
    seen = {}

    def write(ctx):
        if ctx.machine_id == 0:
            ctx.shared_write("k", 42)
        seen["same_round"] = ctx.shared_read("k")

    def read(ctx):
        if ctx.machine_id == 0:
            seen["next_round"] = ctx.shared_read("k")

    cl.run_round(write)
    cl.run_round(read)
    assert seen["same_round"] is None
    assert seen["next_round"] == 42


def test_shared_reads_are_metered():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.75, mode="ampc"))
    cl.run_round(lambda ctx: ctx.shared_write("k", 1))
    cl.run_round(lambda ctx: [ctx.shared_read("k") for _ in range(5)])
    assert cl.stats.shared_reads_peak == 5


def test_prefix_entries_match_direct_evaluation():
    rng = np.random.default_rng(1)
    s = rng.integers(0, 4, 200).astype(np.int64)
    _, store = _built(s, 0.75, seed=2)
    scheme = scheme_init(400, 4, 2, seed=2)
    doubled = np.concatenate((s, s[::-1]))
    for _ in range(100):
        e = int(rng.integers(0, 400))
        sym, vals = store.entry(e)
        assert sym == doubled[e]
        assert vals == tuple(fp_of(doubled[: e + 1], scheme)[3:].tolist())


def test_fragment_fingerprint_recovered_from_two_entries():
    # a fragment read off the prefix entries at its two ends, compared
    # cross-multiplied (as ampc_lcp does) with its direct fingerprint
    rng = np.random.default_rng(2)
    s = rng.integers(0, 3, 128).astype(np.int64)
    _, store = _built(s, 0.75, seed=3)
    scheme = scheme_init(256, 3, 2, seed=3)
    doubled = np.concatenate((s, s[::-1]))
    ones, zeros = (1, 1), (0, 0)
    for _ in range(60):
        i = int(rng.integers(0, 256))
        j = int(rng.integers(i, 256))
        start = store.entry(i - 1)[1] if i > 0 else zeros
        pows = tuple(pow(x, i, M61) for x in scheme.bases)
        frag = fp_of(doubled[i : j + 1], scheme).tolist()
        assert fragments_equal(store.entry(j)[1], start, pows, frag[3:], zeros, ones)
        # a different fragment of the same length does not match
        other = fp_of(np.append(doubled[i:j], 3), scheme).tolist()
        assert not fragments_equal(store.entry(j)[1], start, pows, other[3:], zeros, ones)


def test_build_round_count_depends_only_on_epsilon():
    rounds = set()
    for n in (2**10, 2**12, 2**14, 2**16):
        s = (np.arange(n) % 3).astype(np.int64)
        run, _ = _built(s, 0.75, seed=1)
        rounds.add(run.cluster.stats.rounds)
    assert len(rounds) == 1


def test_ampc_lcp_examples_and_read_bound():
    s = np.array([ord(c) - 96 for c in "abaab"], dtype=np.int64)
    run, _ = _built(s, 0.75, seed=4)
    counter = _CountingContext(run.cluster.shared)
    store = PrefixStore(counter.shared_read, run.leaf_starts, run.n)
    scheme = scheme_init(10, 27, 2, seed=4)
    assert ampc_lcp(store, 3, 7, scheme.bases) == 2
    counter.reads = 0
    assert ampc_lcp(store, 2, 2, scheme.bases) == 8
    assert counter.reads == 0       # identical suffixes answered with no reads

    rng = np.random.default_rng(5)
    s = rng.integers(0, 3, 512).astype(np.int64)
    run, _ = _built(s, 0.75, seed=5)
    counter = _CountingContext(run.cluster.shared)
    store = PrefixStore(counter.shared_read, run.leaf_starts, run.n)
    scheme = scheme_init(1024, 3, 2, seed=5)
    bound = 2 * math.ceil(math.log2(1024)) + 6
    for _ in range(300):
        p1 = int(rng.integers(0, 1024))
        p2 = int(rng.integers(0, 1024))
        counter.reads = 0
        assert ampc_lcp(store, p1, p2, scheme.bases) == oracle_lcp(s, p1, p2)
        assert counter.reads <= bound


def test_ampc_lcp_letter_check_catches_a_lying_entry():
    # honest entries except one doctored value: the search stops where the
    # letters still agree, which must abort as a collision
    s = np.zeros(8, dtype=np.int64)
    run, _ = _built(s, 0.6, seed=6)
    scheme = scheme_init(16, 2, 2, seed=6)
    leaves = _leaves(run)
    doctored = {("p", leaf): run.cluster.shared.snapshot_get(("p", leaf)).copy()
                for leaf in range(len(leaves))}
    leaf = next(leaf for leaf, (lo, hi) in enumerate(leaves) if lo <= 12 < hi)
    vals = doctored["p", leaf][12 - leaves[leaf][0], 1:]
    vals[:] = (vals + 1) % M61
    fake = PrefixStore(doctored.get, run.leaf_starts, 8)
    with pytest.raises(CollisionAbort):
        ampc_lcp(fake, 0, 2, scheme.bases)


def test_solve_ampc_examples():
    r = solve_ampc("baaaab", 0.75, seed=1)
    assert (r.lps_start, r.lps_length) == (0, 6)
    assert r.table == oracle_maximal_palindromes("baaaab")


def test_ampc_equals_mpc_at_shared_epsilon():
    # the same plan gives the same superblocks, so both pipelines classify
    # them alike and ask the same LCP queries
    rng = np.random.default_rng(7)
    texts = (rng.integers(0, 2, 600).astype(np.int64), unary_text(600).symbols,
             fibonacci_text(600).symbols)
    keys = ("classified_empty", "classified_single", "classified_periodic",
            "lcp_queries", "simultaneous_centers", "local_only_machines")
    for s in texts:
        a = solve_ampc(s, 0.5, seed=9)
        m = solve_mpc(s, 0.5, seed=9)
        assert a.table == m.table
        assert (a.lps_start, a.lps_length) == (m.lps_start, m.lps_length)
        assert {k: a.stats.counters.get(k) for k in keys} == \
            {k: m.stats.counters.get(k) for k in keys}
    assert m.stats.counters["simultaneous_centers"] > 0


@pytest.mark.parametrize("solve, epsilon", [(solve_mpc, 0.5), (solve_ampc, 0.75)])
def test_pipelines_take_the_leftmost_of_equal_longest_palindromes(solve, epsilon):
    # distinct symbols: every center ties at length 1
    s = np.arange(10, 266, dtype=np.int64)
    r = solve(s, epsilon)
    assert (r.lps_start, r.lps_length) == (0, 1)
    # two copies of one length-5 palindrome, owned by different machines
    s[100:105] = s[200:205] = [1, 2, 3, 2, 1]
    r = solve(s, epsilon)
    assert (r.lps_start, r.lps_length) == (100, 5) == oracle_lps(s)


@pytest.mark.parametrize("epsilon", [0.5, 0.75])
def test_lps_is_the_root_of_the_best_tree(epsilon):
    # n = 1 and 2 run on one machine, whose best is the one-node tree's root
    rng = np.random.default_rng(27)
    for n in (1, 2, 7, 64, 333):
        s = rng.integers(0, 3, n).astype(np.int64)
        run = AmpcPalindromes(s, epsilon, seed=2)
        r = run.solve()
        root = run.cluster.shared.snapshot_get(("b", run.best_depth, 0))
        assert (r.lps_start, r.lps_length) == root == oracle_lps(s), n


def test_ampc_bypasses_the_mpc_epsilon_bound():
    s = (np.arange(300) % 5).astype(np.int64)
    with pytest.raises(ValueError):
        solve_mpc(s, 0.8, seed=1)
    r = solve_ampc(s, 0.8, seed=1)
    assert r.table == oracle_maximal_palindromes(s)
    assert r.stats.peak_memory_words <= r.stats.cap_words


def test_ampc_matches_oracle_across_epsilons():
    rng = np.random.default_rng(8)
    for trial in range(25):
        n = int(rng.integers(1, 180))
        sigma = int(rng.choice([2, 4, 26]))
        s = rng.integers(0, sigma, n).astype(np.int64)
        for eps in (0.3, 0.6, 0.75, 0.8):
            r = solve_ampc(s, eps, seed=trial)
            assert r.table == oracle_maximal_palindromes(s), (n, eps)
            assert (r.lps_start, r.lps_length) == oracle_lps(s)


def test_round_count_closed_form_from_the_plan():
    # fan-in 2b: 8 rounds at eps=0.75 for every n from 2**9 to 2**18, and at
    # most 14 at eps=0.9 (fan-in b took 15 to 21 there)
    assert {round_count(plan_decomposition(2**k, 0.75)) for k in range(9, 19)} == {8}
    assert max(round_count(plan_decomposition(2**k, 0.9)) for k in range(10, 19)) <= 14
    # a plan whose 2K leaves fit one fan-in-2b node keeps fan-in b
    plan = plan_decomposition(4096, 0.5)
    assert (plan.block_len, plan.block_count, fan_in(plan)) == (64, 64, 64)
    plan = plan_decomposition(4096, 0.75)
    assert (plan.block_len, fan_in(plan)) == (8, 16)


def test_round_count_is_bounded_by_epsilon_alone():
    # rounds <= 3 + 2 ceil(eps / (1 - eps)) for every n (the derivation is in
    # the ampc docstring), checked from the plan arithmetic alone: no roles
    sizes = list(range(1, 2000)) + np.unique(
        np.geomspace(2000, 660_561, 3000).round().astype(np.int64)).tolist()
    assert len(sizes) == 4999
    for k in range(1, 100):
        eps = k / 100
        bound = 3 + 2 * -(-k // (100 - k))
        over = []
        for n in sizes:
            b = ceil_power(n, 1.0 - eps)
            K = -(-n // b)
            rounds = round_count(BlockPlan(n, eps, b, K, K, K, ()))
            if rounds > bound:
                over.append((n, rounds))
        assert not over, (eps, bound, over[:3])


def test_ampc_round_count_is_the_closed_form_at_eps_0_9():
    rng = np.random.default_rng(17)
    for n in (2**10, 2**12):
        s = rng.integers(0, 2, n).astype(np.int64)
        r = solve_ampc(s, 0.9, seed=1)
        assert r.stats.rounds == round_count(r.plan) == 12, n
        assert r.table == oracle_maximal_palindromes(s)


def test_ampc_round_count_fixed_at_given_epsilon():
    rng = np.random.default_rng(9)
    rounds = set()
    for n in (2**9, 2**11, 2**13):
        s = rng.integers(0, 2, n).astype(np.int64)
        rounds.add(solve_ampc(s, 0.75, seed=2).stats.rounds)
    assert len(rounds) == 1


def test_leaf_bounds_tile_the_doubled_string():
    # MPC and AMPC epsilons; n=2000 at eps=0.75 has 7-symbol blocks and a
    # 5-symbol last block
    for n in (1, 2, 7, 100, 333, 2000, 4096):
        for eps in (0.2, 0.35, 0.5, 0.6, 0.75, 0.9):
            run = AmpcPalindromes(np.zeros(n, np.int64), eps)
            K = run.plan.block_count
            # the scan spans, placed in leaf order by the leaves that own them
            placed = {}
            for m, role in enumerate(run.plan.roles):
                placed.update(zip(run.own_leaves(m), role.scan_spans))
            leaves = [placed[leaf] for leaf in range(len(placed))]
            assert len(leaves) == 2 * K
            assert [lo for lo, _ in leaves] == run.leaf_starts
            pos = 0
            for lo, hi in leaves:
                assert lo == pos < hi, (n, eps)
                pos = hi
            assert pos == 2 * n
            for m, ((lo, hi), (image_lo, image_hi)) in enumerate(
                    role.scan_spans for role in run.plan.roles):
                assert (lo, hi) == (m * run.plan.block_len, min(n, (m + 1) * run.plan.block_len))
                assert (image_lo, image_hi) == (2 * n - hi, 2 * n - lo)


def test_owned_leaves_partition_the_leaves():
    for n, eps in ((1, 0.5), (100, 0.5), (333, 0.75), (2000, 0.75), (4096, 0.75)):
        run = AmpcPalindromes(np.zeros(n, np.int64), eps)
        K = run.plan.block_count
        pairs = [run.own_leaves(m) for m in range(run.plan.machine_count)]
        assert pairs == [(m, 2 * K - 1 - m) for m in range(K)]
        assert sorted(leaf for pair in pairs for leaf in pair) == list(range(2 * K))
        ends = run.leaf_starts[1:] + [2 * n]
        for m, pair in enumerate(pairs):
            # the leaves are the plan's scan spans: block m and its image
            spans = tuple((run.leaf_starts[leaf], ends[leaf]) for leaf in pair)
            assert spans == run.plan.roles[m].scan_spans


@pytest.mark.parametrize("pipeline, epsilon, round1",
                         [(MpcPalindromes, 0.5, "_r1_local"), (AmpcPalindromes, 0.75, "_r1_leaves")])
def test_round_one_leaves_each_machine_its_owned_lengths_only(pipeline, epsilon, round1):
    rng = np.random.default_rng(18)
    for s in (unary_text(1000).symbols, rng.integers(0, 2, 1000).astype(np.int64)):
        run = pipeline(s, epsilon)
        run.cluster.run_round(getattr(run, round1))
        for role, payload in zip(run.plan.roles, run.cluster.payloads):
            own = payload["own_lengths"]
            assert own.size == role.own_u_hi - role.own_u_lo and own.base is None
            keys = {"own_lengths", "letters", "letters_lo"}
            keys |= {"prefix_lens"} if role.kind == "middle" else set()
            keys |= {"leafpfx"} if pipeline is AmpcPalindromes else set()
            assert payload.keys() == keys


def test_context_round_drops_the_letters():
    # round 1 meters the letters beside the leaves; from the context round
    # on, symbols come from the prefix store
    rng = np.random.default_rng(18)
    for s in (unary_text(1000).symbols, rng.integers(0, 2, 1000).astype(np.int64)):
        run = AmpcPalindromes(s, 0.75)
        run.build_prefix_entries()
        for role, payload in zip(run.plan.roles, run.cluster.payloads):
            keys = {"own_lengths"} | ({"prefix_lens"} if role.kind == "middle" else set())
            assert payload.keys() == keys


def test_prefix_entries_are_one_read_only_array_per_leaf():
    rng = np.random.default_rng(10)
    s = rng.integers(0, 3, 300).astype(np.int64)
    run, store = _built(s, 0.75, seed=3)
    layers = run.scheme.layers
    entries = {key: val for key, val in _published(run).items() if key[0] == "p"}
    leaves = _leaves(run)
    for (_, leaf), arr in entries.items():
        lo, hi = leaves[leaf]
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert arr.shape == (hi - lo, 1 + layers) and arr.flags.c_contiguous
    # the store view reads the same rows, as Python ints (ampc_lcp
    # multiplies two 61-bit residues)
    for e in rng.integers(0, 600, 50).tolist():
        leaf = next(k for k, (lo, hi) in enumerate(leaves) if lo <= e < hi)
        row = entries[("p", leaf)][e - leaves[leaf][0]].tolist()
        sym, vals = store.entry(e)
        assert (sym, vals) == (row[0], tuple(row[1:]))
        assert all(type(v) is int for v in (sym, *vals))


def test_prefix_entry_outside_the_doubled_string_raises():
    for text in ([1, 0, 1, 1], [1, 0, 1]):
        s = np.array(text, dtype=np.int64)
        _, store = _built(s, 0.5, seed=1)
        for e in range(2 * s.size):
            store.entry(e)
        for e in (-1, 2 * s.size):
            with pytest.raises(KeyError):
                store.entry(e)


def test_tree_nodes_are_flat_read_only_fingerprint_nodes():
    # n=2000 at eps=0.9 has 3-symbol blocks: 1334 leaves and, at fan-in 6,
    # tree levels of 1334, 223, 38, 7 and 2 nodes, so the store holds levels
    # 0..4, three of them built by combine rounds
    rng = np.random.default_rng(12)
    s = rng.integers(0, 3, 2000).astype(np.int64)
    run = AmpcPalindromes(s, 0.9, seed=4)
    assert run.depth >= 4
    run.build_prefix_entries()
    layers = run.scheme.layers
    doubled = np.concatenate((s, s[::-1]))
    nodes = {key: val for key, val in _published(run).items() if key[0] == "t"}
    all_leaves = _leaves(run)
    for (_, level, idx), nd in nodes.items():
        assert nd.dtype == np.int64 and not nd.flags.writeable
        assert nd.shape == (1 + 2 * layers,) and words_of(nd) == 1 + 2 * layers
        span = run.fanout ** level
        leaves = all_leaves[idx * span : (idx + 1) * span]
        lo, hi = leaves[0][0], leaves[-1][1]
        assert np.array_equal(nd, fp_of(doubled[lo:hi], run.scheme)), (level, idx)


def test_one_pass_offset_equals_per_leaf_offsets():
    # n=2000 at eps=0.75 has 7-symbol blocks and a 5-symbol tail block; each
    # machine holds its two leaves, both its block's width
    rng = np.random.default_rng(13)
    s = rng.integers(0, 3, 2000).astype(np.int64)
    run = AmpcPalindromes(s, 0.75, seed=5)
    run.cluster.run_round(run._r1_leaves)
    layers = run.scheme.layers
    for role, payload in zip(run.plan.roles, run.cluster.payloads):
        width = sum(hi - lo for lo, hi in role.scan_spans)
        assert words_of(payload["leafpfx"]) == (1 + layers) * width
    # one pass over two stacked leaves of each width a machine may hold
    for width in (7, 5, 1):
        entries = np.column_stack([rng.integers(0, 3, 2 * width)]
                                  + [rng.integers(0, M61, 2 * width) for _ in range(layers)])
        lefts = [fp_of(rng.integers(0, 3, int(rng.integers(0, 50))), run.scheme)
                 for _ in range(2)]

        one_pass = entries.copy()
        ops = _offset_leaves(one_pass, lefts, layers)
        per_leaf = entries.tolist()
        for row, left in zip((0, width), lefts):
            left = left.tolist()
            for vals in per_leaf[row : row + width]:
                vals[1:] = [(left[1 + layers + l] + left[1 + l] * v) % M61
                            for l, v in enumerate(vals[1:])]
        assert one_pass.tolist() == per_leaf
        assert np.array_equal(one_pass[:, 0], entries[:, 0])
        assert ops == layers * 2 * width


def _leaf_range(run, level: int, first: int, last: int) -> tuple[int, int]:
    """Doubled-string range of the level-``level`` nodes first .. last - 1."""
    span = run.fanout ** level
    leaves = _leaves(run)[first * span : last * span]
    return leaves[0][0], leaves[-1][1]


@pytest.mark.parametrize("epsilon", [0.75, 0.9])
def test_running_folds_cover_the_left_children(epsilon):
    # n=2000 gives a depth-3 tree at eps=0.75 (fan-in 14, folds at levels 1
    # and 2) and a depth-5 one at eps=0.9 (fan-in 6, folds at levels 1..4)
    rng = np.random.default_rng(14)
    s = rng.integers(0, 3, 2000).astype(np.int64)
    run, _ = _built(s, epsilon, seed=6)
    assert run.depth == (3 if epsilon == 0.75 else 5)
    doubled = np.concatenate((s, s[::-1]))
    folds = {key: val for key, val in _published(run).items() if key[0] == "f"}
    for (_, level, idx), rows in folds.items():
        children = min(run.fanout, run.tree_sizes[level - 1] - idx * run.fanout)
        assert rows.shape == (children - 1, 1 + 2 * run.scheme.layers)
        assert not rows.flags.writeable
        for j, row in enumerate(rows, start=1):
            lo, hi = _leaf_range(run, level - 1, idx * run.fanout, idx * run.fanout + j)
            assert np.array_equal(row, fp_of(doubled[lo:hi], run.scheme)), (level, idx, j)


class _CountingContext:
    """Stands in for a step context: reads the published snapshot and counts the reads."""

    def __init__(self, shared):
        self._get = shared.snapshot_get
        self.reads = 0

    def shared_read(self, key):
        self.reads += 1
        return self._get(key)

    def add_work(self, ops):
        pass


@pytest.mark.parametrize("epsilon", [0.75, 0.9])
def test_left_context_reads_one_fold_per_lower_level(epsilon):
    rng = np.random.default_rng(15)
    s = rng.integers(0, 3, 2000).astype(np.int64)
    run, _ = _built(s, epsilon, seed=7)
    doubled = np.concatenate((s, s[::-1]))
    fanout, top = run.fanout, run.depth - 1
    saved = 0
    for leaf, (lo, _) in enumerate(_leaves(run)):
        ctx = _CountingContext(run.cluster.shared)
        left = run._left_context(ctx, leaf)
        assert np.array_equal(left, fp_of(doubled[:lo], run.scheme)), leaf
        ancestors = [leaf // fanout ** level for level in range(top + 1)]
        want = ancestors[top] + sum(1 for idx in ancestors[:top] if idx % fanout)
        sibling_reads = sum(idx % fanout for idx in ancestors[:top]) + ancestors[top]
        assert ctx.reads == want <= sibling_reads, leaf
        saved += sibling_reads - ctx.reads
    assert saved > 0


def _audit_texts():
    """150 near-periodic texts: a random period-p word, resized, up to three letters changed."""
    rng = np.random.default_rng(7)
    for _ in range(150):
        n = rng.integers(50, 601)
        sigma = rng.integers(2, 5)
        p = rng.integers(1, 6)
        s = np.resize(rng.integers(0, sigma, p), n)
        for _ in range(rng.integers(0, 4)):
            s[rng.integers(0, n)] = rng.integers(0, sigma)
        yield s.astype(np.int64)


def test_forced_collision_audit_counts():
    # One hash layer whose base has multiplicative order k, so fingerprints
    # collide often (order 1: a fingerprint is a symbol sum). Every run is
    # silently wrong, aborted, or exact; the end-letter check of each
    # fingerprint match turns silent runs into aborts, and these counts pin
    # what it catches.
    want = {1: (13, 53, 84), 2: (26, 27, 97), 5: (4, 11, 135)}
    texts = list(_audit_texts())
    for order, counts in want.items():
        scheme = FingerprintScheme(bases=(pow(37, (M61 - 1) // order, M61),))
        silent = abort = exact = 0
        for s in texts:
            try:
                r = solve_ampc(s, 0.75, scheme=scheme)
            except CollisionAbort:
                abort += 1
                continue
            if r.table == oracle_maximal_palindromes(s) and \
                    (r.lps_start, r.lps_length) == oracle_lps(s):
                exact += 1
            else:
                silent += 1
        assert (silent, abort, exact) == counts, order


def test_every_shared_read_of_a_solve_is_pinned(monkeypatch):
    # the golden grid pins only the peak reads per machine and round; this
    # pins the total over every machine and round of one solve
    reads = [0]
    shared_read = StepContext.shared_read

    def counted(self, key):
        reads[0] += 1
        return shared_read(self, key)

    monkeypatch.setattr(StepContext, "shared_read", counted)
    texts = {"unary": (unary_text(4096).symbols, 31571),
             "random": (np.random.default_rng(16).integers(0, 2, 4096).astype(np.int64), 5190)}
    for name, (s, want) in texts.items():
        reads[0] = 0
        solve_ampc(s, 0.75, seed=0)
        assert reads[0] == want, name
