import numpy as np
import pytest

from palmpc import mpc
from palmpc._kernels import first_unequal_run, fragment_fp_scan
from palmpc.ampc import solve_ampc
from palmpc.engine import Cluster, ClusterConfig, CollisionAbort, StepContext
from palmpc.fingerprint import FingerprintScheme, scheme_init
from palmpc.inputs import fibonacci_text, thue_morse_text, unary_text
from palmpc.mpc import (
    MAX_TEXT_LEN,
    FingerprintLcp,
    MpcPalindromes,
    local_scan,
    plan_decomposition,
    solve_mpc,
)
from palmpc.oracle import oracle_lps, oracle_maximal_palindromes
from palmpc.strings import manacher
from palmpc.structural import InconsistentMergeError

from fingerprint_ref import fp_of


def test_plan_example_n16():
    plan = plan_decomposition(16, 0.5)
    assert plan.block_len == 4 and plan.block_count == 4
    kinds = [r.kind for r in plan.roles]
    assert kinds == ["local", "middle", "local", "local"]
    # the lone middle machine's superblock is the whole text
    assert (plan.roles[1].letters_lo, plan.roles[1].letters_hi) == (0, 16)
    # every machine owns its own block
    assert (plan.roles[3].own_u_lo, plan.roles[3].own_u_hi) == (2 * 3 * 4, 2 * 16 - 1)
    assert plan.roles[3].scan_spans == ((12, 16), (16, 20))


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


@pytest.mark.parametrize("eps", [0.3, 0.4, 0.5, 0.6, 0.75, 0.9])
def test_plan_covers_every_center_once(eps):
    for n in [1, 2, 3, 5, 16, 17, 64, 100, 255, 256, 1000]:
        plan = plan_decomposition(n, eps)
        b = plan.block_len
        # the messaging pipeline (w <= b) scans w - 1 letters past each span;
        # the adaptive one reads the spans alone, as its leaves
        w = plan.window if plan.window <= b else 1
        owned = np.zeros(2 * n - 1, dtype=np.int64)
        for m, role in enumerate(plan.roles):
            owned[role.own_u_lo : role.own_u_hi] += 1
            # machine m owns exactly the half-indices of block m
            assert (role.own_u_lo, role.own_u_hi) == (2 * m * b, min(2 * (m + 1) * b, 2 * n - 1))
            assert role.kind in ("middle", "local")
            if role.kind == "local":
                # the longest palindrome the text ends allow at each owned
                # center u lies within the letters
                u = np.arange(role.own_u_lo, role.own_u_hi)
                reach = np.minimum(u // 2, n - 1 - (u + 1) // 2)
                assert (u // 2 - reach >= role.letters_lo).all(), (n, eps, m)
                assert ((u + 1) // 2 + reach < role.letters_hi).all(), (n, eps, m)
                assert role.letters_hi - role.letters_lo < 6 * b, (n, eps, m)
            for lo, hi in role.scan_spans:
                # each window-scan buffer maps inside the letters: its text
                # part, and the mirror image of its part past n
                buf_hi = min(hi + w - 1, 2 * n)
                text = [(lo, min(buf_hi, n))] if lo < n else []
                if buf_hi > n:
                    text.append((2 * n - buf_hi, 2 * n - max(lo, n)))
                for t_lo, t_hi in text:
                    assert role.letters_lo <= t_lo and t_hi <= role.letters_hi, (n, eps, m)
        assert (owned == 1).all(), (n, eps)


def test_plan_window_never_exceeds_block():
    for n in [1, 2, 16, 100, 4096, 65536]:
        for eps in (0.3, 0.4, 0.5):
            plan = plan_decomposition(n, eps)
            assert plan.window <= plan.block_len


@pytest.mark.parametrize("eps", [0.0, 1.0, 2.0, -1.0, float("nan")])
def test_plan_rejects_epsilon_outside_the_open_unit_interval(eps):
    with pytest.raises(ValueError, match=rf"epsilon must be in \(0, 1\), got {eps}"):
        plan_decomposition(64, eps)


def _installed_store(s, epsilon, seed):
    """A run after its scan and install rounds, whose machines hold both window stores."""
    run = MpcPalindromes(s, epsilon, seed=seed)
    run.cluster.run_round(run._r1_local)
    run.cluster.run_round(run.lcp.install)
    return run


def _class_positions(run, m):
    # machine m keeps the windows at doubled positions p with p mod w == m
    count = run.cluster.payloads[m]["cls_vals"].shape[1]
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
    doubled = np.concatenate((s, s[::-1]))
    w = run.plan.window
    checked = 0
    for m in range(run.plan.machine_count):
        values = run.cluster.payloads[m]["cls_vals"]
        for k, pos in enumerate(_class_positions(run, m).tolist()):
            frag = doubled[pos : pos + w]
            want = tuple(fp_of(frag, scheme)[3:].tolist())
            assert tuple(int(v) for v in values[:, k]) == want
            checked += 1
    assert checked == 128


def test_shipped_tail_is_kept_as_its_own_copy():
    # a view would keep the round's whole merged tail column alive
    s = np.random.default_rng(3).integers(0, 2, 1024).astype(np.int64)
    run = _installed_store(s, 0.5, seed=2)
    tails = [p["tail"] for p in run.cluster.payloads if "tail" in p]
    assert len(tails) > 1
    assert all(t.base is None and t.size == run.plan.window for t in tails)


def _per_span_routing(run, m):
    """Machine m's window batches routed one scan span at a time, as separate
    kernel calls: each span sends one segment per residue class, in class
    order, and one per window row."""
    plan, lcp = run.plan, run.lcp
    w, M, n = plan.window, plan.machine_count, run.n
    payload = run.cluster.payloads[m]
    fc_dst, fc_count, fc_rows, fs_dst, fs_count, positions, values = ([] for _ in range(7))
    base = 0
    for lo, hi in plan.roles[m].scan_spans:
        buf = mpc._materialize_doubled(payload["letters"], payload["letters_lo"], n, lo,
                                       min(hi + w - 1, 2 * n))
        vals = np.empty((run.scheme.layers, 1, hi - lo), np.int64)
        fragment_fp_scan([buf], w, lcp.pows, lcp.inv_pows, vals)
        i = np.arange(hi - lo)
        fc_dst.append((lo + i[:w]) % w)
        fc_count.append(np.bincount(i % w))
        fc_rows.append(base + np.argsort(i % w, kind="stable"))
        row = (lo + i) // w
        fs_dst.append(np.arange(row[0], row[-1] + 1) % M)
        fs_count.append(np.bincount(row - row[0]))
        positions.append(lo + i)
        values.append(vals[:, 0])
        base += i.size
    pos, vals = np.concatenate(positions), np.concatenate(values, axis=1)
    by_class = np.concatenate(fc_rows)
    return {"fc": (np.concatenate(fc_dst), mpc._offsets(np.concatenate(fc_count)),
                   pos[by_class], vals[:, by_class]),
            "fs": (np.concatenate(fs_dst), mpc._offsets(np.concatenate(fs_count)), pos, vals)}


def test_window_routing_equals_per_span_routing(monkeypatch):
    # one kernel call and arithmetic routing per machine give the batches of
    # one call and one argsort per span: same segments, rows and values
    sent = {}

    def record(ctx, tag, dsts, offsets, cols, headers=()):
        sent[ctx.machine_id, tag] = (dsts, offsets, cols["pos"], cols["vals"])

    monkeypatch.setattr(StepContext, "send", record)
    rng = np.random.default_rng(7)
    for n in [*range(1, 41), 333, 1024]:
        s = rng.integers(0, 3, n).astype(np.int64)
        for eps in (0.2, 0.35, 0.5):
            run = MpcPalindromes(s, eps, seed=n)
            for m in range(run.plan.machine_count):
                sent.clear()
                run.lcp.scan(StepContext(run.cluster, m, {}))
                for tag, want in _per_span_routing(run, m).items():
                    got = sent[m, tag]
                    assert all(np.array_equal(g, v) for g, v in zip(got, want)), (n, eps, m, tag)


def _runs_reference(values: list) -> tuple[list, list]:
    """(first value, segment bounds) of each run of equal values, by a loop."""
    firsts, bounds = [], []
    for i, v in enumerate(values):
        if i == 0 or v != values[i - 1]:
            firsts.append(v)
            bounds.append(i)
    return firsts, bounds + [len(values)]


LOW, HIGH = np.iinfo(np.int64).min, np.iinfo(np.int64).max


@pytest.mark.parametrize("values", [
    [], [7], [3, 3, 3, 3], [0, 1, 2, 5, 9], [4, 4, 1, 1, 1, 4, 1, 4, 4],
    [-5, -5, -1, 0, 0, -7], [LOW, LOW, HIGH, HIGH, LOW, 0, -1, HIGH],
    [HIGH, LOW, HIGH, LOW],
])
def test_runs_match_a_literal_reference(values):
    arr = np.array(values, np.int64)
    firsts, bounds = mpc._runs(arr)
    assert (firsts.tolist(), bounds.tolist()) == _runs_reference(values)
    assert bounds.dtype == np.int64 and bounds[0] == 0 and bounds[-1] == arr.size
    # the bounds cut the values into segments as ``send`` takes them
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    cl.run_round(lambda ctx: ctx.send("r", np.zeros(firsts.size, np.int64), bounds, {"v": arr})
                 if ctx.machine_id == 0 else None)
    got = {}
    cl.run_round(lambda ctx: got.update(ctx.batches))
    if values:
        assert got["r"]["v"].tolist() == values
    else:
        assert got == {}        # no segments, so nothing is delivered


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


def test_refinement_collision_aborts_the_pipeline():
    # base 1 makes a window fingerprint a symbol sum. The suffixes at 0 and 1
    # first differ at 15, but the windows [15, 20) and [16, 21) both hold the
    # lone 1, so the chains miss that mismatch and the refinement scan of the
    # next window is not prefix-monotone. The scheme is given, so no seed helps.
    s = np.zeros(21, np.int64)
    s[16] = 1
    for seed in (0, 1, 5):
        with pytest.raises(CollisionAbort,
                           match=r"refinement scan at \(0, 1\) is not prefix-monotone"):
            solve_mpc(s, 0.5, seed=seed, scheme=FingerprintScheme(bases=(1,)))


def test_pipelines_reject_texts_past_the_supported_length():
    # both fingerprint the doubled text, so the limit is half the prime's
    from palmpc.ampc import AmpcPalindromes

    assert MAX_TEXT_LEN == 660_561
    too_long = np.zeros(MAX_TEXT_LEN + 1, np.int64)
    for make in (lambda: MpcPalindromes(too_long, 0.5),
                 lambda: AmpcPalindromes(too_long, 0.75),
                 lambda: MpcPalindromes(too_long, 0.5, scheme=FingerprintScheme(bases=(3,))),
                 lambda: AmpcPalindromes(too_long, 0.75, scheme=FingerprintScheme(bases=(3,)))):
        with pytest.raises(ValueError,
                           match="text length 660562 exceeds the supported maximum 660561"):
            make()
    longest = too_long[:-1]
    assert MpcPalindromes(longest, 0.5).n == MAX_TEXT_LEN
    assert AmpcPalindromes(longest, 0.75).n == MAX_TEXT_LEN


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


# Thue-Morse settles every query in the first wave; unary asks one
# second-wave query, whose chain requests go to every machine
@pytest.mark.parametrize("text, late_steps", [(unary_text(4096), [64, 1, 0]),
                                              (thue_morse_text(4096), [0, 0, 0])],
                         ids=["unary", "thue-morse"])
def test_consume_and_serve_rounds_step_only_the_machines_with_batches(text, late_steps):
    run = MpcPalindromes(text.symbols, 0.5, seed=0)
    cluster = run.cluster
    run_round = cluster.run_round
    rounds = []     # per round: the machines stepped, and those with batches delivered

    def counted(step, machines=None):
        stepped = []

        def phase(ctx):
            stepped.append(ctx.machine_id)
            step(ctx)

        delivered = sorted(cluster._delivered)
        run_round(phase, machines)
        rounds.append((stepped, delivered))

    cluster.run_round = counted
    run.run()
    assert cluster.stats.rounds == len(rounds) == MpcPalindromes.ROUNDS == 10
    everyone = list(range(run.plan.machine_count))
    for r, (stepped, delivered) in enumerate(rounds, 1):
        assert stepped == (delivered if r in (3, 4, 6, 7, 8, 10) else everyone), r
    assert [len(stepped) for stepped, _ in rounds[5:8]] == late_steps
    assert rounds[9][0] == [0]
    assert run.export_table() == manacher(text.symbols)


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


@pytest.mark.parametrize("solve, eps", [(solve_mpc, 0.5), (solve_ampc, 0.75)])
def test_superblock_query_budget_is_checked_in_both_pipelines(monkeypatch, solve, eps):
    # pad each periodic first wave [left, right] to four queries by repeating
    # its first one in front, so its first and last answers keep their meaning
    first_wave = mpc.first_wave

    def padded(prefix_lens, start, n):
        wave = first_wave(prefix_lens, start, n)
        return wave[:1] * 2 + wave if len(wave) == 2 else wave

    monkeypatch.setattr(mpc, "first_wave", padded)
    with pytest.raises(AssertionError,
                       match=r"superblock at \d+ issued [45] LCP queries, over the budget of 3"):
        solve(unary_text(1024).symbols, eps)


def _tamper_replies(monkeypatch, tag, edit):
    """Pass the first ``tag`` batch that any machine consumes through ``edit``.

    Returns a list that gets the tampered machine's id."""
    consume = FingerprintLcp.consume
    tampered = []

    def tampering(self, ctx):
        batch = ctx.batches.get(tag)
        if batch is not None and not tampered:
            ctx.batches[tag] = edit(batch)
            tampered.append(ctx.machine_id)
        consume(self, ctx)

    monkeypatch.setattr(FingerprintLcp, "consume", tampering)
    return tampered


def _keep(batch, keep):
    return {name: col[..., keep] for name, col in batch.items()}


def _drop_chain_tail(cr):
    # the highest window row of the first key's chain
    mine = np.flatnonzero(cr["key"] == cr["key"][0])
    keep = np.ones(cr["key"].size, bool)
    keep[mine[np.argmax(cr["rows"][mine])]] = False
    return _keep(cr, keep)


def _drop_chain_side(cr):
    return _keep(cr, cr["key"] != cr["key"][0])


def _duplicate_first_row(sr):
    return _keep(sr, np.r_[0, np.arange(sr["key"].size)])


@pytest.mark.parametrize("text", [unary_text, fibonacci_text, thue_morse_text])
@pytest.mark.parametrize("tag, edit", [("cr", _drop_chain_tail), ("cr", _drop_chain_side),
                                       ("sr", _duplicate_first_row)])
def test_incomplete_or_duplicated_replies_are_rejected(monkeypatch, text, tag, edit):
    tampered = _tamper_replies(monkeypatch, tag, edit)
    with pytest.raises(InconsistentMergeError, match=f"'{tag}' replies for .* are incomplete"):
        solve_mpc(text(512).symbols, 0.5)
    assert tampered


def test_edge_machines_finish_locally_without_queries():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(64, 400))
        s = rng.integers(0, 2, n).astype(np.int64)
        run = MpcPalindromes(s, 0.5, seed=3)
        run.run()
        local = [m for m, role in enumerate(run.plan.roles) if role.kind == "local"]
        assert local[0] == 0 and local[-1] == run.plan.machine_count - 1
        assert run.cluster.stats.counters["local_only_machines"] == len(local)
        for m in local:
            assert m not in run.lcp.queries or not run.lcp.queries[m]


@pytest.mark.parametrize("epsilon", [0.2, 0.35, 0.5, 0.75])
def test_local_scan_on_every_role(epsilon):
    # every machine runs the one local scan on its placed letters: a local
    # role's lengths are final, and a middle role's agree with the oracle
    # wherever the local palindrome stops short of the superblock's left edge
    rng = np.random.default_rng(27)
    for n in range(1, 41):
        for s in (rng.integers(0, 2, n).astype(np.int64), np.zeros(n, np.int64)):
            want = oracle_maximal_palindromes(s).lengths_by_center()
            plan = plan_decomposition(n, epsilon)
            for role in plan.roles:
                base = 2 * role.letters_lo
                lo, hi = role.own_u_lo - base, role.own_u_hi - base
                own, prefix_lens, _ = local_scan(s[role.letters_lo : role.letters_hi], lo, hi)
                oracle = want[role.own_u_lo : role.own_u_hi]
                if role.kind == "local":
                    assert np.array_equal(own, oracle), (n, role)
                    continue
                assert (lo, hi) == (2 * plan.block_len, 4 * plan.block_len)
                # a local palindrome centered at v reaches the edge iff its length is v + 1
                edge = own == np.arange(lo, hi) + 1
                assert np.array_equal(own[~edge], oracle[~edge]), (n, role)
                assert prefix_lens.tolist() == (np.flatnonzero(edge) + lo + 1).tolist()


def test_table_slices_cover_the_string():
    s = np.tile(np.array([0, 1, 1], dtype=np.int64), 40)
    run = MpcPalindromes(s, 0.5, seed=4)
    run.run()
    flat = np.full(2 * s.size - 1, -1, np.int64)
    for m, role in enumerate(run.plan.roles):
        lengths = run.cluster.payloads[m].get("own_lengths", np.empty(0, np.int64))
        assert lengths.size == role.own_u_hi - role.own_u_lo
        flat[role.own_u_lo : role.own_u_hi] = lengths
    want = oracle_maximal_palindromes(s).lengths_by_center()
    assert np.array_equal(flat, want)


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
    from palmpc.strings import manacher

    text = np.array([2, 1, 2, 0, -1, 7], np.int64)
    for call in (lambda: solve_mpc(text, 0.5), lambda: solve_ampc(text, 0.5)):
        with pytest.raises(ValueError, match="position 4"):
            call()
    # the sequential primitives accept any integers
    assert manacher(text) == oracle_maximal_palindromes(text)


def test_pipelines_reject_symbols_beyond_the_modulus_under_an_explicit_scheme():
    # an explicit scheme skips scheme_init's alphabet check, so the range check
    # must sit with the symbols: fingerprints of 2**61 - 1 and 0 coincide
    text = fibonacci_text(4096).symbols.copy()
    text[1] = (1 << 61) - 1
    scheme = scheme_init(8192, 2, seed=1)
    for call in (lambda: solve_mpc(text, 0.5, scheme=scheme),
                 lambda: solve_ampc(text, 0.75, scheme=scheme)):
        with pytest.raises(ValueError, match=f"symbol {(1 << 61) - 1} at position 1"):
            call()
