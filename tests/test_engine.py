import numpy as np
import pytest

from palmpc.engine import (
    BROADCAST,
    Cluster,
    ClusterConfig,
    EngineError,
    MachineState,
    MemoryCapExceeded,
    UnknownMachineError,
    words_of,
)
from palmpc.fingerprint import fp_of, scheme_init


def test_config_examples():
    cfg = ClusterConfig(n=65536, epsilon=0.5)
    assert cfg.machine_count == 256
    assert cfg.block_len == 256
    assert cfg.memory_cap_words == 64 * 256
    assert ClusterConfig(n=16, epsilon=0.5).machine_count == 4


def test_config_rejects_large_epsilon_in_mpc_mode():
    with pytest.raises(ValueError, match="machine count"):
        ClusterConfig(n=65536, epsilon=0.75, mode="mpc")
    ClusterConfig(n=65536, epsilon=0.75, mode="ampc")
    with pytest.raises(ValueError):
        ClusterConfig(n=16, epsilon=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(n=16, epsilon=1.0, mode="ampc")


def test_exact_power_sizing_is_stable():
    # 65536**0.5 overshoots in floats; sizes must not absorb the error
    import math

    for n in list(range(1, 300)) + [2**k for k in range(4, 17)]:
        cfg = ClusterConfig(n=n, epsilon=0.5)
        isq = math.isqrt(n)
        want = isq if isq * isq == n else isq + 1
        assert cfg.block_len == want, n


def test_identity_round_only_advances_counter():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    cl.machines[2].payload["x"] = np.arange(3)
    cl.run_round(lambda ctx: None)
    assert cl.stats.rounds == 1
    assert cl.machines[2].payload["x"].tolist() == [0, 1, 2]


def test_fan_in_within_cap():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    cl.run_round(lambda ctx: ctx.send(0, 1))
    seen = {}

    def check(ctx):
        seen[ctx.machine_id] = [src for src, _ in ctx.inbox]

    cl.run_round(check)
    assert seen[0] == [0, 1, 2, 3]
    assert seen[1] == []


def test_cap_violation_aborts_with_machine_and_round():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))

    def blow(ctx):
        if ctx.machine_id == 1:
            ctx.send(0, np.zeros(10**5, np.int64))

    with pytest.raises(MemoryCapExceeded) as err:
        cl.run_round(blow)
    assert err.value.machine == 1 and err.value.round_no == 0


def test_unknown_destination_rejected():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    with pytest.raises(UnknownMachineError):
        cl.run_round(lambda ctx: ctx.send(99, 1))


def test_broadcast_reaches_everyone_and_meters_per_copy():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    cl.run_round(lambda ctx: ctx.send(BROADCAST, 7) if ctx.machine_id == 0 else None)
    got = {}
    cl.run_round(lambda ctx: got.__setitem__(ctx.machine_id, len(ctx.inbox)))
    assert all(got[m] == 1 for m in range(4))
    assert cl.stats.message_words == 4


def test_determinism_under_execution_order():
    def run(order_seed):
        cl = Cluster(ClusterConfig(n=64, epsilon=0.5, seed=1))
        rng = np.random.default_rng(order_seed)

        def phase_send(ctx):
            ctx.payload.setdefault("acc", 0)
            ctx.send((ctx.machine_id + 1) % 8, ctx.machine_id * 10)
            ctx.add_work(1)

        def phase_recv(ctx):
            ctx.payload["acc"] = sum(p for _, p in ctx.inbox) + ctx.machine_id

        for phase in (phase_send, phase_recv):
            order = list(rng.permutation(8))
            cl.run_round(phase, order=order)
        return [cl.machines[m].payload.get("acc") for m in range(8)], cl.stats.to_dict()

    state_a, stats_a = run(1)
    state_b, stats_b = run(2)
    assert state_a == state_b
    assert stats_a == stats_b


def test_sent_arrays_are_frozen_against_tampering():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    leak = {}

    def send(ctx):
        if ctx.machine_id == 0:
            arr = np.arange(4)
            ctx.send(1, arr)
            leak["arr"] = arr

    cl.run_round(send)
    with pytest.raises(ValueError):
        leak["arr"][0] = 99

    got = {}
    cl.run_round(lambda ctx: got.update({ctx.machine_id: ctx.inbox}))
    assert got[1][0][1].tolist() == [0, 1, 2, 3]


def test_steps_only_see_their_own_state():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))

    def probe(ctx):
        assert ctx.payload is cl.machines[ctx.machine_id].payload
        ctx.payload["mine"] = ctx.machine_id

    cl.run_round(probe)
    assert [cl.machines[m].payload["mine"] for m in range(4)] == [0, 1, 2, 3]


def test_words_of_units():
    sch = scheme_init(16, 2, 2, seed=0)
    assert words_of(np.zeros(5, np.int64)) == 5
    assert words_of(7) == 1
    assert words_of({"a": np.zeros(2), "b": (1, 2)}) == 4
    assert words_of(fp_of([1, 0], sch)) == 7
    assert words_of(None) == 0
    with pytest.raises(TypeError):
        words_of(object())


def test_round_accounting_is_size_independent():
    # a fixed phase sequence costs the same rounds at every problem size
    counts = set()
    for n in (2**10, 2**12, 2**14, 2**16):
        cl = Cluster(ClusterConfig(n=n, epsilon=0.5))
        for _ in range(3):
            cl.run_round(lambda ctx: None)
        cl.run_round(lambda ctx: ctx.send(0, 1))
        cl.run_round(lambda ctx: None)
        counts.add(cl.stats.rounds)
    assert counts == {5}


def test_each_payload_is_counted_once_per_round(monkeypatch):
    calls = []
    local_words = MachineState.local_words

    def counting(self):
        calls.append(self.machine_id)
        return local_words(self)

    monkeypatch.setattr(MachineState, "local_words", counting)
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))

    def r1(ctx):
        m = ctx.machine_id
        ctx.payload["x"] = np.arange(m + 1)
        ctx.send((m + 1) % 4, {"a": m, "v": np.arange(2)})
        ctx.send_many("t", [m, 3], [0, 1, 3], {"k": np.arange(3) + m})
        ctx.add_work(m)

    def r2(ctx):
        ctx.payload["got"] = [msg["a"] for _, msg in ctx.inbox]
        ctx.payload["rows"] = ctx.batches["t"]["k"].copy()
        if ctx.machine_id == 2:
            ctx.send(BROADCAST, (1, 2, 3))

    for step in (r1, r2, lambda ctx: None):
        cl.run_round(step)
    assert sorted(calls) == [m for m in range(4) for _ in range(3)]
    # messages: 4 dicts of 3 words, 4 x (2 + 3) batch words, 4 copies of a
    # 3-word broadcast; work: 6 declared plus the 44 words moved
    assert cl.stats.to_dict() == {
        "rounds": 3, "total_work": 50, "message_words": 44, "machine_count": 4,
        "block_len": 4, "cap_words": 256, "memory_constant": 64, "per_machine_peak": 21,
        "observed_memory_constant": 6, "total_memory_peak": 42, "shared_words": 0,
        "shared_reads_peak": 0, "exported_outside_run": False, "counters": {}}
    assert cl.stats.per_machine_peak.tolist() == [9, 10, 11, 21]


def test_shared_store_requires_ampc_mode():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    with pytest.raises(EngineError):
        cl.run_round(lambda ctx: ctx.shared_read("k"))


# -- columnar batches (send_many)


def _random_messages(seed: int, machines: int) -> dict:
    """Per sender, a list of (dst, groups): each group is (key, rows, vals).

    Groups are nonempty: a header value is carried by the rows of its group.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for src in range(machines):
        msgs = []
        for _ in range(int(rng.integers(0, 4))):
            dst = BROADCAST if rng.random() < 0.2 else int(rng.integers(0, machines))
            groups = []
            for g in range(int(rng.integers(1, 4))):
                k = int(rng.integers(1, 5))
                groups.append((10 * src + g, rng.integers(0, 99, k),
                               rng.integers(0, 99, (2, k))))
            msgs.append((dst, groups))
        out[src] = msgs
    return out


def _exchange(messages: dict, batched: bool, order=None):
    """One round of sends, then every machine's received rows and the stats."""
    cl = Cluster(ClusterConfig(n=64, epsilon=0.5))

    def send(ctx):
        msgs = messages[ctx.machine_id]
        if not batched:
            for dst, groups in msgs:
                ctx.send(dst, {"t": "x", "o": ctx.machine_id,
                               "key": [key for key, _, _ in groups],
                               "rows": [rows for _, rows, _ in groups],
                               "vals": [vals for _, _, vals in groups]})
            return
        if not msgs:
            return
        counts = [sum(rows.size for _, rows, _ in groups) for _, groups in msgs]
        groups = [g for _, gs in msgs for g in gs]
        rows = np.concatenate([r for _, r, _ in groups])
        ctx.send_many("x", [dst for dst, _ in msgs], np.cumsum([0] + counts),
                      {"o": np.full(rows.size, ctx.machine_id),
                       "key": np.concatenate([np.full(r.size, key) for key, r, _ in groups]),
                       "rows": rows,
                       "vals": np.concatenate([v for _, _, v in groups], axis=1)},
                      headers=("o", "key"))

    got = {}

    def receive(ctx):
        if batched:
            got[ctx.machine_id] = ctx.batches.get("x")
            return
        parts = [(np.full(r.size, msg["o"]), np.full(r.size, key), r, v)
                 for _, msg in ctx.inbox
                 for key, r, v in zip(msg["key"], msg["rows"], msg["vals"])]
        if ctx.inbox:
            got[ctx.machine_id] = {
                name: np.concatenate([p[i] for p in parts], axis=-1) if parts else None
                for i, name in enumerate(("o", "key", "rows", "vals"))}

    cl.run_round(send, order=order)
    peaks = cl.stats.per_machine_peak.copy()
    cl.run_round(receive, order=order)
    return got, cl.stats.to_dict(), peaks


def test_send_many_meters_and_delivers_like_send():
    for seed in range(8):
        messages = _random_messages(seed, 8)
        want, want_stats, want_peaks = _exchange(messages, batched=False)
        got, got_stats, got_peaks = _exchange(messages, batched=True)
        assert got_stats == want_stats and np.array_equal(got_peaks, want_peaks)
        assert got.keys() == want.keys()
        for m, cols in want.items():
            for name, col in cols.items():
                if col is not None:
                    assert np.array_equal(got[m][name], col), (seed, m, name)
                else:
                    assert got[m][name].shape[-1] == 0


def test_send_many_is_independent_of_execution_order():
    messages = _random_messages(3, 8)
    base, base_stats, _ = _exchange(messages, batched=True)
    for order_seed in (1, 2):
        order = list(np.random.default_rng(order_seed).permutation(8))
        got, stats, _ = _exchange(messages, batched=True, order=order)
        assert stats == base_stats
        for m, cols in base.items():
            assert all(np.array_equal(got[m][k], v) for k, v in cols.items())


def test_delivered_batches_are_read_only():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    cl.run_round(lambda ctx: ctx.send_many("x", [1], [0, 3], {"v": np.arange(3)}))
    got = {}
    cl.run_round(lambda ctx: got.update(ctx.batches))
    assert got["x"]["v"].tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
    with pytest.raises(ValueError):
        got["x"]["v"][0] = 99


def test_send_many_rejects_unknown_destination():
    for bad in (4, 99, -2):
        cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
        with pytest.raises(UnknownMachineError):
            cl.run_round(lambda ctx: ctx.send_many("x", [0, bad], [0, 1, 2],
                                                   {"v": np.arange(2)}))


def test_oversized_batch_names_receiver_and_round():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))    # cap 256 words
    cl.run_round(lambda ctx: None)

    def flood(ctx):
        # 101 words from each sender fit, 404 words at machine 2 do not
        ctx.send_many("x", [2], [0, 100], {"v": np.zeros(100, np.int64)})

    with pytest.raises(MemoryCapExceeded) as err:
        cl.run_round(flood)
    assert (err.value.machine, err.value.round_no, err.value.words) == (2, 1, 404)


def test_send_many_rejects_offsets_that_do_not_cut_the_columns():
    cols = {"v": np.arange(4)}
    for dsts, offsets in (([0], [0, 3]), ([0, 1], [0, 4]), ([0, 1, 2], [0, 3, 2, 4]),
                          ([0, 1], [1, 2, 4])):
        cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
        with pytest.raises(EngineError, match="offsets"):
            cl.run_round(lambda ctx: ctx.send_many("x", dsts, offsets, cols))
