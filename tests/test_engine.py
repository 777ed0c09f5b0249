import tracemalloc

import numpy as np
import pytest

from palmpc.engine import (
    Cluster,
    ClusterConfig,
    EngineError,
    MessageBatch,
    MemoryCapExceeded,
    UnknownMachineError,
    words_of,
)


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


def test_config_rejects_memory_constant_below_one():
    for constant in (0, -1):
        with pytest.raises(ValueError, match="memory constant"):
            ClusterConfig(n=16, epsilon=0.5, memory_constant=constant)
    assert ClusterConfig(n=16, epsilon=0.5, memory_constant=1).memory_cap_words == 4


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
    cl.payloads[2]["x"] = np.arange(3)
    cl.run_round(lambda ctx: None)
    assert cl.stats.rounds == 1
    assert cl.payloads[2]["x"].tolist() == [0, 1, 2]


def test_fan_in_within_cap():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    cl.run_round(lambda ctx: ctx.send("x", [0], [0, 1], {"o": np.array([ctx.machine_id])}))
    seen = {}

    def check(ctx):
        seen[ctx.machine_id] = ctx.batches["x"]["o"].tolist() if "x" in ctx.batches else []

    cl.run_round(check)
    assert seen[0] == [0, 1, 2, 3]
    assert seen[1] == []
    assert cl.stats.message_words == 4 * 2     # a tag word and one value each


def test_cap_violation_aborts_with_machine_and_round():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))

    def blow(ctx):
        if ctx.machine_id == 1:
            ctx.send("x", [0], [0, 10**5], {"v": np.zeros(10**5, np.int64)})

    with pytest.raises(MemoryCapExceeded) as err:
        cl.run_round(blow)
    assert err.value.machine == 1 and err.value.round_no == 1
    assert err.value.check == "step"
    assert "after its round 1 step (payload plus outbox)" in str(err.value)


def test_cap_violation_names_the_lowest_machine_under_every_order():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))    # cap 256 words

    def blow(ctx):
        if ctx.machine_id in (1, 3):
            ctx.payload["x"] = np.zeros(300, np.int64)

    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [3, 0, 1, 2]):
        with pytest.raises(MemoryCapExceeded) as err:
            cl.run_round(blow, machines=order)
        assert (err.value.machine, err.value.words) == (1, 300), order


def test_machines_must_be_distinct_known_ids():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    for machines in ([0, 1, 2, 2], [0, 1, 2, 3, 0], [1, 2, 3, 4], [-1, 0]):
        with pytest.raises(EngineError, match="distinct ids of the 4 machines"):
            cl.run_round(lambda ctx: None, machines=machines)
    stepped = []
    for machines in ([2, 0, 3, 1], [3, 1], []):
        cl.run_round(lambda ctx: stepped.append(ctx.machine_id), machines=machines)
    assert stepped == [2, 0, 3, 1, 3, 1]
    assert cl.stats.rounds == 3


def test_a_machine_left_out_must_have_no_batches_pending():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    cl.run_round(lambda ctx: ctx.send("x", [2], [0, 1], {"v": np.array([7])})
                 if ctx.machine_id == 0 else None)
    with pytest.raises(EngineError, match="machine 2 has batches pending but does not "
                                          "step in round 2"):
        cl.run_round(lambda ctx: None, machines=[0, 1, 3])
    got = []
    cl.run_round(lambda ctx: got.append(ctx.batches["x"]["v"].tolist()), machines=[2])
    assert got == [[7]]


def test_partial_rounds_meter_every_payload_as_a_full_recount():
    # machine 3 is filled before round 1 and never steps; the others step in
    # some rounds and not in others. Every step grows its payload, so each
    # boundary's metered totals are also the peaks, and must equal a recount.
    cl = Cluster(ClusterConfig(n=16, epsilon=0.75, mode="ampc"))
    cl.payloads[3]["placed"] = np.zeros(5, np.int64)
    rng = np.random.default_rng(0)

    def grow(ctx):
        ctx.payload[f"r{cl.stats.rounds}"] = np.zeros(int(rng.integers(1, 9)), np.int64)
        ctx.shared_write(("k", ctx.machine_id), cl.stats.rounds)

    for machines in ([0, 1, 2, 4, 5, 6, 7], [5, 1], [], [7, 6, 0], None, [2]):
        cl.run_round(grow, machines=machines)
        words = [sum(words_of(v) for v in payload.values()) for payload in cl.payloads]
        assert cl.stats.per_machine_peak.tolist() == words, machines
        assert cl.stats.total_memory_peak == sum(words) + cl.shared.total_words, machines
    assert list(cl.payloads[3]) == ["placed", "r4"]


def test_placed_payloads_are_metered_before_any_step():
    # a placed payload that machine 2 drops in its round 1 step still counts
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))    # cap 256 words
    cl.payloads[2]["x"] = np.zeros(10, np.int64)
    cl.run_round(lambda ctx: ctx.payload.clear(), machines=[2])
    assert cl.stats.per_machine_peak.tolist() == [0, 0, 10, 0]

    # one over the cap aborts before any machine steps
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    cl.payloads[2]["x"] = np.zeros(300, np.int64)
    stepped = []
    with pytest.raises(MemoryCapExceeded) as err:
        cl.run_round(lambda ctx: stepped.append(ctx.machine_id))
    assert (err.value.machine, err.value.round_no, err.value.words) == (2, 1, 300)
    assert err.value.check == "placement"
    assert str(err.value) == "machine 2 holds 300 words at placement, cap 256"
    assert stepped == []


def test_in_place_payload_update_of_a_stepping_machine_is_metered():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))    # cap 256 words
    cl.payloads[1]["x"] = np.zeros(10, np.int64)
    cl.run_round(lambda ctx: None)
    assert cl.stats.per_machine_peak[1] == 10

    def grow(ctx):
        ctx.payload["x"] = np.resize(ctx.payload["x"], 40)
        ctx.payload["y"] = 3

    cl.run_round(grow, machines=[1])
    assert cl.stats.per_machine_peak.tolist() == [0, 41, 0, 0]
    assert cl.stats.total_memory_peak == 41

    def blow(ctx):
        ctx.payload["x"] = np.resize(ctx.payload["x"], 300)

    with pytest.raises(MemoryCapExceeded) as err:
        cl.run_round(blow, machines=[1])
    assert (err.value.machine, err.value.words) == (1, 301)


def test_unknown_destination_rejected():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    with pytest.raises(UnknownMachineError):
        cl.run_round(lambda ctx: ctx.send("x", [99], [0, 1], {"v": np.ones(1, np.int64)}))


def test_fan_out_reaches_everyone_and_meters_every_copy():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    cl.run_round(lambda ctx: ctx.send("x", np.arange(4), np.arange(5), {"v": np.full(4, 7)})
                 if ctx.machine_id == 0 else None)
    # the sender holds all 4 segments after its step; each receiver holds one
    assert cl.stats.per_machine_peak.tolist() == [8, 2, 2, 2]
    got = {}
    cl.run_round(lambda ctx: got.__setitem__(ctx.machine_id, ctx.batches["x"]["v"].tolist()))
    assert all(got[m] == [7] for m in range(4))
    # each of the 4 segments costs its tag word and its one value
    assert cl.stats.message_words == 8


def test_determinism_under_execution_order():
    def run(order_seed):
        cl = Cluster(ClusterConfig(n=64, epsilon=0.5))
        rng = np.random.default_rng(order_seed)

        def phase_send(ctx):
            ctx.payload.setdefault("acc", 0)
            ctx.send("x", [(ctx.machine_id + 1) % 8], [0, 1],
                     {"v": np.array([ctx.machine_id * 10])})
            ctx.add_work(1)

        def phase_recv(ctx):
            ctx.payload["acc"] = int(ctx.batches["x"]["v"].sum()) + ctx.machine_id

        for phase in (phase_send, phase_recv):
            order = list(rng.permutation(8))
            cl.run_round(phase, machines=order)
        return [cl.payloads[m].get("acc") for m in range(8)], cl.stats.to_dict()

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
            ctx.send("x", [1], [0, 4], {"v": arr})
            leak["arr"] = arr

    cl.run_round(send)
    with pytest.raises(ValueError):
        leak["arr"][0] = 99

    got = {}
    cl.run_round(lambda ctx: got.update({ctx.machine_id: ctx.batches}))
    assert got[1]["x"]["v"].tolist() == [0, 1, 2, 3]


def test_steps_only_see_their_own_state():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))

    def probe(ctx):
        assert ctx.payload is cl.payloads[ctx.machine_id]
        ctx.payload["mine"] = ctx.machine_id

    cl.run_round(probe)
    assert [cl.payloads[m]["mine"] for m in range(4)] == [0, 1, 2, 3]


def test_words_of_units():
    assert words_of(np.zeros(5, np.int64)) == 5
    assert words_of(np.zeros((2, 3), np.int64)) == 6
    assert words_of(7) == words_of(np.int64(7)) == 1
    assert words_of((1, np.int64(2))) == 2
    with pytest.raises(TypeError):
        words_of(object())


@pytest.mark.parametrize("value", [[1, 2], {"a": 1}, 1.5, None, True,
                                   (1, np.zeros(2, np.int64))])
def test_words_of_rejects_values_that_are_not_flat(value):
    # a container would hide what it holds from the meter
    with pytest.raises(TypeError, match="cannot meter"):
        words_of(value)


def test_round_accounting_is_size_independent():
    # a fixed phase sequence costs the same rounds at every problem size
    counts = set()
    for n in (2**10, 2**12, 2**14, 2**16):
        cl = Cluster(ClusterConfig(n=n, epsilon=0.5))
        for _ in range(3):
            cl.run_round(lambda ctx: None)
        cl.run_round(lambda ctx: ctx.send("x", [0], [0, 1], {"v": np.ones(1, np.int64)}))
        cl.run_round(lambda ctx: None)
        counts.add(cl.stats.rounds)
    assert counts == {5}


def test_each_payload_is_counted_once_per_round():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    calls = []

    class Counted(dict):
        """A machine's payload that records each walk over its values."""

        def __init__(self, machine):
            super().__init__()
            self.machine = machine

        def values(self):
            calls.append(self.machine)
            return super().values()

    cl.payloads = [Counted(m) for m in range(4)]

    def r1(ctx):
        m = ctx.machine_id
        ctx.payload["x"] = np.arange(m + 1)
        ctx.send("d", [(m + 1) % 4], [0, 1], {"a": np.array([m]), "v": np.arange(2).reshape(2, 1)})
        ctx.send("t", [m, 3], [0, 1, 3], {"k": np.arange(3) + m})
        ctx.add_work(m)

    def r2(ctx):
        ctx.payload["got"] = ctx.batches["d"]["a"].copy()
        ctx.payload["rows"] = ctx.batches["t"]["k"].copy()
        if ctx.machine_id == 2:
            ctx.send("b", np.arange(4), np.arange(5) * 3, {"v": np.tile([1, 2, 3], 4)})

    for step in (r1, r2, lambda ctx: None):
        cl.run_round(step)
    # one walk at placement, before the first step, then one per round
    assert sorted(calls) == [m for m in range(4) for _ in range(4)]
    # messages: 4 "d" rows of 1 + 3 words, 4 x (2 + 3) "t" words, 4 segments
    # of 1 + 3 words from machine 2; work: 6 declared plus the 52 words moved
    assert cl.stats.to_dict() == {
        "rounds": 3, "machine_count": 4, "block_len": 4,
        "memory": {"per_machine_peak": 22, "cap": 256, "observed_constant": 6,
                   "total_peak": 46},
        "work": 58, "message_words": 52, "shared_words": 0, "shared_reads_peak": 0,
        "counters": {}}
    # machine m: x (m + 1 words) plus 9 outbox words after round 1; machine 3
    # also receives 4 + 2 + 3 x 4 words at that boundary, with its 4 of x;
    # machine 2 holds 3 + 1 + 1 payload words and its 4 x 4 outbox words
    # after its round 2 step
    assert cl.stats.per_machine_peak.tolist() == [10, 11, 21, 22]


def test_shared_words_counts_published_snapshots_only():
    # a rewritten key replaces its old value: 10 words, then 2
    cl = Cluster(ClusterConfig(n=16, epsilon=0.75, mode="ampc"))
    for words in (10, 2):
        cl.run_round(lambda ctx: ctx.shared_write("k", np.zeros(words, np.int64))
                     if ctx.machine_id == 0 else None)
    assert cl.shared.total_words == 2
    assert cl.stats.shared_words == 10 == cl.stats.total_memory_peak


def test_shared_read_budget_names_the_lowest_machine_under_every_order():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.75, mode="ampc"))
    budget = cl.config.shared_read_cap
    assert (cl.config.machine_count, budget) == (8, 896)

    def read(ctx):
        if ctx.machine_id in (1, 7):
            for _ in range(budget + 1):
                ctx.shared_read("k")

    for order in (list(range(8)), list(range(7, -1, -1)), [7, 3, 1, 0, 2, 4, 5, 6]):
        with pytest.raises(EngineError, match=f"machine 1 made {budget + 1} shared reads "
                                              f"in round 1, budget {budget}"):
            cl.run_round(read, machines=order)
    assert cl.stats.shared_reads_peak == budget + 1


def test_shared_store_requires_ampc_mode():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    with pytest.raises(EngineError):
        cl.run_round(lambda ctx: ctx.shared_read("k"))


# -- segment metering and merged delivery


def _random_messages(seed: int, machines: int) -> dict:
    """Per sender, a list of (tag, dst, groups): each group is (key, rows, vals).

    Groups are nonempty: a header value is carried by the rows of its group.
    Keys are distinct within a message but drawn from a small pool, so equal
    keys meet across messages, senders and ``send`` calls.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for src in range(machines):
        msgs = []
        for _ in range(int(rng.integers(0, 6))):
            # a fan-out: the same groups to every machine, one message each
            dsts = range(machines) if rng.random() < 0.2 else [int(rng.integers(0, machines))]
            groups = []
            for key in rng.choice(4, int(rng.integers(1, 4)), replace=False).tolist():
                k = int(rng.integers(1, 5))
                groups.append((key, rng.integers(0, 99, k), rng.integers(0, 99, (2, k))))
            msgs += [("x", dst, groups) for dst in dsts]
        out[src] = msgs
    return out


def _dict_words(groups) -> int:
    """Words of the dict message one segment stands for: its tag, its origin, one
    word per key, and the words of its rows and values. An empty message is its
    tag alone: no row carries its origin."""
    if not groups:
        return 1
    return 2 + sum(1 + rows.size + vals.size for _, rows, vals in groups)


def _columns(src: int, groups) -> dict:
    """The columns of consecutive groups: origin and key headers, rows, 2-row values."""
    rows = np.concatenate([np.zeros(0, np.int64)] + [r for _, r, _ in groups])
    return {"o": np.full(rows.size, src),
            "key": np.concatenate([np.zeros(0, np.int64)]
                                  + [np.full(r.size, key) for key, r, _ in groups]),
            "rows": rows,
            "vals": np.concatenate([np.zeros((2, 0), np.int64)] + [v for _, _, v in groups],
                                   axis=1)}


def _exchange(messages: dict, order=None):
    """One round of sends, then every machine's received batches, the stats and peaks."""
    # one machine per sender. ``_random_messages`` sends at most 5 messages of
    # at most 41 words to each of the M machines, so no machine sends or
    # receives more than 205 M words: a cap of 256 M never binds
    cl = Cluster(ClusterConfig(n=len(messages) ** 2, epsilon=0.5, memory_constant=256))

    def send(ctx):
        # a sender's messages under a tag go out in two calls, so a tag's
        # batches meet within one sender as well as across senders
        msgs = messages[ctx.machine_id]
        for tag in dict.fromkeys(tag for tag, _, _ in msgs):
            mine = [(dst, groups) for t, dst, groups in msgs if t == tag]
            for part in (mine[:len(mine) // 2], mine[len(mine) // 2:]):
                if not part:
                    continue
                counts = [sum(rows.size for _, rows, _ in groups) for _, groups in part]
                ctx.send(tag, [dst for dst, _ in part], np.cumsum([0] + counts),
                         _columns(ctx.machine_id, [g for _, gs in part for g in gs]),
                         headers=("o", "key"))

    got = {}

    def receive(ctx):
        if ctx.batches:
            got[ctx.machine_id] = dict(ctx.batches)

    cl.run_round(send, machines=order)
    peaks = cl.stats.per_machine_peak.copy()
    cl.run_round(receive, machines=order)
    return got, cl.stats.to_dict(), peaks


def _check_against_dicts(messages: dict, machines: int, label=None) -> dict:
    """Exchange ``messages`` and compare every number and row with dict messages.

    Checks message words and work, every machine's step and boundary peak,
    which machines receive each tag, and each destination's rows in (sender,
    sequence, row) order. Returns the received batches.
    """
    sent = 0
    out_words = np.zeros(machines, np.int64)
    in_words = np.zeros(machines, np.int64)
    parts = {}      # (machine, tag) -> [(src, key, rows, vals)] received
    for src in range(machines):
        for tag, dst, groups in messages[src]:
            words = _dict_words(groups)
            sent += words
            out_words[src] += words
            in_words[dst] += words
            parts.setdefault((dst, tag), []).extend(
                (src, key, rows, vals) for key, rows, vals in groups)
    got, stats, peaks = _exchange(messages)
    assert stats["message_words"] == stats["work"] == sent, label
    assert peaks.tolist() == np.maximum(out_words, in_words).tolist(), label
    assert {(m, tag) for m, batches in got.items() for tag in batches} == parts.keys(), label
    for (m, tag), want in parts.items():
        cols = got[m][tag]
        assert cols["o"].tolist() == [src for src, _, r, _ in want for _ in r], (label, m)
        assert cols["key"].tolist() == [key for _, key, r, _ in want for _ in r], (label, m)
        assert cols["rows"].tolist() == [x for _, _, r, _ in want for x in r.tolist()]
        assert np.array_equal(cols["vals"], np.concatenate(
            [np.zeros((2, 0), np.int64)] + [v for *_, v in want], axis=1))
    return got


def test_send_meters_segments_like_dicts():
    # past 256 machines the destinations are sorted as 16-bit integers
    for seed, machines in [(seed, 8) for seed in range(8)] + [(8, 300)]:
        _check_against_dicts(_random_messages(seed, machines), machines, label=seed)


def test_delivery_of_empty_segments_and_single_sender_tags():
    rng = np.random.default_rng(7)

    def groups(*keys):
        return [(key, rng.integers(0, 99, 2), rng.integers(0, 99, (2, 2))) for key in keys]

    # zero-row segments, to one machine and to every machine, among nonempty
    # ones; only machine 5 sends "solo", only machine 3 sends "void", which
    # has no rows; machine 6 receives only empty segments
    to_all = [("x", m, []) for m in range(8)]
    messages = {m: [] for m in range(8)}
    messages[0] = [("x", 3, []), *to_all, ("x", 1, groups(0)), ("x", 3, groups(1, 2))]
    messages[2] = [("x", 1, groups(3)), *to_all, ("x", 4, groups(0, 1))]
    messages[3] = [("x", 3, []), ("void", 6, []), ("x", 3, groups(2))]
    messages[5] = [("solo", 1, groups(1)), ("solo", 6, []), ("solo", 1, groups(0, 3))]
    messages[7] = [("x", 0, groups(1)), ("x", 4, [])]
    got = _check_against_dicts(messages, 8)
    assert sorted(got[6]) == ["solo", "void", "x"]
    assert all(col.shape[-1] == 0 for batch in got[6].values() for col in batch.values())
    assert got[1]["solo"]["key"].tolist() == [1, 1, 0, 0, 3, 3]


def test_send_is_independent_of_execution_order():
    messages = _random_messages(3, 8)
    base, base_stats, _ = _exchange(messages)
    for order_seed in (1, 2):
        order = list(np.random.default_rng(order_seed).permutation(8))
        got, stats, _ = _exchange(messages, order=order)
        assert stats == base_stats
        for m, batches in base.items():
            assert all(np.array_equal(got[m]["x"][k], v) for k, v in batches["x"].items())


def test_delivered_batches_are_read_only():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
    cl.run_round(lambda ctx: ctx.send("x", [1], [0, 3], {"v": np.arange(3)}))
    got = {}
    cl.run_round(lambda ctx: got.update(ctx.batches))
    assert got["x"]["v"].tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
    with pytest.raises(ValueError):
        got["x"]["v"][0] = 99


def test_send_rejects_unknown_destination():
    for bad in (4, 99, -2, -1):
        cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
        with pytest.raises(UnknownMachineError, match=f"sent to unknown machine {bad}$"):
            cl.run_round(lambda ctx: ctx.send("x", [0, bad], [0, 1, 2],
                                                   {"v": np.arange(2)}))


def test_oversized_batch_names_receiver_and_round():
    cl = Cluster(ClusterConfig(n=16, epsilon=0.5))    # cap 256 words
    cl.run_round(lambda ctx: None)

    def flood(ctx):
        # 101 words from each sender fit, 404 words at machine 2 do not
        ctx.send("x", [2], [0, 100], {"v": np.zeros(100, np.int64)})

    with pytest.raises(MemoryCapExceeded) as err:
        cl.run_round(flood)
    assert (err.value.machine, err.value.round_no, err.value.words) == (2, 2, 404)
    assert err.value.check == "boundary"
    assert "at the round 2 boundary (payload plus received)" in str(err.value)


def test_one_tag_must_declare_the_same_headers_in_a_round():
    def send(ctx):
        m = ctx.machine_id
        ctx.send("x", [0], [0, 2], {"k": np.array([m, m])}, headers=("k",) if m == 1 else ())

    for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
        cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
        with pytest.raises(EngineError, match="different columns or headers"):
            cl.run_round(send, machines=order)


def test_send_rejects_offsets_that_do_not_cut_the_columns():
    cols = {"v": np.arange(4)}
    for dsts, offsets in (([0], [0, 3]), ([0, 1], [0, 4]), ([0, 1, 2], [0, 3, 2, 4]),
                          ([0, 1], [1, 2, 4])):
        cl = Cluster(ClusterConfig(n=16, epsilon=0.5))
        with pytest.raises(EngineError, match="offsets"):
            cl.run_round(lambda ctx: ctx.send("x", dsts, offsets, cols))


def test_delivery_peak_memory_is_bounded_by_the_column_bytes():
    # mpc-random's round-1 traffic: 256 machines each send 512 rows in one-row
    # segments under one tag and in two 256-row segments under another
    machines, rows = 256, 512
    rng = np.random.default_rng(0)
    outboxes = []
    for _ in range(machines):
        outboxes.append([
            MessageBatch("fc", rng.integers(0, machines, rows), np.arange(rows + 1), (),
                         {"pos": rng.integers(0, 2**17, rows),
                          "vals": rng.integers(0, 2**61, (rows, 2)).T}),
            MessageBatch("fs", rng.integers(0, machines, 2), np.array([0, rows // 2, rows]), (),
                         {"pos": rng.integers(0, 2**17, rows),
                          "vals": rng.integers(0, 2**61, (2, rows))})])
    column_bytes = sum(col.nbytes for batches in outboxes for batch in batches
                       for col in batch.cols.values())
    cl = Cluster(ClusterConfig(n=machines * machines, epsilon=0.5))
    assert cl.config.machine_count == machines
    tracemalloc.start()
    try:
        cl._deliver_batches(outboxes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One stable sort of the rows reads about 1.5x the column bytes: the
    # delivered copies, one tag's merged columns and its row order. The
    # composite-key sort it replaced read 2.2x; a sort of per-segment index
    # arrays reads 2.7x or more, since every one-row segment costs as much
    # as its row.
    assert peak <= 2.4 * column_bytes
