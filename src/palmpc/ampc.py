"""Adaptive variant: shared-memory prefix fingerprints and in-round binary search.

The adaptive cluster model adds a shared read-only store: values written in
round r are visible to every machine from round r+1 on, and a machine may
read any number of entries of the previous snapshot within one round (each
read metered). That removes the epsilon <= 0.5 restriction of the messaging
model: machines never need to receive one message from everybody at once.

The algorithm keeps the block decomposition and per-superblock analysis of
the messaging pipeline -- ``AmpcPalindromes`` subclasses its skeleton,
``mpc.BlockPipeline``, and drives the same ``structural.first_wave``/
``settle`` steps -- but answers LCP queries differently. A fan-out-s
prefix tree (s = block length) over the 2K leaf segments of the doubled
string builds phi(doubled[0..e]) for every position e. Each tree node
("t", level, idx) is a ``fingerprint`` node, folded with
``fingerprint.concat``. Two fragments compare from two prefix entries each
(``fingerprint.fragments_equal``), so one machine can binary search an LCP
value adaptively inside a single round, center queries included. Every
answer is spot-checked against the stored mismatch letters; a contradiction
aborts as a hash collision. Like the messaging pipeline's checks, this one is
one-sided and partial: a false match that ends the search where the letters
differ goes unseen.

Each machine builds the entries of the leaves it owns and publishes them as
one read-only int64 array per leaf, under key ("p", leaf): row 0 holds the
leaf's symbols, row 1 + l the layer-l prefix values. The store is still read
and metered one position at a time: ``PrefixStore.entry(e)`` makes one shared
read of the leaf array holding e and returns that column as Python ints.

Round schedule: 1 (local phase + leaf scans) + (depth - 1) combine rounds +
1 (path contexts + prefix entries) + 1 (all queries, merge, per-machine best)
+ ceil(log_s M) best-reduction rounds. The tree depth is ceil(log_s 2K) and
both logarithms are about eps / (1 - eps), but their ceilings depend on n as
well as on epsilon. At eps=0.75 the total is 9 rounds for every n from 2**10
to 2**16; at eps=0.9 the same sizes give 21, 15, 17, 18, 19, 21 and 17 rounds.
"""

from bisect import bisect_right

import numpy as np

from ._kernels import M61, manacher_tables, mulmod61, njit, power_tables, prefix_fp_scan
from .engine import CollisionAbort, RunStats, StepContext
from .fingerprint import FingerprintScheme, concat, fragments_equal, node
from .strings import _prefix_pal_lengths_from_tables
from .structural import (
    InconsistentMergeError,
    _merge_b2,
    _periodic_resolve,
    case_name,
    first_wave,
    settle,
)
from .mpc import (
    BlockPipeline,
    BlockPlan,
    MpcResult,
    _materialize_doubled,
    _resolved_columns,
)


@njit
def _scale_offset_mod(vals, mul, add, out):
    """out[l, i] = (add[l] + mul[l] * vals[l, i]) mod (2**61 - 1), one row per layer.

    ``mul`` and ``add`` are uint64 arrays with one entry per row; ``out`` may
    be ``vals`` itself. ``ops`` is one per entry.
    """
    out[:] = (mulmod61(vals.astype(np.uint64), mul[:, None]) + add[:, None]) % np.uint64(M61)
    return np.int64(vals.size)


def leaf_bounds(n: int, block_len: int, block_count: int) -> list[tuple[int, int]]:
    """Doubled-string ranges of the 2K leaf segments, in position order.

    Leaves 0..K-1 are the text blocks; leaves K..2K-1 are the reversed block
    images, which appear in reverse block order past position n.
    """
    K = block_count
    bounds = []
    for k in range(K):
        bounds.append((k * block_len, min((k + 1) * block_len, n)))
    for k in range(K, 2 * K):
        j = 2 * K - 1 - k
        bounds.append((2 * n - min((j + 1) * block_len, n), 2 * n - j * block_len))
    return bounds


def _leaf_owner(plan: BlockPlan, leaf: int) -> int:
    K = plan.block_count
    return plan.block_owner(leaf if leaf < K else 2 * K - 1 - leaf)


def _level_sizes(count: int, fanout: int) -> list[int]:
    """Node count of each tree level, from ``count`` leaves up to a single node."""
    sizes = [count]
    while sizes[-1] > 1:
        sizes.append(-(-sizes[-1] // fanout))
    return sizes


def _prefix_entry_getter(read, leaf_starts: list[int]):
    """Position getter over the per-leaf prefix arrays under keys ("p", leaf).

    ``get(e)`` returns (symbol, per-layer prefix values) at doubled position
    e, or None when there is no entry, and makes exactly one ``read`` per
    call: that of the leaf array holding e. Values are Python ints, so
    callers may multiply two 61-bit residues without overflow.
    """
    def get(e: int):
        leaf = bisect_right(leaf_starts, e) - 1   # -1 for e < 0: no such key
        arr = read(("p", leaf))
        off = e - leaf_starts[leaf]
        if arr is None or off >= arr.shape[1]:
            return None
        symbol, *values = arr[:, off].tolist()
        return symbol, tuple(values)

    return get


class PrefixStore:
    """Read view over the shared prefix entries, for direct use and tests."""

    def __init__(self, snapshot_get, n: int, layers: int):
        self._get = snapshot_get
        self.n = n
        self.layers = layers
        self.reads = 0

    def entry(self, e: int):
        """(symbol, per-layer prefix values) at doubled position e."""
        self.reads += 1
        rec = self._get(e)
        if rec is None:
            raise KeyError(f"no prefix entry at position {e}")
        return rec

    def dump(self) -> dict:
        return {e: self._get(e) for e in range(2 * self.n)}


def ampc_lcp(store: PrefixStore, p1: int, p2: int, bases: tuple[int, ...]) -> int:
    """LCP of two doubled-string suffixes by adaptive binary search on prefixes.

    Maintains: prefixes of length lo are fingerprint-equal. Each probe reads
    the prefix entries at the two fragment ends and compares the fragments
    with ``fragments_equal``. The mismatch letters are checked literally at
    the end; their equality would prove a collision.
    """
    n2 = 2 * store.n
    if p1 == p2:
        return n2 - p1
    layers = len(bases)
    l_max = n2 - max(p1, p2)
    pow1 = tuple(pow(x, p1, M61) for x in bases)
    pow2 = tuple(pow(x, p2, M61) for x in bases)
    base1 = store.entry(p1 - 1)[1] if p1 > 0 else (0,) * layers
    base2 = store.entry(p2 - 1)[1] if p2 > 0 else (0,) * layers

    def equal_prefixes(length: int) -> bool:
        end1 = store.entry(p1 + length - 1)[1]
        end2 = store.entry(p2 + length - 1)[1]
        return fragments_equal(end1, base1, pow1, end2, base2, pow2)

    lo, hi = 0, l_max
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if equal_prefixes(mid):
            lo = mid
        else:
            hi = mid - 1
    if lo < l_max:
        s1 = store.entry(p1 + lo)[0]
        s2 = store.entry(p2 + lo)[0]
        if s1 == s2:
            raise CollisionAbort(
                f"binary search at ({p1}, {p2}) stopped where letters agree")
    return lo


class AmpcPalindromes(BlockPipeline):
    """One metered adaptive-mode run over a fixed text."""

    MODE = "ampc"

    def __init__(self, text, epsilon: float, seed: int = 0, memory_constant: int = 64,
                 scheme: FingerprintScheme | None = None):
        super().__init__(text, epsilon, seed, memory_constant, scheme)
        self.bases = self.scheme.bases
        self.fanout = max(2, self.plan.block_len)  # degenerate b=1 still needs a tree
        self.leaves = leaf_bounds(self.n, self.plan.block_len, self.plan.block_count)
        self.leaf_starts = [lo for lo, _ in self.leaves]
        self.owned_leaves: list[list[int]] = [[] for _ in range(self.plan.machine_count)]
        for leaf in range(len(self.leaves)):
            self.owned_leaves[_leaf_owner(self.plan, leaf)].append(leaf)
        self.tree_sizes = _level_sizes(len(self.leaves), self.fanout)
        self.best_sizes = _level_sizes(self.plan.machine_count, self.fanout)
        self.depth = len(self.tree_sizes) - 1
        self.best_depth = len(self.best_sizes) - 1
        # simulator-side, not metered: sized to the longest leaf
        self.pows, _ = power_tables(self.bases, max(hi - lo for lo, hi in self.leaves))

    # -- round 1: local palindrome phase plus leaf prefix scans

    def _r1_leaves(self, ctx: StepContext) -> None:
        m = ctx.machine_id
        role = self.plan.roles[m]
        n = self.n
        b = self.plan.block_len

        if role.kind != "store":
            self._keep_tables(ctx, *manacher_tables(ctx.payload["letters"]))
        if role.kind == "middle":
            ctx.payload["prefix_lens"] = _prefix_pal_lengths_from_tables(
                ctx.payload["f_odd"], ctx.payload["f_even"], 2 * b, 4 * b)

        # per leaf, the array it will publish: row 0 its symbols, rows 1.. its
        # prefix values, local to the leaf until the context round offsets them
        leafpfx = {}
        for leaf in self.owned_leaves[m]:
            lo, hi = self.leaves[leaf]
            entries = np.empty((1 + self.scheme.layers, hi - lo), np.int64)
            entries[0] = _materialize_doubled(ctx.payload["letters"],
                                              ctx.payload["letters_lo"], n, lo, hi)
            ctx.add_work(int(prefix_fp_scan(entries[0], self.pows, entries[1:])))
            leafpfx[leaf] = entries
            ctx.shared_write(("t", 0, leaf),
                             node(hi - lo, [pow(x, hi - lo, M61) for x in self.bases],
                                  entries[1:, -1].tolist()))
        ctx.payload["leafpfx"] = leafpfx

    @staticmethod
    def _tree_node(ctx: StepContext, level: int, idx: int):
        rec = ctx.shared_read(("t", level, idx))
        if rec is None:
            raise InconsistentMergeError(f"missing tree node ({level}, {idx})")
        return rec

    # -- combine rounds: one tree level per round, root omitted (never needed)

    def _combine_level(self, level: int):
        fanout = self.fanout
        counts = self.tree_sizes
        node_count = counts[level]
        M = self.plan.machine_count
        layers = self.scheme.layers

        def step(ctx: StepContext) -> None:
            for idx in range(ctx.machine_id, node_count, M):
                children = [self._tree_node(ctx, level - 1, child) for child in
                            range(idx * fanout, min((idx + 1) * fanout, counts[level - 1]))]
                ctx.add_work(len(children) * layers)
                ctx.shared_write(("t", level, idx), concat(children, layers))

        return step

    # -- context round: left-context of every owned leaf, then final entries

    def _r_context(self, ctx: StepContext) -> None:
        fanout = self.fanout
        layers = self.scheme.layers
        leafpfx = ctx.payload.get("leafpfx", {})
        for leaf, entries in leafpfx.items():
            # the left siblings along the leaf's path, top level first
            siblings = [self._tree_node(ctx, level, idx)
                        for level in range(self.depth - 1, -1, -1)
                        for idx in range(leaf // fanout ** (level + 1) * fanout,
                                         leaf // fanout ** level)]
            ctx.add_work(len(siblings) * layers)
            left = concat(siblings, layers).astype(np.uint64)
            ctx.add_work(int(_scale_offset_mod(entries[1:], left[1 : 1 + layers],
                                               left[1 + layers :], entries[1:])))
            ctx.shared_write(("p", leaf), entries)
        ctx.payload.pop("leafpfx", None)

    # -- query round: every LCP answered adaptively, then merge and local best

    def _store_view(self, ctx: StepContext) -> PrefixStore:
        return PrefixStore(_prefix_entry_getter(ctx.shared_read, self.leaf_starts),
                           self.n, self.scheme.layers)

    def _r_query(self, ctx: StepContext) -> None:
        m = ctx.machine_id
        role = self.plan.roles[m]
        if role.kind == "middle":
            n = self.n
            i = role.sb_start
            stats = self.cluster.stats
            store = self._store_view(ctx)
            prefix_lens = ctx.payload["prefix_lens"]
            case = case_name(prefix_lens)
            stats.bump(f"classified_{case}")
            wave = first_wave(prefix_lens, i, n)
            answers = [ampc_lcp(store, q.p1, q.p2, self.bases) for q in wave]
            periodic = None
            if case == "periodic":
                # the wave is [left, right], or [right] at start 0 where left is ignored
                periodic = _periodic_resolve(prefix_lens, i, n, answers[0], answers[-1])
            results, wave2 = settle(wave, answers, n, periodic)
            settled, _ = settle(wave2, [ampc_lcp(store, q.p1, q.p2, self.bases)
                                        for q in wave2], n)
            if wave:
                stats.bump("lcp_queries", len(wave) + len(wave2))
            if wave2:
                stats.bump("simultaneous_centers")
            res_u, res_len = _resolved_columns(results + settled)
            self._keep_merged(ctx, _merge_b2(ctx.payload["f_odd"], ctx.payload["f_even"],
                                             i, self.plan.block_len, res_u, res_len))

        best = self._local_best(ctx)
        if best is None:
            return
        if self.plan.machine_count == 1:
            ctx.payload["lps"] = (best[1], best[0])
        else:
            ctx.shared_write(("b", 0, m), best)

    # -- best reduction: fan-in-s maximum over the shared store

    def _best_level(self, level: int):
        fanout = self.fanout
        counts = self.best_sizes
        node_count = counts[level]
        M = self.plan.machine_count
        final = level == self.best_depth

        def step(ctx: StepContext) -> None:
            for idx in range(ctx.machine_id, node_count, M):
                best = None
                for child in range(idx * fanout, min((idx + 1) * fanout, counts[level - 1])):
                    rec = ctx.shared_read(("b", level - 1, child))
                    if rec is None:
                        continue
                    ctx.add_work(1)
                    if best is None or rec[0] > best[0] or \
                            (rec[0] == best[0] and rec[1] < best[1]):
                        best = rec
                if best is not None:
                    ctx.shared_write(("b", level, idx), best)
                    if final and idx == 0 and ctx.machine_id == 0:
                        ctx.payload["lps"] = (best[1], best[0])

        return step

    def build_prefix_entries(self) -> None:
        """Rounds up to and including the context round, which publishes the entries."""
        self.cluster.run_round(self._r1_leaves)
        for level in range(1, self.depth):
            self.cluster.run_round(self._combine_level(level))
        self.cluster.run_round(self._r_context)

    def run(self) -> None:
        self.build_prefix_entries()
        self.cluster.run_round(self._r_query)
        for level in range(1, self.best_depth + 1):
            self.cluster.run_round(self._best_level(level))


def solve_ampc(text, epsilon: float, seed: int = 0, memory_constant: int = 64,
               scheme: FingerprintScheme | None = None) -> MpcResult:
    """Adaptive-mode counterpart of solve_mpc; valid for any epsilon in (0, 1)."""
    return AmpcPalindromes(text, epsilon, seed=seed, memory_constant=memory_constant,
                           scheme=scheme).solve()


def build_prefix_store(text, epsilon: float, seed: int = 0,
                       memory_constant: int = 64) -> tuple[PrefixStore, RunStats, int]:
    """Build the shared prefix fingerprints only; returns (store, stats, rounds)."""
    run = AmpcPalindromes(text, epsilon, seed=seed, memory_constant=memory_constant)
    run.build_prefix_entries()
    # one empty round so the entries become snapshot-visible to readers
    run.cluster.run_round(lambda ctx: None)
    store = PrefixStore(_prefix_entry_getter(run.cluster.shared.snapshot_get, run.leaf_starts),
                        run.n, run.scheme.layers)
    return store, run.cluster.stats, run.cluster.stats.rounds
