"""Adaptive variant: shared-memory prefix fingerprints and in-round binary search.

The adaptive cluster model adds a shared read-only store: values written in
round r are visible to every machine from round r+1 on, and a machine may
read any number of entries of the previous snapshot within one round (each
read metered). That removes the epsilon <= 0.5 restriction of the messaging
model: machines never need to receive one message from everybody at once.

The algorithm keeps the block decomposition and per-superblock analysis of
the messaging pipeline -- ``AmpcPalindromes`` subclasses its skeleton,
``mpc.BlockPipeline``, and runs the same local scan, ``mpc.superblock_scan``,
and superblock driver, ``mpc.superblock_waves`` -- but answers LCP queries
differently. A fan-in-f prefix tree over the 2K leaf segments of the
doubled string builds phi(doubled[0..e]) for every position e. Each tree
node ("t", level, idx) is a ``fingerprint`` node. Two fragments compare from
two prefix entries each (``fingerprint.fragments_equal``), so one machine
can binary search an LCP value adaptively inside a single round, center
queries included. A probe whose fragments match compares their end
letters too, and every answer is spot-checked against the mismatch letters;
a contradiction aborts as a hash collision. Like the messaging pipeline's
checks, these are one-sided and partial.

The tree is the up-sweep of a prefix scan. Round 1 publishes each leaf's node
under ("t", 0, leaf). The combine round that builds node ("t", level, idx)
folds its children with ``fingerprint.running_folds`` and, in the same fold,
publishes under ("f", level, idx) the running folds of those children: row
j - 1 is the node of children 0 .. j - 1, the context left of child j. The
context round then folds a leaf's left context from the top level's left
siblings of its ancestor, one read each (fewer than f), and at most one read
per lower level, of the parent's running fold; a first child needs none. That
replaces the up to f - 1 sibling reads per level of a plain tree.

Machine m owns two leaves, its role's scan spans (``MachineRole.scan_spans``):
block m, and that block's image 2K - 1 - m, both the block's width. Round 1
leaves it the skeleton's state (``mpc.BlockPipeline``) plus both leaves as one
int64 array, each leaf half of its rows: column 0 holds the symbols, column
1 + l the layer-l prefix values, local to the leaf. The context round drops
the placed letters, since later rounds read symbols from the store, then
offsets both leaves by their left contexts in one pass and publishes
each leaf's rows as one read-only, C-contiguous (width, 1 + L) array under
key ("p", leaf). The store is still read and metered one position at a time:
``PrefixStore.entry(e)`` makes one shared read of the leaf array holding e
and returns that row as Python ints.
A leaf is b letters wide, a dozen at eps=0.75, where a numpy call costs more
than its arithmetic, so the leaf scan, the context fold and the offset all
run on Python ints, which also keep products of 61-bit residues exact.

The tree and the best reduction have fan-in f = 2b (``fan_in``). The 2K
leaves are twice the K machines, so 2b gives the tree the depth that b gives
the machines. When 2K <= 2b, f stays b: fan-in 2b would leave a one-level
tree, with no combine round and a context round that folds every left leaf.
A combine step holds the f children it reads, f * (1 + 2L) words (10b at
f = 2b and L = 2 layers), and a best step 2 words per child; no meter sees
either.

Round schedule (``round_count``): 1 (local phase + leaf scans) + (depth - 1)
combine rounds + 1 (path contexts + prefix entries) + 1 (all queries, merge,
per-machine best) + best_depth best-reduction rounds, with depth =
ceil(log_f 2K) and best_depth = ceil(log_f M). Both logarithms are about
eps / (1 - eps), but their ceilings depend on n as well as on epsilon. At
eps=0.75 the total is 8 rounds for every n from 2**9 to 2**18; at eps=0.9,
n = 2**10 .. 2**16 give 12, 11, 12, 12, 13, 14 and 12 rounds (fan-in b took
21, 15, 17, 18, 19, 21 and 17). A combine or best round steps only the
machines that build a node of its level.

The count is O(1) as the paper means it, bounded by a function of eps alone:
at most 3 + 2q rounds for every n, with q = ceil(eps / (1 - eps)). It is
2 + depth + best_depth, where depth is the least d with f**d >= 2K, and
K = M = ceil(n / b) <= ceil(n**eps) for b = ceil(n**(1 - eps)). If K <= b,
as always at eps <= 1/2, then f = max(2, b) and 2K <= f**2: depth <= 2 and
best_depth <= 1, so at most 5 rounds, while q >= 1. Otherwise q >= 2, f = 2b
and f**q >= 2**q * n**((1 - eps) * q) >= 4 * n**eps >= 2K: both depths are
at most q.
"""

import numpy as np

from ._kernels import M61, power_tables, prefix_fp_scan
from .engine import CollisionAbort, StepContext
from .fingerprint import FingerprintScheme, concat, fragments_equal, node, running_folds
from .strings import lps_index
from .structural import InconsistentMergeError
from .mpc import BlockPipeline, BlockPlan, MpcResult, _materialize_doubled, superblock_waves

# The benchmark's span tracer hooks these four as attributes of this module too,
# though only the shared code in palmpc.mpc calls them.
from .mpc import (  # noqa: F401
    _merge_b2, _periodic_resolve, _prefix_pal_lengths_from_tables, manacher_tables)


def _offset_leaves(entries, lefts, layers: int) -> int:
    """Offset two stacked leaves by their left context nodes ``lefts``, in place.

    ``entries`` holds each leaf as one half of its rows: the symbols, then
    the leaf-local prefix value of each layer. ``ops`` is one per value.
    """
    # Python ints, not numpy scalars: int64 * int64 would overflow silently
    lefts = np.array(lefts, np.int64).reshape(2, 1 + 2 * layers).tolist()
    half = len(entries) // 2
    for l, vals in enumerate(entries[:, 1:].T.tolist(), start=1):
        entries[:, l] = [(left[layers + l] + left[l] * v) % M61
                         for left, part in zip(lefts, (vals[:half], vals[half:])) for v in part]
    return layers * len(entries)


def _level_sizes(count: int, fanout: int) -> list[int]:
    """Node count of each tree level, from ``count`` leaves up to a single node."""
    sizes = [count]
    while sizes[-1] > 1:
        sizes.append(-(-sizes[-1] // fanout))
    return sizes


def fan_in(plan: BlockPlan) -> int:
    """Fan-in of the prefix tree and of the best reduction: 2b, but b when
    2K <= 2b (see the module docstring), and 2 for a degenerate b = 1."""
    b = plan.block_len
    return max(2, b if plan.block_count <= b else 2 * b)


def round_count(plan: BlockPlan) -> int:
    """Rounds of an adaptive run under ``plan``: 1 + (depth - 1) + 1 + 1 + best_depth."""
    fanout = fan_in(plan)
    depth = len(_level_sizes(2 * plan.block_count, fanout)) - 1
    best_depth = len(_level_sizes(plan.machine_count, fanout)) - 1
    return 1 + (depth - 1) + 1 + 1 + best_depth


class PrefixStore:
    """The per-leaf prefix arrays under keys ("p", leaf), read one position at a time.

    ``read`` fetches a key's value: ``StepContext.shared_read`` in a step,
    the published snapshot outside one.
    """

    __slots__ = ("_read", "_leaf_starts", "_width", "_last", "n")

    def __init__(self, read, leaf_starts: list[int], n: int):
        self._read = read
        self._leaf_starts = leaf_starts
        # leaf 1 starts one block in (or at n, when one block holds the text)
        self._width = leaf_starts[1]
        self._last = len(leaf_starts) - 1
        self.n = n

    def entry(self, e: int):
        """(symbol, per-layer prefix values) at doubled position e.

        Makes exactly one ``read``: that of the leaf array holding e. Every
        block but the last is b wide, so text position e lies in leaf e // b
        and mirrored position e >= n in the image of block (2n - 1 - e) // b;
        an e outside the doubled string names a missing leaf. Values are
        Python ints, so callers may multiply two 61-bit residues without
        overflow.
        """
        n = self.n
        if e < n:
            leaf = e // self._width
        else:
            leaf = self._last - (2 * n - 1 - e) // self._width
        arr = self._read(("p", leaf))
        if arr is None:
            raise KeyError(f"no prefix entry at position {e}")
        row = arr[e - self._leaf_starts[leaf]].tolist()
        return row[0], tuple(row[1:])


def ampc_lcp(store: PrefixStore, p1: int, p2: int, bases: tuple[int, ...]) -> int:
    """LCP of two doubled-string suffixes by adaptive binary search on prefixes.

    Maintains: prefixes of length lo are fingerprint-equal. Each probe reads
    the prefix entries at the two fragment ends and compares the fragments
    with ``fragments_equal``, scaled by one power per layer that the query
    computes once; if they match, the letters those entries hold
    must agree as well. The mismatch letters are checked literally at the
    end. Either contradiction proves a collision.
    """
    n2 = 2 * store.n
    if p1 == p2:
        return n2 - p1
    layers = len(bases)
    l_max = n2 - max(p1, p2)
    # one power per layer: the fragment that starts first is scaled by
    # x**|p2 - p1| (fragments_equal's single-power form)
    shift = tuple(pow(x, abs(p2 - p1), M61) for x in bases)
    pow1, pow2 = ((1,) * layers, shift) if p1 < p2 else (shift, (1,) * layers)
    base1 = store.entry(p1 - 1)[1] if p1 > 0 else (0,) * layers
    base2 = store.entry(p2 - 1)[1] if p2 > 0 else (0,) * layers

    lo, hi = 0, l_max
    while lo < hi:
        mid = (lo + hi + 1) // 2
        sym1, end1 = store.entry(p1 + mid - 1)
        sym2, end2 = store.entry(p2 + mid - 1)
        if not fragments_equal(end1, base1, pow1, end2, base2, pow2):
            hi = mid - 1
        elif sym1 != sym2:
            raise CollisionAbort(f"fragments of length {mid} at ({p1}, {p2}) "
                                 f"match but end on different letters")
        else:
            lo = mid
    if lo < l_max and store.entry(p1 + lo)[0] == store.entry(p2 + lo)[0]:
        raise CollisionAbort(f"binary search at ({p1}, {p2}) stopped where letters agree")
    return lo


class AmpcPalindromes(BlockPipeline):
    """One metered adaptive-mode run over a fixed text."""

    MODE = "ampc"

    def __init__(self, text, epsilon: float, seed: int = 0, memory_constant: int = 64,
                 scheme: FingerprintScheme | None = None):
        super().__init__(text, epsilon, seed, memory_constant, scheme)
        self.bases = self.scheme.bases
        self.fanout = fan_in(self.plan)
        self.leaf_starts = [0] * (2 * self.plan.block_count)
        for m, role in enumerate(self.plan.roles):
            for leaf, (lo, _) in zip(self.own_leaves(m), role.scan_spans):
                self.leaf_starts[leaf] = lo
        self.tree_sizes = _level_sizes(2 * self.plan.block_count, self.fanout)
        self.best_sizes = _level_sizes(self.plan.machine_count, self.fanout)
        self.depth = len(self.tree_sizes) - 1
        self.best_depth = len(self.best_sizes) - 1
        # simulator-side, not metered: x**i for i up to the leaf width b
        self.pows, _ = power_tables(self.bases, self.plan.block_len + 1)

    def own_leaves(self, m: int) -> tuple[int, int]:
        """Machine m's leaves: block m and its mirror image, both the block's width."""
        return m, 2 * self.plan.block_count - 1 - m

    # -- round 1: local palindrome phase plus leaf prefix scans

    def _r1_leaves(self, ctx: StepContext) -> None:
        m = ctx.machine_id
        self._local_scan(ctx)

        # the two leaves stacked, each a row range of one array: column 0
        # their symbols, columns 1.. their prefix values, local to each leaf
        # until the context round offsets them
        spans = self.plan.roles[m].scan_spans
        width = spans[0][1] - spans[0][0]
        entries = np.empty((2 * width, 1 + self.scheme.layers), np.int64)
        for row, leaf, (lo, hi) in zip((0, width), self.own_leaves(m), spans):
            rows = entries[row : row + width]
            rows[:, 0] = _materialize_doubled(ctx.payload["letters"],
                                              ctx.payload["letters_lo"], self.n, lo, hi)
            ctx.add_work(int(prefix_fp_scan(rows[:, 0], self.pows, rows[:, 1:].T)))
            ctx.shared_write(("t", 0, leaf),
                             node(width, self.pows[:, width].tolist(), rows[-1, 1:].tolist()))
        ctx.payload["leafpfx"] = entries

    @staticmethod
    def _tree_read(ctx: StepContext, key):
        rec = ctx.shared_read(key)
        if rec is None:
            raise InconsistentMergeError(f"missing tree record {key}")
        return rec

    # -- combine rounds: one tree level per round, root omitted (never needed);
    #    each node comes with the running folds of its children

    def _combine_level(self, level: int):
        fanout = self.fanout
        counts = self.tree_sizes
        node_count = counts[level]
        M = self.plan.machine_count
        layers = self.scheme.layers

        def step(ctx: StepContext) -> None:
            for idx in range(ctx.machine_id, node_count, M):
                children = [self._tree_read(ctx, ("t", level - 1, child)) for child in
                            range(idx * fanout, min((idx + 1) * fanout, counts[level - 1]))]
                ctx.add_work(len(children) * layers)
                folds = running_folds(children, layers)
                ctx.shared_write(("t", level, idx), folds[-1])
                # row j - 1: the fold of children 0 .. j - 1, left of child j >= 1
                ctx.shared_write(("f", level, idx), folds[1:-1])

        return step

    # -- context round: left-context of every owned leaf, then final entries

    def _left_context(self, ctx: StepContext, leaf: int):
        """Node of the doubled string left of ``leaf``.

        Reads the top level's left siblings of the leaf's ancestor one by
        one, then, per lower level, the parent's running fold left of the
        ancestor there: one read, none for a first child.
        """
        fanout = self.fanout
        top = self.depth - 1
        nodes = [self._tree_read(ctx, ("t", top, idx)) for idx in range(leaf // fanout ** top)]
        for level in range(top - 1, -1, -1):
            parent, child = divmod(leaf // fanout ** level, fanout)
            if child:
                nodes.append(self._tree_read(ctx, ("f", level + 1, parent))[child - 1])
        ctx.add_work(len(nodes) * self.scheme.layers)
        return concat(nodes, self.scheme.layers)

    def _r_context(self, ctx: StepContext) -> None:
        entries = ctx.payload.pop("leafpfx")
        # no later round reads the letters: symbols come from the prefix store
        del ctx.payload["letters"], ctx.payload["letters_lo"]
        width = entries.shape[0] // 2
        leaves = self.own_leaves(ctx.machine_id)
        lefts = [self._left_context(ctx, leaf) for leaf in leaves]
        ctx.add_work(_offset_leaves(entries, lefts, self.scheme.layers))
        for row, leaf in zip((0, width), leaves):
            ctx.shared_write(("p", leaf), entries[row : row + width])

    # -- query round: every LCP answered adaptively, then merge and local best

    def _r_query(self, ctx: StepContext) -> None:
        m = ctx.machine_id
        role = self.plan.roles[m]
        if role.kind == "middle":
            store = PrefixStore(ctx.shared_read, self.leaf_starts, self.n)
            prefix_lens = ctx.payload["prefix_lens"]
            waves = superblock_waves(prefix_lens, role.letters_lo, self.n, self.cluster.stats)
            wave = next(waves)
            wave = waves.send([ampc_lcp(store, q.p1, q.p2, self.bases) for q in wave])
            self._meter_resolve(ctx, prefix_lens)
            self._keep_merged(ctx, waves.send([ampc_lcp(store, q.p1, q.p2, self.bases)
                                               for q in wave]))

        best = self._local_best(ctx)
        if self.plan.machine_count == 1:
            ctx.payload["lps"] = (best[1], best[0])
        else:
            ctx.shared_write(("b", 0, m), best)

    # -- best reduction: fan-in-f maximum over the shared store

    def _best_level(self, level: int):
        fanout = self.fanout
        counts = self.best_sizes
        node_count = counts[level]
        M = self.plan.machine_count
        final = level == self.best_depth

        def step(ctx: StepContext) -> None:
            for idx in range(ctx.machine_id, node_count, M):
                children = range(idx * fanout, min((idx + 1) * fanout, counts[level - 1]))
                recs = [self._tree_read(ctx, ("b", level - 1, child)) for child in children]
                ctx.add_work(len(recs))
                lengths, starts = zip(*recs)
                best = recs[lps_index(lengths, starts)]
                ctx.shared_write(("b", level, idx), best)
                if final and idx == 0 and ctx.machine_id == 0:
                    ctx.payload["lps"] = (best[1], best[0])

        return step

    def build_prefix_entries(self) -> None:
        """Rounds up to and including the context round, which publishes the entries."""
        self.cluster.run_round(self._r1_leaves)
        M = self.plan.machine_count
        for level in range(1, self.depth):
            self.cluster.run_round(self._combine_level(level),
                                   machines=range(min(self.tree_sizes[level], M)))
        self.cluster.run_round(self._r_context)

    def run(self) -> None:
        self.build_prefix_entries()
        self.cluster.run_round(self._r_query)
        M = self.plan.machine_count
        for level in range(1, self.best_depth + 1):
            self.cluster.run_round(self._best_level(level),
                                   machines=range(min(self.best_sizes[level], M)))
        assert self.cluster.stats.rounds == round_count(self.plan)


def solve_ampc(text, epsilon: float, seed: int = 0, memory_constant: int = 64,
               scheme: FingerprintScheme | None = None) -> MpcResult:
    """Adaptive-mode counterpart of solve_mpc; valid for any epsilon in (0, 1)."""
    return AmpcPalindromes(text, epsilon, seed=seed, memory_constant=memory_constant,
                           scheme=scheme).solve()
