"""Distributed all-maximal-palindromes pipeline on the round-based cluster.

``BlockPipeline`` is the set-up and per-machine skeleton that this messaging
pipeline (``MpcPalindromes``) and the adaptive one (``palmpc.ampc``) share:
placed letters, the local scan, merge, per-machine best and export. The local
scan leaves every machine the same round-1 state in both pipelines: the local
lengths of its owned centers (``own_lengths``) and, on a middle machine, its
superblock's prefix palindromes (``prefix_lens``). A middle machine's
local scan is ``superblock_scan``, and its superblock is resolved by
``superblock_waves``, the one driver of the ``structural`` case analysis, in
two waves of LCP queries; here ``FingerprintLcp`` answers them.

Decomposition
-------------
The text is cut into K = ceil(n / b) blocks of length b = ceil(n**(1-eps)),
and machine t owns the palindrome centers of block t. A middle machine holds
the superblock of blocks t-1 .. t+2; consecutive superblocks overlap by 3b.
Every other machine (block 0, and each block whose superblock would overrun
the text) is local: it holds all the letters its centers' palindromes can
reach, fewer than 6b, and finishes them with a plain linear scan.

Fingerprint stores
------------------
Every start position p of the doubled string (text followed by its reverse,
length 2n) gets the fingerprint of the width-w window starting there, with
w = machine count. Two copies are distributed:

* class store: machine x keeps positions with p mod w == x. Consecutive
  positions land on distinct machines, so per-position lookups are balanced.
* stripe store: machine h keeps window rows r = p div w with r mod M == h.
  The fingerprint chain of any suffix -- one window every w positions -- is
  a single class restricted to rows >= p div w, so every machine serves an
  equal share of any chain, no matter how skewed the demand. This plays the
  role of data replication, applied once at build time instead of per request.

LCP protocol
------------
``FingerprintLcp`` answers an LCP query (i, j) in two fingerprint phases:
compare the two chains window by window to locate the first mismatching
window t*, then fetch the windows ending at each offset inside window t*
(full-width windows, one per class, balanced) and scan for the first unequal
one. Windows below t* agree, so two such shifted windows are equal exactly
when the in-window prefixes up to the shift are equal. A mismatch inside the
very first window is settled against letters instead. Both reply kinds go
through one gather, which requires each side of a query to receive exactly
the rows it asked for (every window of its chain, every window of its
refinement scan) and raises ``InconsistentMergeError`` otherwise.

``MpcPalindromes``' rounds call ``scan`` and ``ask``, ``install``, then
``consume`` (chains compared, refinement scans finished, first-window
mismatches settled) and ``serve`` (chain and refinement requests answered)
alternately. ``consume`` settles first-window mismatches from the letters the
asking machine holds: a superblock's queries point within, or one window left
of, its fragment, and the machine to its left ships it that window's letters.

Round schedule (fixed; R0 = 10 rounds for every input and size)
---------------------------------------------------------------
 1 local scans, classification, window fingerprints routed to both stores;
   ask: first-wave chain requests (period probes and lone-center queries)
 2 stores installed; serve: chain requests from the stripe store
 3 consume: chains compared; first-window cases settled from local letters;
   in-window refinement requests to the class store
 4 serve: refinements
 5 consume: exact first-wave answers; periodic case analysis; ask: second-wave
   center queries for the one center per superblock that needs one
 6 serve: second-wave chains
 7 consume: compared; refinement requested
 8 serve: refinements
 9 consume: final lengths merged with local lengths; each best to machine 0
10 machine 0 reduces to the leftmost-longest palindromic substring

The guarantee is Monte Carlo: with random bases a false fingerprint match
is unlikely, but nothing proves the output exact. Collision detection is
one-sided and partial. First-window resolutions are cross-checked against
letters, and refinement scans must be prefix-monotone; a violation aborts
the run as a hash collision (``CollisionAbort``). A collision that breaks
neither check goes unseen, and the table it yields is silently wrong.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    first_unequal_run,
    fragment_fp_scan,
    manacher_tables,
    power_tables,
)
from .engine import (
    Cluster,
    ClusterConfig,
    CollisionAbort,
    RunStats,
    StepContext,
    ceil_power,
)
from .fingerprint import MAX_SUPPORTED_N, FingerprintScheme, scheme_init
from .strings import (
    PalindromeTable,
    _prefix_pal_lengths_from_tables,
    leftmost_longest,
    lengths_by_center,
    lps_index,
    pipeline_symbols,
)
from .structural import (
    InconsistentMergeError,
    _center,
    _merge_b2,
    _periodic_resolve,
    case_name,
    first_wave,
    settle,
)

# Longest text either pipeline accepts: both fingerprint the doubled text,
# whose length 2n must stay within the fixed prime's supported maximum.
MAX_TEXT_LEN = MAX_SUPPORTED_N // 2

# ---------------------------------------------------------------------------
# block plan


@dataclass(frozen=True)
class MachineRole:
    kind: str                      # "middle" | "local" (finishes its block without queries)
    letters_lo: int                # S positions [letters_lo, letters_hi) placed here;
    letters_hi: int                # a middle machine's are its superblock
    own_u_lo: int                  # owned center half-indices [own_u_lo, own_u_hi)
    own_u_hi: int
    scan_spans: tuple[tuple[int, int], tuple[int, int]]  # block, mirror image: doubled ranges
    tail_ship_to: int              # middle machine to send our block-tail letters to, or -1


@dataclass(frozen=True)
class BlockPlan:
    n: int
    epsilon: float
    block_len: int                 # b
    block_count: int               # K
    machine_count: int             # M == K
    window: int                    # w, modular window width == machine count
    roles: tuple[MachineRole, ...]


def plan_decomposition(n: int, epsilon: float) -> BlockPlan:
    """Block/superblock decomposition and per-machine duties for (n, epsilon)."""
    if n < 1:
        raise ValueError("text must be nonempty")
    if not 0.0 < epsilon < 1.0:    # also rejects NaN
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    b = ceil_power(n, 1.0 - epsilon)
    K = math.ceil(n / b)
    M = K
    w = M

    roles: list[MachineRole] = []
    # tail is the first block whose superblock would overrun the text
    tail = 1
    while (tail + 3) * b <= n:
        tail += 1
    for m in range(M):
        lo, hi = m * b, min((m + 1) * b, n)
        # doubled-string range of the block and of its reversed copy
        spans = ((lo, hi), (2 * n - hi, 2 * n - lo))
        owned = (2 * lo, min(2 * (m + 1) * b, 2 * n - 1))
        if 1 <= m <= tail - 1:
            # a machine ships the w letters preceding its right neighbor's
            # superblock so that neighbor can settle first-window mismatches
            # of its leftward probes locally
            ship = m + 1 if m + 1 < tail else -1
            roles.append(MachineRole("middle", lo - b, lo + 3 * b, *owned, spans, ship))
        else:
            # a palindrome centered at c (lo <= c < hi) lies within
            # [2c - n + 1, 2c + 1), since the text ends cut it; the window
            # scan of the block's image reads back to lo - w + 1 >= lo - b + 1
            roles.append(MachineRole("local", max(0, min(2 * lo - n + 1, lo - b)),
                                     min(n, 2 * (m + 1) * b), *owned, spans, -1))
    return BlockPlan(n=n, epsilon=epsilon, block_len=b, block_count=K,
                     machine_count=M, window=w, roles=tuple(roles))


@dataclass
class MpcResult:
    table: PalindromeTable
    lps_start: int
    lps_length: int
    stats: RunStats
    plan: BlockPlan


def superblock_waves(prefix_lens, start: int, n: int, stats: RunStats):
    """Resolve the superblock at ``start`` of a length-n text in two waves of LCP queries.

    A generator, and the one driver of the ``structural`` steps. It yields
    the first wave (one center query, or the period probes), takes that
    wave's answers and yields the second wave: the center query of the one
    periodic center that no cap settles, or nothing. It then takes the second
    wave's answers and yields the settled (u, length) pairs for
    ``_merge_b2``. ``stats`` counts the superblock's case, its LCP queries
    and a simultaneous center. Before the second wave it checks the
    superblock's query budget: both waves together hold at most 3 queries,
    else it raises ``AssertionError`` naming the superblock start.
    """
    case = case_name(prefix_lens)
    stats.bump(f"classified_{case}")
    first = first_wave(prefix_lens, start, n)
    if first:
        stats.bump("lcp_queries", len(first))
    answers = yield first
    settled = settle(first, answers, n)
    wave = []
    if case == "periodic":
        # the wave was [left, right], or [right] at start 0 where left is ignored
        resolved, center_u = _periodic_resolve(prefix_lens, start, n, answers[0], answers[-1])
        settled += resolved
        if center_u >= 0:
            wave = [_center(center_u, n)]
            stats.bump("simultaneous_centers")
            stats.bump("lcp_queries")
    if len(first) + len(wave) > 3:
        raise AssertionError(f"superblock at {start} issued {len(first) + len(wave)} "
                             "LCP queries, over the budget of 3")
    answers = yield wave
    yield settled + settle(wave, answers, n)


def superblock_scan(letters: np.ndarray, block_len: int):
    """Round 1's local phase on the 4b letters of one superblock.

    Manacher runs up to the last owned center, 2b + 1 letter centers.
    Returns (own, prefix_lens, ops): a copy of the local lengths of the 2b
    owned centers, local center half-indices [2b, 4b); the ascending lengths
    of the prefix palindromes centered there, which ``superblock_waves``
    resolves; and the scan's ops plus 2b for reading off the prefix
    palindromes.
    """
    odd, even, ops = manacher_tables(letters, 2 * block_len + 1)
    lengths = lengths_by_center(odd, even)
    prefix_lens = _prefix_pal_lengths_from_tables(lengths, 2 * block_len, 4 * block_len)
    return lengths[2 * block_len : 4 * block_len].copy(), prefix_lens, int(ops) + 2 * block_len


class BlockPipeline:
    """Set-up and per-machine skeleton shared by the messaging and adaptive pipelines.

    Set-up checks the symbols and the text length, builds the cluster of the
    subclass's ``MODE`` (which checks epsilon and the memory constant), the
    block plan and the scheme (drawn from the seed unless given), and places
    each machine's letter slice (round 0).

    In both pipelines every machine runs the same local scan in round 1
    (``_local_scan``) and reduces the same best of its block; a middle
    machine resolves its superblock with ``superblock_waves`` and merges the
    settled prefix centers the same way. The pipelines differ only in how
    they answer the superblocks' LCP queries. Subclasses
    set the cluster ``MODE`` and define ``run()``. The driver's generator
    state, like the messaging pipeline's ``_Query`` records, lives in the
    simulator, outside what the engine meters.
    """

    MODE: str

    def __init__(self, text, epsilon: float, seed: int = 0, memory_constant: int = 64,
                 scheme: FingerprintScheme | None = None):
        sym = pipeline_symbols(text)
        n = int(sym.size)
        if n > MAX_TEXT_LEN:
            raise ValueError(
                f"text length {n} exceeds the supported maximum {MAX_TEXT_LEN}: the "
                f"pipelines fingerprint the doubled text, and {MAX_SUPPORTED_N} is the "
                "longest string the 61-bit prime supports")
        self.n = n
        self.cluster = Cluster(ClusterConfig(n=n, epsilon=epsilon, mode=self.MODE,
                                             memory_constant=memory_constant))
        self.plan = plan_decomposition(n, epsilon)
        sigma = int(sym.max()) + 1
        self.scheme = scheme if scheme is not None else scheme_init(2 * n, sigma, seed=seed)
        # placement (round 0): each machine receives its role's letter slice
        for m, role in enumerate(self.plan.roles):
            payload = self.cluster.payloads[m]
            letters = sym[role.letters_lo : role.letters_hi].copy()
            letters.setflags(write=False)
            payload["letters"] = letters
            payload["letters_lo"] = role.letters_lo

    def _local_scan(self, ctx: StepContext) -> None:
        """Round 1's local phase: Manacher up to the last owned center. Every
        machine keeps the local lengths of its owned centers as ``own_lengths``,
        an array of its own. A middle machine runs ``superblock_scan`` and
        keeps its superblock's prefix palindromes as ``prefix_lens``; a local
        machine's lengths are final, and it counts as local-only."""
        role = self.plan.roles[ctx.machine_id]
        if role.kind == "middle":
            own, ctx.payload["prefix_lens"], ops = superblock_scan(ctx.payload["letters"],
                                                                   self.plan.block_len)
        else:
            base = 2 * role.letters_lo
            odd, even, ops = manacher_tables(ctx.payload["letters"],
                                             (role.own_u_hi - base) // 2 + 1)
            own = lengths_by_center(odd, even)[role.own_u_lo - base : role.own_u_hi - base].copy()
            ops += own.size
            self.cluster.stats.bump("local_only_machines")
        ctx.add_work(int(ops))
        ctx.payload["own_lengths"] = own

    @staticmethod
    def _meter_resolve(ctx: StepContext, prefix_lens) -> None:
        """Meter the periodic resolve: one op per prefix palindrome of a periodic superblock."""
        if case_name(prefix_lens) == "periodic":
            ctx.add_work(len(prefix_lens))

    def _keep_merged(self, ctx: StepContext, settled) -> None:
        """Merge a middle machine's settled prefix centers with its local lengths and
        keep its owned lengths."""
        lengths = _merge_b2(ctx.payload["own_lengths"],
                            self.plan.roles[ctx.machine_id].letters_lo, self.plan.block_len, settled)
        ctx.add_work(lengths.size)
        ctx.payload["own_lengths"] = lengths

    def _local_best(self, ctx: StepContext) -> tuple[int, int]:
        """(length, start) of the leftmost-longest owned palindrome."""
        lengths = ctx.payload["own_lengths"]
        start, length = leftmost_longest(lengths, self.plan.roles[ctx.machine_id].own_u_lo)
        ctx.add_work(lengths.size)
        return length, start

    def export_table(self) -> PalindromeTable:
        """Gather the distributed table; desk-scale convenience outside the metered run."""
        flat = np.full(2 * self.n - 1, -1, np.int64)
        for m, role in enumerate(self.plan.roles):
            flat[role.own_u_lo : role.own_u_hi] = self.cluster.payloads[m]["own_lengths"]
        if (flat < 0).any():
            raise InconsistentMergeError("gathered table has unowned centers")
        return PalindromeTable(odd=flat[0::2].copy(), even=flat[1::2].copy())

    @property
    def lps(self) -> tuple[int, int]:
        return self.cluster.payloads[0]["lps"]

    def solve(self) -> MpcResult:
        """Run every round; the table, the leftmost-longest palindrome and the stats."""
        self.run()
        start, length = self.lps
        return MpcResult(table=self.export_table(), lps_start=start, lps_length=length,
                         stats=self.cluster.stats, plan=self.plan)


# ---------------------------------------------------------------------------
# local letter access and message helpers


def _materialize_doubled(letters: np.ndarray, letters_lo: int, n: int,
                         lo: int, hi: int) -> np.ndarray:
    """Doubled-string range [lo, hi) from a machine's placed slice of the text."""
    if lo >= hi:
        return np.empty(0, np.int64)

    def text_range(s_lo: int, s_hi: int) -> np.ndarray:
        if s_lo < letters_lo or s_hi - letters_lo > letters.size:
            raise InconsistentMergeError(
                f"doubled range [{lo}, {hi}) escapes the machine's letters")
        return letters[s_lo - letters_lo : s_hi - letters_lo]

    parts = []
    if lo < n:
        parts.append(text_range(lo, min(hi, n)))
    if hi > n:
        parts.append(text_range(2 * n - hi, 2 * n - max(lo, n))[::-1])
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _offsets(counts) -> np.ndarray:
    """Segment bounds for ``send`` from per-segment row counts."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def _send_rows(ctx: StepContext, tag: str, dsts, **cols) -> None:
    """Send one single-row segment to each of ``dsts``; ``cols`` give the rows' values."""
    ctx.send(tag, dsts, np.arange(len(dsts) + 1),
             {name: np.asarray(col, np.int64) for name, col in cols.items()})


@functools.lru_cache(maxsize=None)
def _class_layout(span: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Class-store row order and segment bounds of a machine's two scan spans.

    Each span holds ``span`` consecutive positions and sends one segment per
    residue class mod ``w``: its offsets in that class, ascending. A pure
    function of (span, w), so machines with equal spans share one copy.
    """
    by_class = (np.arange(w)[:, None] + w * np.arange(-(-span // w))).ravel()
    by_class = by_class[by_class < span]
    return (np.concatenate((by_class, span + by_class)),
            _offsets(np.tile(np.bincount(np.arange(span) % w), 2)))


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first value, segment bounds) of each run of equal values.

    The bounds are int64 offsets from 0 to ``values.size``, as ``send`` takes them.
    """
    edge = np.ones(values.size + 1, bool)        # a run starts at i, or i == size
    np.not_equal(values[1:], values[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    return values[bounds[:-1]], bounds


# ---------------------------------------------------------------------------
# the fingerprint LCP protocol


class _Query:
    """Driver-side record of one in-flight LCP query of an origin machine."""

    __slots__ = ("qid", "p1", "p2", "t_star", "w_cap", "answer")

    def __init__(self, qid: int, p1: int, p2: int):
        self.qid = qid
        self.p1 = p1
        self.p2 = p2
        self.t_star = -1          # first mismatching window
        self.w_cap = 0            # comparable letters inside window t_star
        self.answer = -1


class FingerprintLcp:
    """The two-phase window-fingerprint LCP protocol over a placed text.

    It owns the window stores and the per-machine query table
    (``queries[m][qid]``). ``MpcPalindromes`` calls its steps from its rounds:
    ``scan`` and ``ask``, ``install``, then ``consume`` and ``serve``
    alternately, with ``ask`` in any round.
    """

    def __init__(self, plan: BlockPlan, scheme: FingerprintScheme):
        if plan.window > plan.block_len:
            raise AssertionError("window width exceeds block length; epsilon > 0.5?")
        self.plan = plan
        self.n = plan.n
        self.scheme = scheme
        # simulator-side, not metered: sized to the widest window-scan row
        self.pows, self.inv_pows = power_tables(scheme.bases, plan.block_len + plan.window - 1)
        self.queries: dict[int, dict[int, _Query]] = {}

    # -- window stores

    def scan(self, ctx: StepContext) -> None:
        """Fingerprint this machine's scan spans and route them to both stores.

        The two spans, the block and its mirror image, are nonempty and equal
        in length, and one kernel call fingerprints both. Each span sends one
        segment per residue class (stride w) to the class owners and one per
        window row to the stripe owners; no segment holds both spans' rows.
        """
        n = self.n
        w = self.plan.window
        letters = ctx.payload["letters"]
        lo = ctx.payload["letters_lo"]
        (block_lo, block_hi), (image_lo, _) = self.plan.roles[ctx.machine_id].scan_spans
        span = block_hi - block_lo
        bufs = [_materialize_doubled(letters, lo, n, p, min(p + span + w - 1, 2 * n))
                for p in (block_lo, image_lo)]
        vals = np.empty((self.scheme.layers, 2, span), np.int64)
        ctx.add_work(int(fragment_fp_scan(bufs, w, self.pows, self.inv_pows, vals)))
        vals = vals.reshape(self.scheme.layers, 2 * span)
        i = np.arange(span)
        pos = np.concatenate((block_lo + i, image_lo + i))
        order, bounds = _class_layout(span, w)
        cls_pos = pos[order]
        ctx.send("fc", cls_pos[bounds[:-1]] % w, bounds,
                 {"pos": cls_pos, "vals": vals[:, order]})
        # stripe store: runs of equal (window row, span index)
        keys, bounds = _runs(pos // w * 2 + np.arange(2 * span) // span)
        ctx.send("fs", keys // 2 % self.plan.machine_count, bounds, {"pos": pos, "vals": vals})

    def install(self, ctx: StepContext) -> None:
        """Fill both stores from the routed windows, keep a shipped tail, then ``serve``."""
        m = ctx.machine_id
        n = self.n
        w = self.plan.window
        M = self.plan.machine_count
        layers = self.scheme.layers
        cls_rows = -(-(2 * n - m) // w)
        row_count = len(range(m, -(-2 * n // w), M))
        ctx.payload["cls_vals"] = cls_vals = np.full((layers, cls_rows), -1, np.int64)
        ctx.payload["str_vals"] = str_vals = np.full((layers, row_count, w), -1, np.int64)
        fc = ctx.batches.get("fc")
        if fc is not None:
            rows = (fc["pos"] - m) // w
            cls_vals[:, rows] = fc["vals"]
            ctx.add_work(rows.size)
        fs = ctx.batches.get("fs")
        if fs is not None:
            rows = fs["pos"] // w
            str_vals[:, (rows - m) // M, fs["pos"] % w] = fs["vals"]
            ctx.add_work(rows.size)
        tail = ctx.batches.get("tail")
        if tail is not None:
            ctx.payload["tail_lo"] = int(tail["lo"][0])
            # a copy: a view would keep every machine's shipped letters alive
            ctx.payload["tail"] = tail["data"][:, 0].copy()
        self.serve(ctx)

    def letters(self, ctx: StepContext, lo: int, hi: int) -> np.ndarray:
        """Doubled-range letters held here (placed slice, plus a shipped tail)."""
        letters = ctx.payload["letters"]
        base = ctx.payload["letters_lo"]
        tail = ctx.payload.get("tail")
        if tail is not None:
            letters = np.concatenate((tail, letters))
            base = ctx.payload["tail_lo"]
        return _materialize_doubled(letters, base, self.n, lo, hi)

    # -- queries

    def ask(self, ctx: StepContext, wave) -> list[_Query]:
        """Register a wave's queries here; send their chain requests to every machine."""
        per = self.queries.setdefault(ctx.machine_id, {})
        queries = [_Query(len(per) + k, q.p1, q.p2) for k, q in enumerate(wave)]
        per.update((q.qid, q) for q in queries)
        if not queries:
            return queries
        key = np.asarray([2 * q.qid + s for q in queries for s in (0, 1)], np.int64)
        pos = np.asarray([p for q in queries for p in (q.p1, q.p2)], np.int64)
        M = self.plan.machine_count
        ctx.send("cq", np.arange(M), np.arange(M + 1) * key.size,
                 {"o": np.full(M * key.size, ctx.machine_id, np.int64),
                  "key": np.tile(key, M), "pos": np.tile(pos, M)}, headers=("o",))
        return queries

    def serve(self, ctx: StepContext) -> None:
        """Answer chain requests from the stripe store, refinements from the class store."""
        m = ctx.machine_id
        w = self.plan.window
        M = self.plan.machine_count
        cq = ctx.batches.get("cq")
        if cq is not None:
            # the chain of each requested position: rows row0, row0+1, ... of
            # its class; this machine serves the rows congruent to m mod M
            cls = cq["pos"] % w
            row0 = cq["pos"] // w
            total_rows = -(-(2 * self.n - cls) // w)
            start = row0 + (m - row0) % M
            counts = np.maximum(-(-(total_rows - start) // M), 0)
            req = np.repeat(np.arange(counts.size), counts)
            rows = start[req] + M * (np.arange(req.size) - (np.cumsum(counts) - counts)[req])
            ctx.add_work(rows.size * self.scheme.layers)
            if rows.size:
                # one reply per request message, i.e. per run of equal origins
                origins, offsets = _runs(cq["o"][req])
                ctx.send("cr", origins, offsets,
                         {"key": cq["key"][req], "rows": rows,
                          "vals": ctx.payload["str_vals"][:, (rows - m) // M, cls[req]]},
                         headers=("key",))
        sq = ctx.batches.get("sq")
        if sq is not None:
            rows = (sq["pos"] - m) // w
            ctx.add_work(rows.size)
            origins, offsets = _runs(sq["o"])
            ctx.send("sr", origins, offsets,
                     {"key": sq["key"], "pos": sq["pos"],
                      "vals": ctx.payload["cls_vals"][:, rows]})

    def consume(self, ctx: StepContext) -> None:
        """Compare arrived chains and finish arrived refinement scans, then settle
        the first-window mismatches from the letters held here."""
        first = self._compare_chains(ctx)
        self._finish_refinements(ctx)
        for q in first:
            self._first_window_answer(ctx, q)

    def _replies(self, ctx: StepContext, tag: str, index: str, span):
        """(query, side-0 values, side-1 values) for each query with replies under ``tag``.

        The batch is sorted by (key, ``index``) once. Each side's ``index``
        column must be exactly first, first + 1, ..., first + count - 1,
        where (first, count) = ``span(q, p)`` at that side's position p: a
        missing, duplicated or stray reply raises ``InconsistentMergeError``.
        """
        batch = ctx.batches.get(tag)
        if batch is None:
            return
        per = self.queries[ctx.machine_id]
        order = np.lexsort((batch[index], batch["key"]))
        keys, bounds = _runs(batch["key"][order])
        part = dict(zip(keys.tolist(), zip(bounds[:-1].tolist(), bounds[1:].tolist())))
        all_index = batch[index][order]
        all_vals = batch["vals"][:, order]
        for qid in sorted({key // 2 for key in part}):
            q = per[qid]
            sides = []
            for side, p in ((0, q.p1), (1, q.p2)):
                lo, hi = part.get(2 * qid + side, (0, 0))
                first, count = span(q, p)
                if not np.array_equal(all_index[lo:hi], np.arange(first, first + count)):
                    raise InconsistentMergeError(
                        f"{tag!r} replies for ({q.p1}, {q.p2}) side {side} are incomplete")
                sides.append(all_vals[:, lo:hi])
            yield q, sides[0], sides[1]

    def _compare_chains(self, ctx: StepContext) -> list[_Query]:
        n = self.n
        w = self.plan.window
        first: list[_Query] = []
        singles_pos: list[np.ndarray] = []
        singles_key: list[np.ndarray] = []
        # one row per window at p, p + w, ... below 2n
        for q, vi, vj in self._replies(ctx, "cr", "rows",
                                       lambda q, p: (p // w, -(-(2 * n - p) // w))):
            li = 2 * n - q.p1
            lj = 2 * n - q.p2
            t_max = min(vi.shape[1], vj.shape[1])
            ctx.add_work(t_max * self.scheme.layers)
            # window equality needs equal lengths too: the last window of
            # either suffix may be ragged
            offs = np.arange(t_max, dtype=np.int64) * w
            len_i = np.minimum(w, 2 * n - q.p1 - offs)
            len_j = np.minimum(w, 2 * n - q.p2 - offs)
            eq = np.all(vi[:, :t_max] == vj[:, :t_max], axis=0) & (len_i == len_j)
            bad = np.flatnonzero(~eq)
            if bad.size == 0:
                q.answer = min(li, lj)       # one suffix contains the other
                continue
            q.t_star = int(bad[0])
            q.w_cap = int(min(w, min(li, lj) - q.t_star * w))
            if q.t_star == 0:
                first.append(q)
                continue
            for side, pos in ((0, q.p1), (1, q.p2)):
                anchor = pos + q.t_star * w
                singles_pos.append(np.arange(anchor + 1 - w, anchor + q.w_cap + 1 - w))
                singles_key.append(np.full(q.w_cap, 2 * q.qid + side, np.int64))

        if singles_pos:
            pos_arr = np.concatenate(singles_pos)
            order = np.argsort(pos_arr % w, kind="stable")
            dests, offsets = _runs(pos_arr[order] % w)
            ctx.send("sq", dests, offsets,
                     {"o": np.full(order.size, ctx.machine_id, np.int64),
                      "key": np.concatenate(singles_key)[order], "pos": pos_arr[order]},
                     headers=("o",))
        return first

    def _finish_refinements(self, ctx: StepContext) -> None:
        w = self.plan.window
        # the windows ending at each offset 1 .. w_cap inside window t_star
        for q, v0, v1 in self._replies(ctx, "sr", "pos",
                                       lambda q, p: (p + q.t_star * w + 1 - w, q.w_cap)):
            run, tainted = first_unequal_run(np.all(v0 == v1, axis=0))
            ctx.add_work(q.w_cap)
            if tainted:
                raise CollisionAbort(
                    f"refinement scan at ({q.p1}, {q.p2}) is not prefix-monotone")
            q.answer = q.t_star * w + int(run)

    def _first_window_answer(self, ctx: StepContext, q: _Query) -> None:
        """Settle a first-window mismatch from the letters at q's two positions."""
        a = self.letters(ctx, q.p1, q.p1 + q.w_cap)
        b = self.letters(ctx, q.p2, q.p2 + q.w_cap)
        unequal = np.flatnonzero(a != b)
        run = int(unequal[0]) if unequal.size else q.w_cap
        ctx.add_work(q.w_cap)
        w = self.plan.window
        if run == q.w_cap and min(w, 2 * self.n - q.p1) == min(w, 2 * self.n - q.p2):
            raise CollisionAbort(
                f"window fingerprints at ({q.p1}, {q.p2}) differ but letters agree")
        q.answer = run


# ---------------------------------------------------------------------------
# pipeline


class MpcPalindromes(BlockPipeline):
    """One metered run of the pipeline over a fixed text."""

    MODE = "mpc"
    ROUNDS = 10

    def __init__(self, text, epsilon: float, seed: int = 0, memory_constant: int = 64,
                 scheme: FingerprintScheme | None = None):
        super().__init__(text, epsilon, seed, memory_constant, scheme)
        self.lcp = FingerprintLcp(self.plan, self.scheme)
        # per middle machine, its superblock driver and the wave in flight
        self.waves: dict[int, tuple] = {}

    # -- round 1: local phase

    def _r1_local(self, ctx: StepContext) -> None:
        m = ctx.machine_id
        role = self.plan.roles[m]

        self.lcp.scan(ctx)
        self._local_scan(ctx)
        if role.kind == "middle":
            waves = superblock_waves(ctx.payload["prefix_lens"], role.letters_lo, self.n,
                                     self.cluster.stats)
            self.waves[m] = waves, self.lcp.ask(ctx, next(waves))

        if role.tail_ship_to >= 0:
            # letters just left of the target's superblock, for first-window checks
            target_sb = self.plan.roles[role.tail_ship_to].letters_lo
            w = self.plan.window
            lo = ctx.payload["letters_lo"]
            seg = ctx.payload["letters"][target_sb - w - lo : target_sb - lo]
            # one row (w + 2 words): the start, and the letters as a (w, 1) column
            _send_rows(ctx, "tail", [role.tail_ship_to], lo=[target_sb - w],
                       data=seg.reshape(-1, 1))

    # -- round 5: first-wave resolution and second-wave requests

    def _r5_resolve(self, ctx: StepContext) -> None:
        self.lcp.consume(ctx)
        m = ctx.machine_id
        if m not in self.waves:
            return
        waves, wave = self.waves[m]
        wave = waves.send([q.answer for q in wave])
        self._meter_resolve(ctx, ctx.payload["prefix_lens"])
        self.waves[m] = waves, self.lcp.ask(ctx, wave)

    # -- round 9

    def _r9_finalize(self, ctx: StepContext) -> None:
        self.lcp.consume(ctx)
        m = ctx.machine_id
        if m in self.waves:
            waves, wave = self.waves.pop(m)
            self._keep_merged(ctx, waves.send([q.answer for q in wave]))
        length, start = self._local_best(ctx)
        _send_rows(ctx, "best", [0], len=[length], start=[start])

    def _r10_reduce(self, ctx: StepContext) -> None:
        best = ctx.batches["best"]
        ctx.add_work(best["len"].size)
        top = lps_index(best["len"], best["start"])
        ctx.payload["lps"] = (int(best["start"][top]), int(best["len"][top]))

    # -- driver

    def run(self) -> None:
        lcp = self.lcp
        phases = [self._r1_local, lcp.install, lcp.consume, lcp.serve,
                  self._r5_resolve, lcp.serve, lcp.consume, lcp.serve, self._r9_finalize]
        for phase in phases:
            self.cluster.run_round(phase)
        self.cluster.run_round(self._r10_reduce, machines=[0])


def solve_mpc(text, epsilon: float, seed: int = 0, memory_constant: int = 64,
              scheme: FingerprintScheme | None = None) -> MpcResult:
    """All maximal palindromes and the leftmost-longest palindromic substring."""
    return MpcPalindromes(text, epsilon, seed=seed, memory_constant=memory_constant,
                          scheme=scheme).solve()
