"""Distributed all-maximal-palindromes pipeline on the round-based cluster.

``PlacedText`` is the set-up of every driver: symbols, plan, cluster, scheme
and placement. ``BlockPipeline`` builds on it the per-machine skeleton that
this messaging pipeline (``MpcPalindromes``) and the adaptive one
(``palmpc.ampc``) share: local tables, merge, per-machine best and export.
The case analysis of each superblock comes from ``structural.first_wave``/
``settle``; ``FingerprintLcp`` answers its LCP queries, in two waves.
``DistributedLcp`` drives the same protocol on arbitrary query lists.

Decomposition
-------------
The text is cut into K = ceil(n / b) blocks of length b = ceil(n**(1-eps)).
Machine t (for the middle range of t) owns the palindrome centers of block t
and holds the superblock of blocks t-1 .. t+2 as its placement; consecutive
superblocks overlap by 3b. Centers within the first block or within 3b of the
right end can never outgrow the letters their machine already holds, so the
first and last machines finish those locally with a plain linear scan.

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
very first window is settled against letters instead, by the driver.

Both drivers run one schedule: ``scan`` and ``ask``, ``install``, then
``consume`` (chains compared, refinement scans finished) and ``serve`` (chain
and refinement requests answered) alternately. ``consume`` returns the
first-window mismatches. ``MpcPalindromes`` settles them from local letters
(a superblock's queries point within, or one window left of, its fragment);
``DistributedLcp`` fetches both windows from the machines that placed them.

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
 9 consume: final lengths merged with local tables; each best to machine 0
10 machine 0 reduces to the leftmost-longest palindromic substring

The guarantee is Monte Carlo: with random bases a false fingerprint match
is unlikely, but nothing proves the output exact. Collision detection is
one-sided and partial. First-window resolutions are cross-checked against
letters, and refinement scans must be prefix-monotone; a violation aborts
the run as a hash collision (``CollisionAbort``). A collision that breaks
neither check goes unseen, and the table it yields is silently wrong.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._kernels import (
    first_unequal_run,
    fragment_fp_scan,
    manacher_tables,
    njit,
    power_tables,
)
from .engine import (
    BROADCAST,
    Cluster,
    ClusterConfig,
    CollisionAbort,
    RunStats,
    StepContext,
    ceil_power,
)
from .fingerprint import FingerprintScheme, scheme_init
from .strings import (
    PalindromeTable,
    _prefix_pal_lengths_from_tables,
    leftmost_longest,
    pipeline_symbols,
)
from .structural import (
    InconsistentMergeError,
    _merge_b2,
    _periodic_resolve,
    case_name,
    first_wave,
    settle,
)

# ---------------------------------------------------------------------------
# block plan


@dataclass(frozen=True)
class MachineRole:
    kind: str                      # "first" | "middle" | "last" | "store"
    letters_lo: int                # S positions [letters_lo, letters_hi) placed here
    letters_hi: int
    own_u_lo: int                  # owned center half-indices [own_u_lo, own_u_hi)
    own_u_hi: int
    sb_start: int                  # superblock start (middle machines, else -1)
    scan_spans: tuple[tuple[int, int], ...]  # doubled-string ranges this machine fingerprints
    tail_ship_to: int              # middle machine to send our block-tail letters to, or -1


@dataclass(frozen=True)
class BlockPlan:
    n: int
    epsilon: float
    block_len: int                 # b
    block_count: int               # K
    machine_count: int             # M == K
    window: int                    # w, modular window width == machine count
    tail_block: int                # first block owned by the last machine
    roles: tuple[MachineRole, ...]

    def block_owner(self, block: int) -> int:
        """Machine that places a block and owns its centers."""
        if block == 0:
            return 0
        if block >= self.tail_block:
            return self.machine_count - 1
        return block

    def holder_of_position(self, sprime_pos: int) -> int:
        """Machine whose placed letters cover the width-w window at a doubled position."""
        n = self.n
        pos = sprime_pos if sprime_pos < n else 2 * n - 1 - sprime_pos
        return self.block_owner(min(pos // self.block_len, self.block_count - 1))


def plan_decomposition(n: int, epsilon: float) -> BlockPlan:
    """Block/superblock decomposition and per-machine duties for (n, epsilon)."""
    if n < 1:
        raise ValueError("text must be nonempty")
    b = ceil_power(n, 1.0 - epsilon)
    K = math.ceil(n / b)
    M = K
    w = M

    def image(lo: int, hi: int) -> tuple[int, int]:
        # doubled-string range occupied by the reversed copy of S[lo, hi)
        return 2 * n - hi, 2 * n - lo

    roles: list[MachineRole] = []
    if K == 1:
        roles.append(MachineRole("first", 0, n, 0, max(2 * n - 1, 0), -1,
                                 ((0, n), (n, 2 * n)), -1))
        return BlockPlan(n=n, epsilon=epsilon, block_len=b, block_count=K,
                         machine_count=M, window=w, tail_block=K, roles=tuple(roles))

    # tail is the first block whose superblock would overrun the text; the
    # last machine owns every center from there on, using the final letters
    tail = 1
    while (tail + 3) * b <= n:
        tail += 1
    for m in range(M):
        # a machine ships the w letters preceding its right neighbor's
        # superblock so that neighbor can settle first-window mismatches of
        # its leftward probes locally
        ship = m + 1 if 2 <= m + 1 <= tail - 1 else -1
        if m == 0:
            hi = min(2 * b, n)
            roles.append(MachineRole(
                "first", 0, hi, 0, min(2 * b, 2 * n - 1), -1,
                ((0, b), image(0, b)), ship))
        elif 1 <= m <= tail - 1:
            sb = (m - 1) * b
            roles.append(MachineRole(
                "middle", sb, sb + 4 * b, 2 * m * b, 2 * (m + 1) * b, sb,
                ((m * b, (m + 1) * b), image(m * b, (m + 1) * b)), ship))
        elif m == M - 1:
            lo = max(0, n - 8 * b)
            roles.append(MachineRole(
                "last", lo, n, 2 * tail * b, 2 * n - 1, -1,
                ((tail * b, n), image(tail * b, n)), -1))
        else:
            roles.append(MachineRole("store", 0, 0, 0, 0, -1, (), -1))
    return BlockPlan(n=n, epsilon=epsilon, block_len=b, block_count=K,
                     machine_count=M, window=w, tail_block=tail, roles=tuple(roles))


@dataclass
class MpcResult:
    table: PalindromeTable
    lps_start: int
    lps_length: int
    stats: RunStats
    plan: BlockPlan


class PlacedText:
    """Set-up of every driver: the checked symbols, the block plan, the cluster
    of the subclass's ``MODE``, the scheme (drawn from the seed unless given),
    and each machine's placed letter slice (round 0).
    """

    MODE: str

    def __init__(self, text, epsilon: float, seed: int = 0, memory_constant: int = 64,
                 scheme: FingerprintScheme | None = None):
        sym = pipeline_symbols(text)
        n = int(sym.size)
        self.n = n
        self.plan = plan_decomposition(n, epsilon)
        self.cluster = Cluster(ClusterConfig(n=n, epsilon=epsilon, mode=self.MODE,
                                             memory_constant=memory_constant, seed=seed))
        sigma = int(sym.max()) + 1
        self.scheme = scheme if scheme is not None else scheme_init(
            max(2 * n, 2), sigma, seed=seed)
        # placement (round 0): each machine receives its role's letter slice
        for m, role in enumerate(self.plan.roles):
            payload = self.cluster.machines[m].payload
            letters = sym[role.letters_lo : role.letters_hi].copy()
            letters.setflags(write=False)
            payload["letters"] = letters
            payload["letters_lo"] = role.letters_lo


class BlockPipeline(PlacedText):
    """Per-machine skeleton shared by the messaging and adaptive pipelines.

    Both keep the same local tables, merge the resolved prefix centers the
    same way and reduce the same per-machine best; they differ only in how
    they answer the superblocks' LCP queries. Subclasses set the cluster
    ``MODE``, define ``run()``, and call the kernels (Manacher, prefix
    palindromes, periodic resolution, merge) from their own round steps,
    handing the outputs to the helpers here.
    """

    def _keep_tables(self, ctx: StepContext, odd, even, ops) -> None:
        """Keep the local Manacher tables, or on an edge machine its owned slice."""
        ctx.add_work(int(ops))
        role = self.plan.roles[ctx.machine_id]
        if role.kind == "middle":
            ctx.payload["f_odd"] = odd
            ctx.payload["f_even"] = even
        else:
            base = 2 * role.letters_lo
            by_center = PalindromeTable(odd, even).lengths_by_center()
            ctx.payload["own_lengths"] = by_center[role.own_u_lo - base : role.own_u_hi - base]

    @staticmethod
    def _keep_merged(ctx: StepContext, merged) -> None:
        """Keep a middle machine's owned lengths from the output of ``_merge_b2``."""
        lengths, missing = merged
        ctx.add_work(lengths.size)
        if missing >= 0:
            raise InconsistentMergeError(
                f"center u={int(missing)} reaches its fragment start unresolved")
        ctx.payload["own_lengths"] = lengths

    def _local_best(self, ctx: StepContext) -> tuple[int, int] | None:
        """(length, start) of the leftmost-longest owned palindrome; None if nothing is owned."""
        role = self.plan.roles[ctx.machine_id]
        if role.own_u_hi <= role.own_u_lo:
            return None
        lengths = ctx.payload["own_lengths"]
        start, length = leftmost_longest(lengths, role.own_u_lo, self.n)
        ctx.add_work(lengths.size)
        return length, start

    def export_table(self) -> PalindromeTable:
        """Gather the distributed table; desk-scale convenience outside the metered run."""
        self.cluster.stats.exported_outside_run = True
        flat = np.full(2 * self.n - 1, -1, np.int64)
        for m, role in enumerate(self.plan.roles):
            if role.own_u_hi > role.own_u_lo:
                flat[role.own_u_lo : role.own_u_hi] = \
                    self.cluster.machines[m].payload["own_lengths"]
        if (flat < 0).any():
            raise InconsistentMergeError("gathered table has unowned centers")
        return PalindromeTable(odd=flat[0::2].copy(), even=flat[1::2].copy())

    @property
    def lps(self) -> tuple[int, int]:
        return self.cluster.machines[0].payload["lps"]

    def solve(self) -> MpcResult:
        """Run every round; the table, the leftmost-longest palindrome and the stats."""
        self.run()
        start, length = self.lps
        return MpcResult(table=self.export_table(), lps_start=start, lps_length=length,
                         stats=self.cluster.stats, plan=self.plan)


def _resolved_columns(results) -> tuple[np.ndarray, np.ndarray]:
    """(centers, lengths) of a list of ``CenterResult``, as ``_merge_b2`` takes them."""
    return tuple(np.asarray(results, np.int64).reshape(-1, 2).T)


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


def _rows(ctx: StepContext, tag: str, *names):
    """The rows received under ``tag``, as tuples of the named columns' values."""
    batch = ctx.batches.get(tag)
    return () if batch is None else zip(*(batch[name].tolist() for name in names))


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first value, segment bounds) of each run of equal values."""
    starts = np.flatnonzero(np.diff(values, prepend=values[:1] - 1))
    return values[starts], np.append(starts, values.size)


@njit
def _letters_common_run(a, b, limit):
    run = np.int64(0)
    while run < limit and a[run] == b[run]:
        run += 1
    return run


# ---------------------------------------------------------------------------
# the fingerprint LCP protocol


class _Query:
    """Driver-side record of one in-flight LCP query of an origin machine."""

    __slots__ = ("qid", "kind", "p1", "p2", "center_u", "t_star", "w_cap",
                 "answer", "checked")

    def __init__(self, qid: int, kind: str, p1: int, p2: int, center_u: int = -1):
        self.qid = qid
        self.kind = kind          # "left" | "right" | "center" | "user"
        self.p1 = p1
        self.p2 = p2
        self.center_u = center_u
        self.t_star = -1          # first mismatching window
        self.w_cap = 0            # comparable letters inside window t_star
        self.answer = -1
        self.checked = False      # letter spot-check already considered


class FingerprintLcp:
    """The two-phase window-fingerprint LCP protocol over a placed text.

    It owns the window stores and the per-machine query table
    (``queries[m][qid]``). A driver calls its steps from its own rounds:
    ``scan`` and ``ask``, ``install``, then ``consume`` and ``serve``
    alternately, with ``ask`` in any round.
    """

    def __init__(self, plan: BlockPlan, scheme: FingerprintScheme, stats: RunStats):
        if plan.window > plan.block_len:
            raise AssertionError("window width exceeds block length; epsilon > 0.5?")
        self.plan = plan
        self.n = plan.n
        self.scheme = scheme
        self.stats = stats
        # simulator-side, not metered: sized to the longest window-scan buffer
        w = plan.window
        longest = max((min(hi + w - 1, 2 * self.n) - lo for role in plan.roles
                       for lo, hi in role.scan_spans), default=0)
        self.pows, self.inv_pows = power_tables(scheme.bases, longest)
        self.queries: dict[int, dict[int, _Query]] = {}

    # -- window stores

    def scan(self, ctx: StepContext) -> None:
        """Fingerprint this machine's scan spans and route them to both stores."""
        n = self.n
        w = self.plan.window
        letters = ctx.payload["letters"]
        lo = ctx.payload["letters_lo"]
        spans = []
        for span_lo, span_hi in self.plan.roles[ctx.machine_id].scan_spans:
            if span_lo >= span_hi:
                continue
            buf_hi = min(span_hi + w - 1, 2 * n)
            buf = _materialize_doubled(letters, lo, n, span_lo, buf_hi)
            span = span_hi - span_lo
            vals = np.empty((self.scheme.layers, span), np.int64)
            ctx.add_work(int(fragment_fp_scan(buf, span, w, self.pows, self.inv_pows, vals)))
            spans.append((span_lo, vals))
        if spans:
            self._send_frag_batches(ctx, spans)

    def _send_frag_batches(self, ctx: StepContext,
                           spans: list[tuple[int, np.ndarray]]) -> None:
        """Route window fingerprints to their class-store and stripe-store owners.

        ``spans`` holds (first doubled position, per-layer values) per scan
        span. Positions within a span are consecutive, so each span sends one
        segment per residue class (stride w) to the class owners and one per
        window row to the stripe owners.
        """
        w = self.plan.window
        M = self.plan.machine_count
        fc_dst, fc_count, fc_rows, fs_dst, fs_count, positions = [], [], [], [], [], []
        base = 0
        for lo, vals in spans:
            i = np.arange(vals.shape[1], dtype=np.int64)
            fc_dst.append((lo + i[:w]) % w)
            fc_count.append(np.bincount(i % w))
            fc_rows.append(base + np.argsort(i % w, kind="stable"))
            row = (lo + i) // w
            fs_dst.append(np.arange(row[0], row[-1] + 1) % M)
            fs_count.append(np.bincount(row - row[0]))
            positions.append(lo + i)
            base += i.size
        pos = np.concatenate(positions)
        vals = np.concatenate([v for _, v in spans], axis=1)
        by_class = np.concatenate(fc_rows)
        ctx.send("fc", np.concatenate(fc_dst), _offsets(np.concatenate(fc_count)),
                 {"pos": pos[by_class], "vals": vals[:, by_class]})
        ctx.send("fs", np.concatenate(fs_dst), _offsets(np.concatenate(fs_count)),
                 {"pos": pos, "vals": vals})

    def install(self, ctx: StepContext) -> None:
        """Fill both stores from the routed windows, keep a shipped tail, then ``serve``."""
        m = ctx.machine_id
        n = self.n
        w = self.plan.window
        M = self.plan.machine_count
        layers = self.scheme.layers
        cls_rows = -(-(2 * n - m) // w) if m < w else 0
        row_count = len(range(m, -(-2 * n // w), M))
        ctx.payload["cls_vals"] = cls_vals = np.full((layers, max(cls_rows, 0)), -1, np.int64)
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
            ctx.payload["tail"] = tail["data"][:, 0]
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

    def ask(self, ctx: StepContext, specs) -> list[_Query]:
        """Register queries (kind, p1, p2[, center_u]) here; broadcast their chain requests."""
        per = self.queries.setdefault(ctx.machine_id, {})
        queries = [_Query(len(per) + k, *spec) for k, spec in enumerate(specs)]
        per.update((q.qid, q) for q in queries)
        if not queries:
            return queries
        self.stats.bump("lcp_queries", len(queries))
        key = np.asarray([2 * q.qid + s for q in queries for s in (0, 1)], np.int64)
        pos = np.asarray([p for q in queries for p in (q.p1, q.p2)], np.int64)
        ctx.send("cq", [BROADCAST], [0, key.size],
                 {"o": np.full(key.size, ctx.machine_id, np.int64), "key": key, "pos": pos},
                 headers=("o",))
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

    def consume(self, ctx: StepContext) -> list[_Query]:
        """Compare arrived chains and finish arrived refinement scans; returns the
        first-window mismatches, each still to settle with ``first_window_answer``."""
        first = self._compare_chains(ctx)
        self._finish_refinements(ctx)
        return first

    def _compare_chains(self, ctx: StepContext) -> list[_Query]:
        m = ctx.machine_id
        n = self.n
        w = self.plan.window
        cr = ctx.batches.get("cr")
        if cr is None:
            return []
        per = self.queries.get(m, {})
        # chain parts from every server, ordered by (key, row)
        order = np.lexsort((cr["rows"], cr["key"]))
        keys, bounds = _runs(cr["key"][order])
        part = dict(zip(keys.tolist(), zip(bounds[:-1].tolist(), bounds[1:].tolist())))
        all_rows = cr["rows"][order]
        all_vals = cr["vals"][:, order]

        first: list[_Query] = []
        singles_pos: list[np.ndarray] = []
        singles_key: list[np.ndarray] = []
        for qid in sorted({key // 2 for key in part}):
            q = per[qid]
            chain = {}
            for side, pos in ((0, q.p1), (1, q.p2)):
                lo, hi = part.get(2 * qid + side, (0, 0))
                rows = all_rows[lo:hi]
                base_row = pos // w
                if rows.size and (rows[0] != base_row or
                                  not np.array_equal(rows, np.arange(base_row, base_row + rows.size))):
                    raise InconsistentMergeError("chain rows arrived with gaps")
                chain[side] = all_vals[:, lo:hi]

            vi, vj = chain[0], chain[1]
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
                singles_key.append(np.full(q.w_cap, 2 * qid + side, np.int64))

        if singles_pos:
            pos_arr = np.concatenate(singles_pos)
            order = np.argsort(pos_arr % w, kind="stable")
            dests, offsets = _runs(pos_arr[order] % w)
            ctx.send("sq", dests, offsets,
                     {"o": np.full(order.size, m, np.int64),
                      "key": np.concatenate(singles_key)[order], "pos": pos_arr[order]},
                     headers=("o",))
        return first

    def _finish_refinements(self, ctx: StepContext) -> None:
        sr = ctx.batches.get("sr")
        if sr is None:
            return
        w = self.plan.window
        per = self.queries.get(ctx.machine_id, {})
        order = np.argsort(sr["key"] // 2, kind="stable")
        qids, bounds = _runs(sr["key"][order] // 2)
        for qid, lo, hi in zip(qids.tolist(), bounds[:-1], bounds[1:]):
            q = per[qid]
            idx = order[lo:hi]
            side = sr["key"][idx] % 2
            pos = sr["pos"][idx]
            vals = sr["vals"][:, idx]
            anchor0 = q.p1 + q.t_star * w
            anchor1 = q.p2 + q.t_star * w
            by_delta = {}
            for s, anchor in ((0, anchor0), (1, anchor1)):
                mask = side == s
                delta = pos[mask] - (anchor - w)
                v = np.full((self.scheme.layers, q.w_cap + 1), -1, np.int64)
                v[:, delta] = vals[:, mask]
                if (v[:, 1:] < 0).any():
                    raise InconsistentMergeError(
                        f"refinement responses for ({q.p1}, {q.p2}) are incomplete")
                by_delta[s] = v
            eq = np.all(by_delta[0][:, 1:] == by_delta[1][:, 1:], axis=0)
            run, tainted = first_unequal_run(eq)
            ctx.add_work(q.w_cap)
            if tainted:
                raise CollisionAbort(
                    f"refinement scan at ({q.p1}, {q.p2}) is not prefix-monotone")
            q.answer = q.t_star * w + int(run)

    def first_window_answer(self, ctx: StepContext, q: _Query, a: np.ndarray,
                            b: np.ndarray) -> None:
        """Settle a first-window mismatch from the letters at q's two positions."""
        run = int(_letters_common_run(a, b, q.w_cap))
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
        self.lcp = FingerprintLcp(self.plan, self.scheme, self.cluster.stats)
        self.waves: dict[int, list[_Query]] = {}     # per machine, the wave in flight
        self.resolved: dict = {}                    # per machine, what wave 1 settled

    # -- round 1: local phase

    def _r1_local(self, ctx: StepContext) -> None:
        m = ctx.machine_id
        role = self.plan.roles[m]

        self.lcp.scan(ctx)
        if role.kind != "store":
            self._keep_tables(ctx, *manacher_tables(ctx.payload["letters"]))

        if role.kind in ("first", "last"):
            ctx.add_work(ctx.payload["own_lengths"].size)
            self.cluster.stats.bump("local_only_machines")
        elif role.kind == "middle":
            b = self.plan.block_len
            prefix_lens = _prefix_pal_lengths_from_tables(
                ctx.payload["f_odd"], ctx.payload["f_even"], 2 * b, 4 * b)
            ctx.add_work(2 * b)
            case = case_name(prefix_lens)
            self.cluster.stats.bump(f"classified_{case}")
            if case == "periodic":
                # unread, but metered memory: dropping it changes the stats
                ctx.payload["period"] = int(prefix_lens[-1] - prefix_lens[-2])
                ctx.payload["prefix_lens"] = prefix_lens
            self.waves[m] = self.lcp.ask(ctx, first_wave(prefix_lens, role.sb_start, self.n))

        if role.tail_ship_to >= 0:
            # letters just left of the target's superblock, for first-window checks
            target_sb = self.plan.roles[role.tail_ship_to].sb_start
            w = self.plan.window
            lo = ctx.payload["letters_lo"]
            seg = ctx.payload["letters"][target_sb - w - lo : target_sb - lo]
            # one row (w + 2 words): the start, and the letters as a (w, 1) column
            _send_rows(ctx, "tail", [role.tail_ship_to], lo=[target_sb - w],
                       data=seg.reshape(-1, 1))

    def _consume(self, ctx: StepContext) -> None:
        """``FingerprintLcp.consume``, first-window mismatches settled from local letters."""
        lcp = self.lcp
        for q in lcp.consume(ctx):
            lcp.first_window_answer(ctx, q, lcp.letters(ctx, q.p1, q.p1 + q.w_cap),
                                    lcp.letters(ctx, q.p2, q.p2 + q.w_cap))

    # -- round 5: first-wave resolution and second-wave requests

    def _r5_resolve(self, ctx: StepContext) -> None:
        self._consume(ctx)
        m = ctx.machine_id
        role = self.plan.roles[m]
        if role.kind != "middle":
            return
        wave = self.waves[m]
        answers = [q.answer for q in wave]
        periodic = None
        prefix_lens = ctx.payload.get("prefix_lens")
        if prefix_lens is not None:
            # the wave is [left, right], or [right] at start 0 where left is ignored
            periodic = _periodic_resolve(prefix_lens, role.sb_start, self.n,
                                         answers[0], answers[-1])
            ctx.add_work(prefix_lens.size)
        self.resolved[m], wave2 = settle(wave, answers, self.n, periodic)
        if wave2:
            self.cluster.stats.bump("simultaneous_centers")
        self.waves[m] = self.lcp.ask(ctx, wave2)

    # -- round 9

    def _r9_finalize(self, ctx: StepContext) -> None:
        self._consume(ctx)
        m = ctx.machine_id
        role = self.plan.roles[m]
        if role.kind == "middle":
            wave = self.waves[m]
            settled, _ = settle(wave, [q.answer for q in wave], self.n)
            res_u, res_len = _resolved_columns(self.resolved[m] + settled)
            self._keep_merged(ctx, _merge_b2(ctx.payload["f_odd"], ctx.payload["f_even"],
                                             role.sb_start, self.plan.block_len, res_u, res_len))
        best = self._local_best(ctx)
        if best is not None:
            _send_rows(ctx, "best", [0], len=[best[0]], start=[best[1]])

    def _r10_reduce(self, ctx: StepContext) -> None:
        if ctx.machine_id != 0:
            return
        best = ctx.batches["best"]
        ctx.add_work(best["len"].size)
        top = np.lexsort((best["start"], -best["len"]))[0]    # longest, then leftmost
        ctx.payload["lps"] = (int(best["start"][top]), int(best["len"][top]))

    # -- driver

    def run(self) -> None:
        serve = self.lcp.serve
        phases = [self._r1_local, self.lcp.install, self._consume, serve,
                  self._r5_resolve, serve, self._consume, serve, self._r9_finalize,
                  self._r10_reduce]
        for phase in phases:
            self.cluster.run_round(phase)
        budget = 3 * self.plan.machine_count
        issued = self.cluster.stats.counters.get("lcp_queries", 0)
        if issued > budget:
            raise AssertionError(f"{issued} LCP queries exceed the 3-per-machine budget")
        for m, per in self.lcp.queries.items():
            if len(per) > 3:
                raise AssertionError(f"machine {m} issued {len(per)} LCP queries")


def solve_mpc(text, epsilon: float, seed: int = 0, memory_constant: int = 64,
              scheme: FingerprintScheme | None = None) -> MpcResult:
    """All maximal palindromes and the leftmost-longest palindromic substring."""
    return MpcPalindromes(text, epsilon, seed=seed, memory_constant=memory_constant,
                          scheme=scheme).solve()


class DistributedLcp(PlacedText):
    """Standalone distributed answering of arbitrary LCP queries on the doubled text.

    Queries are spread round-robin over the machines and answered with
    ``FingerprintLcp``, the protocol of the palindrome pipeline, pipelined in
    waves: every other round each machine asks its next ``PER_MACHINE_WAVE``
    queries. Because arbitrary
    queries have no locality guarantee, first-window mismatches are settled by
    fetching the two letter windows from the machines that placed them, and a
    deterministic sample of fingerprint-resolved answers is letter-verified
    the same way; a contradiction aborts as a collision. 2 * wave_count + 7
    rounds, or 3 when no query needs the protocol.
    """

    MODE = "mpc"
    PER_MACHINE_WAVE = 2
    VERIFY_EVERY = 8

    def __init__(self, text, queries: list[tuple[int, int]], epsilon: float,
                 seed: int = 0, memory_constant: int = 64,
                 scheme: FingerprintScheme | None = None):
        super().__init__(text, epsilon, seed, memory_constant, scheme)
        self.lcp = FingerprintLcp(self.plan, self.scheme, self.cluster.stats)
        n = self.n
        M = self.plan.machine_count
        self.answers: list[int | None] = [None] * len(queries)
        # per origin machine, (answer slot, p1, p2) in asking order: entry k becomes qid k
        self.pending: list[list[tuple[int, int, int]]] = [[] for _ in range(M)]
        protocol_idx = 0
        for idx, (p1, p2) in enumerate(queries):
            if not (0 <= p1 <= 2 * n and 0 <= p2 <= 2 * n):
                raise ValueError(f"query positions ({p1}, {p2}) outside the doubled text")
            if p1 == 2 * n or p2 == 2 * n:
                self.answers[idx] = 0
                continue
            if p1 == p2:
                self.answers[idx] = 2 * n - p1
                continue
            self.pending[protocol_idx % M].append((idx, p1, p2))
            protocol_idx += 1
        self.wave_count = -(-len(self.pending[0]) // self.PER_MACHINE_WAVE)

    def _ask_wave(self, ctx: StepContext, wave: int) -> None:
        lo = wave * self.PER_MACHINE_WAVE
        mine = self.pending[ctx.machine_id][lo : lo + self.PER_MACHINE_WAVE]
        self.lcp.ask(ctx, [("user", p1, p2) for _, p1, p2 in mine])

    def _scan_and_ask(self, ctx: StepContext) -> None:
        self.lcp.scan(ctx)
        self._ask_wave(ctx, 0)

    def _serve(self, ctx: StepContext) -> None:
        """Answer whatever arrived: chain requests, refinements, letter fetches."""
        lcp = self.lcp
        lcp.serve(ctx)
        for o, qid, side, pos, cap in _rows(ctx, "lw", "o", "qid", "side", "pos", "cap"):
            win = lcp.letters(ctx, pos, pos + cap)
            ctx.add_work(win.size)
            ctx.send("lr", [o], [0, win.size], {"qid": np.full(win.size, qid),
                                                "side": np.full(win.size, side),
                                                "letters": win}, headers=("qid", "side"))
        for o, qid, side, pos in _rows(ctx, "lv", "o", "qid", "side", "pos"):
            win = lcp.letters(ctx, pos, pos + 1)
            _send_rows(ctx, "lvr", [o], qid=[qid], side=[side], sym=win[:1])

    def _consume(self, ctx: StepContext, wave: int) -> None:
        """Consume whatever arrived, then ask the given wave's queries."""
        m = ctx.machine_id
        lcp = self.lcp
        holder = self.plan.holder_of_position
        for q in lcp.consume(ctx):
            # positions are arbitrary: fetch both windows from their placers
            _send_rows(ctx, "lw", [holder(q.p1), holder(q.p2)], o=[m] * 2,
                       qid=[q.qid] * 2, side=[0, 1], pos=[q.p1, q.p2], cap=[q.w_cap] * 2)

        per = lcp.queries.get(m, {})
        windows: dict[int, dict[int, np.ndarray]] = {}
        verdicts: dict[int, dict[int, int]] = {}
        lr = ctx.batches.get("lr")
        if lr is not None:
            # each (qid, side) window is one segment, so one run of rows
            keys, bounds = _runs(2 * lr["qid"] + lr["side"])
            for key, lo, hi in zip(keys.tolist(), bounds[:-1], bounds[1:]):
                windows.setdefault(key // 2, {})[key % 2] = lr["letters"][lo:hi]
        for qid, side, sym in _rows(ctx, "lvr", "qid", "side", "sym"):
            verdicts.setdefault(qid, {})[side] = sym
        for qid, sides in sorted(windows.items()):
            lcp.first_window_answer(ctx, per[qid], sides[0], sides[1])
        for qid, sides in sorted(verdicts.items()):
            q = per[qid]
            if len(sides) == 2 and sides[0] == sides[1]:
                raise CollisionAbort(
                    f"answer {q.answer} for ({q.p1}, {q.p2}) fails the letter spot-check")

        # letter spot-checks for answers that just landed via fingerprints
        for qid, q in per.items():
            if q.answer >= 0 and qid not in windows and not q.checked:
                q.checked = True
                if q.t_star != 0 and qid % self.VERIFY_EVERY == 0:
                    mu = q.answer
                    for side, pos in ((0, q.p1), (1, q.p2)):
                        if pos + mu < 2 * self.n:
                            _send_rows(ctx, "lv", [holder(pos + mu)],
                                       o=[m], qid=[qid], side=[side], pos=[pos + mu])
        self._ask_wave(ctx, wave)

    def run(self) -> list[int]:
        self.cluster.run_round(self._scan_and_ask)
        self.cluster.run_round(self.lcp.install)
        consumes = self.wave_count + 2 if self.wave_count else 0
        for k in range(1, consumes + 1):
            self.cluster.run_round(partial(self._consume, wave=k))
            self.cluster.run_round(self._serve)
        self.cluster.run_round(partial(self._consume, wave=consumes + 1))
        for m, pending in enumerate(self.pending):
            for qid, (slot, _, _) in enumerate(pending):
                answer = self.lcp.queries[m][qid].answer
                if answer < 0:
                    raise InconsistentMergeError("user query left unanswered")
                self.answers[slot] = answer
        return [int(a) for a in self.answers]


def distributed_lcp(text, queries: list[tuple[int, int]], epsilon: float = 0.5,
                    seed: int = 0, memory_constant: int = 64):
    """Answer LCP queries on text . reverse(text) through the cluster protocol.

    Returns (answers, stats).
    """
    driver = DistributedLcp(text, queries, epsilon, seed=seed,
                            memory_constant=memory_constant)
    answers = driver.run()
    return answers, driver.cluster.stats
