"""Distributed all-maximal-palindromes pipeline on the round-based cluster.

``BlockPipeline`` is the per-machine skeleton that this messaging pipeline
(``MpcPalindromes``) and the adaptive one (``palmpc.ampc``) share: set-up and
placement, the local tables, the merge of the resolved prefix centers, the
per-machine best, and export. The case analysis of each superblock comes
from ``structural.first_wave``/``settle``; this module answers its LCP
queries with the fingerprint protocol below, in two waves.

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
An LCP query (i, j) is answered in two fingerprint phases: compare the two
chains window by window to locate the first mismatching window t*, then fetch
the windows ending at each offset inside window t* (full-width windows, one
per class, balanced) and scan for the first unequal one. Windows below t*
agree, so two such shifted windows are equal exactly when the in-window
prefixes up to the shift are equal. A mismatch inside the very first window
is resolved against locally held letters instead (every query a superblock
issues points at letters within, or one window left of, its own fragment).

Round schedule (fixed; R0 = 10 rounds for every input and size)
---------------------------------------------------------------
 1 local scans, classification, window fingerprints routed to both stores,
   first-wave chain requests (period probes and lone-center queries)
 2 stores installed; chain requests served from the stripe store
 3 chains compared; first-window cases settled from local letters;
   in-window refinement requests to the class store
 4 refinement served
 5 exact first-wave answers; periodic case analysis; second-wave center
   queries for the one center per superblock that needs one
 6 second-wave chains served
 7 compared; refinement requested
 8 refinement served
 9 final lengths merged with local tables; per-machine best to machine 0
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
from .strings import PalindromeTable, _prefix_pal_lengths_from_tables, pipeline_symbols
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

    def holder_of_position(self, sprime_pos: int) -> int:
        """Machine whose placed letters cover the width-w window at a doubled position."""
        n = self.n
        pos = sprime_pos if sprime_pos < n else 2 * n - 1 - sprime_pos
        block = min(pos // self.block_len, self.block_count - 1)
        if block == 0:
            return 0
        if block >= self.tail_block:
            return self.machine_count - 1
        return block


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


class BlockPipeline:
    """Per-machine skeleton shared by the messaging and adaptive pipelines.

    Both place the same block plan, keep the same local tables, merge the
    resolved prefix centers the same way and reduce the same per-machine best;
    they differ only in how they answer the superblocks' LCP queries.
    Subclasses set the cluster ``MODE``, define ``run()``, and call the
    kernels (Manacher, prefix palindromes, periodic resolution, merge) from
    their own round steps, handing the outputs to the helpers here.
    """

    MODE: str

    def __init__(self, text, epsilon: float, seed: int = 0, memory_constant: int = 64,
                 scheme: FingerprintScheme | None = None):
        self.sym = pipeline_symbols(text)
        n = int(self.sym.size)
        self.n = n
        self.plan = plan_decomposition(n, epsilon)
        self.config = ClusterConfig(n=n, epsilon=epsilon, mode=self.MODE,
                                    memory_constant=memory_constant, seed=seed)
        self.cluster = Cluster(self.config)
        sigma = int(self.sym.max()) + 1
        self.scheme = scheme if scheme is not None else scheme_init(
            max(2 * n, 2), sigma, seed=seed)
        # placement (round 0): each machine receives its role's letter slice
        for m, role in enumerate(self.plan.roles):
            payload = self.cluster.machines[m].payload
            letters = self.sym[role.letters_lo : role.letters_hi].copy()
            letters.setflags(write=False)
            payload["letters"] = letters
            payload["letters_lo"] = role.letters_lo

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
        us = np.arange(role.own_u_lo, role.own_u_hi, dtype=np.int64)
        starts = (us - lengths + 1) // 2
        best = int(np.argmax(lengths * (2 * self.n) - starts))
        ctx.add_work(lengths.size)
        return int(lengths[best]), int(starts[best])

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
# local letter access


def _materialize_doubled(letters: np.ndarray, letters_lo: int, n: int,
                         lo: int, hi: int) -> np.ndarray:
    """Doubled-string range [lo, hi) from a machine's placed slice of the text."""
    if lo >= hi:
        return np.empty(0, np.int64)
    parts = []
    if lo < n:
        f_hi = min(hi, n)
        if lo < letters_lo or f_hi - letters_lo > letters.size:
            raise IndexError("forward range escapes the machine's letters")
        parts.append(letters[lo - letters_lo : f_hi - letters_lo])
    if hi > n:
        r_lo = max(lo, n)
        s_lo, s_hi = 2 * n - hi, 2 * n - r_lo
        if s_lo < letters_lo or s_hi - letters_lo > letters.size:
            raise IndexError("reversed range escapes the machine's letters")
        parts.append(letters[s_lo - letters_lo : s_hi - letters_lo][::-1])
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
# pipeline


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
        self.t_star = -1
        self.w_cap = 0
        self.answer = -1
        self.checked = False      # letter spot-check already considered


class MpcPalindromes(BlockPipeline):
    """One metered run of the pipeline over a fixed text."""

    MODE = "mpc"
    ROUNDS = 10

    def __init__(self, text, epsilon: float, seed: int = 0, memory_constant: int = 64,
                 scheme: FingerprintScheme | None = None):
        super().__init__(text, epsilon, seed, memory_constant, scheme)
        if self.plan.window > self.plan.block_len:
            raise AssertionError("window width exceeds block length; epsilon > 0.5?")
        # simulator-side, not metered: sized to the longest window-scan buffer
        w = self.plan.window
        longest = max((min(hi + w - 1, 2 * self.n) - lo for role in self.plan.roles
                       for lo, hi in role.scan_spans), default=0)
        self.pows, self.inv_pows = power_tables(self.scheme.bases, longest)
        self.queries: dict[int, dict[int, _Query]] = {}
        self.waves: dict[int, list[_Query]] = {}     # per machine, the wave in flight
        self.resolved: dict = {}                    # per machine, what wave 1 settled

    # -- helpers shared by phases

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

    def _scan_fragments(self, ctx: StepContext, role: MachineRole) -> None:
        n = self.n
        w = self.plan.window
        letters = ctx.payload["letters"]
        lo = ctx.payload["letters_lo"]
        spans = []
        for span_lo, span_hi in role.scan_spans:
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

    def _new_query(self, m: int, kind: str, p1: int, p2: int, center_u: int = -1) -> _Query:
        per = self.queries.setdefault(m, {})
        q = _Query(len(per), kind, p1, p2, center_u)
        per[q.qid] = q
        self.cluster.stats.bump("lcp_queries")
        return q

    def _broadcast_chain_requests(self, ctx: StepContext, queries: list[_Query]) -> None:
        if not queries:
            return
        key = np.asarray([2 * q.qid + s for q in queries for s in (0, 1)], np.int64)
        pos = np.asarray([p for q in queries for p in (q.p1, q.p2)], np.int64)
        ctx.send("cq", [BROADCAST], [0, key.size],
                 {"o": np.full(key.size, ctx.machine_id, np.int64), "key": key, "pos": pos},
                 headers=("o",))

    # -- round 1: local phase

    def _r1_local(self, ctx: StepContext) -> None:
        m = ctx.machine_id
        role = self.plan.roles[m]

        self._scan_fragments(ctx, role)
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
            self.waves[m] = [self._new_query(m, *q)
                             for q in first_wave(prefix_lens, role.sb_start, self.n)]
            self._broadcast_chain_requests(ctx, self.waves[m])

        if role.tail_ship_to >= 0:
            # letters just left of the target's superblock, for first-window checks
            target_sb = self.plan.roles[role.tail_ship_to].sb_start
            w = self.plan.window
            lo = ctx.payload["letters_lo"]
            seg = ctx.payload["letters"][target_sb - w - lo : target_sb - lo]
            # one row (w + 2 words): the start, and the letters as a (w, 1) column
            _send_rows(ctx, "tail", [role.tail_ship_to], lo=[target_sb - w],
                       data=seg.reshape(-1, 1))

    # -- store installation and chain serving (rounds 2 and 6)

    def _install_and_serve(self, ctx: StepContext, install: bool) -> None:
        m = ctx.machine_id
        plan = self.plan
        n = self.n
        w = plan.window
        M = plan.machine_count

        if install:
            fc = ctx.batches.get("fc")
            if fc is not None:
                rows = (fc["pos"] - m) // w
                ctx.payload["cls_vals"][:, rows] = fc["vals"]
                ctx.add_work(rows.size)
            fs = ctx.batches.get("fs")
            if fs is not None:
                rows = fs["pos"] // w
                ctx.payload["str_vals"][:, (rows - m) // M, fs["pos"] % w] = fs["vals"]
                ctx.add_work(rows.size)
            tail = ctx.batches.get("tail")
            if tail is not None:
                ctx.payload["tail_lo"] = int(tail["lo"][0])
                ctx.payload["tail"] = tail["data"][:, 0]

        cq = ctx.batches.get("cq")
        str_vals = ctx.payload.get("str_vals")
        if cq is None or str_vals is None:
            return
        # the chain of each requested position: rows row0, row0+1, ... of its
        # class; this machine serves the rows congruent to m mod M
        cls = cq["pos"] % w
        row0 = cq["pos"] // w
        total_rows = -(-(2 * n - cls) // w)
        start = row0 + (m - row0) % M
        counts = np.maximum(-(-(total_rows - start) // M), 0)
        req = np.repeat(np.arange(counts.size), counts)
        rows = start[req] + M * (np.arange(req.size) - (np.cumsum(counts) - counts)[req])
        ctx.add_work(rows.size * self.scheme.layers)
        if rows.size == 0:
            return
        # one reply per request message, i.e. per run of equal origins
        origins, offsets = _runs(cq["o"][req])
        ctx.send("cr", origins, offsets,
                 {"key": cq["key"][req], "rows": rows,
                  "vals": str_vals[:, (rows - m) // M, cls[req]]},
                 headers=("key",))

    def _r2_install_serve(self, ctx: StepContext) -> None:
        m = ctx.machine_id
        plan = self.plan
        n = self.n
        w = plan.window
        M = plan.machine_count
        cls_rows = -(-(2 * n - m) // w) if m < w else 0
        row_count = len(range(m, -(-2 * n // w), M))
        ctx.payload["cls_vals"] = np.full((self.scheme.layers, max(cls_rows, 0)), -1, np.int64)
        ctx.payload["str_vals"] = np.full((self.scheme.layers, row_count, w), -1, np.int64)
        self._install_and_serve(ctx, install=True)

    def _r6_serve(self, ctx: StepContext) -> None:
        self._install_and_serve(ctx, install=False)

    # -- chain comparison (rounds 3 and 7)

    def _local_window(self, ctx: StepContext, lo: int, hi: int) -> np.ndarray | None:
        """Doubled-range letters if this machine holds them (superblock or tail)."""
        n = self.n
        letters = ctx.payload["letters"]
        base = ctx.payload["letters_lo"]
        tail = ctx.payload.get("tail")
        if tail is not None:
            letters = np.concatenate((tail, letters))
            base = ctx.payload["tail_lo"]
        try:
            return _materialize_doubled(letters, base, n, lo, hi)
        except IndexError:
            return None

    @staticmethod
    def _first_window_caps(n: int, w: int, q: _Query) -> tuple[int, int, int]:
        len_i = min(w, 2 * n - q.p1)
        len_j = min(w, 2 * n - q.p2)
        return len_i, len_j, min(len_i, len_j)

    def _resolve_first_window(self, ctx: StepContext, q: _Query) -> None:
        """Settle a mismatch inside the first window against locally held letters."""
        len_i, len_j, cap = self._first_window_caps(self.n, self.plan.window, q)
        a = self._local_window(ctx, q.p1, q.p1 + cap)
        b = self._local_window(ctx, q.p2, q.p2 + cap)
        if a is None or b is None:
            raise InconsistentMergeError(
                f"first-window letters for query at ({q.p1}, {q.p2}) are not local")
        run = int(_letters_common_run(a, b, cap))
        ctx.add_work(cap)
        if run == cap and len_i == len_j:
            raise CollisionAbort(
                f"window fingerprints at ({q.p1}, {q.p2}) differ but letters agree")
        q.answer = run

    def _compare_chains(self, ctx: StepContext) -> None:
        m = ctx.machine_id
        n = self.n
        w = self.plan.window
        cr = ctx.batches.get("cr")
        if cr is None:
            return
        per = self.queries.get(m, {})
        # chain parts from every server, ordered by (key, row)
        order = np.lexsort((cr["rows"], cr["key"]))
        keys, bounds = _runs(cr["key"][order])
        part = dict(zip(keys.tolist(), zip(bounds[:-1].tolist(), bounds[1:].tolist())))
        all_rows = cr["rows"][order]
        all_vals = cr["vals"][:, order]

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
            t_star = int(bad[0])
            q.t_star = t_star
            if t_star == 0:
                self._resolve_first_window(ctx, q)
                continue
            cap = min(w, min(li, lj) - t_star * w)
            q.w_cap = int(cap)
            for side, pos in ((0, q.p1), (1, q.p2)):
                anchor = pos + t_star * w
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

    # -- refinement serving (rounds 4 and 8)

    def _serve_singles(self, ctx: StepContext) -> None:
        sq = ctx.batches.get("sq")
        if sq is None:
            return
        rows = (sq["pos"] - ctx.machine_id) // self.plan.window
        ctx.add_work(rows.size)
        # one reply per request message, i.e. per run of equal origins
        origins, offsets = _runs(sq["o"])
        ctx.send("sr", origins, offsets,
                 {"key": sq["key"], "pos": sq["pos"],
                  "vals": ctx.payload["cls_vals"][:, rows]})

    # -- refinement consumption

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

    # -- round 5: first-wave resolution and second-wave requests

    def _r5_resolve(self, ctx: StepContext) -> None:
        self._finish_refinements(ctx)
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
        self.waves[m] = [self._new_query(m, *q) for q in wave2]
        self._broadcast_chain_requests(ctx, self.waves[m])

    # -- round 9

    def _r9_finalize(self, ctx: StepContext) -> None:
        self._finish_refinements(ctx)
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
        phases = [self._r1_local, self._r2_install_serve, self._compare_chains,
                  self._serve_singles, self._r5_resolve, self._r6_serve,
                  self._compare_chains, self._serve_singles, self._r9_finalize,
                  self._r10_reduce]
        for phase in phases:
            self.cluster.run_round(phase)
        budget = 3 * self.plan.machine_count
        issued = self.cluster.stats.counters.get("lcp_queries", 0)
        if issued > budget:
            raise AssertionError(f"{issued} LCP queries exceed the 3-per-machine budget")
        for m, per in self.queries.items():
            if len(per) > 3:
                raise AssertionError(f"machine {m} issued {len(per)} LCP queries")


def solve_mpc(text, epsilon: float, seed: int = 0, memory_constant: int = 64,
              scheme: FingerprintScheme | None = None) -> MpcResult:
    """All maximal palindromes and the leftmost-longest palindromic substring."""
    return MpcPalindromes(text, epsilon, seed=seed, memory_constant=memory_constant,
                          scheme=scheme).solve()


class DistributedLcp(MpcPalindromes):
    """Standalone distributed answering of arbitrary LCP queries on the doubled text.

    Queries are spread round-robin over the machines and answered with the
    same two-phase fingerprint protocol as the palindrome pipeline, at most
    three in flight per machine; larger batches are pipelined in waves of
    3 * machine_count, one wave entering every other round. Because arbitrary
    queries have no locality guarantee, first-window mismatches are settled by
    fetching the two letter windows from the machines that placed them, and a
    deterministic sample of fingerprint-resolved answers is letter-verified
    the same way; a contradiction aborts as a collision. 2 * wave_count + 5 rounds.
    """

    PER_MACHINE_WAVE = 2
    VERIFY_EVERY = 8

    def __init__(self, text, queries: list[tuple[int, int]], epsilon: float,
                 seed: int = 0, memory_constant: int = 64,
                 scheme: FingerprintScheme | None = None):
        super().__init__(text, epsilon, seed=seed, memory_constant=memory_constant,
                         scheme=scheme)
        n = self.n
        self.user_queries = list(queries)
        self.answers: list[int | None] = [None] * len(queries)
        self._slots: dict[tuple[int, int], int] = {}
        self.wave_count = 0
        M = self.plan.machine_count
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
            origin = protocol_idx % M
            q = self._new_query(origin, "user", p1, p2)
            self._slots[(origin, q.qid)] = idx
            self.wave_count = max(self.wave_count, q.qid // self.PER_MACHINE_WAVE + 1)
            protocol_idx += 1
        self._emit_wave = 0

    def _emit_wave_requests(self, ctx: StepContext) -> None:
        lo = self._emit_wave * self.PER_MACHINE_WAVE
        hi = lo + self.PER_MACHINE_WAVE
        mine = [q for qid, q in self.queries.get(ctx.machine_id, {}).items()
                if lo <= qid < hi]
        self._broadcast_chain_requests(ctx, mine)

    def _r1_scan_and_ask(self, ctx: StepContext) -> None:
        self._scan_fragments(ctx, self.plan.roles[ctx.machine_id])
        self._emit_wave_requests(ctx)

    def _resolve_first_window(self, ctx: StepContext, q: _Query) -> None:
        # positions are arbitrary: fetch both windows from their placers
        _, _, cap = self._first_window_caps(self.n, self.plan.window, q)
        holder = self.plan.holder_of_position
        _send_rows(ctx, "lw", [holder(q.p1), holder(q.p2)], o=[ctx.machine_id] * 2,
                   qid=[q.qid] * 2, side=[0, 1], pos=[q.p1, q.p2], cap=[cap] * 2)

    def _placed_window(self, ctx: StepContext, lo: int, hi: int) -> np.ndarray:
        """``_local_window`` for a fetch request: the letters must be placed here."""
        win = self._local_window(ctx, lo, hi)
        if win is None:
            raise InconsistentMergeError(
                f"machine {ctx.machine_id} does not place position {lo}")
        return win

    def _serve_phase(self, ctx: StepContext) -> None:
        """Answer whatever arrived: chain requests, refinements, letter fetches."""
        self._install_and_serve(ctx, install=False)
        self._serve_singles(ctx)
        for o, qid, side, pos, cap in _rows(ctx, "lw", "o", "qid", "side", "pos", "cap"):
            win = self._placed_window(ctx, pos, pos + cap)
            ctx.add_work(win.size)
            ctx.send("lr", [o], [0, win.size], {"qid": np.full(win.size, qid),
                                                "side": np.full(win.size, side),
                                                "letters": win}, headers=("qid", "side"))
        for o, qid, side, pos in _rows(ctx, "lv", "o", "qid", "side", "pos"):
            win = self._placed_window(ctx, pos, pos + 1)
            _send_rows(ctx, "lvr", [o], qid=[qid], side=[side], sym=win[:1])

    def _consume_phase(self, ctx: StepContext) -> None:
        """Consume whatever arrived, then emit the next wave's chain requests."""
        m = ctx.machine_id
        per = self.queries.get(m, {})
        self._compare_chains(ctx)
        self._finish_refinements(ctx)

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
            q = per[qid]
            len_i, len_j, cap = self._first_window_caps(self.n, self.plan.window, q)
            run = int(_letters_common_run(sides[0], sides[1], cap))
            ctx.add_work(cap)
            if run == cap and len_i == len_j:
                raise CollisionAbort(
                    f"window fingerprints at ({q.p1}, {q.p2}) differ but letters agree")
            q.answer = run
        for qid, sides in sorted(verdicts.items()):
            q = per[qid]
            if len(sides) == 2 and sides[0] == sides[1]:
                raise CollisionAbort(
                    f"answer {q.answer} for ({q.p1}, {q.p2}) fails the letter spot-check")

        # letter spot-checks for answers that just landed via fingerprints
        newly = set(windows.keys())
        for qid, q in per.items():
            if q.answer >= 0 and qid not in newly and not q.checked:
                q.checked = True
                if q.t_star != 0 and qid % self.VERIFY_EVERY == 0:
                    mu = q.answer
                    for side, pos in ((0, q.p1), (1, q.p2)):
                        if pos + mu < 2 * self.n:
                            _send_rows(ctx, "lv", [self.plan.holder_of_position(pos + mu)],
                                       o=[m], qid=[qid], side=[side], pos=[pos + mu])
        self._emit_wave_requests(ctx)

    def run(self) -> list[int]:
        self.cluster.run_round(self._r1_scan_and_ask)
        self.cluster.run_round(self._r2_install_serve)
        total_consumes = self.wave_count + 2 if self.wave_count else 0
        for k in range(total_consumes):
            self._emit_wave = k + 1
            self.cluster.run_round(self._consume_phase)
            self.cluster.run_round(self._serve_phase)
        self.cluster.run_round(self._consume_phase)
        for (origin, qid), slot in self._slots.items():
            q = self.queries[origin][qid]
            if q.answer < 0:
                raise InconsistentMergeError("user query left unanswered")
            self.answers[slot] = q.answer
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
