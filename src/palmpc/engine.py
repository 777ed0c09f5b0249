"""Deterministic round-based cluster simulator with strict resource metering.

One process simulates a cluster of machines that compute in synchronous
rounds: every machine runs a step against its own payload and inbox only,
then all outboxes are exchanged atomically. Memory is metered in abstract
words (one symbol, position, length or per-layer hash value = 1 word). A
payload is a dict of flat values, each metered by ``words_of``: an array by
its size, an int as one word, a tuple of ints by its length. Memory is
checked against the per-machine cap at two points of every round: after the
steps, each machine's payload plus its outbox, and at the boundary, its
payload plus what it received. Each point is one check over per-machine
arrays, so an overrun names the lowest machine id over the cap, whatever the
step order. Placement fills payloads outside any round, so the first round
counts and checks every payload before any step; a stepping machine's payload
is counted again after each step. Work is whatever the steps declare plus one
unit per message word moved. ``RunStats.to_dict()`` gives a run's numbers in
the layout of the run fields of ``palmpc solve --format json``.

Every message is a columnar batch: ``send`` checks flat arrays with rows on
the last axis, cut into segments (each one logical message to one machine),
and enqueues them. At the round boundary each tag's batches from all senders
are merged in (sender, sequence) order and metered there, once: a segment
costs what the equivalent dict message would, one tag word, plus the words
of its rows, plus one word per run of equal values in each header column (as
a dict holding one scalar per group would). Every segment is charged to its
sender and to its one receiver, so sending the same rows to k machines costs
the sender k segments. Every destination receives one read-only entry per
tag in ``ctx.batches``.

Delivery copies each column twice: the senders' parts are joined into one
array in (sender, sequence, row) order, then gathered into destination
order. The gather order is one stable sort of the rows by destination, so
every destination keeps the (sender, sequence, row) order. A destination's
entry is a view of the gathered columns.

The adaptive variant adds a shared read-only store: values written during
round r become visible to every machine in round r+1, never earlier, and
reads of the current snapshot are metered per machine per round.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, NamedTuple, Sequence

import numpy as np

_NO_BATCHES = MappingProxyType({})


class EngineError(RuntimeError):
    pass


class UnknownMachineError(EngineError):
    pass


class MemoryCapExceeded(EngineError):
    """A machine over its word cap. ``round_no`` counts from 1, the first
    ``run_round``, and ``check`` is the metering point that saw it: "placement",
    "step" (payload plus outbox) or "boundary" (payload plus received)."""

    def __init__(self, machine: int, round_no: int, words: int, cap: int, check: str):
        where = {"placement": "at placement",
                 "step": f"after its round {round_no} step (payload plus outbox)",
                 "boundary": f"at the round {round_no} boundary (payload plus received)"}[check]
        super().__init__(f"machine {machine} holds {words} words {where}, cap {cap}")
        self.machine = machine
        self.round_no = round_no
        self.check = check
        self.words = words
        self.cap = cap


class CollisionAbort(RuntimeError):
    """A fingerprint comparison contradicted a literal symbol comparison."""


def ceil_power(n: int, exponent: float) -> int:
    """ceil(n ** exponent), stabilized against float error at exact powers."""
    if n <= 1:
        return 1
    return max(1, math.ceil(round(n ** exponent, 9)))


@dataclass(frozen=True)
class ClusterConfig:
    n: int
    epsilon: float
    mode: str = "mpc"                # "mpc" | "ampc"
    memory_constant: int = 64        # the C in cap = C * ceil(n ** (1 - eps))

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("problem size must be >= 1")
        if self.memory_constant < 1:
            raise ValueError(f"memory constant must be >= 1, got {self.memory_constant}")
        if self.mode not in ("mpc", "ampc"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "mpc":
            if not 0.0 < self.epsilon <= 0.5:
                raise ValueError(
                    "mpc mode requires epsilon in (0, 0.5]: each machine's local "
                    "memory (~n**(1-eps) words) must be at least the machine count "
                    "(~n**eps) so one round can carry a message from every machine"
                )
        else:
            if not 0.0 < self.epsilon < 1.0:
                raise ValueError("ampc mode requires epsilon in (0, 1)")

    @cached_property
    def block_len(self) -> int:
        return ceil_power(self.n, 1.0 - self.epsilon)

    @cached_property
    def machine_count(self) -> int:
        return math.ceil(self.n / self.block_len)

    @cached_property
    def memory_cap_words(self) -> int:
        return self.memory_constant * self.block_len

    @cached_property
    def shared_read_cap(self) -> int:
        """Adaptive mode: shared reads allowed per machine per round."""
        return self.memory_constant * (self.block_len + 2 * max(1, self.n).bit_length() + 2)


def words_of(value) -> int:
    """Metered words of one payload or shared value.

    An array costs its size, an int (numpy ints included) one word, and a
    tuple of ints its length. Anything else raises ``TypeError``, so no value
    goes unmetered.
    """
    if isinstance(value, np.ndarray):
        return value.size
    if type(value) is int or isinstance(value, np.integer):
        return 1
    if isinstance(value, tuple) and all(
            type(v) is int or isinstance(v, np.integer) for v in value):
        return len(value)
    raise TypeError(f"cannot meter a value of type {type(value).__name__}")


def _concat_rows(parts: list, rows: int) -> np.ndarray:
    """The parts of one column joined along the row axis, in C order.

    ``np.concatenate`` alone returns Fortran order when every part has it,
    and ``np.take`` would then copy the whole column once more to gather it.
    """
    out = np.empty(parts[0].shape[:-1] + (rows,), np.result_type(*parts))
    return np.concatenate(parts, axis=-1, out=out)


def _segment_words(counts: np.ndarray, cols: dict, headers: tuple) -> np.ndarray:
    """Metered words of each segment of the joined columns, by the rule of the module docstring."""
    words = 1 + counts * sum(math.prod(col.shape[:-1]) for name, col in cols.items()
                             if name not in headers)
    if headers:
        seg_of_row = np.repeat(np.arange(counts.size), counts)
        first_rows = (np.cumsum(counts) - counts)[counts > 0]
    for name in headers:
        col = cols[name]
        run_start = np.ones(col.size, bool)
        run_start[1:] = col[1:] != col[:-1]
        run_start[first_rows] = True
        words += np.bincount(seg_of_row[run_start], minlength=counts.size)
    return words


def _rows_by_destination(dsts: np.ndarray, counts: np.ndarray, machine_count: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(order, bounds): the rows of segments (dsts, counts) to gather for each machine.

    Machine m receives rows ``order[bounds[m]:bounds[m + 1]]``. One stable
    sort on the row destination keeps the (sender, sequence, row) order of
    the rows within each destination.
    """
    rows = np.bincount(dsts, weights=counts, minlength=machine_count).astype(np.int64)
    bounds = np.zeros(machine_count + 1, np.int64)
    np.cumsum(rows, out=bounds[1:])
    # numpy's stable sort of 8- and 16-bit integers is a radix sort, so the
    # destinations take the narrowest unsigned type that holds every machine id
    row_dst = np.repeat(dsts.astype(np.min_scalar_type(machine_count - 1)), counts)
    return np.argsort(row_dst, kind="stable"), bounds


class MessageBatch(NamedTuple):
    """One ``send`` call: segment i is rows [offsets[i], offsets[i+1]) to dsts[i]."""
    tag: str
    dsts: np.ndarray
    offsets: np.ndarray
    headers: tuple
    cols: dict


@dataclass
class RunStats:
    rounds: int = 0
    total_work: int = 0
    message_words: int = 0
    machine_count: int = 0
    block_len: int = 0
    cap_words: int = 0
    per_machine_peak: np.ndarray | None = None
    total_memory_peak: int = 0
    shared_words: int = 0
    shared_reads_peak: int = 0
    counters: dict = field(default_factory=dict)

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @property
    def peak_memory_words(self) -> int:
        if self.per_machine_peak is None:
            return 0
        return int(self.per_machine_peak.max()) if self.per_machine_peak.size else 0

    def observed_memory_constant(self) -> int:
        """Smallest integer C' such that every machine stayed within C' * block_len."""
        if not self.block_len:
            return 0
        return math.ceil(self.peak_memory_words / self.block_len)

    def to_dict(self) -> dict:
        """The run fields of ``palmpc solve --format json``, in its layout."""
        return {
            "rounds": self.rounds,
            "machine_count": self.machine_count,
            "block_len": self.block_len,
            "memory": {
                "per_machine_peak": self.peak_memory_words,
                "cap": self.cap_words,
                "observed_constant": self.observed_memory_constant(),
                "total_peak": self.total_memory_peak,
            },
            "work": self.total_work,
            "message_words": self.message_words,
            "shared_words": self.shared_words,
            "shared_reads_peak": self.shared_reads_peak,
            "counters": dict(self.counters),
        }


class SharedStore:
    """Versioned key-value store for the adaptive mode.

    Reads always hit the snapshot published at the previous round boundary;
    writes are buffered and become visible only after the barrier. Keys are
    any hashable; values are what ``words_of`` meters: arrays, which a write
    makes read-only, ints and tuples of ints. Each ``StepContext.shared_read``
    of a key is one metered read, whatever the size of the value.
    """

    def __init__(self):
        self._snapshot: dict = {}
        self._words: dict = {}       # metered words of each snapshot value
        self._pending: dict = {}     # key -> (value, words)
        self.total_words = 0

    def write(self, key, value) -> None:
        words = words_of(value)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        self._pending[key] = (value, words)

    def snapshot_get(self, key):
        return self._snapshot.get(key)

    def publish(self) -> None:
        for key, (value, words) in self._pending.items():
            self.total_words += words - self._words.get(key, 0)
            self._snapshot[key] = value
            self._words[key] = words
        self._pending.clear()


class StepContext:
    """Per-machine view handed to a step: own payload, own inbox, send/work hooks.

    ``batches`` maps each tag received at the last round boundary to its
    merged columns: the rows of every segment sent to this machine under that
    tag, in (sender, sequence, row) order. The columns are read-only views of
    one gathered copy per tag, shared by every destination. Each segment
    sent is charged to this machine and to its one receiver.
    """

    __slots__ = ("machine_id", "payload", "batches", "_cluster", "_batches", "_work", "_reads")

    def __init__(self, cluster: "Cluster", machine_id: int, batches: dict):
        self.machine_id = machine_id
        self.payload = cluster.payloads[machine_id]
        self.batches = batches
        self._cluster = cluster
        self._batches: list[MessageBatch] = []
        self._work = 0
        self._reads = 0

    def send(self, tag: str, dsts, offsets, cols: dict, headers: tuple = ()) -> None:
        """Send rows [offsets[i], offsets[i+1]) of every column to dsts[i], for each i.

        Columns hold their rows on the last axis; ``headers`` names the 1-D
        columns metered per run of equal values; each destination is a machine
        id in [0, M). The columns are frozen here and metered at the round
        boundary, by the rule of the module docstring.
        """
        dsts = np.asarray(dsts, np.int64)
        offsets = np.asarray(offsets, np.int64)
        machines = self._cluster.config.machine_count
        if dsts.size and (dsts.min() < 0 or dsts.max() >= machines):
            unknown = (dsts < 0) | (dsts >= machines)
            raise UnknownMachineError(f"machine {self.machine_id} sent to unknown "
                                      f"machine {int(dsts[unknown][0])}")
        if (offsets.size != dsts.size + 1 or offsets[0] != 0
                or np.count_nonzero(offsets[1:] < offsets[:-1])
                or any(col.shape[-1] != offsets[-1] for col in cols.values())):
            raise EngineError(f"batch {tag!r}: offsets do not cut the columns into segments")
        for col in cols.values():
            col.setflags(write=False)
        self._batches.append(MessageBatch(tag, dsts, offsets, tuple(headers), cols))

    def add_work(self, ops: int) -> None:
        self._work += int(ops)

    def shared_write(self, key, value) -> None:
        """Buffer a write; every machine may read it from the next round on."""
        self._cluster.require_shared().write(key, value)

    def shared_read(self, key):
        """Read a whole shared value from the previous round's snapshot."""
        store = self._cluster.shared or self._cluster.require_shared()   # raises in mpc mode
        self._reads += 1
        return store.snapshot_get(key)


StepFn = Callable[[StepContext], None]


class Cluster:
    def __init__(self, config: ClusterConfig):
        self.config = config
        self.payloads: list[dict] = [{} for _ in range(config.machine_count)]
        self.stats = RunStats(
            machine_count=config.machine_count,
            block_len=config.block_len,
            cap_words=config.memory_cap_words,
            per_machine_peak=np.zeros(config.machine_count, dtype=np.int64),
        )
        self.shared = SharedStore() if config.mode == "ampc" else None
        self._delivered: dict[int, dict] = {}   # only machines with batches pending
        self._local = np.zeros(config.machine_count, np.int64)   # payload words at the last count

    def require_shared(self) -> SharedStore:
        if self.shared is None:
            raise EngineError("shared store is only available in ampc mode")
        return self.shared

    def _payload_words(self, m: int) -> int:
        return sum(v.size if isinstance(v, np.ndarray) else words_of(v)
                   for v in self.payloads[m].values())

    def _meter(self, words: np.ndarray, check: str) -> None:
        """Check every machine's words against the cap at ``check``, then raise its peak."""
        cap = self.config.memory_cap_words
        over = np.flatnonzero(words > cap)
        if over.size:
            m = int(over[0])
            raise MemoryCapExceeded(m, self.stats.rounds + 1, int(words[m]), cap, check)
        np.maximum(self.stats.per_machine_peak, words, out=self.stats.per_machine_peak)

    def run_round(self, step: StepFn, machines: Sequence[int] | None = None) -> None:
        """Execute one synchronous round: compute on the machines that step, then exchange.

        ``machines`` lists the machines that step, in step order; the default
        is all of them. Results are independent of the order because steps
        only see their own state and inbox, deliveries are normalized to
        (sender, sequence) order and memory is checked over all machines at
        once. The first round counts and checks every placed payload before
        any step, since placement fills payloads outside any round. A
        machine left out must have no batches pending; it keeps the payload
        words of its last count.
        """
        config = self.config
        stats = self.stats
        M = config.machine_count
        if machines is None:
            machines = range(M)
        else:
            stepping = set(machines)
            if len(stepping) < len(machines) or stepping and not (
                    0 <= min(stepping) and max(stepping) < M):
                raise EngineError(f"machines must be distinct ids of the {M} machines")
            idle = self._delivered.keys() - stepping
            if idle:
                raise EngineError(f"machine {min(idle)} has batches pending but does not "
                                  f"step in round {stats.rounds + 1}")

        local = self._local
        if stats.rounds == 0:
            local[:] = [self._payload_words(m) for m in range(M)]
            self._meter(local, "placement")
        inboxes, self._delivered = self._delivered, {}
        reads = np.zeros(M, np.int64)
        outboxes: list = [()] * M
        for m in machines:
            ctx = StepContext(self, m, inboxes.get(m, _NO_BATCHES))
            step(ctx)
            stats.total_work += ctx._work
            reads[m] = ctx._reads
            local[m] = self._payload_words(m)
            outboxes[m] = ctx._batches
        stats.shared_reads_peak = max(stats.shared_reads_peak, int(reads.max()))
        over = np.flatnonzero(reads > config.shared_read_cap)
        if over.size:
            raise EngineError(f"machine {over[0]} made {reads[over[0]]} shared reads in round "
                              f"{stats.rounds + 1}, budget {config.shared_read_cap}")

        sent, received = self._deliver_batches(outboxes)
        self._meter(local + sent, "step")
        boundary = local + received
        self._meter(boundary, "boundary")
        boundary_total = int(boundary.sum())
        if self.shared is not None:
            self.shared.publish()
            stats.shared_words = max(stats.shared_words, self.shared.total_words)
            boundary_total += self.shared.total_words
        stats.total_memory_peak = max(stats.total_memory_peak, boundary_total)
        stats.rounds += 1

    def _deliver_batches(self, outboxes: list) -> tuple[np.ndarray, np.ndarray]:
        """Meter and merge each tag's batches; hand every destination one entry per tag.

        ``outboxes[m]`` holds machine m's batches in sequence order. Each
        column is joined across them, then gathered by one stable sort of the
        rows by destination (``_rows_by_destination``), so rows keep (sender,
        sequence, row) order within each destination. Returns the words each
        machine sent and the words each received.
        """
        machine_count = self.config.machine_count
        stats = self.stats
        sent = np.zeros(machine_count, np.int64)
        received = np.zeros(machine_count, np.int64)
        by_tag: dict[str, list[tuple[int, MessageBatch]]] = {}
        for src, batches in enumerate(outboxes):
            for batch in batches:
                by_tag.setdefault(batch.tag, []).append((src, batch))
        for tag, group in by_tag.items():
            names, headers = group[0][1].cols.keys(), group[0][1].headers
            if any(batch.cols.keys() != names or batch.headers != headers for _, batch in group):
                raise EngineError(f"batches tagged {tag!r} carry different columns or headers")
            dsts = np.concatenate([batch.dsts for _, batch in group])
            # one diff over every batch's offsets; drop the diffs across batches
            seams = np.cumsum([batch.dsts.size + 1 for _, batch in group])[:-1] - 1
            counts = np.delete(np.diff(np.concatenate([batch.offsets for _, batch in group])),
                               seams)
            rows = int(counts.sum())
            cols = {name: _concat_rows([batch.cols[name] for _, batch in group], rows)
                    for name in names}

            words = _segment_words(counts, cols, headers)
            sent += np.bincount(
                np.repeat([src for src, _ in group], [batch.dsts.size for _, batch in group]),
                weights=words, minlength=machine_count).astype(np.int64)

            inbox_words = np.bincount(dsts, weights=words,
                                      minlength=machine_count).astype(np.int64)
            moved = int(inbox_words.sum())
            received += inbox_words
            stats.message_words += moved
            stats.total_work += moved

            order, bounds = _rows_by_destination(dsts, counts, machine_count)
            merged = {}
            for name in names:
                # drop each joined column as soon as it is gathered
                merged[name] = col = np.take(cols.pop(name), order, axis=-1)
                col.setflags(write=False)
            for dst in np.flatnonzero(inbox_words).tolist():
                lo, hi = bounds[dst], bounds[dst + 1]
                self._delivered.setdefault(dst, {})[tag] = {
                    name: col[..., lo:hi] for name, col in merged.items()}
        return sent, received
