"""Span tracer for the solve benchmark, installed from outside the package.

The traced pass wraps the public entry points of each palmpc layer, as the
pipelines see them, and records one span per call:

* ``engine``: every ``Cluster.run_round`` call ("round") and every machine
  step inside it ("step");
* ``_kernels``: ``manacher_tables``, ``fragment_fp_scan``, ``prefix_fp_scan``
  as ``mpc`` and ``ampc`` import them;
* ``structural``: ``_merge_b2`` and ``_periodic_resolve``;
* ``strings``: ``_prefix_pal_lengths_from_tables``;
* ``ampc``: ``ampc_lcp``.

High-frequency boundaries (``StepContext.send``, ``shared_read`` and
``shared_write``: up to 10^5 calls per solve) get no span of their own. Each
call adds its count and seconds to the innermost open span, and the output
aggregates them per round. A span's self time is its duration minus its
children's durations minus the high-frequency time charged to it.

A hook whose target no longer exists is skipped and reported; the metrics
that depend on it are then absent instead of wrong.
"""

import gzip
import importlib
import json
import time
from collections import defaultdict

# span names
ROUND = "round"
STEP = "step"
SOLVE = "solve"

# (hook id, module, attribute path, span name or high-frequency key, kind)
HOOKS = (
    ("engine.run_round", "palmpc.engine", "Cluster.run_round", ROUND, "round"),
    ("engine.send", "palmpc.engine", "StepContext.send", "send", "hf"),
    ("engine.shared_read", "palmpc.engine", "StepContext.shared_read", "shared_read", "hf"),
    ("engine.shared_write", "palmpc.engine", "StepContext.shared_write", "shared_write", "hf"),
    ("mpc.manacher_tables", "palmpc.mpc", "manacher_tables", "kernels.manacher", "kernel3"),
    ("ampc.manacher_tables", "palmpc.ampc", "manacher_tables", "kernels.manacher", "kernel3"),
    ("mpc.fragment_fp_scan", "palmpc.mpc", "fragment_fp_scan", "kernels.window_fp", "kernel"),
    ("ampc.prefix_fp_scan", "palmpc.ampc", "prefix_fp_scan", "kernels.prefix_fp", "kernel"),
    ("mpc._merge_b2", "palmpc.mpc", "_merge_b2", "structural.merge", "span"),
    ("ampc._merge_b2", "palmpc.ampc", "_merge_b2", "structural.merge", "span"),
    ("mpc._periodic_resolve", "palmpc.mpc", "_periodic_resolve",
     "structural.periodic_resolve", "span"),
    ("ampc._periodic_resolve", "palmpc.ampc", "_periodic_resolve",
     "structural.periodic_resolve", "span"),
    ("mpc._prefix_pal_lengths_from_tables", "palmpc.mpc", "_prefix_pal_lengths_from_tables",
     "strings.prefix_pals", "span"),
    ("ampc._prefix_pal_lengths_from_tables", "palmpc.ampc", "_prefix_pal_lengths_from_tables",
     "strings.prefix_pals", "span"),
    ("ampc.ampc_lcp", "palmpc.ampc", "ampc_lcp", "ampc.lcp", "span"),
)

MPC_ROUNDS = 10
AMPC_ROUNDS = 9
_RUN_ROUND = ("engine.run_round",)
_KERNELS = {
    "manacher": ("mpc.manacher_tables", "ampc.manacher_tables"),
    "window_fp": ("mpc.fragment_fp_scan",),
    "prefix_fp": ("ampc.prefix_fp_scan",),
}


def metric_hooks() -> dict:
    """Per-layer metric name -> (unit, hook ids the metric needs)."""
    out = {
        "engine.step_s": ("s", _RUN_ROUND),
        "engine.exchange_s": ("s", _RUN_ROUND),
        "engine.send_s": ("s", ("engine.send",)),
        "engine.sends": ("count", ("engine.send",)),
        "engine.words_per_send": ("words", ("engine.send",)),
        "engine.msg_words_per_n": ("words/n", ()),
        "engine.work_per_n": ("ops/n", ()),
        "engine.total_memory_per_n": ("words/n", ()),
        "engine.shared_reads": ("count", ("engine.shared_read",)),
        "engine.shared_writes": ("count", ("engine.shared_write",)),
    }
    for prefix, rounds in (("mpc", MPC_ROUNDS), ("ampc", AMPC_ROUNDS)):
        for r in range(1, rounds + 1):
            out[f"{prefix}.round{r:02d}.step_s"] = ("s", _RUN_ROUND)
            out[f"{prefix}.round{r:02d}.exchange_s"] = ("s", _RUN_ROUND)
    out["ampc.lcp_s"] = ("s", ("ampc.ampc_lcp",))
    out["ampc.lcp_calls"] = ("count", ("ampc.ampc_lcp",))
    out["ampc.reads_per_lcp"] = ("count", ("ampc.ampc_lcp", "engine.shared_read"))
    for short, hooks in _KERNELS.items():
        out[f"kernels.{short}_s"] = ("s", hooks)
        out[f"kernels.{short}_ops"] = ("ops", hooks)
        out[f"kernels.{short}_calls"] = ("count", hooks)
    out["structural.merge_s"] = ("s", ("mpc._merge_b2", "ampc._merge_b2"))
    out["structural.periodic_resolve_s"] = (
        "s", ("mpc._periodic_resolve", "ampc._periodic_resolve"))
    for key in ("lcp_queries", "empty", "single", "periodic"):
        out[f"structural.{key}"] = ("count", ())
    out["strings.prefix_pals_s"] = (
        "s", ("mpc._prefix_pal_lengths_from_tables", "ampc._prefix_pal_lengths_from_tables"))
    out["trace.overhead_frac"] = ("frac", ())
    return out


class Tracer:
    """In-memory spans: parallel lists indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.solves: list[int] = []
        self.attrs: list[dict | None] = []
        self._stack = [-1]
        self.solve_id = -1
        self.round_no = 0

    def open(self, name: str, attrs: dict | None = None) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.solves.append(self.solve_id)
        self.attrs.append(attrs)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def charge(self, key: str, seconds: float) -> None:
        """Add one high-frequency call to the innermost open span."""
        i = self._stack[-1]
        if i < 0:
            return
        attrs = self.attrs[i]
        if attrs is None:
            attrs = self.attrs[i] = {}
        hf = attrs.setdefault("hf", {})
        rec = hf.get(key)
        if rec is None:
            hf[key] = [1, seconds]
        else:
            rec[0] += 1
            rec[1] += seconds

    def begin_solve(self, solve_id: int, attrs: dict) -> int:
        self.solve_id = solve_id
        self.round_no = 0
        return self.open(SOLVE, attrs)

    # -- derived views

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def self_times(self) -> list[float]:
        """Per span: duration minus child spans minus charged high-frequency time."""
        out = [self.duration(i) for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.duration(i)
            attrs = self.attrs[i]
            if attrs and "hf" in attrs:
                out[i] -= sum(rec[1] for rec in attrs["hf"].values())
        return out

    def enclosing_round(self, i: int) -> int:
        while i >= 0 and self.names[i] != ROUND:
            i = self.parents[i]
        return i

    def hf_per_round(self) -> dict:
        """(round span id, key) -> [calls, seconds], summed over the round's spans."""
        agg: dict = defaultdict(lambda: [0, 0.0])
        for i, attrs in enumerate(self.attrs):
            if not attrs or "hf" not in attrs:
                continue
            r = self.enclosing_round(i)
            for key, (calls, seconds) in attrs["hf"].items():
                rec = agg[(r, key)]
                rec[0] += calls
                rec[1] += seconds
        return agg

    def records(self, pass_no: int):
        """JSON records: spans, per-round high-frequency aggregates, self time by name."""
        self_s = self.self_times()
        by_name: dict = defaultdict(float)
        for i, name in enumerate(self.names):
            by_name[name] += self_s[i]
            attrs = {k: v for k, v in (self.attrs[i] or {}).items() if k != "hf"}
            yield {"pass": pass_no, "id": i, "name": name, "start": self.starts[i],
                   "end": self.ends[i], "parent": self.parents[i], "solve": self.solves[i],
                   "self_s": self_s[i], **({"attrs": attrs} if attrs else {})}
        for (r, key), (calls, seconds) in sorted(self.hf_per_round().items()):
            yield {"pass": pass_no, "aggregate": key, "round_span": r,
                   "round": (self.attrs[r] or {}).get("round") if r >= 0 else None,
                   "solve": self.solves[r] if r >= 0 else -1, "calls": calls, "s": seconds}
        yield {"pass": pass_no, "self_s_by_name": dict(by_name)}


def write_spans(path, tracers: list[Tracer]) -> None:
    """Every traced pass's records, one JSON object per line, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for pass_no, tracer in enumerate(tracers):
            for rec in tracer.records(pass_no):
                fh.write(json.dumps(rec) + "\n")


def _resolve(module: str, path: str):
    """(owner object, attribute name, current value) or None if the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


def _wrap(tracer: Tracer, orig, name: str, kind: str):
    clock = time.perf_counter

    if kind == "hf":
        def hf(*args, **kwargs):
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.charge(name, clock() - t0)
        return hf

    if kind == "round":
        def run_round(cluster, step, *args, **kwargs):
            tracer.round_no += 1
            qualname = getattr(step, "__qualname__", type(step).__name__)

            def timed_step(ctx):
                j = tracer.open(STEP)
                try:
                    step(ctx)
                finally:
                    tracer.close(j)

            i = tracer.open(ROUND, {"round": tracer.round_no, "qualname": qualname})
            try:
                return orig(cluster, timed_step, *args, **kwargs)
            finally:
                tracer.close(i)
        return run_round

    def spanned(*args, **kwargs):
        i = tracer.open(name)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.close(i)
        if kind == "kernel":
            tracer.attrs[i] = {"ops": int(result)}
        elif kind == "kernel3":
            tracer.attrs[i] = {"ops": int(result[2])}
        return result
    return spanned


class Hooks:
    """Install every resolvable hook; ``missing`` lists the ones that are gone."""

    def __init__(self, tracer: Tracer, hooks: tuple = HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self.missing: list[str] = []
        self._installed: list[tuple] = []

    def __enter__(self) -> "Hooks":
        for hook_id, module, path, name, kind in self.hooks:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(hook_id)
                continue
            owner, attr, orig = found
            setattr(owner, attr, _wrap(self.tracer, orig, name, kind))
            self._installed.append((owner, attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()


def layer_metrics(tracer: Tracer, solves: list[dict]) -> dict:
    """Per-layer values of one traced pass, before absent metrics are removed.

    ``solves`` holds, per checked solve of the pass, n and the RunStats fields
    message_words, total_work, total_memory_peak and counters.
    """
    names = tracer.names
    dur = [tracer.duration(i) for i in range(len(names))]
    self_s = tracer.self_times()
    mode_of_solve = {}
    for i, name in enumerate(names):
        if name == SOLVE:
            mode_of_solve[tracer.solves[i]] = tracer.attrs[i]["mode"]

    m: dict = defaultdict(float)
    for i, name in enumerate(names):
        if name == ROUND:
            mode = mode_of_solve.get(tracer.solves[i], "?")
            key = f"{mode}.round{tracer.attrs[i]['round']:02d}"
            m["engine.exchange_s"] += self_s[i]
            m[f"{key}.exchange_s"] += self_s[i]
        elif name == STEP:
            r = tracer.parents[i]
            mode = mode_of_solve.get(tracer.solves[i], "?")
            m["engine.step_s"] += dur[i]
            if r >= 0 and names[r] == ROUND:
                m[f"{mode}.round{tracer.attrs[r]['round']:02d}.step_s"] += dur[i]
        elif name.startswith("kernels."):
            m[f"{name}_s"] += dur[i]
            m[f"{name}_calls"] += 1
            m[f"{name}_ops"] += tracer.attrs[i]["ops"]
        elif name == "ampc.lcp":
            m["ampc.lcp_s"] += dur[i]
            m["ampc.lcp_calls"] += 1
        elif name in ("structural.merge", "structural.periodic_resolve", "strings.prefix_pals"):
            m[f"{name}_s"] += dur[i]
        attrs = tracer.attrs[i]
        if attrs and "hf" in attrs:
            for key, (calls, seconds) in attrs["hf"].items():
                if key == "send":
                    m["engine.sends"] += calls
                    m["engine.send_s"] += seconds
                elif key == "shared_read":
                    m["engine.shared_reads"] += calls
                    if name == "ampc.lcp":
                        m["_lcp_reads"] += calls
                elif key == "shared_write":
                    m["engine.shared_writes"] += calls

    n_total = sum(s["n"] for s in solves)
    msg_words = sum(s["message_words"] for s in solves)
    m["engine.words_per_send"] = msg_words / m["engine.sends"] if m["engine.sends"] else 0.0
    m["engine.msg_words_per_n"] = msg_words / n_total
    m["engine.work_per_n"] = sum(s["total_work"] for s in solves) / n_total
    m["engine.total_memory_per_n"] = sum(s["total_memory_peak"] for s in solves) / n_total
    calls = m["ampc.lcp_calls"]
    m["ampc.reads_per_lcp"] = m.pop("_lcp_reads", 0) / calls if calls else 0.0
    for key, counter in (("lcp_queries", "lcp_queries"), ("empty", "classified_empty"),
                         ("single", "classified_single"), ("periodic", "classified_periodic")):
        m[f"structural.{key}"] = sum(s["counters"].get(counter, 0) for s in solves)
    return m
