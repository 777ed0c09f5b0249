"""Solve benchmark for palmpc: three fixed workloads, timed from outside the package.

    python3 solvebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. Each run
is a closed loop in one process and one thread: the workload's inputs are
solved back to back, one pass after another, for about ``--seconds``.

* ``--trace 0`` times untraced passes and prints the end-to-end metrics.
* ``--trace 1`` alternates untraced and traced passes (see ``spans.py``) and
  prints the per-layer metrics.

Every solve is checked outside the timed region against ``palmpc.oracle``
(unary inputs against their closed-form table, because the oracle is
quadratic there). A collision abort, an engine error, a wrong table or
longest palindrome, or a broken model invariant (MPC rounds != 10, memory
constant above 64) counts as a failed solve and does not stop the run.

Every timed region runs under a ``speed.SpeedProbe``, which converts its wall
seconds to reference seconds: the seconds it would take on a core running at a
fixed reference interpreter speed. The shared host's core speed drifts by up to
2x within a minute, so the same solve's wall seconds do not repeat from run to
run; its reference seconds do. Raw wall seconds go to the stamp line and the
report.

End-to-end metrics: ``setup_s`` is the median, in reference seconds, of five
fresh processes that each import palmpc, generate the inputs and solve a
1024-symbol prefix (NumPy, which the probe needs, loads before the clock
starts); ``solve_norm_s`` the median reference seconds of a pass;
``symbols_per_norm_s`` the symbols of one pass over ``solve_norm_s``;
``sequential_norm_s`` the median, over solve passes, of the reference seconds
of one ``strings.manacher`` pass over the same inputs (averaged over the six
that follow each solve pass); ``peak_rss_mb`` the process peak after the untraced
passes; ``solved_frac`` is 1 - failed / attempted (the failure fraction itself
reads 0, which a relative bound cannot judge); ``rounds`` and
``mem_constant`` the largest over the workload's solves. Per-layer seconds are
scaled by the speed measured during their traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
stamps the run (numba flag, versions, nproc, seed, inputs), lists absent
metrics and gives the raw wall seconds of each pass. Spans and the full report
go to ``solvebench/out/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

MIN_PASSES = 3            # untraced passes per --trace 0 run, whatever --seconds says
SEQUENTIAL_PER_PASS = 6   # sequential baseline passes timed together after each solve pass
SETUP_PROBES = 5          # fresh processes timed for setup_s
WARMUP_N = 1024           # prefix length of the warm-up solve
MPC_ROUNDS = 10
MEMORY_CAP = 64


@dataclass(frozen=True)
class Workload:
    mode: str                            # "mpc" | "ampc"
    epsilon: float
    inputs: tuple[tuple[str, int], ...]  # (family, n)


# Why these three: a random text never reaches the LCP protocol (every
# superblock is empty), so its solve is round 1 alone: window fingerprints,
# superblock Manacher and one tiny send per position. Unary, Fibonacci and
# Thue-Morse drive both query waves and the periodic resolver of the messaging
# pipeline. The adaptive pipeline replaces messages with the shared store and
# binary-search LCP; its random input takes the local path and its unary input
# 2724 LCP queries. Each workload is the no-change control for work that
# targets another.
WORKLOADS = {
    "mpc-random": Workload("mpc", 0.5, (("random", 65536),)),
    "mpc-periodic": Workload("mpc", 0.5, (("unary", 16384), ("fibonacci", 16384),
                                          ("thue-morse", 16384))),
    "ampc-adaptive": Workload("ampc", 0.75, (("random", 16384), ("unary", 16384))),
}


# -- inputs: the definitions of the palmpc.inputs families, kept here so that a
#    change to the program cannot change a workload


def make_text(family: str, n: int, seed: int):
    import numpy as np

    if family == "random":
        return np.random.default_rng(seed).integers(0, 2, n).astype(np.int64)
    if family == "unary":
        return np.zeros(n, dtype=np.int64)
    if family == "fibonacci":
        a, b = [0], [0, 1]
        while len(b) < n:
            a, b = b, b + a
        return np.asarray(b[:n], dtype=np.int64)
    if family == "thue-morse":
        idx = np.arange(n, dtype=np.uint64)
        bits = np.zeros(n, dtype=np.int64)
        while idx.any():
            bits ^= (idx & 1).astype(np.int64)
            idx >>= 1
        return bits
    raise ValueError(f"unknown input family {family!r}")


def make_inputs(workload: Workload, seed: int) -> list:
    return [make_text(family, n, seed) for family, n in workload.inputs]


def import_palmpc():
    """Import palmpc from this checkout's src/, never from an installed copy."""
    if not (SRC / "palmpc" / "__init__.py").is_file():
        raise FileNotFoundError(f"no palmpc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import palmpc

    if Path(palmpc.__file__).resolve().parent != (SRC / "palmpc").resolve():
        raise ImportError(f"palmpc was imported from {palmpc.__file__}, not from {SRC}")
    return palmpc


def solver(workload: Workload):
    from palmpc.ampc import solve_ampc
    from palmpc.mpc import solve_mpc

    fn = solve_mpc if workload.mode == "mpc" else solve_ampc
    return lambda text, seed: fn(text, workload.epsilon, seed=seed)


def setup(workload: Workload, seed: int):
    """Import palmpc, generate the inputs, and warm up on a short prefix."""
    import_palmpc()
    texts = make_inputs(workload, seed)
    solve = solver(workload)
    solve(texts[0][:WARMUP_N], seed)
    return texts, solve


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh processes, each timed by itself."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# -- references and checks


def closed_form_unary(n: int):
    import numpy as np

    c = np.arange(n, dtype=np.int64)
    odd = 2 * np.minimum(c, n - 1 - c) + 1
    m = np.arange(max(n - 1, 0), dtype=np.int64)
    even = 2 * np.minimum(m + 1, n - 1 - m)
    return odd, even, (0, n)


def reference(family: str, text):
    if family == "unary":
        return closed_form_unary(int(text.size))
    from palmpc.oracle import oracle_lps, oracle_maximal_palindromes

    table = oracle_maximal_palindromes(text)
    return table.odd, table.even, tuple(int(v) for v in oracle_lps(text))


def table_matches(table, ref) -> bool:
    import numpy as np

    return np.array_equal(table.odd, ref[0]) and np.array_equal(table.even, ref[1])


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    mem_constant: int = 0


class Runner:
    """One benchmark run: inputs, references and the timed passes."""

    def __init__(self, workload: Workload, seed: int, texts: list, solve):
        from palmpc.engine import CollisionAbort, EngineError

        self.workload = workload
        self.seed = seed
        self.texts = texts
        self.solve = solve
        self.refs = [reference(family, t) for (family, _), t in zip(workload.inputs, texts)]
        self.expected_failures = (CollisionAbort, EngineError)
        self.tally = Tally()
        self.errors: list[str] = []

    def _fail(self, what: str) -> None:
        self.tally.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def solve_pass(self, tracer=None) -> tuple[SpeedProbe, list]:
        """Solve every input once; returns (the pass's timing, per-solve records)."""
        gc.collect()
        probe = SpeedProbe()
        records = []
        for k, text in enumerate(self.texts):
            family, n = self.workload.inputs[k]
            self.tally.attempted += 1
            span = tracer.begin_solve(self.tally.attempted, {
                "mode": self.workload.mode, "family": family, "n": n}) if tracer else None
            try:
                with probe.timing():
                    result = self.solve(text, self.seed)
            except self.expected_failures as exc:
                result = exc
            finally:
                if tracer:
                    tracer.close(span)
            if isinstance(result, Exception):
                self._fail(f"{family}: {type(result).__name__}: {result}")
                records.append(None)
            else:
                records.append(self._check(k, result))
        return probe, records

    def _check(self, k: int, result) -> dict | None:
        family, n = self.workload.inputs[k]
        ref = self.refs[k]
        stats = result.stats
        rec = {
            "family": family, "n": n, "table": result.table,
            "lps": (int(result.lps_start), int(result.lps_length)),
            "rounds": int(stats.rounds), "mem_constant": int(stats.observed_memory_constant()),
            "message_words": int(stats.message_words), "total_work": int(stats.total_work),
            "total_memory_peak": int(stats.total_memory_peak),
            "counters": dict(stats.counters),
        }
        self.tally.rounds = max(self.tally.rounds, rec["rounds"])
        self.tally.mem_constant = max(self.tally.mem_constant, rec["mem_constant"])
        if not table_matches(result.table, ref):
            self._fail(f"{family}: wrong table")
        elif rec["lps"] != ref[2]:
            self._fail(f"{family}: longest palindrome {rec['lps']}, expected {ref[2]}")
        elif self.workload.mode == "mpc" and rec["rounds"] != MPC_ROUNDS:
            self._fail(f"{family}: {rec['rounds']} MPC rounds, expected {MPC_ROUNDS}")
        elif rec["mem_constant"] > MEMORY_CAP:
            self._fail(f"{family}: memory constant {rec['mem_constant']} > {MEMORY_CAP}")
        else:
            return rec
        return None

    def sequential_passes(self, repeats: int) -> tuple[float, float]:
        """(reference, wall) seconds of one sequential pass, averaged over ``repeats``."""
        from palmpc.strings import manacher

        probe = SpeedProbe()
        for _ in range(repeats):
            for k, text in enumerate(self.texts):
                self.tally.attempted += 1
                with probe.timing():
                    table = manacher(text)
                if not table_matches(table, self.refs[k]):
                    self._fail(f"{self.workload.inputs[k][0]}: sequential table wrong")
        return probe.reference_seconds() / repeats, probe.wall / repeats

    def same_results(self, a: list, b: list) -> bool:
        """Tables and longest palindromes of two passes agree input by input."""
        for ra, rb in zip(a, b):
            if ra is None or rb is None:
                continue
            if ra["lps"] != rb["lps"] or not table_matches(
                    ra["table"], (rb["table"].odd, rb["table"].even)):
                return False
        return True


def _another_fits(deadline: float, walls: list[float]) -> bool:
    """Whether one more loop iteration, at the median length so far, ends by the deadline."""
    return time.perf_counter() + statistics.median(walls) <= deadline


def untraced_passes(runner: Runner, seconds: float) -> tuple[list, list]:
    """Solve passes, each followed by sequential passes, until ``seconds`` are used.

    Returns per-pass (reference seconds, wall seconds) of the solve passes and
    of the sequential baseline.
    """
    deadline = time.perf_counter() + seconds
    solves, seqs, walls = [], [], []
    while len(solves) < MIN_PASSES or _another_fits(deadline, walls):
        t0 = time.perf_counter()
        probe = runner.solve_pass()[0]
        solves.append((probe.reference_seconds(), probe.wall))
        seqs.append(runner.sequential_passes(SEQUENTIAL_PER_PASS))
        walls.append(time.perf_counter() - t0)
    return solves, seqs


def end_to_end(runner: Runner, seconds: float, setup_times: list[float]) -> tuple[dict, dict]:
    solves, seqs = untraced_passes(runner, seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    solve_times = [ref for ref, _ in solves]
    seq_times = [ref for ref, _ in seqs]
    solve_s = statistics.median(solve_times)
    tally = runner.tally
    symbols = sum(n for _, n in runner.workload.inputs)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_norm_s": (solve_s, "s"),
        "symbols_per_norm_s": (symbols / solve_s, "1/s"),
        "sequential_norm_s": (statistics.median(seq_times), "s"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
        "solved_frac": (1.0 - tally.failed / tally.attempted, "frac"),
        "rounds": (tally.rounds, "count"),
        "mem_constant": (tally.mem_constant, "count"),
    }, {"solve_times": solve_times, "sequential_times": seq_times,
        "setup_times": setup_times,
        "solve_wall_s": [wall for _, wall in solves],
        "sequential_wall_s": [wall for _, wall in seqs]}


def per_layer(runner: Runner, seconds: float, spans_path: Path | None) -> tuple[dict, dict]:
    """Untraced and traced passes, alternating so both see the same machine load."""
    deadline = time.perf_counter() + seconds
    untraced_times, traced_times, tracers, per_pass, walls = [], [], [], [], []
    missing: list[str] = []
    while not walls or _another_fits(deadline, walls):
        t0 = time.perf_counter()
        probe, untraced = runner.solve_pass()
        untraced_times.append(probe.reference_seconds())
        tracer = spans.Tracer()
        with spans.Hooks(tracer) as hooks:
            probe, traced = runner.solve_pass(tracer)
        missing = hooks.missing
        traced_times.append(probe.reference_seconds())
        tracers.append(tracer)
        if not runner.same_results(traced, untraced):
            runner._fail("traced tables differ from untraced ones")
        per_pass.append((probe.factor, spans.layer_metrics(
            tracer, [r for r in traced if r is not None])))
        walls.append(time.perf_counter() - t0)
    overhead = statistics.median(traced_times) / statistics.median(untraced_times) - 1.0
    for _, values in per_pass:
        values["trace.overhead_frac"] = overhead
    if spans_path is not None:
        spans.write_spans(spans_path, tracers)

    declared = spans.metric_hooks()
    metrics, absent = {}, []
    for name, (unit, hooks) in declared.items():
        if any(h in missing for h in hooks):
            absent.append(name)
            continue
        scaled = (values.get(name, 0.0) * (factor if unit == "s" else 1.0)
                  for factor, values in per_pass)
        metrics[name] = (statistics.median(scaled), unit)
    return metrics, {"untraced_times": untraced_times, "traced_times": traced_times,
                     "missing_hooks": missing, "absent": absent}


def stamp(workload_name: str, workload: Workload, seed: int, trace: int) -> dict:
    import numpy as np
    from palmpc import _kernels

    return {
        "workload": workload_name, "seed": seed, "trace": trace,
        "numba_enabled": bool(_kernels.NUMBA_ENABLED),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "inputs": [{"family": f, "n": n, "epsilon": workload.epsilon, "mode": workload.mode}
                   for f, n in workload.inputs],
    }


def run_benchmark(workload_name: str, workload: Workload, seed: int, seconds: float,
                  trace: int, out_dir: Path | None = None) -> tuple[dict, dict]:
    """One run; returns (result line, full report). Spans go to ``out_dir`` if given."""
    setup_times = None if trace else measure_setup(workload_name, seed)
    texts, solve = setup(workload, seed)
    runner = Runner(workload, seed, texts, solve)
    report = {"stamp": stamp(workload_name, workload, seed, trace)}
    if trace:
        spans_path = None if out_dir is None else \
            out_dir / f"{workload_name}-seed{seed}.spans.jsonl.gz"
        metrics, details = per_layer(runner, seconds, spans_path)
    else:
        metrics, details = end_to_end(runner, seconds, setup_times)
    report.update(details)
    report.setdefault("absent", [])
    report["errors"] = runner.errors
    result = {
        "correct": runner.tally.failed == 0,
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report["result"] = result
    return result, report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one set-up in this fresh process and print it")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        if args.setup_probe:
            probe = SpeedProbe()
            with probe.timing():  # before palmpc loads; the probe has imported numpy
                setup(workload, args.seed)
            print(probe.reference_seconds())
            return 0
        import_palmpc()
    except (ImportError, OSError) as exc:
        print(f"solvebench: cannot load palmpc: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    result, report = run_benchmark(args.workload, workload, args.seed, args.seconds,
                                   args.trace, out_dir=OUT)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, default=str) + "\n")
    walls = {k: report[k] for k in ("solve_wall_s", "sequential_wall_s") if k in report}
    print(json.dumps({"stamp": report["stamp"], "absent": report["absent"],
                      "errors": report["errors"], **walls}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
