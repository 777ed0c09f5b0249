"""Self-test of the solve benchmark at small n (2^10 to 2^12).

    python3 solvebench/selftest.py

Runs every workload shape of ``run.WORKLOADS`` at reduced n, untraced and
traced, and checks that each run emits exactly the metric names that
BENCHMARK.json declares, with ``rounds`` = 10 for MPC, ``mem_constant`` <= 64
and no failed solve. It also checks that the speed probe samples while a
region is timed, and that a hook whose target is gone is reported instead of
crashing. Prints one line per check; exits 1 if any fails.
"""

import json
import math
import sys
import time

import run
import spans
import speed

SMALL_N = {"mpc-random": 4096, "mpc-periodic": 2048, "ampc-adaptive": 1024}
SECONDS = 1.0
SEED = 3


def small(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    return run.Workload(w.mode, w.epsilon, tuple((f, SMALL_N[name]) for f, _ in w.inputs))


def check_result(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    names = [m["name"] for m in declared]
    if sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']!r}, declared {m['unit']!r}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: value {got['value']!r}")
    json.dumps(result)
    return problems


def main() -> int:
    with open(run.BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    ok = True

    def report(label: str, problems: list[str]) -> None:
        nonlocal ok
        ok &= not problems
        print(f"{'PASS' if not problems else 'FAIL'} {label}"
              + "".join(f"\n    {p}" for p in problems))

    for name in run.WORKLOADS:
        workload = small(name)
        result, _ = run.run_benchmark(name, workload, SEED, SECONDS, trace=0)
        problems = check_result(result, bench["end_to_end"])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if workload.mode == "mpc" and values.get("rounds") != run.MPC_ROUNDS:
            problems.append(f"rounds {values.get('rounds')}, expected {run.MPC_ROUNDS}")
        if not 0 < values.get("mem_constant", 0) <= run.MEMORY_CAP:
            problems.append(f"mem_constant {values.get('mem_constant')}")
        if values.get("solved_frac") != 1.0:
            problems.append(f"failed_frac {1 - values.get('solved_frac', 0)} != 0")
        report(f"{name} n={SMALL_N[name]} untraced", problems)

        result, full = run.run_benchmark(name, workload, SEED, SECONDS, trace=1)
        problems = check_result(result, bench["per_layer"])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if full["missing_hooks"]:
            problems.append(f"hooks missing at this commit: {full['missing_hooks']}")
        if workload.mode == "mpc" and not values.get("mpc.round01.step_s", 0) > 0:
            problems.append("mpc.round01.step_s not recorded")
        if workload.mode == "ampc" and (values.get("engine.msg_words_per_n") != 0
                                        or not values.get("engine.shared_reads", 0) > 0):
            problems.append("ampc run sent messages or made no shared reads")
        report(f"{name} n={SMALL_N[name]} traced", problems)

    probe = speed.SpeedProbe()
    with probe.timing():
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    report("the speed probe samples during a timed region and subtracts its own time",
           [] if len(probe.samples) > 10 and 0 < probe.probe_s < probe.wall
           and probe.reference_seconds() > 0 else
           [f"{len(probe.samples)} samples, probe {probe.probe_s} s of {probe.wall} s"])

    gone = ("structural.gone", "palmpc.structural", "_no_such_name", "x", "span")
    with spans.Hooks(spans.Tracer(), spans.HOOKS + (gone,)) as hooks:
        missing = list(hooks.missing)
    report("a hook whose target is gone is reported",
           [] if missing == ["structural.gone"] else [f"missing hooks {missing}"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
