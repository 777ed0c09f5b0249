"""Command-line driver: solve, and verify against the oracle.

Exit codes: 0 success or PASS, 1 verification mismatch, 2 usage error,
3 aborted on a detected fingerprint collision.
"""

import argparse
import json
import os
import sys
import time

from . import inputs
from .ampc import solve_ampc
from .engine import CollisionAbort
from .exhaustive import sweep_pipeline
from .mpc import solve_mpc
from .oracle import oracle_lps, oracle_maximal_palindromes
from .strings import Text, leftmost_longest, manacher

SEED_ENV = "PALMPC_SEED"
SUBSTRING_LIMIT = 64


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"${SEED_ENV} must be an integer seed, got {raw!r}; "
                         f"unset it or pass --seed") from None


def _add_input_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--input", metavar="FILE", help="input file, read as raw bytes")
    g.add_argument("--random", nargs=2, metavar=("N", "SIGMA"), type=int,
                   help="uniform random text of length N over [0, SIGMA)")
    g.add_argument("--unary", type=int, metavar="N", help="N copies of one symbol")
    g.add_argument("--alternating", type=int, metavar="N", help="010101... of length N")
    g.add_argument("--fibonacci", type=int, metavar="N", help="Fibonacci-word prefix")
    g.add_argument("--thue-morse", type=int, metavar="N", help="Thue-Morse prefix")
    p.add_argument("--alphabet", type=int, default=None,
                   help="restrict and validate file symbols to [0, ALPHABET)")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("mpc", "ampc", "sequential", "oracle"),
                   default="mpc")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=None,
                   help=f"default from ${SEED_ENV}, else 0")
    p.add_argument("--memory-constant", type=int, default=64,
                   help="per-machine cap is this many words per block symbol")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timings", action="store_true",
                   help="include wall time in json output (breaks byte-identical reruns)")


def _resolve_text(args) -> tuple[Text, dict]:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.input is not None:
        text = inputs.load_bytes(args.input, args.alphabet)
        desc = {"kind": "file", "path": args.input, "n": len(text),
                "sigma": text.sigma, "seed": None}
    elif args.random is not None:
        n, sigma = args.random
        text = inputs.random_text(n, sigma, seed)
        desc = {"kind": "random", "path": None, "n": n, "sigma": sigma, "seed": seed}
    elif args.unary is not None:
        text = inputs.unary_text(args.unary)
        desc = {"kind": "unary", "path": None, "n": args.unary, "sigma": 2, "seed": None}
    elif args.alternating is not None:
        text = inputs.alternating_text(args.alternating)
        desc = {"kind": "alternating", "path": None, "n": args.alternating,
                "sigma": 2, "seed": None}
    elif args.fibonacci is not None:
        text = inputs.fibonacci_text(args.fibonacci)
        desc = {"kind": "fibonacci", "path": None, "n": args.fibonacci,
                "sigma": 2, "seed": None}
    elif args.thue_morse is not None:
        text = inputs.thue_morse_text(args.thue_morse)
        desc = {"kind": "thue-morse", "path": None, "n": args.thue_morse,
                "sigma": 2, "seed": None}
    else:
        raise ValueError("no input given: use --input or one of the generators")
    return text, desc


class _PlainResult:
    def __init__(self, table, lps):
        self.table = table
        self.lps_start, self.lps_length = lps
        self.stats = None
        self.plan = None


def _run_mode(mode: str, text: Text, epsilon: float, seed: int, memory_constant: int):
    if mode == "mpc":
        return solve_mpc(text.symbols, epsilon, seed=seed, memory_constant=memory_constant)
    if mode == "ampc":
        return solve_ampc(text.symbols, epsilon, seed=seed, memory_constant=memory_constant)
    if mode == "sequential":
        table = manacher(text.symbols)
        return _PlainResult(table, leftmost_longest(table.lengths_by_center(), 0, len(text)))
    table = oracle_maximal_palindromes(text.symbols)
    return _PlainResult(table, oracle_lps(text.symbols))


def _report(mode, desc, epsilon, seed, result, wall_ms) -> dict:
    stats = result.stats
    distributed = stats is not None
    return {
        "mode": mode,
        "input": desc,
        "epsilon": epsilon if distributed else None,
        "seed": seed,
        "lps": {"start": result.lps_start, "length": result.lps_length,
                "substring": None},
        "rounds": stats.rounds if distributed else None,
        "machine_count": stats.machine_count if distributed else None,
        "block_len": stats.block_len if distributed else None,
        "memory": {
            "per_machine_peak": stats.peak_memory_words if distributed else None,
            "cap": stats.cap_words if distributed else None,
            "observed_constant": stats.observed_memory_constant() if distributed else None,
            "total_peak": stats.total_memory_peak if distributed else None,
        },
        "work": stats.total_work if distributed else None,
        "message_words": stats.message_words if distributed else None,
        "shared_words": stats.shared_words if distributed else None,
        "shared_reads_peak": stats.shared_reads_peak if distributed else None,
        "counters": dict(stats.counters) if distributed else None,
        "wall_ms": round(wall_ms, 3),
    }


def _fill_substring(report: dict, text: Text, result) -> None:
    if result.lps_length <= SUBSTRING_LIMIT:
        s, l = result.lps_start, result.lps_length
        report["lps"]["substring"] = [int(v) for v in text.symbols[s : s + l]]


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
        return
    def flat(prefix, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                yield from flat(f"{prefix}{k}." if prefix else f"{k}.", v) \
                    if isinstance(v, dict) else [(f"{prefix}{k}", v)]
        else:
            yield (prefix.rstrip("."), obj)
    for key, value in flat("", report):
        print(f"{key:28s} {value}")


def cmd_solve(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    text, desc = _resolve_text(args)
    t0 = time.perf_counter()
    result = _run_mode(args.mode, text, args.epsilon, seed, args.memory_constant)
    wall = (time.perf_counter() - t0) * 1e3
    report = _report(args.mode, desc, args.epsilon, seed, result, wall)
    _fill_substring(report, text, result)
    if args.format == "json" and not args.timings:
        report["wall_ms"] = None   # keep reruns byte-identical
    _emit(report, args.format)
    return 0


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.exhaustive is not None:
        max_len, sigma = args.exhaustive
        solver = lambda s: _run_mode(args.mode, Text(s, max(2, int(s.max()) + 1)),
                                     args.epsilon, seed, args.memory_constant)
        rep = sweep_pipeline(max_len, sigma, solver)
        status = "PASS" if rep["mismatches"] == 0 else "FAIL"
        print(f"{status} exhaustive mode={args.mode} len<={max_len} sigma={sigma} "
              f"strings={rep['strings']} mismatches={rep['mismatches']}")
        return 0 if rep["mismatches"] == 0 else 1

    text, desc = _resolve_text(args)
    result = _run_mode(args.mode, text, args.epsilon, seed, args.memory_constant)
    want_table = oracle_maximal_palindromes(text.symbols)
    want_lps = oracle_lps(text.symbols)
    table_ok = result.table == want_table
    lps_ok = (result.lps_start, result.lps_length) == want_lps
    status = "PASS" if table_ok and lps_ok else "FAIL"
    print(f"{status} mode={args.mode} n={desc['n']} table={'ok' if table_ok else 'DIFF'} "
          f"lps={'ok' if lps_ok else 'DIFF'}")
    return 0 if table_ok and lps_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palmpc",
        description="All maximal palindromes and the longest palindromic substring "
                    "on a simulated massively-parallel cluster.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one input and report the result")
    _add_input_args(p_solve)
    _add_run_args(p_solve)

    p_verify = sub.add_parser("verify", help="diff a mode against the brute-force oracle")
    _add_input_args(p_verify)
    _add_run_args(p_verify)
    p_verify.add_argument("--exhaustive", nargs=2, metavar=("LEN", "SIGMA"), type=int,
                          help="sweep every string up to LEN over [0, SIGMA)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {"solve": cmd_solve, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except CollisionAbort as exc:
        print(f"collision abort: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
