"""Command-line driver: solve, and verify against the oracle.

Exit codes: 0 success or PASS, 1 verification mismatch, 2 usage error,
3 aborted on a detected fingerprint collision, 4 aborted by the simulated
engine (a machine's memory cap or shared-read budget exceeded), 141 standard
output closed by its reader (128 + SIGPIPE, as a shell pipeline reports it).
"""

import argparse
import json
import os
import sys
import time

from . import inputs
from .ampc import solve_ampc
from .engine import CollisionAbort, EngineError, RunStats
from .exhaustive import sweep_pipeline
from .mpc import solve_mpc
from .oracle import oracle_lps, oracle_maximal_palindromes
from .strings import Text, leftmost_longest, manacher

SUBSTRING_LIMIT = 64
DEFAULT_EPSILON = 0.5
DEFAULT_MEMORY_CONSTANT = 64


def _add_input_args(p: argparse.ArgumentParser):
    """The input sources, one at most; returns their group."""
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
    return g


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("mpc", "ampc", "sequential", "oracle"),
                   default="mpc")
    # None when not given, so that _check_args can tell what was asked for
    p.add_argument("--epsilon", type=float, default=None,
                   help=f"mpc and ampc only (default {DEFAULT_EPSILON})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--memory-constant", type=int, default=None,
                   help="mpc and ampc only: per-machine cap is this many words per "
                        f"block symbol (default {DEFAULT_MEMORY_CONSTANT})")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timings", action="store_true",
                   help="include wall time in json output (breaks byte-identical reruns)")


def _check_args(args) -> None:
    """Reject options that the input or the mode would ignore; fill in the cluster defaults.

    The cluster options' ranges are checked once, by ``ClusterConfig``.
    """
    if args.alphabet is not None and args.input is None:
        raise ValueError("--alphabet applies only to --input files; "
                         "the generators choose their own alphabet")
    given = [opt for opt, value in (("--epsilon", args.epsilon),
                                    ("--memory-constant", args.memory_constant))
             if value is not None]
    if args.mode in ("sequential", "oracle") and given:
        raise ValueError(f"--mode {args.mode} takes no {' or '.join(given)} "
                         "(only mpc and ampc do)")
    if args.epsilon is None:
        args.epsilon = DEFAULT_EPSILON
    if args.memory_constant is None:
        args.memory_constant = DEFAULT_MEMORY_CONSTANT


# the binary generator families: each flag's dest, and its generator
_BINARY_FAMILIES = {"unary": inputs.unary_text, "alternating": inputs.alternating_text,
                    "fibonacci": inputs.fibonacci_text, "thue_morse": inputs.thue_morse_text}


def _resolve_text(args) -> tuple[Text, dict]:
    if args.input is not None:
        text = inputs.load_bytes(args.input, args.alphabet)
        if len(text) == 0:
            raise ValueError("text must be nonempty")
        return text, {"kind": "file", "path": args.input, "n": len(text),
                      "sigma": text.sigma, "seed": None}
    if args.random is not None:
        n, sigma = args.random
        return inputs.random_text(n, sigma, args.seed), {
            "kind": "random", "path": None, "n": n, "sigma": sigma, "seed": args.seed}
    for dest, generate in _BINARY_FAMILIES.items():
        n = getattr(args, dest)
        if n is not None:
            return generate(n), {"kind": dest.replace("_", "-"), "path": None, "n": n,
                                 "sigma": 2, "seed": None}
    raise ValueError("no input given: use --input or one of the generators")


class _PlainResult:
    def __init__(self, table, lps):
        self.table = table
        self.lps_start, self.lps_length = lps
        self.stats = None


def _run_mode(mode: str, text: Text, epsilon: float, seed: int, memory_constant: int):
    if mode == "mpc":
        return solve_mpc(text.symbols, epsilon, seed=seed, memory_constant=memory_constant)
    if mode == "ampc":
        return solve_ampc(text.symbols, epsilon, seed=seed, memory_constant=memory_constant)
    if mode == "sequential":
        table = manacher(text.symbols)
        return _PlainResult(table, leftmost_longest(table.lengths_by_center(), 0))
    table = oracle_maximal_palindromes(text.symbols)
    return _PlainResult(table, oracle_lps(text.symbols))


def _blank(fields: dict) -> dict:
    return {key: _blank(value) if isinstance(value, dict) else None
            for key, value in fields.items()}


# the run fields of the sequential and oracle modes, which run no cluster
_NO_RUN = _blank(RunStats().to_dict())


def _report(mode, desc, epsilon, seed, result, wall_ms) -> dict:
    stats = result.stats
    return {
        "mode": mode,
        "input": desc,
        "epsilon": epsilon if stats is not None else None,
        "seed": seed,
        "lps": {"start": result.lps_start, "length": result.lps_length,
                "substring": None},
        **(stats.to_dict() if stats is not None else _NO_RUN),
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
    text, desc = _resolve_text(args)
    t0 = time.perf_counter()
    result = _run_mode(args.mode, text, args.epsilon, args.seed, args.memory_constant)
    wall = (time.perf_counter() - t0) * 1e3
    report = _report(args.mode, desc, args.epsilon, args.seed, result, wall)
    _fill_substring(report, text, result)
    if args.format == "json" and not args.timings:
        report["wall_ms"] = None   # keep reruns byte-identical
    _emit(report, args.format)
    return 0


def cmd_verify(args) -> int:
    if args.exhaustive is not None:
        max_len, sigma = args.exhaustive
        if max_len < 1 or sigma < 1:
            raise ValueError(f"--exhaustive needs LEN >= 1 and SIGMA >= 1, got {max_len} {sigma}")
        solver = lambda s: _run_mode(args.mode, Text(s, max(2, int(s.max()) + 1)),
                                     args.epsilon, args.seed, args.memory_constant)
        rep = sweep_pipeline(max_len, sigma, solver)
        status = "PASS" if rep["mismatches"] == 0 else "FAIL"
        print(f"{status} exhaustive mode={args.mode} len<={max_len} sigma={sigma} "
              f"strings={rep['strings']} mismatches={rep['mismatches']}")
        return 0 if rep["mismatches"] == 0 else 1

    text, desc = _resolve_text(args)
    result = _run_mode(args.mode, text, args.epsilon, args.seed, args.memory_constant)
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
    _add_input_args(p_verify).add_argument(
        "--exhaustive", nargs=2, metavar=("LEN", "SIGMA"), type=int,
        help="sweep every string up to LEN over [0, SIGMA), instead of one input")
    _add_run_args(p_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {"solve": cmd_solve, "verify": cmd_verify}
    try:
        _check_args(args)
        code = handlers[args.command](args)
        sys.stdout.flush()            # a closed pipe fails here, not at interpreter exit
        return code
    except CollisionAbort as exc:
        print(f"collision abort: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"engine abort: {exc}; raise --memory-constant (now {args.memory_constant} "
              f"words per block symbol)", file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader has gone, so there is no one to tell; the rest of the
        # buffered output goes to the null device, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
