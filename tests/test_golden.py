"""Golden grid: solver output must stay byte-identical across refactors.

For every (family, n, mode, epsilon, seed) of a fixed grid this records the
exact ``palmpc solve --format json`` line and a sha256 of the table bytes.
The recorded file was produced by the code before the batched message path
was added; any change to tables, rounds, message words, work, memory peaks or
counters shows up as a diff.

Regenerate (only when an output change is intended and explained):

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from palmpc import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "grid.json"

FAMILIES = (("--random", "2"), ("--random", "3"), ("--unary",), ("--fibonacci",),
            ("--thue-morse",), ("--alternating",))
SIZES = (1, 2, 7, 64, 333, 1024, 4096)
RUNS = (("mpc", "0.2"), ("mpc", "0.35"), ("mpc", "0.5"), ("ampc", "0.5"), ("ampc", "0.75"))
SEEDS = (0, 1)


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def _solve_line(argv: list[str]) -> tuple[str, str]:
    """stdout of ``palmpc solve`` and the sha256 of the table it computed."""
    seen = []
    run_mode = cli._run_mode

    def recording(*args, **kwargs):
        seen.append(run_mode(*args, **kwargs))
        return seen[-1]

    out = io.StringIO()
    cli._run_mode = recording
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        cli._run_mode = run_mode
    assert code == 0, argv
    table = seen[0].table
    return out.getvalue(), _sha256(table.odd, table.even)


def compute_grid() -> dict:
    solves = {}
    for family in FAMILIES:
        for n in SIZES:
            for mode, eps in RUNS:
                for seed in SEEDS:
                    argv = ["solve", family[0], str(n), *family[1:], "--mode", mode,
                            "--epsilon", eps, "--seed", str(seed), "--format", "json"]
                    line, table_sha = _solve_line(argv)
                    solves[" ".join(argv[1:])] = {"stdout": line, "table_sha256": table_sha}
    return {"solve": solves}


def test_golden_grid_is_byte_identical():
    want = json.loads(GOLDEN.read_text())
    got = compute_grid()
    assert got.keys() == want.keys()
    for section in want:
        assert sorted(got[section]) == sorted(want[section]), section
        diff = [key for key in want[section] if got[section][key] != want[section][key]]
        assert not diff, f"{section}: {len(diff)} entries changed, first {diff[:3]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(compute_grid(), indent=1, sort_keys=True) + "\n")
