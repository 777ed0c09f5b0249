"""Golden grid: solver output must stay byte-identical across refactors.

For every (family, n, mode, epsilon, seed) of a fixed grid this records the
exact ``palmpc solve --format json`` line and a sha256 of the table bytes.
The recorded file was produced by the code before the batched message path
was added; any change to tables, rounds, message words, work, memory peaks or
counters shows up as a diff.

Regenerate (only when an output change is intended and explained):

    PYTHONPATH=src python3 tests/test_golden.py --write

Before that, count what the change moves: ``--diff`` prints, per JSON field
of the report and for ``table_sha256``, how many recorded entries the
current code changes, in all and per mode, and for a changed numeric field
its sum over each such mode's entries, before -> after. It lists every entry
whose observed memory constant, per-machine or total memory peak, rounds or
peak shared reads per machine and round rose.
It exits 1 when any entry differs, is recorded only or is computed only,
exactly when ``test_golden_grid_is_byte_identical`` fails, and 0 otherwise.

    PYTHONPATH=src python3 tests/test_golden.py --diff

A change that moves some fields on purpose names them with ``--allow``.
The diff then exits 0 only when every entry exists on both sides and every
changed field of an entry is named, so "re-record only the named fields" is
checked before ``--write``:

    PYTHONPATH=src python3 tests/test_golden.py --diff \
        --allow memory.observed_constant,memory.per_machine_peak
"""

import argparse
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


def _fields(report: dict, prefix: str = ""):
    """(dotted field name, value) for every leaf of a JSON report."""
    for key, value in report.items():
        if isinstance(value, dict):
            yield from _fields(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


# fields that no change may raise unnoticed: --diff lists every entry where one rose
WATCHED = ("memory.observed_constant", "memory.per_machine_peak", "memory.total_peak", "rounds",
           "shared_reads_peak")


def _entry_fields(entry: dict) -> dict:
    """Every JSON field of a recorded entry's report, plus its ``table_sha256``."""
    fields = dict(_fields(json.loads(entry["stdout"])))
    fields["table_sha256"] = entry["table_sha256"]
    return fields


def _numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def diff_grid(want: dict, got: dict) -> list[str]:
    """Per field, how many entries of ``want`` differ in ``got``, in all and per recorded
    mode, and for a changed numeric field its sum over each mode's entries, before ->
    after; then, per ``WATCHED`` field, each entry where it rose."""
    keys = sorted(want["solve"].keys() & got["solve"].keys())
    changed: dict[str, dict[str, int]] = {}
    sums: dict[str, dict[str, list[int]]] = {}
    rose: dict[str, list[str]] = {field: [] for field in WATCHED}
    modes = sorted({json.loads(want["solve"][key]["stdout"])["mode"] for key in keys})
    for key in keys:
        old_fields = _entry_fields(want["solve"][key])
        new_fields = _entry_fields(got["solve"][key])
        mode = old_fields["mode"]
        for field in old_fields.keys() | new_fields.keys():
            before, after = old_fields.get(field, "absent"), new_fields.get(field, "absent")
            changed.setdefault(field, dict.fromkeys(modes, 0))[mode] += before != after
            if _numeric(before) and _numeric(after):
                total = sums.setdefault(field, {}).setdefault(mode, [0, 0])
                total[0] += before
                total[1] += after
        for field in WATCHED:
            before, after = old_fields.get(field), new_fields.get(field)
            if before is not None and after is not None and after > before:
                rose[field].append(f"  {key}: {before} -> {after}")
    lines = [f"{len(keys)} entries compared, {len(want['solve'].keys() - got['solve'].keys())} "
             f"recorded only, {len(got['solve'].keys() - want['solve'].keys())} computed only"]
    for field in sorted(changed):
        by_mode = ", ".join(f"{mode} {count}" for mode, count in changed[field].items())
        line = f"{field:32s} {sum(changed[field].values()):5d} changed ({by_mode})"
        summed = [f"{mode} {before} -> {after}" for mode, (before, after)
                  in sorted(sums.get(field, {}).items()) if changed[field][mode]]
        lines.append(line + (f"; summed {', '.join(summed)}" if summed else ""))
    for field, entries in rose.items():
        lines.append(f"{field} rose in {len(entries)} entries" + (":" if entries else ""))
        lines += entries
    return lines


def diff_status(want: dict, got: dict, allow: frozenset = frozenset()) -> int:
    """Exit status of ``--diff``: 1 when an entry exists on one side only, or differs
    in a field not named in ``allow`` or in a byte that no field shows; 0 otherwise."""
    if want["solve"].keys() != got["solve"].keys():
        return 1
    for key, old in want["solve"].items():
        new = got["solve"][key]
        if old == new:
            continue
        old_fields, new_fields = _entry_fields(old), _entry_fields(new)
        changed = {field for field in old_fields.keys() | new_fields.keys()
                   if old_fields.get(field, "absent") != new_fields.get(field, "absent")}
        if not changed or not changed <= allow:
            return 1
    return 0


def test_diff_counts_changed_fields_and_lists_rising_constants():
    def entry(work, constant, reads, sha="a", mode="mpc", rounds=10, peak=100, total=1000):
        memory = {"observed_constant": constant, "cap": 64, "per_machine_peak": peak,
                  "total_peak": total}
        report = {"work": work, "memory": memory, "shared_reads_peak": reads, "mode": mode,
                  "rounds": rounds}
        return {"stdout": json.dumps(report) + "\n", "table_sha256": sha}

    want = {"solve": {"w": entry(3, 2, 7), "x": entry(10, 5, 7, mode="ampc", rounds=9),
                      "y": entry(10, 5, 0), "z": entry(1, 1, 1),
                      "v": entry(4, 3, 2, mode="ampc", rounds=9)}}
    got = {"solve": {"w": entry(3, 2, 8, rounds=11, peak=101),
                     "x": entry(9, 4, 6, mode="ampc", rounds=8, total=900),
                     "y": entry(10, 6, 0, "b"), "v": entry(4, 3, 2, mode="ampc", rounds=8)}}
    lines = diff_grid(want, got)
    assert lines[0] == "4 entries compared, 1 recorded only, 0 computed only"
    counts = {line.split()[0]: line.split(maxsplit=1)[1] for line in lines[1:10]}
    # sums run over every compared entry of a mode in which the field changed
    assert counts == {
        "memory.cap": "0 changed (ampc 0, mpc 0)",
        "memory.observed_constant":
            "2 changed (ampc 1, mpc 1); summed ampc 8 -> 7, mpc 7 -> 8",
        "memory.per_machine_peak": "1 changed (ampc 0, mpc 1); summed mpc 200 -> 201",
        "memory.total_peak": "1 changed (ampc 1, mpc 0); summed ampc 2000 -> 1900",
        "mode": "0 changed (ampc 0, mpc 0)",
        "rounds": "3 changed (ampc 2, mpc 1); summed ampc 18 -> 16, mpc 20 -> 21",
        "shared_reads_peak": "2 changed (ampc 1, mpc 1); summed ampc 9 -> 8, mpc 7 -> 8",
        "table_sha256": "1 changed (ampc 0, mpc 1)",
        "work": "1 changed (ampc 1, mpc 0); summed ampc 14 -> 13"}
    assert lines[10:] == ["memory.observed_constant rose in 1 entries:", "  y: 5 -> 6",
                          "memory.per_machine_peak rose in 1 entries:", "  w: 100 -> 101",
                          "memory.total_peak rose in 0 entries",
                          "rounds rose in 1 entries:", "  w: 10 -> 11",
                          "shared_reads_peak rose in 1 entries:", "  w: 7 -> 8"]


def test_diff_exits_nonzero_on_any_difference():
    def grid(**entries):
        return {"solve": {key: {"stdout": json.dumps({"work": work, "mode": "mpc"}) + "\n",
                                "table_sha256": "a"} for key, work in entries.items()}}

    assert diff_status(grid(x=1, y=2), grid(x=1, y=2)) == 0
    assert diff_status(grid(x=1, y=2), grid(x=1, y=3)) == 1       # one field changed
    assert diff_status(grid(x=1, y=2), grid(x=1)) == 1            # recorded only
    assert diff_status(grid(x=1), grid(x=1, y=2)) == 1            # computed only
    sha = grid(x=1)
    sha["solve"]["x"]["table_sha256"] = "b"
    assert diff_status(grid(x=1), sha) == 1                       # table changed
    # --allow: exit 0 only when every changed field of every entry is named
    work = frozenset({"work"})
    assert diff_status(grid(x=1, y=2), grid(x=1, y=3), work) == 0
    assert diff_status(grid(x=1, y=2), grid(x=1, y=3), frozenset({"mode"})) == 1
    assert diff_status(grid(x=1, y=2), grid(x=1), work) == 1
    assert diff_status(grid(x=1), sha, work) == 1
    assert diff_status(grid(x=1), sha, frozenset({"table_sha256"})) == 0
    spaced = grid(x=1)
    spaced["solve"]["x"]["stdout"] = " " + spaced["solve"]["x"]["stdout"]
    assert diff_status(grid(x=1), spaced, work) == 1             # a byte no field shows


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record or diff the golden grid.")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true")
    action.add_argument("--diff", action="store_true")
    parser.add_argument("--allow", metavar="FIELD[,FIELD...]", default="",
                        help="with --diff, fields that may change")
    args = parser.parse_args()
    if args.allow and not args.diff:
        parser.error("--allow needs --diff")
    if args.write:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(compute_grid(), indent=1, sort_keys=True) + "\n")
    else:
        recorded, computed = json.loads(GOLDEN.read_text()), compute_grid()
        print("\n".join(diff_grid(recorded, computed)))
        sys.exit(diff_status(recorded, computed, frozenset(filter(None, args.allow.split(",")))))
