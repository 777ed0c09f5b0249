import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from palmpc import cli
from palmpc.engine import CollisionAbort


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_unary_ampc(capsys):
    code, out, _ = run_cli(capsys, "solve", "--unary", "4096", "--mode", "ampc",
                           "--epsilon", "0.75", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["lps"] == {"start": 0, "length": 4096, "substring": None}
    assert report["rounds"] is not None


def test_solve_reports_substring_when_small(capsys):
    code, out, _ = run_cli(capsys, "solve", "--random", "40", "2", "--seed", "3",
                           "--format", "json")
    report = json.loads(out)
    s = report["lps"]["substring"]
    assert s is not None and s == s[::-1]
    assert len(s) == report["lps"]["length"]


def test_solve_rerun_is_byte_identical(capsys):
    args = ("solve", "--random", "1024", "2", "--seed", "9", "--mode", "mpc",
            "--epsilon", "0.4", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_json_schema_stable_across_modes(capsys):
    keys = {}
    for mode in ("mpc", "ampc", "sequential", "oracle"):
        _, out, _ = run_cli(capsys, "solve", "--random", "64", "4", "--mode", mode,
                            "--format", "json")
        report = json.loads(out)
        keys[mode] = (sorted(report.keys()), sorted(report["memory"].keys()),
                      sorted(report["lps"].keys()))
    assert len(set(map(str, keys.values()))) == 1
    _, out, _ = run_cli(capsys, "solve", "--random", "64", "4", "--mode",
                        "sequential", "--format", "json")
    report = json.loads(out)
    assert report["rounds"] is None and report["epsilon"] is None


def test_text_format_mentions_lps(capsys):
    code, out, _ = run_cli(capsys, "solve", "--fibonacci", "128")
    assert code == 0
    assert "lps.length" in out


def test_verify_random_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--random", "2048", "4",
                           "--mode", "mpc", "--epsilon", "0.5")
    assert code == 0 and out.startswith("PASS")


def test_verify_all_generators_and_modes(capsys):
    for source in (("--unary", "257"), ("--alternating", "100"),
                   ("--fibonacci", "233"), ("--thue-morse", "256")):
        for mode in ("mpc", "ampc", "sequential"):
            code, out, _ = run_cli(capsys, "verify", *source, "--mode", mode)
            assert code == 0 and out.startswith("PASS"), (source, mode)


def test_verify_file_input(tmp_path, capsys):
    path = tmp_path / "war.bin"
    path.write_bytes(bytes([1, 2, 1, 1, 2, 1, 2, 2, 1] * 30))
    code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--mode", "mpc")
    assert code == 0 and out.startswith("PASS")


def test_alphabet_restriction_rejected(tmp_path, capsys):
    path = tmp_path / "wide.bin"
    path.write_bytes(bytes([0, 5, 200]))
    code, _, err = run_cli(capsys, "solve", "--input", str(path), "--alphabet", "4")
    assert code == 2 and "alphabet" in err
    # a generator picks its own alphabet, so the option would be ignored
    for argv in (("solve", "--random", "5", "3", "--mode", "sequential"),
                 ("solve", "--unary", "8"), ("verify", "--exhaustive", "3", "2")):
        code, out, err = run_cli(capsys, *argv, "--alphabet", "2")
        assert code == 2 and out == "", argv
        assert "--alphabet applies only to --input" in err, argv


def test_closed_stdout_exits_141_silently():
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    try:
        for fmt in ("json", "text"):
            done = subprocess.run(
                [sys.executable, "-m", "palmpc", "solve", "--unary", "200", "--mode",
                 "sequential", "--format", fmt], stdout=write_end, stderr=subprocess.PIPE,
                env=env, timeout=60)
            assert done.returncode == 141 and done.stderr == b"", (fmt, done.stderr)
    finally:
        os.close(write_end)


def test_epsilon_out_of_range_is_usage_error(capsys):
    # NaN fails every range comparison, so the cluster must check it before
    # the block plan computes with it
    for mode, eps, bound in (("ampc", "1.2", "(0, 1)"), ("ampc", "nan", "(0, 1)"),
                             ("mpc", "nan", "(0, 0.5]")):
        code, out, err = run_cli(capsys, "verify", "--random", "64", "2",
                                 "--mode", mode, "--epsilon", eps)
        assert code == 2 and out == ""
        assert f"{mode} mode requires epsilon in {bound}" in err, (mode, eps)


def test_missing_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--mode", "mpc")
    assert code == 2


def test_unreadable_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--input", "/definitely/not/here")
    assert code == 2


def test_exhaustive_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--exhaustive", "7", "2",
                           "--mode", "mpc", "--epsilon", "0.5")
    assert code == 0 and "strings=254" in out


def test_collision_abort_maps_to_exit_3(monkeypatch, capsys):
    def boom(*a, **k):
        raise CollisionAbort("forced")

    monkeypatch.setattr(cli, "solve_mpc", boom)
    code, _, err = run_cli(capsys, "solve", "--random", "64", "2", "--mode", "mpc")
    assert code == 3 and "collision" in err


def test_seed_option_is_reported(capsys):
    code, out, _ = run_cli(capsys, "solve", "--random", "64", "2", "--seed", "4",
                           "--format", "json")
    assert code == 0 and json.loads(out)["seed"] == 4
    _, out, _ = run_cli(capsys, "solve", "--random", "64", "2", "--format", "json")
    assert json.loads(out)["seed"] == 0


def test_engine_abort_maps_to_exit_4(capsys):
    # unary n=4096 at eps=0.5: b=64, so a constant of 8 caps a machine at 512 words
    for command in ("solve", "verify"):
        code, out, err = run_cli(capsys, command, "--unary", "4096", "--memory-constant", "8")
        assert code == 4 and out == "", command
        assert len(err.splitlines()) == 1
        assert "machine 0 holds" in err and "round 1" in err and "cap 512" in err
        assert "raise --memory-constant" in err


def test_engine_abort_numbers_rounds_as_the_pipelines_do(capsys):
    # b = 8: at cap 8 the placed letters overrun before any step; at cap 40
    # they fit (33 words at most), and the overrun is seen after the steps of
    # MPC's round 1, the local scans
    code, out, err = run_cli(capsys, "solve", "--random", "50", "2", "--memory-constant", "1")
    assert code == 4 and out == ""
    assert "machine 0 holds 17 words at placement, cap 8" in err
    code, out, err = run_cli(capsys, "solve", "--random", "50", "2", "--memory-constant", "5")
    assert code == 4 and out == ""
    assert "machine 0 holds 147 words after its round 1 step (payload plus outbox)" in err


def test_memory_constant_below_one_is_usage_error(capsys):
    for value in ("0", "-1"):
        code, out, err = run_cli(capsys, "solve", "--unary", "64", "--memory-constant", value)
        assert code == 2 and out == "" and "memory constant" in err


def test_vacuous_exhaustive_is_usage_error(capsys):
    for bounds in (("0", "2"), ("3", "0")):
        code, out, err = run_cli(capsys, "verify", "--exhaustive", *bounds)
        assert code == 2 and out == "" and "--exhaustive" in err, bounds


def test_empty_input_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    for mode in ("mpc", "ampc", "sequential", "oracle"):
        code, out, err = run_cli(capsys, "solve", "--input", str(path), "--mode", mode)
        assert code == 2 and out == "" and "text must be nonempty" in err, mode


def test_negative_symbols_are_usage_error(monkeypatch, capsys):
    from types import SimpleNamespace

    text = SimpleNamespace(symbols=np.array([1, 0, -3, 1], np.int64), sigma=2)
    desc = {"kind": "file", "path": None, "n": 4, "sigma": 2, "seed": None}
    monkeypatch.setattr(cli, "_resolve_text", lambda args: (text, desc))
    for mode in ("mpc", "ampc"):
        code, out, err = run_cli(capsys, "solve", "--unary", "4", "--mode", mode)
        assert code == 2 and out == ""
        assert "position 2" in err and "-3" in err


def test_cluster_options_with_a_plain_mode_are_usage_errors(capsys):
    for mode in ("sequential", "oracle"):
        for extra in (("--epsilon", "7"), ("--memory-constant", "0"), ("--epsilon", "0.5")):
            for command in ("solve", "verify"):
                code, out, err = run_cli(capsys, command, "--random", "8", "2",
                                         "--mode", mode, *extra)
                assert code == 2 and out == "", (mode, extra, command)
                assert f"--mode {mode} takes no {extra[0]}" in err
    # the cluster modes keep their defaults
    _, out, _ = run_cli(capsys, "solve", "--random", "8", "2", "--format", "json")
    report = json.loads(out)
    assert report["epsilon"] == 0.5 and report["memory"]["cap"] == 64 * report["block_len"]


def test_exhaustive_with_an_input_is_usage_error(capsys):
    for source in (("--unary", "3"), ("--random", "8", "2"), ("--fibonacci", "5")):
        code, out, err = run_cli(capsys, "verify", *source, "--exhaustive", "3", "2")
        assert code == 2 and out == "" and "--exhaustive" in err, source
