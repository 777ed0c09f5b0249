"""The benchmark's span tracer must still find every kernel it hooks.

``solvebench/spans.py`` wraps the kernels as attributes of ``palmpc.mpc`` and
``palmpc.ampc``. A kernel that a pipeline stops importing leaves its hook
missing; one that is called through another module is never traced, and its
metric silently reads 0. This solves a small periodic text in each mode under
the hooks and checks both. It also runs the benchmark's own self-test, so
that a change to what ``solvebench/run.py`` reads of the package fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from palmpc import _kernels
from palmpc.ampc import solve_ampc
from palmpc.inputs import unary_text
from palmpc.mpc import solve_mpc

SOLVEBENCH = Path(__file__).resolve().parent.parent / "solvebench"
sys.path.insert(0, str(SOLVEBENCH))
import spans  # noqa: E402

KERNEL_SPANS = ("kernels.manacher", "strings.prefix_pals", "structural.periodic_resolve",
                "structural.merge")


@pytest.mark.parametrize("solve, epsilon", [(solve_mpc, 0.5), (solve_ampc, 0.75)])
def test_every_hook_resolves_and_every_kernel_is_traced(solve, epsilon):
    tracer = spans.Tracer()
    with spans.Hooks(tracer) as hooks:
        solve(unary_text(1024).symbols, epsilon, seed=0)
    assert hooks.missing == []
    missing_spans = set(KERNEL_SPANS) - set(tracer.names)
    assert not missing_spans, f"{solve.__name__}: no spans for {sorted(missing_spans)}"


def test_benchmark_numba_stamp_reads_false():
    # solvebench/run.py stamps this name into every record
    assert _kernels.NUMBA_ENABLED is False


def test_benchmark_selftest_passes():
    # run.py reads RunStats (rounds, observed_memory_constant(), message_words,
    # total_work, total_memory_peak, counters) and spans.py wraps run_round
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(SOLVEBENCH / "selftest.py")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
