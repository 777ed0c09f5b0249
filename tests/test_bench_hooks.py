"""The benchmark's span tracer must still find every kernel it hooks.

``solvebench/spans.py`` wraps the kernels as attributes of ``palmpc.mpc`` and
``palmpc.ampc``. A kernel that a pipeline stops importing leaves its hook
missing; one that is called through another module is never traced, and its
metric silently reads 0. This solves a small periodic text in each mode under
the hooks and checks both.
"""

import sys
from pathlib import Path

import pytest

from palmpc import _kernels
from palmpc.ampc import solve_ampc
from palmpc.inputs import unary_text
from palmpc.mpc import solve_mpc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "solvebench"))
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
