"""All maximal palindromes on a simulated massively-parallel cluster."""

from .ampc import ampc_lcp, solve_ampc
from .engine import ClusterConfig, CollisionAbort, RunStats
from .mpc import plan_decomposition, solve_mpc
from .oracle import oracle_lcp, oracle_lps, oracle_maximal_palindromes
from .strings import PalindromeTable, Text, manacher

__version__ = "0.1.0"

__all__ = [
    "ClusterConfig",
    "CollisionAbort",
    "PalindromeTable",
    "RunStats",
    "Text",
    "ampc_lcp",
    "manacher",
    "oracle_lcp",
    "oracle_lps",
    "oracle_maximal_palindromes",
    "plan_decomposition",
    "solve_ampc",
    "solve_mpc",
]
