import numpy as np
import pytest

from palmpc.oracle import oracle_lcp, oracle_lps, oracle_maximal_palindromes
from palmpc.strings import manacher


def test_oracle_examples():
    t = oracle_maximal_palindromes("aba")
    assert t.odd.tolist() == [1, 3, 1] and t.even.tolist() == [0, 0]
    t = oracle_maximal_palindromes("aaaa")
    assert t.odd.tolist() == [1, 3, 3, 1] and t.even.tolist() == [2, 4, 2]
    t = oracle_maximal_palindromes("")
    assert t.odd.tolist() == [] and t.even.tolist() == []


def test_oracle_lcp_examples():
    assert oracle_lcp("abaab", 0, 5) == 0
    assert oracle_lcp("abaab", 3, 7) == 2
    for k in range(11):
        assert oracle_lcp("abaab", k, k) == 10 - k
    with pytest.raises(ValueError):
        oracle_lcp("abaab", 0, 11)


def test_oracle_lps_examples():
    assert oracle_lps("abaab") == (1, 4)
    assert oracle_lps("abc") == (0, 1)
    assert oracle_lps("baaaab") == (0, 6)


def test_oracle_lps_rejects_empty():
    with pytest.raises(ValueError):
        oracle_lps("")


def test_oracle_lps_leftmost_tie():
    # two longest palindromes; the earlier one wins
    assert oracle_lps("abaxcdc") == (0, 3)


def test_mutual_validation_with_manacher():
    # two independent implementations agree across ten thousand random texts
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        n = int(rng.integers(1, 513))
        s = rng.integers(0, int(rng.choice([2, 3, 26])), n)
        assert oracle_maximal_palindromes(s) == manacher(s)
