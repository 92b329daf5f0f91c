"""The stacked residue kernel nbt._charpoly_mod against the one-prime reference.

Each prime keeps its own pivot in the stacked Hessenberg reduction, so
these matrices are built for the primes to part ways: a pivot that
vanishes mod one prime only, a column that vanishes mod one prime
only, and a column that vanishes below the diagonal for every prime.
"""

import numpy as np
import pytest
from charpoly_per_prime import charpoly_mod

from iharalab import nbt

PRIMES = [nbt._prime(i) for i in range(3)]


def _random_matrix(rng: np.random.Generator, size: int) -> np.ndarray:
    m = rng.integers(-4, 5, size=(size, size)).astype(np.int64)
    m[rng.random((size, size)) < 0.4] = 0
    return m


def _pin(matrix: np.ndarray, primes: list[int]) -> None:
    got = nbt._charpoly_mod(matrix, primes)
    assert got.shape == (len(primes), len(matrix) + 1) and got.dtype == np.int64
    assert got.tolist() == [charpoly_mod(matrix, p) for p in primes]


def test_a_pivot_that_vanishes_mod_one_prime_is_swapped_for_that_prime_only():
    m = _random_matrix(np.random.default_rng(1), 9)
    m[1, 0], m[2, 0] = PRIMES[0], 3
    assert [m[1, 0] % p == 0 for p in PRIMES] == [True, False, False]
    _pin(m, PRIMES)


def test_a_column_that_vanishes_mod_one_prime_is_skipped_for_that_prime_only():
    m = _random_matrix(np.random.default_rng(2), 9)
    m[1:, 0] = PRIMES[1] * np.array([1, 0, 2, -3, 0, 1, 5, 2])
    assert [bool((m[1:, 0] % p).any()) for p in PRIMES] == [True, False, True]
    _pin(m, PRIMES)


@pytest.mark.parametrize("width", [1, 3])
def test_a_column_that_vanishes_below_the_diagonal_for_every_prime(width):
    # block upper triangular: column width - 1 is zero below the diagonal when it is reached
    m = _random_matrix(np.random.default_rng(3), 8)
    m[width:, :width] = 0
    _pin(m, PRIMES)


def test_random_matrices_mod_small_and_large_primes():
    # mod 3, 5 and 7 pivots vanish often and differently in every layer
    rng = np.random.default_rng(4)
    for size in range(1, 13):
        for _ in range(10):
            _pin(_random_matrix(rng, size), [3, 5, 7, PRIMES[0]])
