"""The in-house draws of ``surveyfuse.streams`` against numpy's own.

Each draw must be bit-equal to what ``numpy.random`` gives for the same
stream, ``Generator(PCG64(SeedSequence(key)))``.  NEP 19 lets numpy change
a ``Generator`` algorithm between releases; if one does, these tests fail
rather than let the package's draws drift.
"""

import numpy as np
import pytest

from surveyfuse import streams
from surveyfuse.attribution import sample_rows

SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 + 3, (1 << 73) + 12345]

# the first draw below 2**31 + 1 is rejected about half the time, and below
# 3 * 2**30 + 1 about a third of the time: the row's next words decide
REJECTING = [2**31 + 1, 3 * 2**30 + 1]


def numpy_stream(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def numpy_below(seed, rows, n):
    """Each row's ``choice(n)``; above 2**63 ``integers``, the same draw."""
    if n < 2**63:
        return np.array([numpy_stream(seed, int(r)).choice(n) for r in rows], dtype=np.int64)
    draws = [numpy_stream(seed, int(r)).integers(0, n, dtype=np.uint64) for r in rows]
    return np.array(draws, dtype=np.uint64).view(np.int64)


def some_rows():
    rng = np.random.default_rng(31)
    return np.concatenate([np.arange(50), rng.integers(0, 2**31, 30)])


class TestBelow:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [2, 3, 2**31 - 1, 2**32 - 1, *REJECTING])
    def test_matches_numpy_choice(self, seed, n):
        rows = some_rows()
        got = streams.below(seed, rows, np.full(rows.size, n))
        assert np.array_equal(got, numpy_below(seed, rows, n))

    @pytest.mark.parametrize("n", REJECTING)
    def test_rejections_are_drawn_again(self, n):
        """Rows whose first 32-bit word numpy rejects are among the cases:
        ``integers(0, 2**32)`` returns a stream's first word as it is."""
        rows = some_rows()
        first = np.array([numpy_stream(7, int(r)).integers(0, 2**32) for r in rows], np.uint64)
        rejected = (first * np.uint64(n)) % 2**32 < (2**32 - n) % n
        assert 0 < rejected.sum() < rows.size
        got = streams.below(7, rows, np.full(rows.size, n))
        assert np.array_equal(got, numpy_below(7, rows, n))

    @pytest.mark.parametrize("seed", [7, 2**64 + 3])
    @pytest.mark.parametrize("n", [2**32, 2**32 + 1, 2**63 + 5, 2**64 - 1])
    def test_bounds_from_2_to_the_32(self, seed, n):
        """``2**32`` is the last 32-bit bound; above it a draw takes whole
        64-bit outputs."""
        rows = some_rows()[:20]
        got = streams.below(seed, rows, np.full(rows.size, n, dtype=np.uint64))
        assert np.array_equal(got, numpy_below(seed, rows, n))

    def test_one_call_mixes_bounds_and_key_lengths(self):
        """Per-row bounds, and rows of one and two words after a three-word
        seed: five entropy words, past SeedSequence's pool of four."""
        rows = np.array([0, 1, 2**31 - 1, 2**32, 2**40 + 7, 5], dtype=np.int64)
        n = np.array([1, 2, 3, 2**31 + 1, 2**32 + 1, 10], dtype=np.uint64)
        for seed in (2**64 + 3, (1 << 73) + 12345):
            got = streams.below(seed, rows, n)
            expected = [numpy_below(seed, [r], int(k))[0] for r, k in zip(rows, n)]
            assert got.tolist() == expected

    def test_a_choice_of_an_array_is_its_drawn_element(self):
        ties = np.array([3, 8, 21, 22, 40])
        rows = some_rows()
        got = ties[streams.below(99, rows, np.full(rows.size, ties.size))]
        assert got.tolist() == [int(numpy_stream(99, int(r)).choice(ties)) for r in rows]

    def test_refuses_what_numpy_refuses(self):
        with pytest.raises(ValueError):
            streams.below(-1, np.arange(3), np.full(3, 2))
        with pytest.raises(ValueError):
            numpy_stream(-1, 0)
        with pytest.raises(ValueError):
            streams.below(1, np.arange(3), np.array([2, 0, 2]))


class TestSample:
    @pytest.mark.parametrize("seed", [0, 5, 99, 2**32, (1 << 70) + 3])
    @pytest.mark.parametrize(
        "n, k",
        [
            (0, 0), (1, 0), (1, 1), (10, 10), (10, 3),  # Floyd
            (10_000, 10_000), (10_001, 200), (364_000, 500),  # Floyd at numpy's bounds
            (10_001, 201), (364_000, 7_281), (20_000, 20_000), (50_000, 3_000),  # tail shuffle
        ],
    )
    def test_matches_numpy_without_replacement(self, seed, n, k):
        got = sample_rows(n, k, seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.sort(numpy_stream(seed).choice(n, k, replace=False)))

    def test_limit_above_n_takes_every_row(self):
        assert sample_rows(7, 500, 3).tolist() == list(range(7))

    def test_refuses_an_impossible_sample(self):
        with pytest.raises(ValueError):
            streams.sample(1, 5, 6)
        with pytest.raises(ValueError):
            streams.sample(1, 2**32 + 1, 1)
