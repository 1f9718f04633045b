import multiprocessing
import os
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from functools import partial

from permshape import oracle
from permshape.oracle import (
    all_shapes,
    avoiders_132,
    avoiders_231,
    distribution,
    enumerate_sn,
    fan_out,
    permutation_range,
    shape_census,
    split_ranges,
    tally,
    walk_blocks,
)
from permshape.shapes import ShapePartition, count_permutations_with_shape
from permshape.verify import run_suite

from naive_oracles import (
    naive_avoiders,
    naive_permutations,
    naive_statistic_distribution,
)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def _ranges(blocks):
    """One range per block: the blocks a worker was dealt, made visible."""
    return [range(lo, hi) for lo, hi in blocks]


def _owned(blocks):
    """Each block with the process that ran it."""
    return [(os.getpid(), lo, hi) for lo, hi in blocks]


def _until(stop, blocks):
    """One range per block, up to and including the block that holds ``stop``."""
    out = []
    for lo, hi in blocks:
        out.append(range(lo, hi))
        if lo <= stop < hi:
            break
    return out


class TestEnumeration:
    def test_small(self):
        words = list(enumerate_sn(3))
        assert len(words) == 6
        assert words[0] == (1, 2, 3) and words[-1] == (3, 2, 1)

    def test_empty(self):
        assert list(enumerate_sn(0)) == [()]

    def test_count_n8(self):
        assert sum(1 for _ in enumerate_sn(8)) == 40320

    def test_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_sn(12))

    @given(st.integers(0, 7), st.data())
    def test_range_matches_slice(self, n, data):
        total = factorial(n)
        lo = data.draw(st.integers(0, total))
        hi = data.draw(st.integers(lo, total))
        assert list(permutation_range(n, lo, hi)) == list(enumerate_sn(n))[lo:hi]

    def test_range_split_merge_equality(self):
        for n in (5, 6, 7):
            for pieces in (2, 3, 8):
                merged = []
                for lo, hi in split_ranges(factorial(n), pieces):
                    merged.extend(permutation_range(n, lo, hi))
                assert merged == list(enumerate_sn(n))

    def test_full_range_is_lexicographic(self):
        for n in range(7):
            assert list(permutation_range(n, 0, factorial(n))) == naive_permutations(n)

    def test_range_bounds_rejected(self):
        with pytest.raises(ValueError):
            permutation_range(4, 5, 3)
        with pytest.raises(ValueError):
            permutation_range(4, 0, 25)
        with pytest.raises(ValueError):
            permutation_range(4, -1, 3)
        with pytest.raises(ValueError):
            permutation_range(12, 0, 1)


class TestFanOut:
    def test_rejects_workers_below_one(self, no_pool):
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                fan_out(_ranges, 10, workers)

    def test_single_range_runs_inline(self, no_pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert fan_out(_ranges, 10, 4) == [range(0, 10)]
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert fan_out(_ranges, 1, 4) == [range(0, 1)]

    def test_one_cpu_opens_no_pool(self, no_pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = distribution(7, "lbsum")
        assert distribution(7, "lbsum", workers=10**6).counts == serial.counts

    def test_clamped_to_cpu_count(self, pool_requests):
        serial = distribution(8, "lbsum")
        assert distribution(8, "lbsum", workers=10**6).counts == serial.counts
        assert [processes for _, processes in pool_requests] == [2]

    # Every public entry point that takes ``workers``, at sizes too small
    # for a pool and on routes that never open one.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: distribution(5, "lbsum", workers=0),
            lambda: distribution(5, "lbsum", avoid="132", workers=0),
            lambda: tally(5, len, workers=-3),
            lambda: shape_census(3, workers=0),
            lambda: run_suite("stats", 6, workers=0),
            lambda: run_suite("series", 6, workers=0),
        ],
        ids=[
            "distribution",
            "distribution-avoid",
            "tally",
            "shape_census",
            "run_suite",
            "run_suite-series",
        ],
    )
    def test_workers_below_one_rejected_at_every_size(self, call, no_pool):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            call()

    def test_walks_below_seven_factorial_run_inline(self, pool_requests):
        assert distribution(6, "lbsum", workers=2) == distribution(6, "lbsum")
        assert shape_census(6, workers=2) == shape_census(6)
        assert fan_out(_ranges, 63, 2, min_total=64) == [range(0, 63)]
        assert not pool_requests

    def test_a_block_moves_the_stream_only_once_read(self):
        # Left partly read or unread, a slice still ends where its block
        # does, and the next slice starts at its own lo.
        blocks = [(2, 5), (7, 9), (12, 15), (16, 18)]
        first, second, third, fourth = walk_blocks(iter(range(20)), blocks, 20)
        assert next(first) == 2
        assert list(third) == [12, 13, 14]
        assert list(second) == [] and list(fourth) == [16, 17]

    def test_a_fault_in_a_gap_is_raised_by_the_next_block(self):
        def stream():
            yield from range(10)
            raise RuntimeError("gap")

        first, second = walk_blocks(stream(), [(0, 2), (12, 14)], 14)
        assert list(first) == [0, 1]
        with pytest.raises(RuntimeError, match="gap"):
            next(second)

    def test_a_stream_of_the_wrong_length_fails_where_it_shows(self):
        # Short: the slice that runs out raises once read to its end, after
        # yielding what there was.  Long: the slice ending the stream raises.
        blocks = [(0, 4), (6, 10)]
        first, second = walk_blocks(iter(range(9)), blocks, 10)
        assert list(first) == [0, 1, 2, 3]
        assert next(second) == 6 and next(second) == 7 and next(second) == 8
        with pytest.raises(RuntimeError, match="ends short of its 10 words"):
            next(second)
        (only,) = walk_blocks(iter(range(11)), [(0, 10)], 10)
        with pytest.raises(RuntimeError, match="runs past its 10 words"):
            list(only)
        # A block that does not end the stream leaves what follows alone.
        (head,) = walk_blocks(iter(range(11)), [(0, 10)], 11)
        assert list(head) == list(range(10))

    def test_a_tally_of_the_wrong_length_fails(self, monkeypatch):
        real = oracle.enumerate_sn
        monkeypatch.setattr(oracle, "enumerate_sn", lambda n: iter(list(real(n))[1:]))
        with pytest.raises(RuntimeError, match="ends short of its 120 words"):
            shape_census(5)

    def test_blocks_are_dealt_round_robin(self, pool_requests):
        # 2 workers x 8 blocks: block t goes to share t mod 2, one pool task
        # each, and the results come back in stream order, covering
        # [0, total) once.
        results = fan_out(_owned, 100, 2, min_total=0)
        assert [(lo, hi) for _, lo, hi in results] == split_ranges(100, 16)
        pids = [pid for pid, _, _ in results]
        assert os.getpid() not in pids
        assert pids == [pids[0], pids[1]] * 8
        assert [processes for _, processes in pool_requests] == [2]

    @pytest.mark.parametrize("stop", [0, 6, 7, 93, 99])
    def test_results_end_at_the_first_block_a_worker_left(self, stop, pool_requests):
        # The worker that meets ``stop`` in block t returns nothing after it,
        # so the results run in order up to block t + 1, the other worker's
        # next, and end before block t + 2, the first without a result.
        blocks = split_ranges(100, 2 * oracle._BLOCKS_PER_WORKER)
        t = next(t for t, (lo, hi) in enumerate(blocks) if lo <= stop < hi)
        results = fan_out(partial(_until, stop), 100, 2, min_total=0)
        assert results == [range(lo, hi) for lo, hi in blocks[: t + 2]]

    def test_tallies_of_s7_run_inline(self, pool_requests):
        # A count does less per word than a check, so it waits for S_8.
        assert distribution(7, "lbsum", workers=2) == distribution(7, "lbsum")
        assert shape_census(7, workers=2) == shape_census(7)
        assert tally(7, len, workers=2) == {7: factorial(7)}
        assert not pool_requests

    def test_spawn_when_fork_is_missing(self, pool_requests, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )
        assert distribution(8, "lbsum", workers=2) == distribution(8, "lbsum")
        assert shape_census(8, workers=2) == shape_census(8)
        assert pool_requests == [("spawn", 2), ("spawn", 2)]


class TestAvoiders:
    def test_classes_match_filter_oracle(self):
        for n in range(7):
            assert sorted(avoiders_132(n)) == naive_avoiders(n, (1, 3, 2))
            assert sorted(avoiders_231(n)) == naive_avoiders(n, (2, 3, 1))

    def test_catalan_sizes(self):
        for n in range(9):
            assert sum(1 for _ in avoiders_132(n)) == catalan(n)
            assert sum(1 for _ in avoiders_231(n)) == catalan(n)


class TestDistribution:
    def test_lbsum_n3(self):
        dist = distribution(3, "lbsum")
        assert dist.counts == {0: 1, 1: 1, 2: 3, 3: 1}

    def test_filtered_total_is_catalan(self):
        for n in range(8):
            assert distribution(n, "lbsum", avoid="132").total == catalan(n)
            assert distribution(n, "inv", avoid="231").total == catalan(n)

    def test_parity_split_n8(self):
        even, odd = distribution(8, "lbsum").parity_split()
        assert even == odd == 20160

    def test_all_statistics_match_naive(self):
        from permshape.oracle import STATISTICS

        for name, fn in STATISTICS.items():
            for n in range(6):
                assert distribution(n, name).counts == naive_statistic_distribution(
                    n, fn
                )

    def test_unknown_inputs(self):
        with pytest.raises(ValueError):
            distribution(3, "nope")
        with pytest.raises(ValueError):
            distribution(3, "lbsum", avoid="321")

    def test_workers_merge_equality(self):
        single = distribution(7, "lbsum", workers=1)
        parallel = distribution(7, "lbsum", workers=4)
        assert single.counts == parallel.counts

    def test_serialization(self):
        dist = distribution(3, "lbsum")
        assert dist.total == 6


class TestCensus:
    def test_n3(self):
        assert shape_census(3) == {
            (0, 0): 1,
            (1, 0): 1,
            (2, 0): 2,
            (1, 1): 1,
            (2, 1): 1,
        }

    def test_spot_value_n8(self):
        census = shape_census(8)
        assert census[(7, 5, 5, 2, 1, 1, 0)] == 70

    def test_shape_count_is_catalan(self):
        for n in range(1, 8):
            census = shape_census(n)
            assert len(census) == catalan(n)
            assert sum(census.values()) == factorial(n)

    def test_matches_formula(self):
        for n in range(7):
            for parts, count in shape_census(n).items():
                s = ShapePartition(parts, n)
                assert count_permutations_with_shape(s) == count

    def test_workers_merge_equality(self):
        assert shape_census(6, workers=1) == shape_census(6, workers=3)

    def test_cap(self):
        with pytest.raises(ValueError):
            shape_census(10)

    def test_serialization(self):
        census = shape_census(3)
        assert census[(2, 0)] == 2


class TestAllShapes:
    def test_counts(self):
        for n in range(9):
            shapes = list(all_shapes(n))
            assert len(shapes) == (catalan(n) if n else 1)
            assert len({s.parts for s in shapes}) == len(shapes)

    def test_matches_census_keys(self):
        for n in range(7):
            generated = {s.parts for s in all_shapes(n)}
            assert generated == set(shape_census(n))


def test_distribution_mass_is_factorial():
    for n in range(7):
        assert distribution(n, "maj").total == factorial(n)
