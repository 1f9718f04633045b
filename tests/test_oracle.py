import multiprocessing
import os
import signal
import time
from contextlib import contextmanager
from itertools import chain
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
    permutation_range,
    shape_census,
    split_ranges,
    tally,
    walk,
)
from permshape.shapes import ShapePartition, count_permutations_with_shape
from permshape.verify import run_suite

from naive_oracles import (
    NAIVE_STATISTICS,
    naive_avoiders,
    naive_permutations,
    naive_statistic_distribution,
    recursive_avoiders_132,
)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


# Visitors of ``walk``.  Each returns (value, stop) for one block of words.
S5 = list(enumerate_sn(5))
BLOCKS = split_ranges(120, 2 * oracle._BLOCKS_PER_WORKER)  # S_5 on 2 workers


def _read(words):
    """Every word of the block: the block, made visible."""
    return list(words), False


def _first(words):
    """The block's first word, the others left unread."""
    return next(words), False


def _skip(words):
    """Nothing of the block read."""
    return None, False


def _owned(words):
    """The block with the process that read it."""
    return (os.getpid(), list(words)), False


def _until(stop, words):
    """The block, stopping the share at the block that holds ``stop``."""
    block = list(words)
    return block, stop in block


def _read_or_fault(words):
    """The words read and what the stream raised while they were read."""
    read = []
    try:
        read.extend(words)
    except RuntimeError as error:
        return (read, str(error)), True
    return (read, None), False


def _exits_past_share_0(words):
    """Exit without an answer in every share but the caller's, share 0."""
    if multiprocessing.parent_process():
        os._exit(3)
    return _read(words)


def _fails_in_share_0(words):
    """Raise in the caller's share while the children sleep."""
    if not multiprocessing.parent_process():
        raise ValueError("share 0 fails")
    time.sleep(60)
    return _read(words)


def _fails_past_share_0(words):
    """Raise in every share but the caller's, naming the word it starts at."""
    if multiprocessing.parent_process():
        raise LookupError(f"share from {next(words)} fails")
    return _read(words)


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in this process if the block takes longer."""

    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
    def test_rejects_workers_below_one(self, no_fan_out):
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                walk((5,), _read, workers)

    # The split is sized from n!, so a bad n must fail before it.
    def test_a_bad_n_fails_before_any_process_starts(self, no_fan_out, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for ns in ((12,), (5, 12), (-1,)):
            with pytest.raises(ValueError, match="0 <= n <= 11"):
                walk(ns, _read, 2)
        with pytest.raises(ValueError, match="0 <= n <= 11"):
            tally(12, len, workers=2)

    def test_single_range_runs_inline(self, no_fan_out, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert walk((7,), _first, 4) == [(1, 2, 3, 4, 5, 6, 7)]
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert walk((1,), _read, 4) == [[(1,)]]
        # S_0..S_6, 874 words, is the largest walk of S_0, S_1, ... below 7!.
        assert walk(range(7), _read, 4) == [list(chain(*map(enumerate_sn, range(7))))]

    def test_one_cpu_opens_no_pool(self, no_fan_out, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = distribution(7, "lbsum")
        assert distribution(7, "lbsum", workers=10**6).counts == serial.counts

    def test_clamped_to_cpu_count(self, fan_outs):
        serial = distribution(7, "lbsum")
        assert distribution(7, "lbsum", workers=10**6).counts == serial.counts
        assert [processes for _, processes in fan_outs] == [2]

    # Every public entry point that takes ``workers``, at sizes too small
    # to fan out and on routes that never do.
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
    def test_workers_below_one_rejected_at_every_size(self, call, no_fan_out):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            call()

    def test_walks_below_seven_factorial_run_inline(self, fan_outs, monkeypatch):
        assert distribution(6, "lbsum", workers=2) == distribution(6, "lbsum")
        assert shape_census(6, workers=2) == shape_census(6)
        assert run_suite("stats", 6, workers=2).checks == 2620
        # The cut is read when the walk is called.
        monkeypatch.setattr(oracle, "_FAN_OUT_MIN_TOTAL", 121)
        assert walk((5,), _read, 2) == [S5]
        assert not fan_outs

    @pytest.mark.usefixtures("split_any_size")
    def test_a_block_moves_the_stream_only_once_read(self, fan_outs):
        # Left partly read or unread, a block still ends where it does, and
        # the next block of the share starts at its own lo.
        assert walk((5,), _first, 2) == [S5[lo] for lo, _ in BLOCKS]
        assert walk((5,), _skip, 2) == [None] * len(BLOCKS)
        assert [processes for _, processes in fan_outs] == [2, 2]

    @pytest.mark.usefixtures("split_any_size")
    def test_a_fault_in_a_gap_is_raised_by_the_next_block(self, fan_outs, monkeypatch):
        # The stream fails at word 60, in block 7 of the child's share: the
        # child meets it in that block, the caller in the gap before its
        # block 8.  The values end before block 9, the child's next.
        def stream(n):
            yield from S5[:60]
            raise RuntimeError("gap")

        monkeypatch.setattr(oracle, "enumerate_sn", stream)
        values = walk((5,), _read_or_fault, 2)
        assert values[:7] == [(S5[lo:hi], None) for lo, hi in BLOCKS[:7]]
        assert values[7:] == [(S5[56:60], "gap"), ([], "gap")]

    @pytest.mark.usefixtures("split_any_size")
    def test_a_stream_of_the_wrong_length_fails_where_it_shows(
        self, fan_outs, monkeypatch
    ):
        # Short: the block that runs out raises once read to its end, after
        # yielding what there was.  Long: the block ending the stream raises.
        # Every other block is whole.
        whole = [(S5[lo:hi], None) for lo, hi in BLOCKS[:-1]]
        for words, fault in [
            (S5[:-1], "the stream ends short of its 120 words"),
            (S5 + S5[:1], "the stream runs past its 120 words"),
        ]:
            monkeypatch.setattr(oracle, "enumerate_sn", lambda n, words=words: iter(words))
            assert walk((5,), _read_or_fault, 2) == whole + [(words[113:120], fault)]

    def test_a_tally_of_the_wrong_length_fails(self, monkeypatch):
        real = oracle.enumerate_sn
        monkeypatch.setattr(oracle, "enumerate_sn", lambda n: iter(list(real(n))[1:]))
        with pytest.raises(RuntimeError, match="ends short of its 120 words"):
            shape_census(5)

    @pytest.mark.usefixtures("split_any_size")
    def test_blocks_are_dealt_round_robin(self, fan_outs):
        # 2 workers x 8 blocks: block t goes to share t mod 2, share 0 to
        # the caller and share 1 to one child process, and the values come
        # back in stream order, covering the stream once.
        values = walk((5,), _owned, 2)
        assert [words for _, words in values] == [S5[lo:hi] for lo, hi in BLOCKS]
        pids = [pid for pid, _ in values]
        assert pids[0] == os.getpid() != pids[1]
        assert pids == [pids[0], pids[1]] * 8
        assert [processes for _, processes in fan_outs] == [2]

    @pytest.mark.usefixtures("split_any_size")
    @pytest.mark.parametrize("stop", [0, 6, 7, 8, 93, 99, 119])
    def test_results_end_at_the_first_block_a_worker_left(self, stop, fan_outs):
        # The worker that meets word ``stop`` in block t stops there, so the
        # values run in order up to block t + 1, the other worker's next,
        # and end before block t + 2, the first without a value.
        t = next(t for t, (lo, hi) in enumerate(BLOCKS) if lo <= stop < hi)
        values = walk((5,), partial(_until, S5[stop]), 2)
        assert values == [S5[lo:hi] for lo, hi in BLOCKS[: t + 2]]

    def test_tallies_of_s7_fan_out_once(self, fan_outs):
        # A count splits under the one rule of every walk: from S_7 on.
        assert distribution(7, "lbsum", workers=2) == distribution(7, "lbsum")
        assert shape_census(7, workers=2) == shape_census(7)
        assert tally(7, len, workers=2) == {7: factorial(7)}
        assert [processes for _, processes in fan_outs] == [2] * 3

    def test_spawn_when_fork_is_missing(self, fan_outs, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )
        assert distribution(7, "lbsum", workers=2) == distribution(7, "lbsum")
        assert shape_census(7, workers=2) == shape_census(7)
        assert fan_outs == [("spawn", 2), ("spawn", 2)]

    @pytest.mark.usefixtures("split_any_size")
    def test_spawned_blocks_match_the_serial_walk(self, fan_outs, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        visit = partial(oracle._tally, oracle.STATISTICS["inv"])
        s6 = list(enumerate_sn(6))
        blocks = split_ranges(720, 2 * oracle._BLOCKS_PER_WORKER)
        serial = [visit(iter(s6[lo:hi]))[0] for lo, hi in blocks]
        assert walk((6,), visit, 2) == serial
        assert fan_outs == [("spawn", 2)]

    @pytest.mark.usefixtures("split_any_size")
    def test_a_child_that_exits_unanswered_raises(self, fan_outs):
        # A pool's map would wait for the lost task forever.
        with _deadline(60):
            with pytest.raises(RuntimeError, match="exited with code 3 before"):
                walk((5,), _exits_past_share_0, 2)
        assert not multiprocessing.active_children()

    @pytest.mark.usefixtures("split_any_size")
    def test_a_fault_in_the_callers_share_ends_the_children(self, fan_outs):
        started = time.monotonic()
        with pytest.raises(ValueError, match="share 0 fails"):
            walk((5,), _fails_in_share_0, 2)
        assert not multiprocessing.active_children()
        assert time.monotonic() - started < 30  # the child's sleep was cut short
        assert [processes for _, processes in fan_outs] == [2]

    @pytest.mark.usefixtures("split_any_size")
    def test_a_childs_exception_is_raised_as_it_was(self, fan_outs):
        # The child's first block starts at word 8 of S_5.
        with pytest.raises(LookupError, match=r"^share from \(1, 3, 4, 2, 5\) fails$"):
            walk((5,), _fails_past_share_0, 2)
        assert not multiprocessing.active_children()


class TestAvoiders:
    def test_classes_match_filter_oracle(self):
        for n in range(7):
            assert sorted(avoiders_132(n)) == naive_avoiders(n, (1, 3, 2))
            assert sorted(avoiders_231(n)) == naive_avoiders(n, (2, 3, 1))

    def test_catalan_sizes(self):
        for n in range(9):
            assert sum(1 for _ in avoiders_132(n)) == catalan(n)
            assert sum(1 for _ in avoiders_231(n)) == catalan(n)

    def test_same_order_as_the_recursive_generator(self):
        for n in range(11):
            assert list(avoiders_132(n)) == list(recursive_avoiders_132(n))


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
        assert list(NAIVE_STATISTICS) == list(oracle.STATISTICS)
        for name, naive in NAIVE_STATISTICS.items():
            for n in range(7):
                assert distribution(n, name).counts == naive_statistic_distribution(
                    n, naive
                )

    def test_unknown_inputs(self):
        with pytest.raises(ValueError):
            distribution(3, "nope")
        with pytest.raises(ValueError):
            distribution(3, "lbsum", avoid="321")
        for n, workers, avoid in [(7.0, 1, None), (True, 1, None), (3, True, None), (3, 1.5, "132")]:
            with pytest.raises(ValueError, match="must be an int"):
                distribution(n, "lbsum", avoid=avoid, workers=workers)

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
