"""
Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured timings.  Criterion 14 includes a parallel-speedup measurement that
needs several physical CPU cores to have any chance of passing.
"""
import os
import pathlib
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

import permshape.verify as verify
from permshape.bruhat import bruhat_leq, bruhat_lt, shape_contains, verify_poset_equivalence
from permshape.cli import map_report
from permshape.genfun import (
    lbsum_polynomial,
    moments,
    parity_table,
    q_catalan,
    q_catalan_alt,
    quad_polynomial,
    verify_series_identities,
)
from permshape.oracle import avoiders_132, distribution, enumerate_sn, shape_census
from permshape.permutations import (
    Permutation,
    contains_231,
    count_pattern_word,
    descent_positions,
    inversion_count,
    left_borders,
    lr_maxima_count,
    parse_permutation,
    stat_vector,
)
from permshape.shapes import ShapePartition, count_permutations_with_shape, shape
from permshape.tableaux import (
    bijection_132_to_231,
    count_132_from_tableau,
    decode_tableau,
    encode_tableau,
    max_filling,
    min_filling,
    tableau_from_json,
)

# A child interpreter imports the package under test, installed or not.
SOURCE = str(pathlib.Path(verify.__file__).resolve().parent.parent)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:>2}: {label}")
        raise
    print(f"PASS criterion {number:>2}: {label}")


def test_criterion_01_running_example():
    with criterion(1, "running example map 53148276, < 1 ms"):
        report = map_report(parse_permutation("53148276"))  # warm-up
        started = time.perf_counter()
        report = map_report(parse_permutation("53148276"))
        decoded = decode_tableau(tableau_from_json(report["tableau"]))
        elapsed = time.perf_counter() - started
        assert report["shape"] == "7,5,5,2,1,1,0"
        assert report["left_borders"] == [0, 1, 2, 1, 0, 5, 5, 7]
        assert report["dyck_word"] == "uuruururrruurrur"
        assert len(report["dyck_word"]) == 16
        assert decoded.entries == (5, 3, 1, 4, 8, 2, 7, 6)
        assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"


def test_criterion_02_statistic_correspondences():
    with criterion(2, "five statistic correspondences over S_n, n <= 9, < 30 s"):
        started = time.perf_counter()
        result = verify.run_suite("stats", 9, workers=1)
        elapsed = time.perf_counter() - started
        assert result.passed, result.failures
        assert result.checks >= sum(factorial(n) for n in range(10))
        assert elapsed < 30, f"took {elapsed:.1f} s"


def test_criterion_03_border_sum_identity():
    with criterion(3, "border sum = inversions + barred count, n <= 8, < 10 s"):
        started = time.perf_counter()
        result = verify.run_suite("cp-pattern", 8, workers=1)
        elapsed = time.perf_counter() - started
        assert result.passed, result.failures
        assert elapsed < 10, f"took {elapsed:.1f} s"


def test_criterion_04_counting_formula():
    with criterion(4, "census = binomial product for every shape, n <= 8, < 10 s"):
        started = time.perf_counter()
        result = verify.run_suite("count", 8, workers=1)
        assert result.passed, result.failures
        census = shape_census(8)
        assert census[(7, 5, 5, 2, 1, 1, 0)] == 70
        assert (
            count_permutations_with_shape(
                ShapePartition.from_text("7,5,5,2,1,1,0")
            )
            == 70
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 10, f"took {elapsed:.1f} s"


def test_criterion_05_parity_three_routes():
    with criterion(5, "parity: recursion, enumeration and F_n(-1) agree"):
        table = parity_table(8)
        for n in (2, 4, 6, 8):
            even, odd = distribution(n, "lbsum").parity_split()
            assert even == odd == factorial(n) // 2
        assert table.delta[1:8:2] == (1, 2, 16, 272)
        for n in range(8):
            even, odd = distribution(n, "lbsum").parity_split()
            assert even - odd == table.delta[n]
        for n in range(8):
            assert lbsum_polynomial(n).evaluate(-1) == table.delta[n]


def test_criterion_06_area_polynomial():
    with criterion(6, "F_n = enumerated distribution (n <= 9); F_n(1) = n! (n <= 20)"):
        for n in range(10):
            assert lbsum_polynomial(n).to_counts() == distribution(n, "lbsum").counts
        for n in range(21):
            assert lbsum_polynomial(n).evaluate(1) == factorial(n)


def test_criterion_07_moments():
    with criterion(7, "moment closed forms exact for 2 <= n <= 50, < 5 s"):
        started = time.perf_counter()
        for n in range(2, 51):
            moments(n)  # raises on any route disagreement
        assert moments(2).mean == Fraction(1, 2)
        assert moments(2).variance == Fraction(1, 4)
        assert moments(3).mean == Fraction(5, 3)
        elapsed = time.perf_counter() - started
        assert elapsed < 5, f"took {elapsed:.1f} s"


def test_criterion_08_joint_distribution():
    with criterion(8, "G_n matches the joint distribution, n <= 8; G_2 = 1 + xypq"):
        assert quad_polynomial(2).terms() == [
            ((0, 0, 0, 0), 1),
            ((1, 1, 1, 1), 1),
        ]
        for n in range(9):
            truth = {}
            for word in enumerate_sn(n):
                descents = descent_positions(word)
                key = (
                    sum(left_borders(word)),
                    len(descents),
                    descents[-1] if descents else 0,
                    n - lr_maxima_count(word),
                )
                truth[key] = truth.get(key, 0) + 1
            assert dict(quad_polynomial(n).terms()) == truth


def test_criterion_09_series_identities():
    with criterion(9, "functional equation to z^8 and tanh match to z^9, < 10 s"):
        started = time.perf_counter()
        report = verify_series_identities(9)
        elapsed = time.perf_counter() - started
        assert report.equation_status == (True,) * 9
        assert report.tanh_status == (True,) * 10
        from permshape.genfun import series_g

        values = series_g(9).evaluate_coefficients(
            Fraction(-1), Fraction(1), Fraction(1), Fraction(1)
        )
        assert values[3] == Fraction(-1, 3)
        assert values[5] == Fraction(2, 15)
        assert values[7] == Fraction(-17, 315)
        assert elapsed < 10, f"took {elapsed:.1f} s"


def test_criterion_10_q_catalan():
    with criterion(10, "q-Catalan = avoider inversions (n <= 10); reversal (n <= 15)"):
        for n in range(11):
            counts = {}
            for word in avoiders_132(n):
                v = inversion_count(word)
                counts[v] = counts.get(v, 0) + 1
            assert q_catalan(n).to_counts() == counts
        for n in range(16):
            assert q_catalan_alt(n) == q_catalan(n).reversed_on_degree(comb(n, 2))


def test_criterion_11_tableau_codec():
    with criterion(11, "tableau round trip/injectivity (8); fillings (9); counts (8)"):
        for n in range(9):
            seen = set()
            for word in enumerate_sn(n):
                t = encode_tableau(Permutation(word))
                assert decode_tableau(t).entries == word
                seen.add((t.shape.parts, t.mask))
            assert len(seen) == factorial(n)
        from permshape.oracle import all_shapes
        from permshape.permutations import contains_132

        for n in range(10):
            for s in all_shapes(n):
                assert not contains_231(decode_tableau(min_filling(s)).entries)
                assert not contains_132(decode_tableau(max_filling(s)).entries)
        for n in range(9):
            for word in enumerate_sn(n):
                t = encode_tableau(Permutation(word))
                assert count_132_from_tableau(t) == count_pattern_word(
                    word, (1, 3, 2)
                )


def test_criterion_12_bijection():
    with criterion(12, "shape-preserving bijection on S_n(1-3-2), n <= 10, < 10 s"):
        started = time.perf_counter()
        for n in range(11):
            image = set()
            for word in avoiders_132(n):
                target = bijection_132_to_231(Permutation(word))
                assert not contains_231(target.entries)
                sv, tv = stat_vector(word), stat_vector(target.entries)
                assert (sv.des, sv.maj, sv.lrmax, sv.maxdes, sv.lbsum) == (
                    tv.des, tv.maj, tv.lrmax, tv.maxdes, tv.lbsum,
                )
                image.add(target.entries)
            assert len(image) == catalan(n)
        assert len(image) == 16796  # n = 10
        elapsed = time.perf_counter() - started
        assert elapsed < 10, f"took {elapsed:.1f} s"


def test_criterion_13_poset_equivalence():
    with criterion(13, "containment <=> Bruhat on avoiders (n <= 7) + reference pairs"):
        for n in range(2, 8):
            report = verify_poset_equivalence(n)
            assert report.equivalence_holds, report.counterexamples[:1]
        p1243, p1423 = Permutation((1, 2, 4, 3)), Permutation((1, 4, 2, 3))
        assert bruhat_lt(p1243, p1423)
        assert not shape_contains(shape(p1243), shape(p1423))
        assert not shape_contains(shape(p1423), shape(p1243))
        p1342, p2143 = Permutation((1, 3, 4, 2)), Permutation((2, 1, 4, 3))
        assert shape_contains(shape(p1342), shape(p2143), strict=True)
        assert not bruhat_leq(p1342, p2143)
        assert not bruhat_leq(p2143, p1342)


def test_criterion_14a_verify_all_exits_clean():
    with criterion(14, "verify all --max-n 7 exits 0 in under 2 minutes"):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "permshape", "verify", "all", "--max-n", "7"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SOURCE},
        )
        elapsed = time.perf_counter() - started
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert elapsed < 120, f"took {elapsed:.1f} s"


def test_criterion_14b_parallel_speedup():
    """Needs several physical cores; a single-core host cannot pass this."""
    with criterion(14, "workers=8 gives >= 3x speedup on the n=9 stats suite"):
        started = time.perf_counter()
        serial = verify.run_suite("stats", 9, workers=1)
        serial_seconds = time.perf_counter() - started
        started = time.perf_counter()
        parallel = verify.run_suite("stats", 9, workers=8)
        parallel_seconds = time.perf_counter() - started
        # Merge equality: the split run performs exactly the same checks.
        assert parallel.passed == serial.passed
        assert parallel.checks == serial.checks
        speedup = serial_seconds / parallel_seconds
        assert speedup >= 3.0, (
            f"speedup {speedup:.2f}x (serial {serial_seconds:.1f} s, "
            f"parallel {parallel_seconds:.1f} s, cpu_count={os.cpu_count()})"
        )
