import pytest

from permshape.verify import run_suite


# Every suite that fans out, at a depth where it does: the split run must
# perform exactly the checks of the single-process run.
@pytest.mark.parametrize(
    "name, max_n",
    [
        ("stats", 7),
        ("cp-pattern", 7),
        ("count", 7),
        ("parity", 7),
        ("genfun", 7),
        ("poset", 6),
    ],
)
def test_parallel_suite_matches_serial(name, max_n, pool_requests):
    serial = run_suite(name, max_n, workers=1)
    assert not pool_requests
    parallel = run_suite(name, max_n, workers=2)
    assert pool_requests
    assert serial.passed
    assert (parallel.passed, parallel.checks) == (serial.passed, serial.checks)
