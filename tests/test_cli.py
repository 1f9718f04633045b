import csv
import hashlib
import io
import json
import multiprocessing
import os
import pathlib
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

import permshape
from permshape import genfun, oracle, verify
from permshape.cli import MAP_MAX_N, main, map_report, predicted_distribution
from permshape.permutations import parse_permutation
from permshape.shapes import dyck_word


# A child interpreter imports the package under test, installed or not.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(pathlib.Path(permshape.__file__).resolve().parent.parent),
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "permshape", *args],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


class TestMap:
    def test_running_example(self, capsys):
        assert main(["map", "53148276"]) == 0
        out = capsys.readouterr().out
        assert "shape: 7,5,5,2,1,1,0" in out
        assert "dyck_word: uuruururrruurrur" in out
        assert "left_borders: 0,1,2,1,0,5,5,7" in out

    def test_singleton(self, capsys):
        assert main(["map", "1"]) == 0
        assert "dyck_word: ur" in capsys.readouterr().out

    def test_identity_shape(self, capsys):
        assert main(["map", "123"]) == 0
        assert "shape: 0,0" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["map", "53148276", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["shape"] == "7,5,5,2,1,1,0"
        assert data["tableau"]["row_labels"] == [2, 4, 3, 6, 7, 8]

    def test_long_increasing_word(self, capsys):
        assert main(["map", ",".join(map(str, range(1, 1501)))]) == 0
        assert "dyck_word: " + "u" * 1500 + "r" * 1500 in capsys.readouterr().out

    def test_size_cap_admits_its_limit(self, capsys):
        word = ",".join(map(str, range(1, MAP_MAX_N + 1)))
        assert main(["map", word, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["shape"] == ",".join(["0"] * (MAP_MAX_N - 1))

    def test_size_cap_rejects_one_more(self, capsys):
        n = MAP_MAX_N + 1
        assert main(["map", ",".join(map(str, range(1, n + 1)))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: map supports n <= {MAP_MAX_N}, got n={n}\n"

    # sha256 of the whole `map --format json` output, pinned so that any
    # change in the bytes shows; words at n > 8 are seeded shuffles.
    @pytest.mark.parametrize(
        "n, digest",
        [
            (None, "d5a7f859af13bf495f04a66c456f41a1767ca32401a64105a624eb2d4537cd65"),
            (9, "5a706947e3f851c64aaa5c37926ff3cca2871f305f2621a8cbc59ebb817a450f"),
            (63, "d40ad8d163422e2052f6765eb4efe2ad98301234474fa75b3a423bcdd6c921e6"),
            (64, "3e9bbed1286b35effc2a14683b471619edf910efc41aa8f5d5651591ef183ece"),
            (65, "4a88346c9165d2be0038254f791f3aa20fce5afc3c93a28df545eea8066427b4"),
        ],
        ids=["53148276", "n9", "n63", "n64", "n65"],
    )
    def test_json_bytes_pinned(self, n, digest, capsys):
        if n is None:
            text = "53148276"
        else:
            entries = list(range(1, n + 1))
            random.Random(n).shuffle(entries)
            text = ",".join(map(str, entries))
        assert main(["map", text, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_parse_error_exit_code(self):
        proc = run_cli("map", "3,5,9,4")
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert proc.stdout == ""

    def test_report_roundtrip(self):
        report = map_report(parse_permutation("53148276"))
        from permshape.tableaux import decode_tableau, tableau_from_json

        assert decode_tableau(tableau_from_json(report["tableau"])).entries == (
            5, 3, 1, 4, 8, 2, 7, 6,
        )


class TestDist:
    def test_lbsum_rows(self, capsys):
        assert main(["dist", "--n", "3", "--stat", "lbsum"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == ["0      1", "1      1", "2      3", "3      1"]

    def test_check_match(self, capsys):
        assert main(["dist", "--n", "5", "--stat", "lbsum", "--check"]) == 0
        assert "match" in capsys.readouterr().out

    def test_parity_summary(self, capsys):
        assert main(["dist", "--n", "7", "--stat", "lbsum", "--parity"]) == 0
        assert "delta=272" in capsys.readouterr().out

    def test_shape_spot_value(self, capsys):
        assert (
            main(
                [
                    "dist",
                    "--n", "8",
                    "--stat", "shape",
                    "--shape", "7,5,5,2,1,1,0",
                    "--check",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "70" in out and "match" in out

    def test_avoider_check(self, capsys):
        assert (
            main(["dist", "--n", "6", "--stat", "lbsum", "--avoid", "132", "--check"])
            == 0
        )
        assert "match" in capsys.readouterr().out

    def test_unpredictable_combination(self, capsys):
        assert main(["dist", "--n", "4", "--stat", "maj", "--check"]) == 2

    @pytest.mark.parametrize(
        "n, message",
        [
            (
                "9",
                "no generating-polynomial prediction for statistic 'maj' with filter None",
            ),
            ("12", "full enumeration supports 0 <= n <= 11"),
        ],
    )
    def test_a_check_without_prediction_fails_before_the_walk(
        self, n, message, capsys, monkeypatch
    ):
        # A bad n is named first, then the missing prediction, and S_n is
        # never walked.
        def refuse(*args, **kwargs):
            raise AssertionError("the distribution was walked")

        monkeypatch.setattr(oracle, "distribution", refuse)
        assert main(["dist", "--n", n, "--stat", "maj", "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_csv_format(self, capsys):
        assert main(["dist", "--n", "3", "--stat", "des", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "value,count"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--stat", "shape", "--avoid", "132"], "--avoid does not apply to --stat shape"),
            (["--stat", "shape", "--parity"], "--parity does not apply to --stat shape"),
            (
                ["--stat", "lbsum", "--shape", "2,1,0"],
                "--shape applies only to --stat shape, not to --stat lbsum",
            ),
        ],
        ids=["shape-avoid", "shape-parity", "lbsum-shape"],
    )
    def test_ignored_option_rejected(self, extra, message, capsys, no_fan_out):
        assert main(["dist", "--n", "4", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("text, token", [(",", "''"), ("1,x", "'x'")])
    def test_bad_shape_token_is_named(self, text, token, capsys):
        args = ["dist", "--n", "3", "--stat", "shape", "--shape", text]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: non-integer part {token}\n"

    def test_json_stable_under_reruns(self, capsys):
        args = ["dist", "--n", "5", "--stat", "lbsum", "--format", "json", "--check"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        data = json.loads(first)
        assert data["check"]["match"] is True


class TestPredictions:
    def test_lbsum_prediction(self):
        from permshape.oracle import distribution

        assert predicted_distribution(6, "lbsum", None) == distribution(6, "lbsum").counts

    def test_marginals(self):
        from permshape.oracle import distribution

        for stat in ("des", "maxdes", "lrmax"):
            assert (
                predicted_distribution(6, stat, None)
                == distribution(6, stat).counts
            )

    def test_avoider_predictions(self):
        from permshape.oracle import distribution

        assert (
            predicted_distribution(7, "lbsum", "231")
            == distribution(7, "lbsum", avoid="231").counts
        )
        assert (
            predicted_distribution(7, "inv", "132")
            == distribution(7, "inv", avoid="132").counts
        )

    def test_no_prediction(self):
        assert predicted_distribution(4, "inv", "231") is None
        assert predicted_distribution(4, "maj", None) is None


# sha256 of the whole stdout of `dist` and `verify`, pinned so that any change
# in the bytes of any format shows.  The verify report's `seconds` are zeroed
# and the report re-dumped with the writer's own settings.
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["dist", "--n", "7", "--stat", "lbsum", "--check", "--parity"],
            "14f950bc7d155d0147e829f7b01c12076aa8007686fe6c8b251a9ae87e46d206",
        ),
        (
            ["dist", "--n", "7", "--stat", "lbsum", "--check", "--parity", "--format", "json"],
            "38744b1afca4b3fe16fbd8a262178608af91f9c91beae9b201614734a7f1246a",
        ),
        (
            ["dist", "--n", "7", "--stat", "lbsum", "--check", "--parity", "--format", "csv"],
            "62a6e3f4f900a5b4d35d68eaf2a535011a8cac5f93623ad24db5feca69a790d6",
        ),
        (
            ["dist", "--n", "6", "--stat", "shape", "--check", "--format", "json"],
            "08d4f057838de2a03c6ecad6015eafb4d0d70257ecf5ef5e39fa613357153207",
        ),
        (
            ["dist", "--n", "6", "--stat", "shape", "--check", "--format", "csv"],
            "3c43b5caaedb379e3d2366e6ee87a6e2bea0e7b971cbc54d5301aeba45da7278",
        ),
        (
            ["dist", "--n", "6", "--stat", "inv", "--avoid", "132", "--check", "--format", "json"],
            "65edf68f4f09f94c0ddbf50ec37c7969d6bf7a53addc8c407ae7ff1f39e2d4ee",
        ),
        (
            ["verify", "all", "--max-n", "5", "--format", "json"],
            "d037939be9a18065beff8500f7f3c58708abf2ed958beaba5cd484c58a18791f",
        ),
    ],
    ids=[
        "lbsum-plain",
        "lbsum-json",
        "lbsum-csv",
        "shape-json",
        "shape-csv",
        "inv-avoid132-json",
        "verify-json",
    ],
)
def test_output_bytes_pinned(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "verify":
        report = json.loads(out)
        for suite in report["suites"]:
            suite["seconds"] = 0
        out = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# A dist of S_7 splits its tally once at 2 workers and prints the bytes of
# the 1-worker run, in every format.
@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize(
    "args",
    [["--stat", "lbsum", "--parity", "--check"], ["--stat", "shape", "--check"]],
    ids=["lbsum", "shape"],
)
def test_dist_bytes_agree_across_workers(args, fmt, fan_outs, capsys):
    outs = []
    for workers in ("1", "2"):
        argv = ["dist", "--n", "7", *args, "--format", fmt, "--workers", workers]
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert [processes for _, processes in fan_outs] == [2]


# The shape rows are sorted by parts, and keep the order of their texts at
# every n that dist accepts, where each part is a single digit.
@pytest.mark.parametrize("n", range(10))
def test_shape_rows_sort_as_their_texts(n, capsys):
    assert main(["dist", "--n", str(n), "--stat", "shape", "--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    texts = [text for text, _ in rows]
    assert header == ["value", "count"]
    assert texts == sorted(texts) and len(texts) == comb(2 * n, n) // (n + 1)


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [["dist", "--n", "7", "--stat", "lbsum"], ["verify", "stats", "--max-n", "7"]],
    ids=["dist", "verify"],
)
def test_workers_below_one_rejected(argv, workers, capsys, no_fan_out):
    assert main([*argv, "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --workers must be at least 1, got {workers}\n"


def test_negative_max_n_rejected(capsys, no_fan_out):
    assert main(["verify", "stats", "--max-n", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-n must be at least 0, got -3\n"


class TestSeriesOrder:
    @pytest.fixture
    def suites_run(self, monkeypatch):
        ran = []
        real = verify.run_suite

        def recording(name, *args, **kwargs):
            ran.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(verify, "run_suite", recording)
        return ran

    @pytest.mark.parametrize("order", ["0", "11"])
    def test_rejected_before_any_suite_runs(self, order, suites_run, capsys):
        assert main(["verify", "all", "--order", order]) == 2
        assert suites_run == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: series order must be in 1..10, got {order}\n"

    def test_ignored_without_the_series_suite(self, suites_run, capsys):
        assert main(["verify", "stats", "--max-n", "3", "--order", "11"]) == 0
        assert suites_run == ["stats"]
        assert "PASS stats" in capsys.readouterr().out


class TestVerify:
    def test_selection_runs(self, capsys):
        assert main(["verify", "parity", "series", "--max-n", "4", "--order", "4"]) == 0
        out = capsys.readouterr().out
        assert "PASS parity" in out and "PASS series" in out
        assert out.strip().endswith("result: ok")

    def test_json_report(self, capsys):
        assert (
            main(["verify", "count", "--max-n", "4", "--format", "json"]) == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["suites"][0]["name"] == "count"

    def test_poset_suite(self, capsys):
        assert main(["verify", "poset", "--max-n", "5", "--workers", "2"]) == 0
        assert "PASS poset" in capsys.readouterr().out

    def test_all_suites_when_none_is_named(self, capsys):
        assert main(["verify", "--max-n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines if line.startswith("PASS ")] == [
            ["PASS", name] for name in verify.SUITE_NAMES
        ]
        assert len(verify.SUITE_NAMES) == 10 and lines[-1] == "result: ok"

    def test_unknown_suite_rejected(self):
        proc = run_cli("verify", "everything")
        assert proc.returncode == 2

    def test_end_to_end_subprocess(self):
        proc = run_cli("verify", "shapes", "--max-n", "4")
        assert proc.returncode == 0
        assert "PASS shapes" in proc.stdout


# A self-check whose own two routes disagree raises ValueError where it is
# built; inside a suite that is a failed check (FAIL, exit 1), never a usage
# error (exit 2).
class TestSelfCheckDisagreement:
    def run_failing(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out.splitlines()

    def test_moments(self, monkeypatch, capsys):
        real = verify.moments

        def disagreeing(n):
            report = real(n)
            if n != 7:
                return report
            return replace(report, mean_from_recursion=report.mean + 1)

        monkeypatch.setattr(verify, "moments", disagreeing)
        lines = self.run_failing(["verify", "genfun", "--max-n", "7"], capsys)
        assert lines[0].startswith("FAIL genfun")
        assert lines[1].startswith(
            "     first counterexample: mean routes disagree at n=7: "
        )
        assert lines[2:] == ["result: FAILED"]

    def test_moment_recursion(self, monkeypatch, capsys):
        real = genfun.factorial
        monkeypatch.setattr(genfun, "_moment_cache", ([1], [0], [0]))
        monkeypatch.setattr(genfun, "factorial", lambda m: real(m) + (m == 5))
        lines = self.run_failing(["verify", "genfun", "--max-n", "4"], capsys)
        assert lines[0].startswith("FAIL genfun")
        assert lines[1:] == [
            "     first counterexample: recursion mass check failed",
            "result: FAILED",
        ]

    def test_tangent_numbers(self, monkeypatch, capsys):
        monkeypatch.setattr(
            genfun, "_tanh_series", lambda order: [Fraction(1, 3)] * (order + 1)
        )
        lines = self.run_failing(["verify", "parity", "--max-n", "4"], capsys)
        assert lines[0].startswith("FAIL parity      checks=8 ")
        assert lines[1:] == [
            "     first counterexample: tangent coefficient is not integral",
            "result: FAILED",
        ]

    def test_minimal_filling(self, monkeypatch, capsys):
        # The full filling of shape (2, 1) less its dot (1, 2) decodes to
        # 2,3,1, whose shape is (2, 0); the fillings of (2, 1) are checked
        # at (3, 2, 1), the word whose filling is full.
        real = verify._min_mask

        def broken(layout):
            if layout.shape.parts != (2, 1):
                return real(layout)
            # The full filling less its lowest dot, (1, 2).
            return layout.allowed & (layout.allowed - 1)

        monkeypatch.setattr(verify, "_min_mask", broken)
        lines = self.run_failing(["verify", "tableau", "--max-n", "3"], capsys)
        assert lines[0].startswith("FAIL tableau")
        assert lines[1:] == [
            "     first counterexample: inconsistent filling: "
            "host shape differs from the decoded shape at (3, 2, 1)",
            "result: FAILED",
        ]

    def test_parity_table(self, monkeypatch, capsys):
        real = verify.parity_table

        def disagreeing(n_max):
            table = real(n_max)
            delta = list(table.delta)
            delta[3] += 1
            return replace(table, delta=tuple(delta))

        monkeypatch.setattr(verify, "parity_table", disagreeing)
        lines = self.run_failing(["verify", "parity", "--max-n", "4"], capsys)
        assert lines[0].startswith("FAIL parity      checks=1 ")
        assert lines[1:] == [
            "     first counterexample: delta disagrees with even - odd at n=3",
            "result: FAILED",
        ]


# A fault of the library raised inside a suite, in this process or in a
# worker process, is that suite's one failed check: FAIL and exit 1 with the
# same checks and message at any worker count, never a usage error (exit 2)
# or a traceback.  Three faults hit the last word of S_7, which a 2-worker
# walk reaches in its second share, a child's.  Each plant calls ``met()``
# in the process where its fault fires.
LAST = (7, 6, 5, 4, 3, 2, 1)


def _non_dyck_path(real, met):
    def fake(word):
        if word != LAST:
            return real(word)
        met()
        return "r" + real(word)[1:]

    return fake


def _no_border_sequence(real, met):
    def fake(s):
        if s.parts == (6, 5, 4, 3, 2, 1):
            met()
            raise ValueError(f"shape {s} admits no border sequence")
        return real(s)

    return fake


def _overlapping_tiles(real, met):
    def fake(parts):
        tiles = real(parts)
        if len(parts) < 6:  # only the shapes of S_7 have 6 parts
            return tiles
        met()
        return tiles + tiles[:1]

    return fake


def _index_error(real, met):
    target = dyck_word(LAST)

    def fake(path):
        if path == target:
            met()
            return ()[0]  # IndexError: tuple index out of range
        return real(path)

    return fake


# A fault raised inside a per-word check names the word being checked.  Per
# fault: the suite, the name planted, the plant, the fan-outs of a 2-worker
# run, whether the fault fires in a child there, and the first counterexample.
# Count's fault, planted in the shapes of S_7, is in the tiling check, which
# runs in the caller on the merged census: the census of S_7 fans out, and
# the fault still fires in the caller.
LIBRARY_FAULTS = {
    "dyck-word": (
        "shapes",
        "dyck_word",
        _non_dyck_path,
        1,
        True,
        f"not a Dyck word: 'rrurururururur' at {LAST}",
    ),
    "borders-from-shape": (
        "shapes",
        "borders_from_shape",
        _no_border_sequence,
        1,
        True,
        f"shape 6,5,4,3,2,1 admits no border sequence at {LAST}",
    ),
    "rectangle-overlap": (
        "count",
        "_rectangles",
        _overlapping_tiles,
        1,
        False,
        "rectangles overlap at (1, 1)",
    ),
    "valleys-index-error": (
        "shapes",
        "_valleys",
        _index_error,
        1,
        True,
        f"tuple index out of range at {LAST}",
    ),
}


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
@pytest.mark.parametrize("fault", list(LIBRARY_FAULTS))
def test_library_fault_is_a_failed_check(
    fault, fan_outs, monkeypatch, capsys, tmp_path
):
    suite, name, plant, fanned, in_child, message = LIBRARY_FAULTS[fault]
    log = tmp_path / "met"

    def met():
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")

    monkeypatch.setattr(verify, name, plant(getattr(verify, name), met))
    runs, meeting = [], []
    for workers in ("1", "2"):
        log.write_text("")
        assert main(["verify", suite, "--max-n", "7", "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        status, *rest = captured.out.splitlines()
        assert status.startswith(f"FAIL {suite}")
        assert rest == [f"     first counterexample: {message}", "result: FAILED"]
        runs.append(re.sub(r" [0-9.]+s$", "", status))  # the line less its seconds
        meeting.append(set(log.read_text().split()))
    assert runs[0] == runs[1]
    assert [processes for _, processes in fan_outs] == [2] * fanned
    # The processes where the fault fired: this one alone, unless it fires
    # in a child, where only a child met it.
    me = str(os.getpid())
    assert meeting[0] == {me}
    assert meeting[1] and (me not in meeting[1] if in_child else meeting[1] == {me})


def test_quiet_exit_when_the_reader_leaves_early():
    # The read end is closed before the child writes anything, so its output
    # meets a broken pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "permshape", "verify", "shapes", "--max-n", "5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, "")
