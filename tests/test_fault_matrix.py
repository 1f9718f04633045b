"""
Every check of the verify suites can fail.  For each ``require`` message
template in ``verify.py`` one planted fault, a single name patched in
``verify``'s namespace or in one library module's, makes that check the
suite's first and only failure, with the same checks and message at
``--workers`` 1 and 2.  An ``ast`` scan keeps the table complete, and every
message a literal template.
"""
import ast
import multiprocessing
import pathlib
import re
from dataclasses import replace
from itertools import chain, repeat

import pytest

from permshape import bruhat, genfun, oracle, permutations, tableaux, verify
from permshape.genfun import QuadPolynomial, UniPolynomial
from permshape.permutations import Permutation
from permshape.verify import run_suite

FIRST, LAST, SIX = (1, 2, 3, 4, 5, 6, 7), (7, 6, 5, 4, 3, 2, 1), (1, 2, 3, 4, 5, 6)
# Two words of one shape, (2, 2, 0, 0, 0, 0), in blocks 4 and 3 of the 16
# blocks of the S_0..S_7 stream, which a 2-worker walk deals to different
# workers, so their tableaux are collected apart.
TWIN, TWIN_EARLY = (2, 4, 1, 3, 5, 6, 7), (1, 4, 2, 3, 5, 6, 7)
FORK = "fork" in multiprocessing.get_all_start_methods()


def _where(hit, change):
    """A kernel whose value goes through ``change`` on the calls ``hit`` picks."""

    def plant(real):
        def fake(*args, **kwargs):
            value = real(*args, **kwargs)
            return change(value) if hit(*args, **kwargs) else value

        return fake

    return plant


def _at(*planted):
    """Pick the calls whose first argument is one of ``planted``."""
    return lambda first, *args, **kwargs: first in planted


def _identity_columns(columns):
    """Pick the column split of FIRST's tableau, which holds no dot."""
    return len(columns) == 7 and not any(columns)


def _plus_one(value):
    return value + 1


def _rotated_at_root(tree):
    """The tree rotated at its root: the in-order walk stays, the parents move."""
    top = tree.root
    lifted = tree.left[top]
    left, right = list(tree.left), list(tree.right)
    left[top], right[lifted] = right[lifted], top
    return replace(tree, left=tuple(left), right=tuple(right), root=lifted)


def _stale_mask(real):
    """
    TWIN's tableau reads as its own mask until the walk takes its image key,
    after the column split, the corner test and the full-filling test, and
    as the mask of TWIN_EARLY, a word of the same shape, at the key: every
    per-word check passes, and two words share one image.
    """

    def fake(word, shapes):
        t = real(word, shapes)
        if word != TWIN:
            return t
        masks = chain(repeat(t.mask, 3), repeat(real(TWIN_EARLY, shapes).mask))

        class Stale(tableaux.FilledTableau):
            mask = property(lambda self: next(masks))

        return Stale._from_mask(t._shape_layout, t.mask)

    return fake


def _merged_census(census):
    """The census of S_2 with its two shapes counted as one."""
    return {(0,): sum(census.values())}


def _consistent_mean_shift(report):
    """The mean one too high, past the check of its two routes in ``moments``."""
    return replace(report, mean=report.mean + 1)


def _top_term_raised(f):
    """The polynomial with its top term moved up one degree."""
    top = UniPolynomial({f.degree: f.coefficient(f.degree)})
    return f - top + top.shifted(1)


def _swapped_y_q(g):
    return QuadPolynomial({(x, q, p, y): c for (x, y, p, q), c in g.terms()})


P1342, P2143 = Permutation((1, 3, 4, 2)), Permutation((2, 1, 4, 3))

# template -> (suite, max_n, module, name, plant, the one failure it causes).
# The ranged suites run at max_n 7, where a 2-worker walk fans out.
MATRIX = {
    # stats
    "{} at {}": (
        "stats", 7, verify, "descent_positions",
        _where(_at(FIRST), lambda descents: (1,)),
        f"distinct nonzero parts != des at {FIRST}",
    ),
    "in-order traversal broken at {}": (
        "stats", 7, verify, "decreasing_tree_word",
        lambda real: lambda word: real(LAST if word == FIRST else word),
        f"in-order traversal broken at {FIRST}",
    ),
    "tree parent law fails at {}": (
        "stats", 7, verify, "decreasing_tree_word",
        _where(_at(FIRST), _rotated_at_root),
        f"tree parent law fails at {FIRST}",
    ),
    # cp-pattern
    "border-sum identity fails at {}": (
        "cp-pattern", 7, verify, "inversion_count",
        _where(_at(FIRST), _plus_one),
        f"border-sum identity fails at {FIRST}",
    ),
    "windowed and naive barred counts differ at {}": (
        "cp-pattern", 7, verify, "_naive_barred_132",
        _where(_at(SIX), _plus_one),
        f"windowed and naive barred counts differ at {SIX}",
    ),
    "border sum != inversions for 1-3-2-avoider {}": (
        "cp-pattern", 7, oracle, "avoiders_132",
        _where(_at(3), lambda words: chain(words, [(1, 3, 2)])),
        "border sum != inversions for 1-3-2-avoider (1, 3, 2)",
    ),
    # shapes
    "path shape != border shape at {}": (
        "shapes", 7, verify, "left_borders",
        _where(_at(FIRST), lambda a: tuple(v + 1 for v in a)),
        f"path shape != border shape at {FIRST}",
    ),
    "border reconstruction fails at {}": (
        "shapes", 7, verify, "borders_from_shape",
        _where(lambda s: s.parts == (0,) * 6, lambda a: a[:-1] + (1,)),
        f"border reconstruction fails at {FIRST}",
    ),
    "valleys != doubled descents at {}": (
        "shapes", 7, verify, "_valleys",
        _where(_at("u" * 7 + "r" * 7), lambda valleys: valleys + (2,)),
        f"valleys != doubled descents at {FIRST}",
    ),
    "first return != twice the max position at {}": (
        "shapes", 7, verify, "_first_return",
        _where(_at("u" * 7 + "r" * 7), lambda step: step - 2),
        f"first return != twice the max position at {FIRST}",
    ),
    "paths of 2-3-1-avoiders are not all Dyck words at n={}": (
        "shapes", 7, oracle, "avoiders_231",
        _where(_at(2), lambda words: (w for w in words if w != (2, 1))),
        "paths of 2-3-1-avoiders are not all Dyck words at n=2",
    ),
    # count
    "census of S_{} does not sum to {}!": (
        "count", 3, oracle, "shape_census",
        _where(_at(2), lambda census: {**census, (0,): census[(0,)] + 1}),
        "census of S_2 does not sum to 2!",
    ),
    "census of S_{} has {} shapes, expected {}": (
        "count", 3, oracle, "shape_census",
        _where(_at(2), _merged_census),
        "census of S_2 has 1 shapes, expected 2",
    ),
    # One tiling per shape feeds the product and the tiling check; (1,) is
    # the first shape with a tile, the one of shape '1' at n = 2.
    "binomial product != census count for shape '{}' (n={})": (
        "count", 3, verify, "_rectangle_count",
        _where(lambda tiles: tiles == [(1, 1, 1, 1)], _plus_one),
        "binomial product != census count for shape '1' (n=2)",
    ),
    "rectangles do not tile shape '{}' one per corner": (
        "count", 3, verify, "_rectangles",
        _where(_at((1,)), lambda tiles: []),
        "rectangles do not tile shape '1' one per corner",
    ),
    # tableau
    "round trip broken at {}": (
        "tableau", 7, verify, "_decode_word",
        _where(_identity_columns, lambda word: word[::-1]),
        f"round trip broken at {FIRST}",
    ),
    "tableau 1-3-2 count wrong at {}": (
        "tableau", 7, verify, "_count_132_231_from_columns",
        _where(_identity_columns, lambda c: (c[0] + 1, c[1])),
        f"tableau 1-3-2 count wrong at {FIRST}",
    ),
    "tableau 2-3-1 count wrong at {}": (
        "tableau", 7, verify, "_count_132_231_from_columns",
        _where(_identity_columns, lambda c: (c[0], c[1] + 1)),
        f"tableau 2-3-1 count wrong at {FIRST}",
    ),
    "minimal filling of {} decodes to a 2-3-1 container {}": (
        "tableau", 7, verify, "contains_231",
        _where(_at((2, 1)), lambda found: True),
        "minimal filling of 1 decodes to a 2-3-1 container 2,1",
    ),
    "full filling of {} decodes to a 1-3-2 container {}": (
        "tableau", 7, verify, "contains_132",
        _where(_at((2, 1)), lambda found: True),
        "full filling of 1 decodes to a 1-3-2 container 2,1",
    ),
    # decode_tableau rejects a filling whose decoded shape differs, so only
    # the suite's own reading of the shape can break this check.
    "extreme fillings of {} do not preserve the shape": (
        "tableau", 7, verify, "shape_parts",
        _where(_at((1, 3, 2)), lambda parts: parts[::-1]),
        "extreme fillings of 2,0 do not preserve the shape",
    ),
    "encode is not injective on S_{}": (
        "tableau", 7, verify, "_encode_word", _stale_mask,
        "encode is not injective on S_7",
    ),
    # bijection
    "image {} of {} contains 2-3-1": (
        "bijection", 3, verify, "contains_231",
        _where(_at((2, 1)), lambda found: True),
        "image 2,1 of (2, 1) contains 2-3-1",
    ),
    # The route takes an avoider's left borders, (0, 1, 0) those of (2, 1, 3),
    # and gives the image with its own borders.
    "statistics not preserved on {} -> {}": (
        "bijection", 3, verify, "_bijection_image",
        _where(_at((0, 1, 0)), lambda image: ((1, 2, 3), (0, 0, 0))),
        "statistics not preserved on (2, 1, 3) -> 1,2,3",
    ),
    "image size {} != Catalan({}) = {}": (
        "bijection", 3, oracle, "avoiders_132",
        _where(_at(2), lambda words: (w for w in words if w != (2, 1))),
        "image size 1 != Catalan(2) = 2",
    ),
    # poset
    "reflexivity fails at {}": (
        "poset", 2, verify, "bruhat_up_sets",
        _where(lambda words: len(words) == 1, lambda ups: [0]),
        "reflexivity fails at (1,)",
    ),
    "antisymmetry fails at {}, {}": (
        "poset", 3, bruhat, "rank_table",
        lambda real: lambda w: (1, 1, 1, 1, 2, 2, 1, 2, 3) if w == (2, 1, 3) else real(w),
        "antisymmetry fails at (1, 2, 3), (2, 1, 3)",
    ),
    "transitivity fails at {}, {}": (
        "poset", 3, verify, "bruhat_up_sets",
        _where(
            lambda words: len(words) == 6, lambda ups: [ups[0] & ~(1 << 5), *ups[1:]]
        ),
        "transitivity fails at (1, 2, 3), (1, 3, 2)",
    ),
    "dominance and cover closure disagree on {} <= {}": (
        "poset", 2, verify, "upper_covers",
        _where(_at((1, 2)), lambda covers: []),
        "dominance and cover closure disagree on (1, 2) <= (2, 1)",
    ),
    "containment/order equivalence fails at n={}: {}": (
        "poset", 2, bruhat, "shape_parts",
        _where(_at((2, 1)), lambda parts: (0,)),
        "containment/order equivalence fails at n=2: "
        "(((1, 2), (2, 1), 'Bruhat-below but shape not strictly contained'),)",
    ),
    "cover {} -> {} does not add one cell": (
        "poset", 2, verify, "shape_parts",
        _where(_at((2, 1)), lambda parts: (2,)),
        "cover (1, 2) -> (2, 1) does not add one cell",
    ),
    "the comparable pair with incomparable shapes misbehaves": (
        "poset", 4, verify, "bruhat_covers",
        _where(lambda p, q: True, lambda covers: False),
        "the comparable pair with incomparable shapes misbehaves",
    ),
    "the contained pair with incomparable order misbehaves": (
        "poset", 4, verify, "bruhat_leq",
        _where(lambda p, q: (p, q) == (P1342, P2143), lambda below: True),
        "the contained pair with incomparable order misbehaves",
    ),
    # parity
    "even/odd counts differ at even n={}": (
        "parity", 4, permutations, "left_borders",
        _where(_at((1, 2)), lambda a: (0, 1)),
        "even/odd counts differ at even n=2",
    ),
    "enumerated parity split disagrees with the recursion at n={}": (
        "parity", 4, permutations, "left_borders",
        _where(_at((1,)), lambda a: (1,)),
        "enumerated parity split disagrees with the recursion at n=1",
    ),
    "tangent number {} does not match the imbalance": (
        "parity", 4, verify, "tangent_numbers",
        _where(lambda m: True, lambda t: [t[0] + 1, *t[1:]]),
        "tangent number 1 does not match the imbalance",
    ),
    "F_{}(-1) disagrees with the imbalance": (
        "parity", 4, verify, "lbsum_polynomial",
        lambda real: lambda n: real(n + (n == 3)),
        "F_3(-1) disagrees with the imbalance",
    ),
    # genfun; the splitting law reads the borders of the two sides of the
    # maximum, and (2,) is the right side of (1, 3, 2) but never a whole word.
    "splitting law fails at {}": (
        "genfun", 7, verify, "left_borders",
        _where(_at((2,)), lambda a: (1,)),
        "splitting law fails at (1, 3, 2)",
    ),
    "F_{} disagrees with the enumerated distribution": (
        "genfun", 7, verify, "lbsum_polynomial",
        lambda real: lambda n: real(n + (n == 2)),
        "F_2 disagrees with the enumerated distribution",
    ),
    "F_{}(1) != {}!": (
        "genfun", 7, verify, "lbsum_polynomial",
        lambda real: lambda n: real(n - (n == 20)),
        "F_20(1) != 20!",
    ),
    "G_{}(x,1,1,1) != F_{}": (
        "genfun", 7, verify, "quad_polynomial",
        lambda real: lambda n: real(n - (n == 3)),
        "G_3(x,1,1,1) != F_3",
    ),
    # F_8 lies beyond the enumeration at max_n 7, and moving its top term up
    # one degree keeps F_8(1) = 8!.
    "degree bound fails for F_{}": (
        "genfun", 7, verify, "lbsum_polynomial",
        _where(_at(8), _top_term_raised),
        "degree bound fails for F_8",
    ),
    "G_{} disagrees with the enumerated joint distribution": (
        "genfun", 7, verify, "quad_polynomial",
        _where(_at(3), _swapped_y_q),
        "G_3 disagrees with the enumerated joint distribution",
    ),
    "q-Catalan {} disagrees with inversions over the avoiders": (
        "genfun", 7, verify, "q_catalan",
        lambda real: lambda n: real(n + (n == 2)),
        "q-Catalan 2 disagrees with inversions over the avoiders",
    ),
    "the two q-Catalan conventions are not degree-reversals at n={}": (
        "genfun", 7, verify, "q_catalan_alt",
        lambda real: lambda n: real(n + (n == 3)),
        "the two q-Catalan conventions are not degree-reversals at n=3",
    ),
    "q-Catalan {} does not sum to the Catalan number": (
        "genfun", 7, verify, "q_catalan",
        lambda real: lambda n: real(n - (n == 20)),
        "q-Catalan 20 does not sum to the Catalan number",
    ),
    "moments disagree with enumeration at n={}": (
        "genfun", 7, verify, "moments",
        _where(_at(3), _consistent_mean_shift),
        "moments disagree with enumeration at n=3",
    ),
    # series, at order 4
    "functional equation residual at z^{}: {}": (
        "series", 4, genfun, "quad_polynomial",
        _where(_at(2), lambda g: g.times_monomial((0, 0, 0, 0), 2)),
        "functional equation residual at z^1: {'0,1,1,1': '1', '1,0,0,0': '1'}",
    ),
    "tanh specialization mismatch at z^{}": (
        "series", 4, genfun, "_tanh_series",
        lambda real: lambda order: [c + (k == 3) for k, c in enumerate(real(order))],
        "tanh specialization mismatch at z^3",
    ),
}


def _template(node):
    """A message argument that is a string literal, as written; else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _require_templates(source):
    """(line, template) for the message of every ``require`` call in ``source``."""
    return [
        (node.lineno, _template(node.args[1]))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "require"
    ]


def test_every_check_has_a_fault():
    found = _require_templates(pathlib.Path(verify.__file__).read_text())
    # Every message is a literal template, filled in only when its check fails.
    assert [line for line, template in found if template is None] == []
    templates = [template for _, template in found]
    assert len(templates) == len(set(templates))  # one entry names one check
    assert sorted(templates) == sorted(MATRIX)
    # The scan itself sees a message built on every pass, in a loop or not.
    sample = "\n".join(
        [
            "result.require(ok, f'at n={n}')",
            "for word in words:",
            "    result.require(ok, f'at {word}')",
            "    result.require(ok, 'at {}', word)",
            "    result.require(ok, 'at ' + str(word))",
        ]
    )
    found = _require_templates(sample)
    assert [line for line, template in found if template is None] == [1, 3, 5]


@pytest.mark.parametrize("template", list(MATRIX))
def test_the_planted_fault_is_the_first_failure(template, fan_outs, monkeypatch):
    suite, max_n, module, name, plant, message = MATRIX[template]
    pattern = ".*".join(map(re.escape, template.split("{}")))
    assert re.fullmatch(pattern, message, re.DOTALL)
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    serial = run_suite(suite, max_n, workers=1)
    assert not fan_outs
    assert (serial.passed, serial.failures) == (False, [message])
    if not FORK:
        return  # a patched name reaches the workers only through fork
    parallel = run_suite(suite, max_n, workers=2)
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


def _first_descent(word):
    return next((i for i in range(1, len(word)) if word[i - 1] > word[i]), 0)


def test_a_fault_in_a_tallied_statistic_fails_genfun(fan_outs, monkeypatch):
    # The G_n key reads the statistics that dist tallies, so a maxdes that
    # gives the first descent shows at n = 3, where 3,2,1 has two descents.
    monkeypatch.setitem(oracle.STATISTICS, "maxdes", _first_descent)
    assert oracle.distribution(3, "maxdes").counts == {0: 1, 1: 3, 2: 2}
    message = "G_3 disagrees with the enumerated joint distribution"
    serial = run_suite("genfun", 7, workers=1)
    assert (serial.passed, serial.failures) == (False, [message])
    if FORK:
        parallel = run_suite("genfun", 7, workers=2)
        assert (parallel.checks, parallel.failures) == (serial.checks, serial.failures)
        assert fan_outs
