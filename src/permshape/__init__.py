"""
permshape: permutation statistics through Dyck paths, staircase shapes,
dotted tableaux, Bruhat order, and exact generating functions.

``import permshape`` runs this file only.  A public name is looked up in
``_EXPORTS`` on first use (PEP 562): that imports the one submodule defining
it and keeps the name here, so later lookups are plain attribute reads.
Submodules (``permshape.oracle``, ``permshape.verify``, ...) resolve the
same way.
"""
import importlib

__version__ = "0.1.0"

# Each submodule and the names the package re-exports from it.
_EXPORTS = {
    "permutations": (
        "InvalidPermutationError",
        "Permutation",
        "StatVector",
        "parse_permutation",
    ),
    "shapes": (
        "ShapePartition",
        "borders_from_shape",
        "count_permutations_with_shape",
        "path_from_shape",
        "shape",
        "shape_from_path",
    ),
    "tableaux": (
        "FilledTableau",
        "InconsistentFillingError",
        "InvalidFillingError",
        "decode_tableau",
        "encode_tableau",
        "tableau_from_json",
        "tableau_to_json",
    ),
    "bruhat": (
        "PosetReport",
        "bruhat_covers",
        "bruhat_leq",
        "shape_contains",
        "verify_poset_equivalence",
    ),
    "genfun": (
        "MomentReport",
        "ParityTable",
        "QuadPolynomial",
        "SeriesReport",
        "UniPolynomial",
        "lbsum_polynomial",
        "moments",
        "parity_table",
        "q_catalan",
        "q_catalan_alt",
        "quad_polynomial",
        "tangent_numbers",
        "verify_series_identities",
    ),
    "oracle": (
        "Distribution",
        "all_shapes",
        "avoiders_132",
        "avoiders_231",
        "distribution",
        "enumerate_sn",
        "shape_census",
    ),
}
_SUBMODULES = (*_EXPORTS, "cli", "verify")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__package__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__package__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
