"""
permshape: permutation statistics through Dyck paths, staircase shapes,
dotted tableaux, Bruhat order, and exact generating functions.
"""

from .permutations import (
    InvalidPermutationError,
    Permutation,
    StatVector,
    identity,
    parse_permutation,
    standardize,
)
from .shapes import (
    Rectangle,
    RectangleDecomposition,
    ShapePartition,
    borders_from_shape,
    count_permutations_with_shape,
    first_return,
    path_from_shape,
    rectangle_decomposition,
    shape,
    shape_from_path,
    valleys,
)
from .tableaux import (
    FilledTableau,
    InconsistentFillingError,
    InvalidFillingError,
    bijection_132_to_231,
    count_132_from_tableau,
    count_231_from_tableau,
    decode_tableau,
    encode_tableau,
    is_valid_filling,
    max_filling,
    min_filling,
    tableau_from_json,
    tableau_to_json,
)
from .bruhat import (
    PosetReport,
    bruhat_covers,
    bruhat_leq,
    shape_contains,
    verify_poset_equivalence,
)
from .genfun import (
    MomentReport,
    ParityTable,
    QuadPolynomial,
    SeriesReport,
    TruncatedSeries,
    UniPolynomial,
    lbsum_polynomial,
    moments,
    parity_table,
    q_catalan,
    q_catalan_alt,
    quad_polynomial,
    tangent_numbers,
    verify_series_identities,
)
from .oracle import (
    Distribution,
    all_shapes,
    avoiders_132,
    avoiders_231,
    distribution,
    enumerate_sn,
    shape_census,
)

__version__ = "0.1.0"
