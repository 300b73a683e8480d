"""Exact computation and verification of truncated interpolated Schur
multiple zeta values over pluggable coefficient rings."""

from .errors import DomainError, NonInvertibleError
from .rings import (
    MonomialPolynomial,
    PolyRing,
    QQ,
    QSeries,
    QSeriesRing,
    QsymRing,
    Ring,
    TPoly,
    format_rational,
    q_integer,
    ring_determinant,
)
from .shapes import (
    BitStats,
    BitTableau,
    Partition,
    Tableau,
    admissible_baselines,
    bit_tableau_stats,
    build_bit_tableau,
    count_oyt,
    partitions_of,
    partitions_up_to,
)
from .values import (
    CoefficientMap,
    DiagonalWeights,
    coefficient_map_for,
    diagonal_tableau,
    linear_value,
    linear_value_by_recursion,
    merge_expansion,
    q_analogue_map,
    quasisymmetric_map,
    rational_map,
    required_offsets,
    schur_value,
)
from .lattice import Vertex, black, schur_path_endpoints, white
from .jacobi_trudi import PalindromeReport, verify_palindromic_matrix

__version__ = "0.1.0"
