"""recurlab: exact inference, solving, and verification of linear recurrences.

The pipeline, all in exact rational arithmetic:

1. ``difference_engine``: build the successive-difference table of a
   sequence; a constant row certifies a monic linear recurrence with
   constant right-hand side.
2. ``recurrence_solver``: closed form via the characteristic polynomial,
   resonance-aware undetermined coefficients solved from power moments,
   and fraction-free elimination for the initial conditions.
3. ``genfunc_solver``: the same closed form by an independent route —
   ordinary generating function, partial fractions by local expansion at
   each root, coefficient extraction.  It shares the root finder with
   ``recurrence_solver`` but no solver.
4. ``moser_formulas`` and ``geometry``: the verified corpus.  The circle-
   division counts f(m) = 1 + C(m,2) + C(m,4) are checked four ways,
   including a brute-force exact-geometry oracle that actually draws the
   chords and counts regions via Euler's formula.

The ``recurlab`` command line (see ``recurlab --help``) exposes the same
pipeline with JSON and human output.
"""

from .core_numeric import (
    Polynomial,
    Rational,
    as_rational,
    binomial,
    binomial_rising,
    format_polynomial,
    format_rational,
    parse_rational,
)
from .difference_engine import (
    DifferenceTable,
    LinearRecurrence,
    build_difference_table,
    infer_recurrence,
    iterate_recurrence,
    predict_next,
)
from .errors import (
    NoConstantRowError,
    RecurlabError,
    SingularMatrixError,
    UnsupportedRootsError,
)
from .genfunc_solver import build_ogf, extract_coefficient_formula, ogf_series, partial_fractions
from .geometry import (
    ChordArrangement,
    CirclePoint,
    build_arrangement,
    count_faces,
    count_regions,
    hexagon_arrangement,
    intersect_chords,
    verify_against_formula,
)
from .moser_formulas import (
    chord_count,
    euler_counts,
    intersection_count,
    moser_polynomial,
    moser_terms,
    regions_binomial,
    regions_binomial_sum,
    regions_polynomial,
)
from .recurrence_solver import (
    ClosedForm,
    characteristic_polynomial,
    gaussian_solve,
    particular_solution,
    rational_roots,
    solve_charpoly,
    to_moser_variable,
)

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "Rational",
    "as_rational",
    "binomial",
    "binomial_rising",
    "format_polynomial",
    "format_rational",
    "parse_rational",
    "DifferenceTable",
    "LinearRecurrence",
    "build_difference_table",
    "infer_recurrence",
    "iterate_recurrence",
    "predict_next",
    "NoConstantRowError",
    "RecurlabError",
    "SingularMatrixError",
    "UnsupportedRootsError",
    "build_ogf",
    "extract_coefficient_formula",
    "ogf_series",
    "partial_fractions",
    "ChordArrangement",
    "CirclePoint",
    "build_arrangement",
    "count_faces",
    "count_regions",
    "hexagon_arrangement",
    "intersect_chords",
    "verify_against_formula",
    "chord_count",
    "euler_counts",
    "intersection_count",
    "moser_polynomial",
    "moser_terms",
    "regions_binomial",
    "regions_binomial_sum",
    "regions_polynomial",
    "ClosedForm",
    "characteristic_polynomial",
    "gaussian_solve",
    "particular_solution",
    "rational_roots",
    "solve_charpoly",
    "to_moser_variable",
    "__version__",
]
