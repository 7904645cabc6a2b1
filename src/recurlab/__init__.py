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

Importing the package loads none of these modules.  Each name in
``__all__`` is read from the module that defines it, on every access
(PEP 562), and that module is imported on the first one.  Nothing is
cached here, so a function rebound in its defining module, as perfbench's
tracer and the tests rebind them, is what ``recurlab.<name>`` gives.
"""

import importlib

__version__ = "0.1.0"


def _exports(namespace: dict, sources: dict[str, str]):
    """The module ``__getattr__`` and ``__dir__`` of the package whose
    globals are ``namespace`` and whose public names are the keys of
    ``sources``, each mapped to the submodule that defines it."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        if name not in sources:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{package}.{sources[name]}"), name)

    def __dir__() -> list[str]:
        return sorted({*namespace, *sources})

    return __getattr__, __dir__


# Each public name, in __all__ order, and the submodule that defines it.
_SOURCES = {
    "Polynomial": "core_numeric",
    "Rational": "core_numeric",
    "as_rational": "core_numeric",
    "binomial": "core_numeric",
    "binomial_rising": "core_numeric",
    "format_polynomial": "core_numeric",
    "format_rational": "core_numeric",
    "parse_rational": "core_numeric",
    "DifferenceTable": "difference_engine",
    "LinearRecurrence": "difference_engine",
    "build_difference_table": "difference_engine",
    "infer_recurrence": "difference_engine",
    "iterate_recurrence": "difference_engine",
    "predict_next": "difference_engine",
    "NoConstantRowError": "errors",
    "RecurlabError": "errors",
    "SingularMatrixError": "errors",
    "UnsupportedRootsError": "errors",
    "build_ogf": "genfunc_solver",
    "extract_coefficient_formula": "genfunc_solver",
    "ogf_series": "genfunc_solver",
    "partial_fractions": "genfunc_solver",
    "ChordArrangement": "geometry.arrangement",
    "CirclePoint": "geometry.points",
    "build_arrangement": "geometry.arrangement",
    "count_faces": "geometry.facewalk",
    "count_regions": "geometry.arrangement",
    "hexagon_arrangement": "geometry.arrangement",
    "intersect_chords": "geometry.arrangement",
    "verify_against_formula": "geometry.arrangement",
    "chord_count": "moser_formulas",
    "euler_counts": "moser_formulas",
    "intersection_count": "moser_formulas",
    "moser_polynomial": "moser_formulas",
    "moser_terms": "moser_formulas",
    "regions_binomial": "moser_formulas",
    "regions_binomial_sum": "moser_formulas",
    "regions_polynomial": "moser_formulas",
    "ClosedForm": "recurrence_solver",
    "characteristic_polynomial": "recurrence_solver",
    "gaussian_solve": "recurrence_solver",
    "particular_solution": "recurrence_solver",
    "rational_roots": "recurrence_solver",
    "solve_charpoly": "recurrence_solver",
    "to_moser_variable": "recurrence_solver",
}

__all__ = [*_SOURCES, "__version__"]

__getattr__, __dir__ = _exports(globals(), _SOURCES)
