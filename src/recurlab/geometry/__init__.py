"""Exact planar geometry: the brute-force oracle for the region counts.

Everything here is integer/rational arithmetic on homogeneous coordinates;
there is no floating point and hence no epsilon anywhere.  An arrangement
is built in one step: ``intersect_chords`` orders distinct circle points by
angle (with ``build_arrangement``) and turns them into a complete
``ChordArrangement``, whose ``crossings`` map every interior
intersection's integer triple to the chords through it.  The chord-pair
crossing kernel (``_kernel``) is plain Python over integer homogeneous
triples.
"""

from .arrangement import (
    ChordArrangement,
    GeometricVerdict,
    InteriorPoint,
    RegionReport,
    arrangement_to_json_dict,
    build_arrangement,
    count_regions,
    generic_arrangement,
    hexagon_arrangement,
    intersect_chords,
    prefix_region_counts,
    verify_against_formula,
)
from .facewalk import count_faces
from .points import (
    CirclePoint,
    antipode_parameter,
    generic_parameters,
    hexagon_parameters,
    regular_approx_parameters,
    seeded_parameters,
)

__all__ = [
    "ChordArrangement",
    "CirclePoint",
    "GeometricVerdict",
    "InteriorPoint",
    "RegionReport",
    "antipode_parameter",
    "arrangement_to_json_dict",
    "build_arrangement",
    "count_faces",
    "count_regions",
    "generic_arrangement",
    "generic_parameters",
    "hexagon_arrangement",
    "hexagon_parameters",
    "intersect_chords",
    "prefix_region_counts",
    "regular_approx_parameters",
    "seeded_parameters",
    "verify_against_formula",
]
