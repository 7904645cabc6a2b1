"""Exact planar geometry: the brute-force oracle for the region counts.

Everything here is integer/rational arithmetic on homogeneous coordinates;
there is no floating point and hence no epsilon anywhere.  An arrangement
is built in one step: ``intersect_chords`` orders distinct circle points by
angle (with ``build_arrangement``) and turns them into a complete
``ChordArrangement``, whose ``crossings`` hold the sorted chords through
each interior intersection.  The chord-pair crossing kernel (``_kernel``)
is plain Python over integer homogeneous triples; it names each crossing
by its chords, and the integer triple of a point is built only for JSON
and the ``interior_points`` view.
"""

from .arrangement import (
    ChordArrangement,
    InteriorPoint,
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
    generic_parameters,
    hexagon_parameters,
    seeded_parameters,
)

__all__ = [
    "ChordArrangement",
    "CirclePoint",
    "InteriorPoint",
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
    "seeded_parameters",
    "verify_against_formula",
]
