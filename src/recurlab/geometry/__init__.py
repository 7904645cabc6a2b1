"""Exact planar geometry: the brute-force oracle for the region counts.

Everything here is integer/rational arithmetic on homogeneous coordinates;
there is no floating point and hence no epsilon anywhere.  An arrangement
is built in one step: ``intersect_chords`` orders distinct circle points by
angle (with ``build_arrangement``) and turns them into a complete
``ChordArrangement``.  The chord-pair crossing kernel (``_kernel``) is
plain Python over integer homogeneous triples.  It names each crossing by
its chords: per chord, a bitset of the later chords it meets at a point of
two chords (the arrangement's ``pairs``), and a sorted chord tuple per
point of three or more (its ``concurrent``).  Every count reads those
directly.  The tuple of each point is built only by the ``crossings``
view, and its integer triple only for JSON and the ``interior_points``
view.
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
