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

Importing the package loads none of its modules: each name in ``__all__``
is read from the module that defines it on every access, as in
``recurlab``, so ``import recurlab.geometry`` alone costs next to nothing.
"""

from .. import _exports

# Each public name, in __all__ order, and the module that defines it.
_SOURCES = {
    "ChordArrangement": "arrangement",
    "CirclePoint": "points",
    "InteriorPoint": "arrangement",
    "arrangement_to_json_dict": "arrangement",
    "build_arrangement": "arrangement",
    "count_faces": "facewalk",
    "count_regions": "arrangement",
    "generic_arrangement": "arrangement",
    "generic_parameters": "points",
    "hexagon_arrangement": "arrangement",
    "hexagon_parameters": "points",
    "intersect_chords": "arrangement",
    "prefix_region_counts": "arrangement",
    "seeded_parameters": "points",
    "verify_against_formula": "arrangement",
}

__all__ = [*_SOURCES]

__getattr__, __dir__ = _exports(globals(), _SOURCES)
