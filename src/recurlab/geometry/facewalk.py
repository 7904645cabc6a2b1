"""Second-opinion region counting: explicit face tracing.

Independent of the Euler-formula bookkeeping in ``count_regions``: build
the planar subdivision explicitly (circle arcs between angularly
consecutive points, chords split at their interior intersections), sort
the half-edges around every vertex by exact angular comparison, and count
the orbits of the next-half-edge permutation.  Each orbit is one face of
the arrangement (the unbounded face included), so for any arrangement

    count_faces(arr) == count_regions(arr).regions + 2 - 1  ==  regions + 1

must hold.  Everything is exact: directions are rational vectors, and the
rotational order uses a half-plane split plus cross-product sign, never an
angle computation.

Intended for small m (it builds the whole subdivision); used as an oracle
against the closed-form counts and the Euler route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from .arrangement import ChordArrangement


def _direction_half(direction: tuple[Fraction, Fraction]) -> int:
    """0 for the upper half-plane sweep [0, pi), 1 for [pi, 2*pi)."""
    dx, dy = direction
    if dy > 0 or (dy == 0 and dx > 0):
        return 0
    return 1


def _angle_compare(u: tuple[Fraction, Fraction], v: tuple[Fraction, Fraction]) -> int:
    """Order directions counterclockwise starting from the positive x-axis."""
    hu, hv = _direction_half(u), _direction_half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    cross = u[0] * v[1] - u[1] * v[0]
    if cross > 0:
        return -1
    if cross < 0:
        return 1
    raise ValueError("two half-edges leave one vertex in the same direction")


def count_faces(arr: ChordArrangement) -> int:
    """Number of faces of the arrangement, unbounded face included."""
    if arr.interior_points is None:
        raise ValueError("intersections not computed yet; call intersect_chords")
    m = arr.m

    # Vertex ids: circle points first, then interior points.  An interior
    # point derives its rational coordinates on each read, so read them once.
    coords: list[tuple[Fraction, Fraction]] = [(p.x, p.y) for p in arr.points]
    coords.extend((p.x, p.y) for p in arr.interior_points)

    # Half-edges: (origin vertex, direction); twins are paired by index.
    origins: list[int] = []
    directions: list[tuple[Fraction, Fraction]] = []
    twin: list[int] = []

    def add_edge(v1: int, d1: tuple[Fraction, Fraction], v2: int, d2: tuple[Fraction, Fraction]):
        i = len(origins)
        origins.extend((v1, v2))
        directions.extend((d1, d2))
        twin.extend((i + 1, i))

    # Circle arcs between angularly consecutive points.  The tangent of the
    # counterclockwise arc at a circle point (x, y) is (-y, x); the reverse
    # direction is (y, -x).  A single point gets one full-circle loop arc.
    for i in range(m):
        j = (i + 1) % m
        xi, yi = coords[i]
        xj, yj = coords[j]
        add_edge(i, (-yi, xi), j, (yj, -xj))
        if m == 1:
            break

    # Chord segments: each chord is split at its interior points, ordered
    # along the chord by exact projection onto the endpoint difference.
    # Every segment then points from a towards b, so its direction is a
    # positive multiple of that difference, which is all the angular order
    # needs.
    on_chord: list[list[int]] = [[] for _ in arr.chords]
    for vertex, point in enumerate(arr.interior_points, start=m):
        for c in point.chords:
            on_chord[c].append(vertex)
    for c, (a, b) in enumerate(arr.chords):
        ax, ay = coords[a]
        bx, by = coords[b]
        dx, dy = bx - ax, by - ay
        stops = sorted(on_chord[c], key=lambda v: coords[v][0] * dx + coords[v][1] * dy)
        chain = [a, *stops, b]
        forward, backward = (dx, dy), (-dx, -dy)
        for v1, v2 in zip(chain, chain[1:]):
            add_edge(v1, forward, v2, backward)

    # Rotation system: half-edges around each vertex in angular order.
    around: dict[int, list[int]] = {}
    for he, origin in enumerate(origins):
        around.setdefault(origin, []).append(he)
    position: dict[int, tuple[int, int]] = {}
    for origin, members in around.items():
        members.sort(key=cmp_to_key(lambda p, q: _angle_compare(directions[p], directions[q])))
        for idx, he in enumerate(members):
            position[he] = (origin, idx)

    # Faces = orbits of "rotational successor of the twin".
    def successor(he: int) -> int:
        origin, idx = position[twin[he]]
        members = around[origin]
        return members[(idx + 1) % len(members)]

    visited = [False] * len(origins)
    faces = 0
    for he in range(len(origins)):
        if visited[he]:
            continue
        faces += 1
        cur = he
        while not visited[cur]:
            visited[cur] = True
            cur = successor(cur)
    return faces
