"""Second-opinion region counting: explicit face tracing.

Independent of the Euler-formula bookkeeping in ``count_regions``: build
the planar subdivision explicitly (circle arcs between angularly
consecutive points, chords split at their interior intersections), sort
the half-edges around every vertex by exact angular comparison, and count
the orbits of the next-half-edge permutation.  Each orbit is one face of
the arrangement (the unbounded face included), so for any arrangement

    count_faces(arr) == count_regions(arr).regions + 2 - 1  ==  regions + 1

must hold.  Everything is exact integer arithmetic on the homogeneous
triples (X, Y, W), W > 0, of the circle and interior points; no
``Fraction`` is built.  A direction is an integer vector, a positive
multiple of the true one, which is all the angular order needs; the
rotational order uses a half-plane split plus cross-product sign, never an
angle computation.

Intended for small m (it builds the whole subdivision); used as an oracle
against the closed-form counts and the Euler route.
"""

from __future__ import annotations

from functools import cmp_to_key

from .arrangement import ChordArrangement


def _direction_half(direction: tuple[int, int]) -> int:
    """0 for the upper half-plane sweep [0, pi), 1 for [pi, 2*pi)."""
    dx, dy = direction
    if dy > 0 or (dy == 0 and dx > 0):
        return 0
    return 1


def _angle_compare(u: tuple[int, int], v: tuple[int, int]) -> int:
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
    m = arr.m
    if m < 1:
        raise ValueError("arrangement needs at least one point")

    # Vertex ids: circle points first, then interior points.
    triples = [p.triple for p in arr.points]
    triples.extend(p.triple for p in arr.interior_points)

    # Half-edges: (origin vertex, direction), added in twin pairs, so the
    # twin of half-edge he is he ^ 1.
    origins: list[int] = []
    directions: list[tuple[int, int]] = []

    def add_edge(v1: int, d1: tuple[int, int], v2: int, d2: tuple[int, int]):
        origins.extend((v1, v2))
        directions.extend((d1, d2))

    # Circle arcs between angularly consecutive points.  The tangent of the
    # counterclockwise arc at a circle point (X, Y, W) is (-Y, X) / W; as
    # W > 0, (-Y, X) has the same direction, and (Y, -X) the reverse one.
    # A single point gets one full-circle loop arc.
    for i in range(m):
        j = (i + 1) % m
        xi, yi, _ = triples[i]
        xj, yj, _ = triples[j]
        add_edge(i, (-yi, xi), j, (yj, -xj))
        if m == 1:
            break

    # Chord segments: each chord a -> b is split at its interior points.
    # (Xb Wa - Xa Wb, Yb Wa - Ya Wb) is (b - a) scaled by Wa Wb > 0, and every
    # segment of the chord points along it or against it.
    #
    # A stop (X, Y, W) lies at projection N / W along that direction, with
    # N = X dx + Y dy.  Two distinct stops of one chord have distinct
    # projections N1/W1 != N2/W2, which then differ by at least 1/(W1 W2),
    # because N1 W2 - N2 W1 is a nonzero integer.  With 2^shift > W1 W2, the
    # scaled projections N 2^shift / W differ by more than 1, so their floors
    # keep their order: an exact integer sort key.
    shift = 2 * max(w for _, _, w in triples).bit_length()
    on_chord: list[list[int]] = [[] for _ in arr.chords]
    for vertex, point in enumerate(arr.interior_points, start=m):
        for c in point.chords:
            on_chord[c].append(vertex)
    for c, (a, b) in enumerate(arr.chords):
        xa, ya, wa = triples[a]
        xb, yb, wb = triples[b]
        dx, dy = xb * wa - xa * wb, yb * wa - ya * wb

        def along(v: int) -> int:
            x, y, w = triples[v]
            return ((x * dx + y * dy) << shift) // w

        chain = [a, *sorted(on_chord[c], key=along), b]
        forward, backward = (dx, dy), (-dx, -dy)
        for v1, v2 in zip(chain, chain[1:]):
            add_edge(v1, forward, v2, backward)

    # Rotation system: the half-edges around each vertex in angular order.
    around: list[list[int]] = [[] for _ in triples]
    for he, origin in enumerate(origins):
        around[origin].append(he)
    by_angle = cmp_to_key(lambda p, q: _angle_compare(directions[p], directions[q]))

    # Faces are the orbits of "rotational successor of the twin":
    # succ[he] is the half-edge after twin(he) = he ^ 1 around its origin.
    succ = [0] * len(origins)
    for members in around:
        members.sort(key=by_angle)
        for idx, he in enumerate(members):
            succ[members[idx - 1] ^ 1] = he

    visited = [False] * len(origins)
    faces = 0
    for he in range(len(origins)):
        if visited[he]:
            continue
        faces += 1
        cur = he
        while not visited[cur]:
            visited[cur] = True
            cur = succ[cur]
    return faces
