"""Second-opinion region counting: explicit face tracing.

Independent of the Euler bookkeeping in ``count_regions``: build the planar
subdivision (circle arcs between consecutive points, chords split at their
interior points), order the half-edges around every vertex, and count the
orbits of the next-half-edge permutation.  Each orbit is one face, the
unbounded one included, so ``count_faces(arr) == regions + 1`` must hold.

The rotation comes from circle order, as one integer rank per half-edge: a
chord half-edge heading for circle point b has rank 2b, at circle points
and interior points alike; at circle point i the backward arc has rank 2i
and the forward arc 2i + 1.  Sorted by rank, a vertex's half-edges are in
counterclockwise order up to a cyclic shift, which the face permutation
ignores.  Proof, with the points in counterclockwise index order:

- At circle point i (angle t), the chord to the point at angle s leaves in
  direction (t + s)/2 + pi/2, which grows with s - t over (0, 2 pi), from
  the forward tangent to the backward one.
- Every interior point lies strictly inside the disk (``intersect_chords``
  proves it).  From such a point, a ray's circle hit turns counterclockwise
  as the ray does.
- The ranks at one vertex are distinct: two chords through an interior
  point that head for the same circle point would meet twice.

Coordinates are read only for the exact integer key that orders interior
points along a chord, which circle order alone does not fix.  No
``Fraction`` is built.  Intended for small m; an oracle against the
closed-form counts and the Euler route.
"""

from __future__ import annotations

from .arrangement import ChordArrangement


def count_faces(arr: ChordArrangement) -> int:
    """Number of faces of the arrangement, unbounded face included."""
    m = arr.m
    if m < 1:
        raise ValueError("arrangement needs at least one point")

    # Vertex ids: circle points first, then interior points.
    triples = [p.triple for p in arr.points]
    triples.extend(arr.crossings)

    # Half-edges: (origin vertex, rank), added in twin pairs, so the twin
    # of half-edge he is he ^ 1.
    origins: list[int] = []
    ranks: list[int] = []

    def add_edge(v1: int, r1: int, v2: int, r2: int):
        origins.extend((v1, v2))
        ranks.extend((r1, r2))

    # Circle arcs, forward from i and backward from j; one point gets a loop.
    for i in range(m):
        j = (i + 1) % m
        add_edge(i, 2 * i + 1, j, 2 * j)

    # Chord segments: each chord a -> b is split at its interior points.
    # (Xb Wa - Xa Wb, Yb Wa - Ya Wb) is (b - a) scaled by Wa Wb > 0.
    #
    # A stop (X, Y, W) lies at projection N / W along that direction, with
    # N = X dx + Y dy.  Two distinct stops of one chord have distinct
    # projections N1/W1 != N2/W2, which then differ by at least 1/(W1 W2),
    # because N1 W2 - N2 W1 is a nonzero integer.  With 2^shift > W1 W2, the
    # scaled projections N 2^shift / W differ by more than 1, so their floors
    # keep their order: an exact integer sort key.
    shift = 2 * max(w for _, _, w in triples).bit_length()
    on_chord: list[list[int]] = [[] for _ in arr.chords]
    for vertex, through in enumerate(arr.crossings.values(), start=m):
        for c in through:
            on_chord[c].append(vertex)
    for c, (a, b) in enumerate(arr.chords):
        xa, ya, wa = triples[a]
        xb, yb, wb = triples[b]
        dx, dy = xb * wa - xa * wb, yb * wa - ya * wb

        def along(v: int) -> int:
            x, y, w = triples[v]
            return ((x * dx + y * dy) << shift) // w

        chain = [a, *sorted(on_chord[c], key=along), b]
        for v1, v2 in zip(chain, chain[1:]):
            add_edge(v1, 2 * b, v2, 2 * a)

    around: list[list[int]] = [[] for _ in triples]
    for he, origin in enumerate(origins):
        around[origin].append(he)

    # Faces are the orbits of succ: succ[he] is the half-edge after
    # twin(he) = he ^ 1 in rank order around its origin.
    succ = [0] * len(origins)
    for members in around:
        members.sort(key=ranks.__getitem__)
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
