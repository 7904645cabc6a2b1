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
points along a chord, which circle order alone does not fix.  The walk
computes its own side values s_j(p) = l_j . P_p (chord j's line at circle
point p).  Chord j meets chord c = (a, b) at |s_j(b)| A + |s_j(a)| B, and
as W_A, W_B > 0 its place from a to b grows with sa / (sa + sb), where
sa = |s_j(a)| and sb = |s_j(b)|.  A stop on c is keyed by
floor(sa 2^shift / (sa + sb)) for one other chord j through it.  With
2^shift > 4 big^2 (big the largest |s|), ratios with denominators of at
most 2 big keep their order in their keys.  No ``Fraction`` is built.
Intended for small m; an oracle against the closed-form counts and the
Euler route.
"""

from __future__ import annotations

from .arrangement import ChordArrangement, _cross


def count_faces(arr: ChordArrangement) -> int:
    """Number of faces of the arrangement, unbounded face included."""
    m = arr.m

    # Half-edges: (origin vertex, rank), added in twin pairs, so the twin
    # of half-edge he is he ^ 1.
    origins: list[int] = []
    ranks: list[int] = []

    # Circle arcs, forward from i and backward from j; one point gets a loop.
    for i in range(m):
        j = (i + 1) % m
        origins += (i, j)
        ranks += (2 * i + 1, 2 * j)

    # Chord segments: each chord a -> b is split at its interior points,
    # vertex m + k for crossing k, in the order of their keys from a
    # (module docstring).
    chords = arr.chords
    ends = [p.triple for p in arr.points]
    size = []
    for a, b in chords:
        l0, l1, l2 = _cross(ends[a], ends[b])
        size.append([abs(l0 * x + l1 * y + l2 * w) for x, y, w in ends])
    big = max(map(max, size), default=0)
    shift = (4 * big * big).bit_length()
    stops: list[dict[int, int]] = [{} for _ in chords]
    for vertex, through in enumerate(arr.crossings, start=m):
        first = through[0]
        for c in through:
            a, b = chords[c]
            sizes = size[first] if c != first else size[through[1]]
            sa = sizes[a]
            stops[c][(sa << shift) // (sa + sizes[b])] = vertex
    for (a, b), at in zip(chords, stops):
        chain = [a, *map(at.get, sorted(at)), b]
        for v1, v2 in zip(chain, chain[1:]):
            origins += (v1, v2)
            ranks += (2 * b, 2 * a)

    around: list[list[int]] = [[] for _ in range(m + len(arr.crossings))]
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
