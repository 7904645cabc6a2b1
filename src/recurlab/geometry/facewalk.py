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

Most vertices need no sort.  Take a crossing (i, j) of two chords, i = (a,
b) and j = (c, d).  Its four half-edges head for a and b along i and for c
and d along j.  If a < c < b < d, their ranks are 2a < 2c < 2b < 2d, so
the rank order is: toward a, toward c, toward b, toward d.  The walk then
writes the four successor links of that order directly, with no list and
no sort.  A correct arrangement passes the test at every two-chord
crossing: chords are listed in lexicographic order, so i < j gives
a <= c; chords that cross share no endpoint, so a < c; and two chords with
distinct endpoints on a circle cross exactly when those endpoints
interleave, so c < b < d.  The walk does not assume it, though.  It sorts
by rank, as above, at the circle points, at the ``concurrent`` points of 3
or more chords, and at every two-chord crossing that fails the test.  It
reads the two-chord crossings off the arrangement's row bitsets,
``pairs``, as the kernel does, with no tuple per crossing.  So
on any input, a faulty kernel's output included, the walk's answer is
that of the rank sort at every vertex, and it stays a second opinion.

Along a chord, the stops are ordered by one key per crossing point X,
shared by every chord through it and read off the circle parameters
alone: no coordinate, line or side value.  The chord between parameters
p/q and p'/q' (infinity is 1/0) is the vector v = (pp', pq' + p'q, qq').
The lines through X pair the circle's points by one involution,
A t t' + B(t + t') + C = 0, and for any two chords i and j through X,
v_i x v_j is (A, B, C) up to a factor.  For a circle point r,
sigma_X(r) = -(B r + C) / (A r + B) is the other end of the line from r
through X.  Call the counterclockwise arc from a to b chord (a, b)'s arc,
and take r on no chord's arc: after the last point and before the first.
As X moves along chord (a, b) from a to b, the line rX turns one way about
r, so sigma_X(r) runs monotonically over that arc from a to b, and two
points of the chord never share it.  With r at infinity, sigma_X(r) =
-B/A, and X's key is floor(-B 2^shift / A), with 2^shift > 4 (Y Z)^2, Y
and Z the largest |pq' + p'q| and qq' over the chords.  Then |A| <= 2 Y Z,
so distinct values -B/A differ by at least 1 / (4 (Y Z)^2), and scaled by
2^shift by more than 1: the keys rise from a to b along each chord, and
equal keys are one point.

Infinity is after the last point unless it is the last point.  Then the
walk first reads every parameter t as u = -1/(t - r), with r an integer
below every finite parameter.  A Moebius map of the parameter is another
parametrization of the circle, so the lines through X pair the u of the
circle's points by an involution of the same form, from the chord vectors
of the u.  The map is increasing on (r, oo], so it keeps the angular
order, and it moves infinity to 0 and r to infinity, which is then before
the first point.  Other layouts skip it, since it widens the integers.
A = 0 only when X lies on the tangent at the reference point, outside the
disk, so only a faulty kernel can list such a pair; the walk keys it 0.
If a point is listed twice, the later stop replaces the earlier one on the
chord, and every crossing takes the sort path.
"""

from __future__ import annotations

from itertools import combinations

from ._kernel import partners
from .arrangement import ChordArrangement


def count_faces(arr: ChordArrangement) -> int:
    """Number of faces of the arrangement, unbounded face included."""
    m = arr.m
    stops, ring, around = _place_stops(arr, True) or _place_stops(arr, False)

    # Half-edges come in twin pairs, so the twin of half-edge he is he ^ 1.
    # Circle arcs, forward from i and backward from j; one point gets a loop.
    for i in range(m):
        j = (i + 1) % m
        around[i].append((2 * i + 1, 2 * i))
        around[j].append((2 * j, 2 * i + 1))

    # Chord segments: chord a -> b is split at its stops, in key order.  A
    # segment's half-edges are he at its start, heading for b, and he + 1 at
    # its end, heading for a.  So at a stop the half-edge toward a is some
    # odd h, and the one toward b is h + 1.  A direct crossing's ring slot
    # holds that h.  A chord's stops are freed as it is taken.
    he = 2 * m
    for c, (a, b) in enumerate(arr.chords):
        at, stops[c] = stops[c], None
        around[a].append((2 * b, he))
        for stop, h in zip(map(at.__getitem__, sorted(at)), range(he + 1, he + 2 * len(at), 2)):
            if stop >= 0:
                ring[stop] = h
            else:
                around[~stop] += ((2 * a, h), (2 * b, h + 1))
        he += 2 * len(at) + 2
        around[b].append((2 * a, he - 1))

    # Faces are the orbits of succ: succ[he] is the half-edge after
    # twin(he) = he ^ 1 in rank order around its origin.
    succ = [0] * he
    for members in around:
        order = [h for _, h in sorted(members)]
        for idx, h in enumerate(order):
            succ[order[idx - 1] ^ 1] = h
    # A direct crossing's rank order is (x0, x1, x0 + 1, x1 + 1): toward a,
    # toward c, toward b, toward d.  x0 and x1 are odd, so x ^ 1 = x - 1 and
    # (x + 1) ^ 1 = x + 2.
    slots = iter(ring)
    for x0, x1 in zip(slots, slots):
        succ[x1 + 2] = x0
        succ[x0 - 1] = x1
        succ[x1 - 1] = x0 + 1
        succ[x0 + 2] = x1 + 1

    # Count the orbits, marking each visited half-edge by succ = -1.
    faces = 0
    for start in range(he):
        nxt = succ[start]
        if nxt < 0:
            continue
        faces += 1
        cur = start
        while nxt >= 0:
            succ[cur] = -1
            cur = nxt
            nxt = succ[cur]
    return faces


def _chord_vectors(arr: ChordArrangement):
    """Each chord's vector (X, Y, Z) in the walk's parameters, and the keys'
    shift (module docstring)."""
    ends = [(1, 0) if p.t is None else (p.t.numerator, p.t.denominator) for p in arr.points]
    if ends[-1] == (1, 0):
        r = min((p // q for p, q in ends if q), default=0) - 1
        ends = [(-q, p - r * q) for p, q in ends]
    vectors = [(p * p2, p * q2 + p2 * q, q * q2) for (p, q), (p2, q2) in combinations(ends, 2)]
    y = max((abs(v[1]) for v in vectors), default=0)
    z = max((v[2] for v in vectors), default=0)
    return vectors, (4 * (y * z) ** 2).bit_length()


def _key(v, w, shift: int) -> int:
    """The key of the point where the lines of chord vectors v and w meet."""
    x0, y0, z0 = v
    x1, y1, z1 = w
    a = y0 * z1 - z0 * y1
    return ((x0 * z1 - z0 * x1) << shift) // a if a else 0


def _place_stops(arr: ChordArrangement, direct: bool):
    """The stops of each chord by key, the ring of the direct crossings,
    and the (rank, half-edge) list of each vertex the walk sorts.

    At the k-th direct crossing, the stop is ring slot 2k on its first chord
    and 2k + 1 on its second.  At a sorted vertex it is ~v, for its list
    ``around[v]``; the m circle points come first.  With ``direct`` false,
    every crossing is sorted.  With ``direct`` true, None is returned if two
    stops of one chord share a key, since the later one replaced the earlier
    one and left a ring slot empty.
    """
    chords = arr.chords
    vectors, shift = _chord_vectors(arr)
    stops: list[dict[int, int]] = [{} for _ in chords]
    around: list[list[tuple[int, int]]] = [[] for _ in range(arr.m)]
    slot = 0
    # Each chord's index, endpoints, vector and stops, for its partners.
    chord_rows = tuple(zip(range(len(chords)), chords, vectors, stops))
    sorted_pairs = []
    for i, row in enumerate(arr.pairs):
        a, b = chords[i]
        x0, y0, z0 = vectors[i]
        on_i = stops[i]
        for j, (c, d), (x1, y1, z1), on_j in partners(chord_rows, i, row):
            if direct and a < c < b < d:
                # Interleaved chords cross inside the disk, so A != 0.
                key = ((x0 * z1 - z0 * x1) << shift) // (y0 * z1 - z0 * y1)
                on_i[key] = slot
                on_j[key] = slot + 1
                slot += 2
            else:
                sorted_pairs.append((i, j))
    sorted_pairs += arr.concurrent
    for through in sorted_pairs:
        key = _key(vectors[through[0]], vectors[through[1]], shift)
        for c in through:
            stops[c][key] = ~len(around)
        around.append([])
    if direct and sum(map(len, stops)) != slot + sum(map(len, sorted_pairs)):
        return None
    return stops, [0] * slot, around
