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

Along a chord, the stops are ordered by the kernel's exact integer key,
from the side values it kept as the arrangement's ``sides``: a stop on
chord c = (a, b) is keyed by floor(sa 2^shift / (sa + sb)) for one other
chord j through it, with sa = |s_j(a)|, sb = |s_j(b)| and
``_kernel.key_shift``.  ``_kernel``'s docstring proves that the keys grow
from a to b and that equal keys are one point.  No coordinate is read.  If
a point is listed twice, the later stop replaces the earlier one on the
chord, and every crossing takes the sort path.
"""

from __future__ import annotations

from . import _kernel
from .arrangement import ChordArrangement


def count_faces(arr: ChordArrangement) -> int:
    """Number of faces of the arrangement, unbounded face included."""
    m = arr.m
    shift = _kernel.key_shift(arr.sides)
    stops, ring, around = _place_stops(arr, shift, True) or _place_stops(arr, shift, False)

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


def _place_stops(arr: ChordArrangement, shift: int, direct: bool):
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
    size = arr.sides
    stops: list[dict[int, int]] = [{} for _ in chords]
    around: list[list[tuple[int, int]]] = [[] for _ in range(arr.m)]
    slot = 0
    # Each chord's index, endpoints, side row and stops, for its partners.
    chord_rows = tuple(zip(range(len(chords)), chords, size, stops))
    sorted_pairs = []
    for i, row in enumerate(arr.pairs):
        a, b = chords[i]
        on_i, sizes_i = stops[i], size[i]
        for j, (c, d), sizes, on_j in _kernel.partners(chord_rows, i, row):
            if direct and a < c < b < d:
                sa = sizes[a]
                on_i[(sa << shift) // (sa + sizes[b])] = slot
                sc = sizes_i[c]
                on_j[(sc << shift) // (sc + sizes_i[d])] = slot + 1
                slot += 2
            else:
                sorted_pairs.append((i, j))
    sorted_pairs += arr.concurrent
    for through in sorted_pairs:
        first = through[0]
        for c in through:
            a, b = chords[c]
            sizes = size[first] if c != first else size[through[1]]
            sa = sizes[a]
            stops[c][(sa << shift) // (sa + sizes[b])] = ~len(around)
        around.append([])
    if direct and sum(map(len, stops)) != slot + sum(map(len, sorted_pairs)):
        return None
    return stops, [0] * slot, around
