"""Chord-pair intersection kernel.

Works purely on integer homogeneous coordinates:

- point i of the circle is (px[i], py[i], pw[i]) with pw > 0;
- chord c joins points ca[c] < cb[c] and lies on the line
  (lx[c], ly[c], lw[c]) (the cross product of its endpoint triples).

For each chord pair (i, j) with start <= i < stop, j > i and no shared
endpoint, the chords cross in the open disk exactly when each chord's
endpoints lie strictly on opposite sides of the other chord's line — four
integer sign tests.  The crossing point is the cross product of the two
lines, divided by the gcd of its coordinates so equal points get equal
triples.

``intersect_chords`` passes distinct circle points in counterclockwise
order, and the chords in lexicographic order.  No three distinct points of
a circle are collinear, since a line meets a circle at most twice.  So a
chord's line never passes through a circle point other than its own
endpoints, and none of the four sign tests is ever zero.

Each sign test asks on which side of chord c's line circle point p lies,
and that depends on (c, p) alone, not on the pair being tested.  So the
kernel evaluates ``lx[c]*px[p] + ly[c]*py[p] + lw[c]*pw[p]`` once per
(chord, circle point), in exact integers, and stores the signs as one
bitmask per chord: bit p of ``side[c]`` is set iff the sum is > 0.  The
pair loop then reads the same four signs as bits, so the test is the
one above, unchanged.  That is m * C(m, 2) sign evaluations (31,200 at
m = 40) in place of two per disjoint chord pair plus two more per pair
passing the first test (731,120 at m = 40).  Endpoints of chord c get
bit 0; pairs that share an endpoint are skipped before any bit is read.

On a circle the four endpoints are in convex position, so either pair of
tests alone already decides a crossing; the kernel keeps both, so the
crossing test does not rest on that.

The crossing's last coordinate w is positive, so the divided triple is
canonical: gcd 1 and W > 0.  Crossing chords i < j join points a < b and
c < d with a < c (no shared endpoint), and c, d lie on opposite arcs of
chord (a, b): the indices between a and b, and the rest.  With a < c < d,
that means a < c < b < d, in counterclockwise order.  As
(A x B) x (C x D) = det(A, B, D) C - det(A, B, C) D, w is a positive
multiple of cross(b - a, d - a) - cross(b - a, c - a) = cross(b - a, d - c),
twice the signed area of the convex quadrilateral a, c, b, d.  So w > 0.
"""

from math import gcd


def intersect_pairs(px, py, pw, lx, ly, lw, ca, cb, start, stop):
    """Return {(X, Y, W): chords} for the chord pairs that properly cross.

    (X, Y, W) is a crossing point's canonical integer homogeneous triple.
    Pairs are tested in lexicographic (i, j) order; a point's first pair
    stores (i, j), and a repeat stores the sorted union of its chords.  So
    keys keep first-hit order, and the map of [start, k), extended by that
    of [k, stop) with a repeated key's chords united, is the map of
    [start, stop), key order included.
    """
    points = tuple(zip(px, py, pw))
    side = []
    for l0, l1, l2 in zip(lx, ly, lw):
        mask = 0
        for p, (x, y, w) in enumerate(points):
            if l0 * x + l1 * y + l2 * w > 0:
                mask |= 1 << p
        side.append(mask)

    crossings = {}
    n = len(ca)
    for i in range(start, stop):
        a = ca[i]
        b = cb[i]
        l0 = lx[i]
        l1 = ly[i]
        l2 = lw[i]
        si = side[i]
        for j in range(i + 1, n):
            c = ca[j]
            d = cb[j]
            if c == a or c == b or d == a or d == b:
                continue
            # c and d are circle points off chord i's line (module docstring),
            # so bit c and bit d of side[i] are their strict signs.
            if not (si >> c ^ si >> d) & 1:
                continue
            # Likewise a and b are off chord j's line.
            sj = side[j]
            if not (sj >> a ^ sj >> b) & 1:
                continue
            m0 = lx[j]
            m1 = ly[j]
            m2 = lw[j]
            x = l1 * m2 - l2 * m1
            y = l2 * m0 - l0 * m2
            w = l0 * m1 - l1 * m0
            # Positive by the module docstring's quadrilateral argument.
            assert w > 0
            g = gcd(x, y, w)
            point = (x // g, y // g, w // g)
            pair = (i, j)
            through = crossings.setdefault(point, pair)
            if through is not pair:
                crossings[point] = tuple(sorted({*through, i, j}))
    return crossings
