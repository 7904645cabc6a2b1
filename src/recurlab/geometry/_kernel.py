"""Chord-pair intersection kernel.

Works purely on integer homogeneous coordinates:

- point i of the circle is (px[i], py[i], pw[i]) with pw > 0;
- chord c joins points ca[c], cb[c] and lies on the line
  (lx[c], ly[c], lw[c]) (the cross product of its endpoint triples).

For each chord pair (i, j) with start <= i < stop, j > i and no shared
endpoint, the chords cross in the open disk exactly when each chord's
endpoints lie strictly on opposite sides of the other chord's line — four
integer sign tests.  The crossing point is the cross product of the two
lines, normalized to gcd 1 with positive last coordinate so equal points
get equal triples.

The circle points are distinct (``build_arrangement`` rejects duplicate
triples), and no three distinct points of a circle are collinear, since a
line meets a circle at most twice.  So a chord's line never passes through
a circle point other than its own endpoints, and none of the four sign
tests is ever zero.
"""

from math import gcd


def intersect_pairs(px, py, pw, lx, ly, lw, ca, cb, start, stop):
    """Return [(i, j, X, Y, W), ...] for properly crossing chord pairs.

    ``i``/``j`` index chords (i < j); (X, Y, W) is the canonical integer
    homogeneous intersection point.  Hits come in lexicographic (i, j)
    order, so the hits of [start, k) followed by those of [k, stop) are
    the hits of [start, stop).
    """
    hits = []
    n = len(ca)
    for i in range(start, stop):
        a = ca[i]
        b = cb[i]
        l0 = lx[i]
        l1 = ly[i]
        l2 = lw[i]
        for j in range(i + 1, n):
            c = ca[j]
            d = cb[j]
            if c == a or c == b or d == a or d == b:
                continue
            # c and d are circle points off chord i's line (module docstring),
            # so neither sign is zero.
            s1 = l0 * px[c] + l1 * py[c] + l2 * pw[c]
            s2 = l0 * px[d] + l1 * py[d] + l2 * pw[d]
            if (s1 > 0) == (s2 > 0):
                continue
            m0 = lx[j]
            m1 = ly[j]
            m2 = lw[j]
            # Likewise a and b are off chord j's line.
            s3 = m0 * px[a] + m1 * py[a] + m2 * pw[a]
            s4 = m0 * px[b] + m1 * py[b] + m2 * pw[b]
            if (s3 > 0) == (s4 > 0):
                continue
            # w = 0 would make the lines parallel or equal.  They are not
            # equal, because c is strictly off line i; and they are not
            # parallel, because segment cd lies on line j and crosses line
            # i (c and d are strictly on opposite sides of it).  So w != 0.
            x = l1 * m2 - l2 * m1
            y = l2 * m0 - l0 * m2
            w = l0 * m1 - l1 * m0
            if w < 0:
                x, y, w = -x, -y, -w
            g = gcd(gcd(abs(x), abs(y)), w)
            hits.append((i, j, x // g, y // g, w // g))
    return hits
