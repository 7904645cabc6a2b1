"""Chord-pair intersection kernel.

Works purely on integer homogeneous coordinates:

- point i of the circle is (px[i], py[i], pw[i]) with pw > 0;
- chord c joins points ca[c] < cb[c] and lies on the line
  (lx[c], ly[c], lw[c]) (the cross product of its endpoint triples).

For each chord pair (i, j) with start <= i < stop, j > i and no shared
endpoint, the chords cross in the open disk exactly when each chord's
endpoints lie strictly on opposite sides of the other chord's line — four
integer sign tests.

``intersect_chords`` passes distinct circle points in counterclockwise
order, and the chords in lexicographic order.  No three distinct points of
a circle are collinear, since a line meets a circle at most twice.  So a
chord's line never passes through a circle point other than its own
endpoints, and none of the four sign tests is ever zero.

Each sign test asks on which side of chord c's line circle point p lies,
and that depends on (c, p) alone.  So the kernel evaluates the side value
s_c(p) = ``lx[c]*px[p] + ly[c]*py[p] + lw[c]*pw[p]`` once per (chord,
circle point), in exact integers, not two to four times per pair.  It
keeps |s_c(p)|, and the signs as one bitmask per chord: bit p of
``side[c]`` is set iff s_c(p) > 0 (endpoints get bit 0, but pairs that
share an endpoint are skipped before any bit is read).  On a circle the four endpoints are in
convex position, so either pair of tests alone decides a crossing; the
kernel keeps both, so the test does not rest on that.

A crossing point is named by its chords, from the side values alone.
Chord j meets chord i = (A, B) at |s_j(B)| A + |s_j(A)| B: the point is on
line i, and s_j of it is 0, as s_j(A) and s_j(B) have opposite signs.  As
W_A, W_B > 0, its place along the chord grows with sa / (sa + sb), where
sa = |s_j(A)| and sb = |s_j(B)|, so two chords meet chord i at one point
exactly when those ratios are equal.  Row i keys chord j by
floor(sa 2^shift / (sa + sb)), with 2^shift > 4 big^2 and big the largest
|s|.  Distinct ratios p/q and p'/q' (q, q' <= 2 big) differ by at least
1/(q q') >= 1/(4 big^2), so scaled by 2^shift they differ by more than 1
and so do their floors: equal keys are exactly equal points.

The point where the chords S meet is found whole in row min(S), as the
row and each j with its key, in j order: every other chord of S is larger
and crosses min(S).  The later rows of S would meet it again, through the
pairs of S without min(S); those pairs go into a set when the point is
found, which only happens at concurrent points (3 or more chords), and
later rows skip them.  No triple, gcd or global dict is needed.

Points come out by row, and within a row in the order their keys were
first seen: by (min S, second chord of S), the order of their first pair
in (i, j) order.  Two chords meet at most once, so no two points share
their first two chords, and that is ascending tuple order.  Rows [start,
k) and [k, stop) see a point with min(S) < k twice: whole, then as its
chords from k on, if two or more.  Two tuples that share two chords are
one point; so the list of [start, stop) is that of [start, k) followed by
the tuples of [k, stop) that share at most one chord with any of them.
"""

from itertools import combinations


def intersect_pairs(px, py, pw, lx, ly, lw, ca, cb, start, stop):
    """Return the sorted chord tuple of every crossing point, ascending.

    A point's tuple holds every chord through it, as far as rows
    [start, stop) see it (module docstring); over all rows, ``len`` of the
    result is the number of crossing points.
    """
    points = tuple(zip(px, py, pw))
    side = []
    size = []
    for l0, l1, l2 in zip(lx, ly, lw):
        values = [l0 * x + l1 * y + l2 * w for x, y, w in points]
        side.append(sum(1 << p for p, s in enumerate(values) if s > 0))
        size.append(list(map(abs, values)))
    big = max(map(max, size), default=0)
    shift = (4 * big * big).bit_length()

    crossings = []
    later = {}  # row -> chords met there at a point an earlier row found
    n = len(ca)
    for i in range(start, stop):
        a, b, si = ca[i], cb[i], side[i]
        skip = later.pop(i, ())
        at = {}
        repeats = []
        for j in range(i + 1, n):
            c, d = ca[j], cb[j]
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
            if j in skip:
                continue
            sizes = size[j]
            sa = sizes[a]
            first = at.setdefault((sa << shift) // (sa + sizes[b]), j)
            if first != j:
                repeats.append((first, j))
        if not repeats:
            crossings.extend([(i, j) for j in at.values()])
            continue
        through = {j: [i, j] for j in at.values()}
        for first, j in repeats:
            through[first].append(j)
        for chords in through.values():
            for x, y in combinations(chords[1:], 2):
                later.setdefault(x, set()).add(y)
            crossings.append(tuple(chords))
    return crossings
