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
circle point), in exact integers, and keeps |s_c(p)| as row c of ``size``,
a list the caller passes empty and keeps.  It keeps the signs as sets of
chords, one integer bitset per circle point or per chord:

- bit c of ``above[p]`` is set iff s_c(p) > 0;
- bit c of ``ends[p]`` is set iff p is an endpoint of chord c;
- ``split[i]`` is the XOR of ``ends[p]`` over the points p with
  s_i(p) > 0, so bit c is set iff exactly one endpoint of chord c has
  s_i > 0.

Row i = (a, b) then tests all its chords j at once, as the bits of
``split[i] & (above[a] ^ above[b]) & ~(ends[a] | ends[b])``.  For a chord j
that shares no endpoint with i, both of j's endpoints are off line i, so
"exactly one has s_i > 0" is "they lie strictly on opposite sides of line
i": bit j of ``split[i]`` is the first pair of sign tests.  Likewise a and b
are off line j, so bit j of ``above[a] ^ above[b]`` is the second pair.  A
chord that shares an endpoint with i has s = 0 there, which counts as "not
above", so the two bitsets no longer mean strict opposite sides: chord
(a, d) is in ``split[i]`` whenever d is above line i, and meets chord i at
the circle point a, not inside the disk.  The endpoint mask clears those
chords.  On a circle the four endpoints are in convex position, so either
pair of tests alone decides a crossing; the kernel keeps both, so the test
does not rest on that.  Shifted right by i + 1, bit k of the set is chord
i + 1 + k, so only chords j > i remain.  The row takes them from one tuple
of chord indices, made once per call, so that a crossing costs only its pair:
a range makes a new int for each index above 256, one per crossing.

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
pairs of S without min(S); those pairs go into a bitset per row when the
point is found, which only happens at concurrent points (3 or more
chords), and later rows clear them from their set.  No triple, gcd or
global dict is needed.

Points come out by row, and within a row in the order their keys were
first seen: by (min S, second chord of S), the order of their first pair
in (i, j) order.  Two chords meet at most once, so no two points share
their first two chords, and that is ascending tuple order.  Rows [start,
k) and [k, stop) see a point with min(S) < k twice: whole, then as its
chords from k on, if two or more.  Two tuples that share two chords are
one point; so the list of [start, stop) is that of [start, k) followed by
the tuples of [k, stop) that share at most one chord with any of them.
"""

from functools import reduce
from itertools import combinations, compress, repeat
from operator import xor

_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bitset(flags):
    """The integer whose bit k is ``flags[k]``."""
    return int(bytes(flags[::-1]).translate(_DIGITS), 2)


def _flags(bits):
    """Byte k is bit k of the integer ``bits`` >= 0, as 0 or 1."""
    return bin(bits)[:1:-1].encode().translate(_FLAGS)


def key_shift(size):
    """The least shift with 2^shift > 4 big^2, big the largest |s| in ``size``."""
    return (4 * max(map(max, size), default=0) ** 2).bit_length()


def intersect_pairs(px, py, pw, lx, ly, lw, ca, cb, start, stop, size):
    """Return the sorted chord tuple of every crossing point, ascending.

    A point's tuple holds every chord through it, as far as rows [start,
    stop) see it; over all rows, ``len`` of the result is the number of
    crossing points.  ``size`` gets the |s_c(p)| rows (module docstring).
    """
    points = tuple(zip(px, py, pw))
    ends = [0] * len(points)
    for c, (a, b) in enumerate(zip(ca, cb)):
        ends[a] |= 1 << c
        ends[b] |= 1 << c
    split = []
    signs = []
    for l0, l1, l2 in zip(lx, ly, lw):
        values = [l0 * x + l1 * y + l2 * w for x, y, w in points]
        positive = [s > 0 for s in values]
        split.append(reduce(xor, compress(ends, positive), 0))
        signs.append(positive)
        size.append(list(map(abs, values)))
    above = [_bitset(column) for column in zip(*signs)]
    shift = key_shift(size)

    crossings = []
    later = {}  # row -> chords met there at a point an earlier row found
    ids = tuple(range(len(ca)))
    for i in range(start, stop):
        a, b = ca[i], cb[i]
        crossing = split[i] & (above[a] ^ above[b]) & ~(ends[a] | ends[b] | later.pop(i, 0))
        at = {}
        repeats = []
        for j in compress(ids[i + 1:], _flags(crossing >> i + 1)):
            sizes = size[j]
            sa = sizes[a]
            first = at.setdefault((sa << shift) // (sa + sizes[b]), j)
            if first != j:
                repeats.append((first, j))
        if not repeats:
            crossings += zip(repeat(i), at.values())
            continue
        through = {j: [i, j] for j in at.values()}
        for first, j in repeats:
            through[first].append(j)
        for chords in through.values():
            for x, y in combinations(chords[1:], 2):
                later[x] = later.get(x, 0) | 1 << y
            crossings.append(tuple(chords))
    return crossings
