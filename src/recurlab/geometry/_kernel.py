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
circle point), in exact integers, one column per circle point: s_c(p) for
every chord c.  Each column's signs are one byte per chord, and the
transposed columns give |s_c(p)| as row c of ``size``, a list the caller
passes empty and keeps.  It keeps the signs as sets of chords, one integer
bitset per circle point or per chord:

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
i + 1 + k, so only chords j > i remain.  The row's set test takes their
side rows from ``size``, and its grouping pass their indices from one tuple
of chord indices, made once per call, so that no crossing makes an int of
its own: a range makes a new int for each index above 256, one per crossing.

A crossing point is named by its chords, from the side values alone.
Chord j meets chord i = (A, B) at |s_j(B)| A + |s_j(A)| B: the point is on
line i, and s_j of it is 0, as s_j(A) and s_j(B) have opposite signs.  As
W_A, W_B > 0, its place along the chord grows with sa / (sa + sb), where
sa = |s_j(A)| and sb = |s_j(B)|, and so with sa / sb: two chords meet
chord i at one point exactly when those ratios are equal.

Row i first keys chord j by the one-digit key floor(sa 2^w / sb), at a
width w that starts at 30 on each call.  It is a function of sa / sb alone,
so the chords through one point share it, and chords with distinct
one-digit keys meet chord i at distinct points.  So the row puts its keys
in one set, from the side rows alone, and a set as large as the row has no
clash (two chords of one key) and no concurrent point.  Only a smaller set
groups its chords by that key, and only the chords that share a key in the
row get the exact key floor(sa 2^shift / (sa + sb)), with 2^shift > 4 big^2
and big the largest |s|; ``key_shift`` gives the shift on the first clash
of a call, and a call with no clash never computes it.  The one-digit
quotient has about w + log2(sa / sb) bits, where the exact key's has about
twice as many bits as big.  Distinct ratios p/q and p'/q' (q, q' <= 2 big)
differ by at least 1/(q q') >= 1/(4 big^2), so scaled by 2^shift they
differ by more than 1 and so do their floors: equal exact keys are exactly
equal points.

A row whose exact keys find no concurrent point had only false clashes at
w, and then w doubles for the rest of the call, for the later rows; within
a row, where the keys are compared, it is one width.  The same bound caps
it: distinct ratios sa / sb (sb <= big) differ by at least 1 / big^2, so
once 2^w > big^2 no clash at w is false.  A doubling follows a false clash
at w, so 2^w <= big^2, and a doubled width never exceeds
4 log2(big) < 2 ``key_shift(size)``.  In the unseeded 2^i layouts, 270 of
the 780 rows at m = 40 and 1,220 of the 1,770 at m = 60 clash falsely at
w = 30, and none at 60: the first of them doubles w, and no later row
groups its chords.  In t_i = 8^i at m = 25, two rows double w, to 60 and
then to 120, and no later row clashes.

The point where the chords S meet is found whole in row min(S): every
other chord of S is larger and crosses min(S).  The row groups its clashing
chords by exact key, each group the row and its chords in j order, and a
group of 3 or more chords is a concurrent point.  Later rows of S would
meet it again, through the pairs x < y of S without min(S): y is set in
``later[x]``, a bitset per row, when the point is found, and row x clears
``later[x]`` from its set.  No triple, gcd or global dict is needed.

The row's set, less the chords of its concurrent points, is then exactly
its points of two chords, and the kernel returns it as it is, with no
tuple per crossing.  The concurrent points come out as sorted chord
tuples, by row and then by second chord, the order the groups are made
in: ascending tuple order, since two chords meet at most once.

Rows [start, k) and [k, stop) see a point with min(S) < k twice: whole,
then as its chords from k on, if two or more: a bit of the lower one's row
when two, a concurrent tuple when more.  So the result of [start, stop) is
that of [start, k) followed by that of [k, stop), less what shares two
chords with a concurrent point of [start, k): those bits cleared, those
tuples dropped.
"""

from functools import reduce
from itertools import combinations, compress, repeat
from operator import gt, xor

_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bitset(flags):
    """The integer whose bit k is ``flags[k]``."""
    return int(flags[::-1].translate(_DIGITS) or b"0", 2)


def _flags(bits):
    """Byte k is bit k of the integer ``bits`` >= 0, as 0 or 1."""
    return bin(bits)[:1:-1].encode().translate(_FLAGS)


def partners(items, i, row):
    """The items after index i whose bit is set in ``row``: bit k is item
    i + 1 + k, as in the kernel's row bitsets."""
    return compress(items[i + 1:], _flags(row))


def key_shift(size):
    """The least shift with 2^shift > 4 big^2, big the largest |s| in ``size``."""
    return (4 * max(map(max, size), default=0) ** 2).bit_length()


def intersect_pairs(px, py, pw, lx, ly, lw, ca, cb, start, stop, size):
    """Return the crossings of rows [start, stop) as ``(pairs, concurrent)``.

    ``pairs[i - start]`` is row i's bitset of the points of exactly two
    chords: bit k is set iff chord i + 1 + k meets chord i there.
    ``concurrent`` holds the sorted chord tuple of each point of 3 or more
    chords, ascending.  A point is named by one of them, as far as rows
    [start, stop) see it.  ``size`` gets the |s_c(p)| rows (module
    docstring).
    """
    lines = tuple(zip(lx, ly, lw))
    columns = [[l0 * x + l1 * y + l2 * w for l0, l1, l2 in lines] for x, y, w in zip(px, py, pw)]
    signs = [bytes(map(gt, column, repeat(0))) for column in columns]
    above = list(map(_bitset, signs))
    ends = [0] * len(columns)
    for c, (a, b) in enumerate(zip(ca, cb)):
        ends[a] |= 1 << c
        ends[b] |= 1 << c
    split = [reduce(xor, compress(ends, positive), 0) for positive in zip(*signs)]
    size += [list(map(abs, row)) for row in zip(*columns)]
    del columns  # size holds their magnitudes; the rows need no more
    width = 30  # the one-digit keys' shift, doubled after a row of false clashes
    shift = None  # key_shift(size), on the first clash of a call

    pairs = []
    concurrent = []
    later = [0] * len(ca)  # row -> chords met there at a point an earlier row found
    ids = tuple(range(len(ca)))
    for i in range(start, stop):
        a, b = ca[i], cb[i]
        row = (split[i] & (above[a] ^ above[b]) & ~(ends[a] | ends[b] | later[i])) >> i + 1
        if len({(s[a] << width) // s[b] for s in partners(size, i, row)}) < row.bit_count():
            if shift is None:
                shift = key_shift(size)
            at = {}
            clashes = []
            for j in partners(ids, i, row):
                sizes = size[j]
                first = at.setdefault((sizes[a] << width) // sizes[b], j)
                if first != j:
                    clashes += first, j
            groups = {}  # exact key -> [i, its chords in j order]
            for j in sorted(set(clashes)):
                sizes = size[j]
                sa = sizes[a]
                groups.setdefault((sa << shift) // (sa + sizes[b]), [i]).append(j)
            points = [chords for chords in groups.values() if len(chords) > 2]
            for chords in points:
                for x, y in combinations(chords[1:], 2):
                    later[x] |= 1 << y
                for j in chords[1:]:
                    row ^= 1 << j - i - 1
                concurrent.append(tuple(chords))
            if not points:
                width *= 2  # every clash of the row was false
        pairs.append(row)
    return pairs, concurrent
