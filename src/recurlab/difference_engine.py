"""Successive-difference analysis of exact sequences.

Given a sequence, build the table of successive differences row by row.
If some row becomes constant (witnessed by at least two equal entries),
the sequence is generated by a linear recurrence with constant coefficients
and a constant right-hand side, and this module recovers it:

    row d constant  =>  sum_{k=0..d} (-1)^k C(d,k) a_{n+d-k} = rows[d][0]

The alternating-binomial left side is exactly the d-th finite difference,
so the recurrence is monic of order d with the first d terms as initial
conditions.  A constant row 0 (depth 0) is normalized to the order-1
recurrence a_{n+1} - a_n = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .core_numeric import (
    Polynomial,
    Rational,
    as_rational,
    binomial,
    format_polynomial,
    format_signed_terms,
)
from .errors import NoConstantRowError


@dataclass(frozen=True)
class Sequence:
    """A finite exact sequence; term i has index i."""

    terms: tuple[Rational, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(as_rational(t) for t in self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Rational]:
        return iter(self.terms)

    def __getitem__(self, i: int) -> Rational:
        return self.terms[i]


@dataclass(frozen=True)
class DifferenceTable:
    """Rows of successive differences; rows[0] is the input sequence.

    ``constant_depth`` is the depth of the first row certified constant
    (>= 2 equal entries), or None if no row could be certified before the
    table bottomed out or hit its depth limit.
    """

    rows: tuple[tuple[Rational, ...], ...]
    constant_depth: int | None


@dataclass(frozen=True)
class LinearRecurrence:
    """A monic linear recurrence with constant coefficients.

        sum_{k=0..d} coefficients[k] * a_{n+d-k} = rhs(n),   n >= 0

    ``coefficients`` is ordered highest shift first, (c_d, ..., c_0), with
    c_d = 1.  ``initial_conditions`` supplies a_0 .. a_{d-1}.
    """

    coefficients: tuple[Rational, ...]
    rhs: Polynomial
    initial_conditions: tuple[Rational, ...]

    def __post_init__(self):
        coeffs = tuple(as_rational(c) for c in self.coefficients)
        init = tuple(as_rational(a) for a in self.initial_conditions)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "initial_conditions", init)
        if len(coeffs) < 2:
            raise ValueError("a recurrence needs order >= 1 (at least two coefficients)")
        if coeffs[0] != 1:
            raise ValueError(f"recurrence must be monic, got leading coefficient {coeffs[0]}")
        if len(init) != len(coeffs) - 1:
            raise ValueError(
                f"expected {len(coeffs) - 1} initial conditions, got {len(init)}"
            )

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def describe(self, variable: str = "n") -> str:
        """Human-readable equation, e.g. ``a[n+4] - 4*a[n+3] + ... + a[n] = 1``."""
        d = self.order
        lhs = format_signed_terms(
            (c, f"a[{variable}]" if k == d else f"a[{variable}+{d - k}]")
            for k, c in enumerate(self.coefficients)
        )
        return f"{lhs} = {format_polynomial(self.rhs, variable)}"


def _is_constant(row: tuple[Rational, ...]) -> bool:
    """Constancy certified only with >= 2 entries; a single entry never counts."""
    return len(row) >= 2 and all(entry == row[0] for entry in row)


def build_difference_table(seq: Sequence, max_depth: int | None = None) -> DifferenceTable:
    """Difference the sequence until a row is certified constant.

    Stops at the first constant row, at ``max_depth``, or when the next row
    would be empty — whichever comes first.  ``max_depth`` defaults to
    ``len(seq) - 2``, the deepest row that can still hold two entries.

    Examples::

        (1, 2, 4, 8, 16, 31) -> rows down to (1, 1), constant_depth 4
        (5, 5, 5, 5)         -> constant_depth 0
        (1, 2, 4, 8, 16)     -> constant_depth None (no certified row)
    """
    if len(seq) < 2:
        raise ValueError(f"need at least 2 terms to difference, got {len(seq)}")
    if max_depth is None:
        max_depth = max(1, len(seq) - 2)
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")

    rows: list[tuple[Rational, ...]] = [tuple(seq.terms)]
    depth: int | None = 0 if _is_constant(rows[0]) else None
    while depth is None and len(rows) - 1 < max_depth and len(rows[-1]) >= 2:
        current = rows[-1]
        nxt = tuple(current[i + 1] - current[i] for i in range(len(current) - 1))
        rows.append(nxt)
        if _is_constant(nxt):
            depth = len(rows) - 1
    return DifferenceTable(tuple(rows), depth)


def predict_next(table: DifferenceTable) -> Rational:
    """Next term: the sum of each row's last entry, constant row up to row 0.

    For (1, 2, 4, 8, 16, 31) the last entries are 1, 3, 7, 15, 31 and the
    prediction is 57.
    """
    depth = table.constant_depth
    if depth is None:
        raise NoConstantRowError(
            "no constant difference row was certified; cannot predict the next term"
        )
    return sum((row[-1] for row in table.rows[: depth + 1]), start=Fraction(0))


def infer_recurrence(table: DifferenceTable) -> LinearRecurrence:
    """The monic recurrence certified by the table's constant row.

    Depth d >= 1 gives coefficients (-1)^k C(d, k), right-hand side equal
    to the constant row's value, and the first d terms as initial
    conditions.  Depth 0 (already-constant input) is normalized to
    a_{n+1} - a_n = 0.
    """
    depth = table.constant_depth
    if depth is None:
        raise NoConstantRowError(
            "no constant difference row was certified; cannot infer a recurrence"
        )
    sequence = table.rows[0]
    if depth == 0:
        return LinearRecurrence(
            coefficients=(Fraction(1), Fraction(-1)),
            rhs=Polynomial.zero(),
            initial_conditions=(sequence[0],),
        )
    if len(sequence) < depth + 1:
        raise ValueError(
            f"sequence has {len(sequence)} terms; need {depth + 1} for an order-{depth} recurrence"
        )
    coefficients = tuple(Fraction((-1) ** k * binomial(depth, k)) for k in range(depth + 1))
    return LinearRecurrence(
        coefficients=coefficients,
        rhs=Polynomial.constant(table.rows[depth][0]),
        initial_conditions=tuple(sequence[:depth]),
    )


def iterate_recurrence(rec: LinearRecurrence, count: int) -> Sequence:
    """First ``count`` terms generated forward from the initial conditions.

    Rearranges the recurrence as
    a_{n+d} = rhs(n) - sum_{k=1..d} c_{d-k} a_{n+d-k} and iterates exactly.
    Requires ``count >= order`` so the initial conditions fit.
    """
    d = rec.order
    if count < d:
        raise ValueError(f"count must be >= order ({d}), got {count}")
    terms = list(rec.initial_conditions)
    for n in range(count - d):
        nxt = rec.rhs.evaluate(n)
        for i in range(1, d + 1):
            nxt -= rec.coefficients[i] * terms[n + d - i]
        terms.append(nxt)
    return Sequence(tuple(terms))
