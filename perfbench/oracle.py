"""Answer checks that do not use recurlab.

Every check takes what the program produced (an exit code and its JSON
output, or a returned count) and compares it with a value this module
derives on its own, from ``math.comb`` and ``fractions.Fraction``.  Each
returns None when the answer is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb


def regions(m: int) -> int:
    """Regions of a disk cut by all chords of m points in general position."""
    return 1 + comb(m, 2) + comb(m, 4)


def _envelope(command: str, result) -> tuple[dict | None, str | None]:
    """Parse one CLI result; return (document, None) or (None, reason)."""
    if result.code != 0:
        first = result.err.strip().splitlines()[:1]
        return None, f"{command} exited {result.code}: {first[0] if first else ''}"
    try:
        doc = json.loads(result.out)
    except json.JSONDecodeError as exc:
        return None, f"{command} printed no JSON document: {exc}"
    if doc.get("command") != command:
        return None, f"{command} reported command {doc.get('command')!r}"
    return doc, None


def check_verify(result) -> str | None:
    """``verify`` exits 0 and reports every check passed."""
    doc, reason = _envelope("verify", result)
    if reason:
        return reason
    checks = doc["result"]["checks"]
    if not checks:
        return "verify reported no checks"
    failed = [c["name"] for c in checks if c["passed"] is not True]
    if failed or doc["result"]["all_passed"] is not True:
        return f"verify checks not ok: {failed}"
    return None


def check_regions(m: int, result) -> str | None:
    """``regions --method geometric`` counts C(m,4) crossings and its regions."""
    doc, reason = _envelope("regions", result)
    if reason:
        return reason
    res = doc["result"]
    crossings = comb(m, 4)
    expected = {
        "regions": regions(m),
        "vertices": m + crossings,
        # m arcs, plus each chord cut into 1 + (crossings on it) edges.
        "edges": m + comb(m, 2) + 2 * crossings,
    }
    got = {
        "regions": res["counts"].get("geometric"),
        "vertices": res["geometric"]["vertices"],
        "edges": res["geometric"]["edges"],
    }
    if got != expected:
        return f"regions m={m}: got {got}, expected {expected}"
    return None


def check_faces(m: int, faces) -> str | None:
    """``count_faces`` returns the disk's regions plus the outer face."""
    expected = regions(m) + 1
    if faces != expected:
        return f"count_faces m={m}: got {faces!r}, expected {expected}"
    return None


def poly_value(coefficients: list[int], n: int) -> int:
    """The integer polynomial sum c_k n^k at n."""
    return sum(c * n**k for k, c in enumerate(coefficients))


def _closed_form_value(form: dict, n: int) -> Fraction:
    """Evaluate a JSON closed form sum_r p_r(v) r^v at sequence index n."""
    v = n + 1 if form["variable"] == "m" else n
    total = Fraction(0)
    for term in form["terms"]:
        root = Fraction(term["root"])
        poly = sum(Fraction(c) * v**j for j, c in enumerate(term["coefficients"]))
        total += poly * root**v
    return total


def check_solve(coefficients: list[int], n_terms: int, result) -> str | None:
    """Both closed forms equal the generating polynomial past the input terms."""
    doc, reason = _envelope("solve", result)
    if reason:
        return reason
    if doc["agreement"] is not True:
        return "solve routes disagree"
    forms = doc["result"]["closed_forms"]
    if len(forms) != 2:
        return f"solve returned {len(forms)} closed forms, expected 2"
    for form in forms:
        for n in range(n_terms, n_terms + 4):
            got = _closed_form_value(form, n)
            if got != poly_value(coefficients, n):
                return f"solve [{form['method']}] a({n}) = {got}, expected {poly_value(coefficients, n)}"
    return None


def difference_rows(terms: list[int]) -> tuple[list[list[int]], int | None]:
    """Rows of successive differences by plain subtraction.

    Stops at the first row with two or more entries that are all equal, or
    at depth len(terms) - 2, the deepest row that still holds two entries.
    """
    def constant(row):
        return len(row) >= 2 and len(set(row)) == 1

    rows = [list(terms)]
    if constant(rows[0]):
        return rows, 0
    while len(rows) - 1 < max(1, len(terms) - 2) and len(rows[-1]) >= 2:
        last = rows[-1]
        rows.append([b - a for a, b in zip(last, last[1:])])
        if constant(rows[-1]):
            return rows, len(rows) - 1
    return rows, None


def check_table(terms: list[int], result) -> str | None:
    """``table`` prints the rows, constant depth and next term recomputed here."""
    doc, reason = _envelope("table", result)
    if reason:
        return reason
    res = doc["result"]
    rows, depth = difference_rows(terms)
    if res["constant_depth"] != depth:
        return f"table constant depth {res['constant_depth']}, expected {depth}"
    if len(res["rows"]) != len(rows):
        return f"table has {len(res['rows'])} rows, expected {len(rows)}"
    for d, (got, want) in enumerate(zip(res["rows"], rows)):
        if [Fraction(v) for v in got] != want:
            return f"table row {d} differs from plain subtraction"
    expected_next = None if depth is None else sum(row[-1] for row in rows)
    got_next = None if res["next"] is None else Fraction(res["next"])
    if got_next != expected_next:
        return f"table next term {got_next}, expected {expected_next}"
    return None
