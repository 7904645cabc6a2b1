"""Command-line interface.

Four subcommands over the library pipeline:

- ``table``   difference table of a sequence, plus the predicted next term
- ``solve``   infer the recurrence and produce closed forms by one or both
              solver routes, with a cross-route agreement verdict
- ``regions`` circle-division region counts by any of the five methods,
              including the exact geometric construction
- ``verify``  run every cross-check (formula sweeps, solver agreement,
              geometric construction) and report a verdict per check

Every command supports ``--json``; JSON output is a single object with a
stable shape (``schema_version`` 1) in which every exact rational is a
``"p/q"`` string.  Exit codes: 0 success/agreement, 1 verification
disagreement, 2 malformed input, 3 unsupported mathematics (no constant
difference row, irrational/zero characteristic roots), 4 degeneracy retry
budget of a seeded layout exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .core_numeric import format_polynomial, format_quotient, format_rational, parse_rational
from .difference_engine import (
    LinearRecurrence,
    build_difference_table,
    infer_recurrence,
    iterate_recurrence,
    predict_next,
)
from .errors import DegeneracyBudgetError, RecurlabError
from .genfunc_solver import build_ogf, extract_coefficient_formula, partial_fractions
from .geometry import (
    arrangement_to_json_dict,
    count_regions,
    generic_arrangement,
    hexagon_arrangement,
    verify_against_formula,
)
from .moser_formulas import (
    euler_counts,
    moser_polynomial,
    moser_terms,
    regions_binomial,
    regions_binomial_sum,
    regions_polynomial,
)
from .recurrence_solver import ClosedForm, solve_charpoly, to_moser_variable

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_DEGENERACY = 4

DEFAULT_GEOM_CAP = 15
# Most points one geometric build may have, whatever --geom-cap says.  Its
# time and memory grow as C(m, 4) crossings: `regions --method geometric`
# took 0.21 s and 24 MB peak RSS at m = 60, and the same build and count of
# 80 points 0.54 s and 31 MB (Python 3.11, 2-CPU x86-64 host).
MAX_GEOM_M = 60
# Most terms --moser may ask for; time and memory grow linearly: `table --moser
# N --json` took 0.44 s and 73 MB peak RSS at N = 100,000, 1.0 s and 190 MB at 300,000.
MAX_MOSER_N = 100_000
# Largest verify --max-m; its symbolic sweeps are linear in it: `verify --max-m
# N` took 0.8 s and 17 MB peak RSS in process at N = 100,000, 2.5 s at 300,000.
MAX_VERIFY_M = 100_000
# Most --trials for regions or verify; each trial, retried or not, is one more
# counted build, so the worst case is MAX_TRIALS builds of MAX_GEOM_M points:
# `verify --max-m 60 --geom-cap 60 --trials 100` took 17 s and 25 MB peak RSS.
MAX_TRIALS = 100
# Fewest points a verify trial builds: checks 2-5 read trial 0's counts, and 7
# give their depth-4 constant row three equal entries (6 is the least for two).
_MIN_COUNTED = 7

# The four symbolic region counts, by --method name.  Each looks its function up
# when it runs, so a wrapper bound in its place (as by perfbench's tracer) runs.
_SYMBOLIC = {
    "binomial": lambda m: regions_binomial(m),
    "polynomial": lambda m: regions_polynomial(m),
    "sum": lambda m: regions_binomial_sum(m),
    "euler": lambda m: euler_counts(m)[2],
}


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _emit(args, envelope: dict, human_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(envelope, indent=2))
    else:
        print("\n".join(human_lines))


def _envelope(command: str, inputs: dict, method_tags: list[str], result: dict, agreement) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "method_tags": method_tags,
        "result": result,
        "agreement": agreement,
    }


def _closed_form_json(form: ClosedForm) -> dict:
    return {
        "method": form.method,
        "variable": "n",
        "terms": [
            {
                "root": format_rational(root),
                "coefficients": [format_rational(c) for c in poly.coefficients],
            }
            for root, poly in form.terms
        ],
        "display": form.describe(),
    }


def _recurrence_json(rec: LinearRecurrence) -> dict:
    return {
        "order": rec.order,
        "coefficients": [format_rational(c) for c in rec.coefficients],
        "rhs": format_polynomial(rec.rhs),
        "initial_conditions": [format_rational(a) for a in rec.initial_conditions],
        "display": rec.describe(),
    }


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------


def _resolve_sequence(args) -> tuple[tuple[Fraction, ...], dict]:
    provided = [
        (name, value)
        for name, value in (("seq", args.seq), ("file", args.file), ("moser", args.moser))
        if value is not None
    ]
    if len(provided) != 1:
        raise ValueError("provide exactly one of --seq, --file, --moser")
    source, value = provided[0]
    if source == "seq":
        tokens = [tok.strip() for tok in value.split(",")]
        if "" in tokens:
            raise ValueError(f"malformed sequence: {value!r}")
        terms = [parse_rational(tok) for tok in tokens]
    elif source == "file":
        with open(value, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
        terms = [parse_rational(line) for line in lines if line and not line.startswith("#")]
        if not terms:
            raise ValueError(f"no terms found in {value}")
    else:
        if value < 2:
            raise ValueError(f"--moser needs at least 2 terms, got {value}")
        if value > MAX_MOSER_N:
            raise ValueError(f"--moser {value} exceeds the term limit ({MAX_MOSER_N} terms)")
        terms = [Fraction(v) for v in moser_terms(value)]
    inputs = {"source": source, "terms": [format_rational(t) for t in terms]}
    return tuple(terms), inputs


def _geometry_cap(args) -> int:
    cap = args.geom_cap
    if cap < 1:
        raise ValueError(f"geometric cap must be >= 1, got {cap}")
    return cap


def _check_trials(args) -> None:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise ValueError(f"--trials {args.trials} exceeds the trial limit ({MAX_TRIALS})")


def _check_build_size(m: int) -> None:
    if m > MAX_GEOM_M:
        raise ValueError(f"m={m} exceeds the geometric build limit ({MAX_GEOM_M} points)")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    seq, inputs = _resolve_sequence(args)
    table = build_difference_table(seq, args.max_depth)
    depth = table.constant_depth
    next_term = None if depth is None else predict_next(table)

    # Only the printed view is built, not both for _emit: the table can hold
    # tens of thousands of cells.  Its rows go out one at a time, each cell
    # from its integer numerator, laid out as json.dumps(indent=2) would.
    # A cell holds only digits, "-" and "/", so quoting it needs no escaping.
    if args.json:
        next_text = None if next_term is None else format_rational(next_term)
        result = {"rows": [], "constant_depth": depth, "next": next_text}
        text = json.dumps(_envelope("table", inputs, ["differences"], result, None), indent=2)
        head, tail = text.split('"rows": []', 1)
        write, den = sys.stdout.write, table.denominator
        write(head + '"rows": [')
        for d, row in enumerate(table.rows):
            if den == 1:
                cells = '/1",\n        "'.join(map(str, row)) + "/1"
            else:
                cells = '",\n        "'.join(format_quotient(v, den) for v in row)
            write(("," if d else "") + '\n      [\n        "' + cells + '"\n      ]')
        write("\n    ]" + tail + "\n")
        return EXIT_OK

    # The human view is printed a row at a time, so only one row's text is held.
    for d, row in enumerate(table.rows):
        cells = " ".join(format_quotient(v, table.denominator, False) for v in row)
        print(("sequence " if d == 0 else f"depth {d}  ") + ": " + cells)
    if depth is None:
        print("constant row: none certified")
        print("next term: unknown")
    else:
        print(f"constant row: depth {depth}")
        print(f"next term: {next_term}")
    return EXIT_OK


def _solve_forms(rec: LinearRecurrence, methods: list[str]) -> list[ClosedForm]:
    forms = []
    for method in methods:
        if method == "charpoly":
            forms.append(solve_charpoly(rec))
        else:
            forms.append(extract_coefficient_formula(partial_fractions(build_ogf(rec))))
    return forms


def cmd_solve(args) -> int:
    seq, inputs = _resolve_sequence(args)
    table = build_difference_table(seq, args.max_depth)
    rec = infer_recurrence(table)
    methods = ["charpoly", "genfunc"] if args.method == "both" else [args.method]
    forms = _solve_forms(rec, methods)

    agreement = forms[0].agrees_with(forms[1]) if len(forms) == 2 else None
    forms_json = []
    for form in forms:
        entry = _closed_form_json(form)
        if form.polynomial_form() is not None:
            entry["display_in_m"] = format_polynomial(to_moser_variable(form), "m")
        forms_json.append(entry)
    result = {"recurrence": _recurrence_json(rec), "closed_forms": forms_json}
    envelope = _envelope("solve", inputs, methods, result, agreement)

    human = [f"recurrence: {rec.describe()}"]
    for form, entry in zip(forms, forms_json):
        human.append(f"closed form [{form.method}]: a(n) = {form.describe()}")
        if "display_in_m" in entry:
            human.append(f"  in m = n + 1: {entry['display_in_m']}")
    if agreement is not None:
        human.append(f"methods agree: {'yes' if agreement else 'NO'}")
    _emit(args, envelope, human)
    return EXIT_OK if agreement in (None, True) else EXIT_DISAGREEMENT


def cmd_regions(args) -> int:
    m = args.m
    if m < 1:
        raise ValueError(f"--m must be >= 1, got {m}")
    cap = _geometry_cap(args)
    _check_trials(args)
    if args.degenerate is not None:
        if args.method != "geometric":
            raise ValueError("--degenerate requires --method geometric")
        if m != 6:
            raise ValueError("--degenerate hexagon requires --m 6")
        if args.trials != 1 or args.seed is not None:
            raise ValueError("--degenerate hexagon takes neither --trials nor --seed")

    wants = [*_SYMBOLIC, "geometric"] if args.method == "all" else [args.method]
    over_cap = f"m={m} exceeds the geometric cap ({cap}); raise --geom-cap to force it"
    if "geometric" not in wants:
        if args.trials != 1 or args.seed is not None:
            raise ValueError(f"--method {args.method} takes neither --trials nor --seed")
        if args.dump_arrangement:
            raise ValueError(f"--method {args.method} has no arrangement to dump")
    elif m > cap and (
        args.method == "geometric"
        or args.dump_arrangement
        or args.trials != 1
        or args.seed is not None
    ):
        raise ValueError(over_cap)
    elif m <= cap:
        _check_build_size(m)

    counts = {name: count(m) for name, count in _SYMBOLIC.items() if name in wants}
    geometric_detail = geometric_note = None

    if "geometric" in wants:
        if m > cap:
            geometric_note = over_cap
        else:
            reports = []  # counted as built; only the last layout is kept
            for trial in range(args.trials):
                last = None  # free the previous layout before the next is built
                if args.degenerate == "hexagon":
                    last = hexagon_arrangement()
                else:
                    last = generic_arrangement(m, trial=trial, seed=args.seed)
                reports.append(count_regions(last))
            vertices, edges, counts["geometric"] = reports[0]
            geometric_detail = {
                "trials": len(reports),
                "counts": [regions for _, _, regions in reports],
                "vertices": vertices,
                "edges": edges,
                "general_position": last.general_position,
                "degeneracy": None if last.general_position else last.describe_degeneracy(),
            }
            if args.dump_arrangement:
                with open(args.dump_arrangement, "w", encoding="utf-8") as handle:
                    json.dump(arrangement_to_json_dict(last), handle, indent=2)
                    handle.write("\n")

    agreement = None
    if len(counts) >= 2:
        values = list(counts.values())
        agreement = all(v == values[0] for v in values)

    result = {
        "m": m,
        "counts": counts,
        "geometric": geometric_detail,
        "geometric_note": geometric_note,
    }
    envelope = _envelope("regions", {"m": m, "method": args.method}, wants, result, agreement)

    human = [f"m = {m}"]
    for name, value in counts.items():
        human.append(f"{name:>10}: {value}")
    if geometric_detail is not None:
        gp = "yes" if geometric_detail["general_position"] else "no"
        human.append(f"  geometry: V={geometric_detail['vertices']} E={geometric_detail['edges']}"
                     f" general position: {gp}")
        if geometric_detail["degeneracy"]:
            human.append(f"  degeneracy: {geometric_detail['degeneracy']}")
        if geometric_detail["trials"] > 1:
            human.append(f"  trials: {geometric_detail['counts']}")
    if geometric_note:
        human.append(f"  geometric: {geometric_note}")
    if agreement is not None:
        human.append(f"methods agree: {'yes' if agreement else 'NO'}")
    _emit(args, envelope, human)
    return EXIT_OK if agreement in (None, True) else EXIT_DISAGREEMENT


def _verify_checks(args, cap: int) -> list[dict]:
    max_m = args.max_m
    checks: list[dict] = []

    def add(name: str, scope: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "scope": scope, "passed": passed, "detail": detail})

    # Each trial is one build of K = max(geom_limit, _MIN_COUNTED) points,
    # freed before the next, whose regions are counted at every k = 1..K and
    # compared with the closed formula.
    geom_limit = min(max_m, cap)
    formula = moser_terms(max(geom_limit, _MIN_COUNTED))
    trials = [verify_against_formula(formula, trial=t, seed=args.seed) for t in range(args.trials)]

    # 1. The four symbolic methods agree (the Euler route counts V and E by
    #    rule and gets F from Euler's formula).
    mismatch = None
    for m in range(1, max_m + 1):
        values = {name: count(m) for name, count in _SYMBOLIC.items()}
        if len(set(values.values())) != 1:
            mismatch = f"m={m}: {values}"
            break
    add("symbolic-methods-agree", f"m=1..{max_m}", mismatch is None, mismatch or " = ".join(_SYMBOLIC))

    # 2. The paper's derivation, run on trial 0's counted regions: their
    #    difference table gives the recurrence, both routes solve it, and the
    #    closed formula is only compared with what comes out.
    try:
        rec = infer_recurrence(build_difference_table(trials[0][0]))
        charpoly_form, genfunc_form = _solve_forms(rec, ["charpoly", "genfunc"])
    except RecurlabError as exc:
        for name, scope in (
            ("solver-routes-agree", "order-4 region recurrence"),
            ("closed-form-matches-quartic", "m-variable comparison"),
            ("closed-form-evaluation", f"m=1..{max_m}"),
            ("forward-iteration", f"m=1..{min(max_m, 100)}"),
        ):
            add(name, scope, False, f"counted regions: {exc}")
    else:
        add(
            "solver-routes-agree",
            "order-4 region recurrence",
            charpoly_form.agrees_with(genfunc_form),
            f"charpoly: {charpoly_form.describe()} | genfunc: {genfunc_form.describe()}",
        )
        in_m, quartic = to_moser_variable(charpoly_form), moser_polynomial()
        add(
            "closed-form-matches-quartic",
            "m-variable comparison",
            in_m == quartic,
            f"{format_polynomial(in_m, 'm')} vs {format_polynomial(quartic, 'm')}",
        )
        eval_mismatch = None
        for m in range(1, max_m + 1):
            if charpoly_form.evaluate(m - 1) != regions_binomial(m):
                eval_mismatch = f"m={m}"
                break
        add(
            "closed-form-evaluation",
            f"m=1..{max_m}",
            eval_mismatch is None,
            eval_mismatch or "closed form reproduces the region counts",
        )
        iterate_count = max(rec.order, min(max_m, 100))
        iterated = iterate_recurrence(rec, iterate_count)
        add(
            "forward-iteration",
            f"m=1..{iterate_count}",
            all(iterated[i] == regions_binomial(i + 1) for i in range(iterate_count)),
            "recurrence iteration reproduces the region counts",
        )

    # 3. Geometric construction against the closed formula for k <= geom_limit:
    #    the smallest failing k, from the first trial that fails there.
    failures = (f for _, f in trials if f is not None and f[0] <= geom_limit)
    failure = min(failures, key=lambda f: f[0], default=None)
    geom_fail = None
    if failure is not None:
        k, counted, expected, parameters = failure
        geom_fail = f"m={k}: counted {counted}, expected {expected}, points {parameters}"
    add(
        "geometric-construction",
        f"m=1..{geom_limit}, trials={args.trials}",
        geom_fail is None,
        geom_fail or "constructed region counts match the closed formula",
    )
    return checks


def cmd_verify(args) -> int:
    if args.max_m < 1:
        raise ValueError(f"--max-m must be >= 1, got {args.max_m}")
    if args.max_m > MAX_VERIFY_M:
        raise ValueError(f"--max-m {args.max_m} exceeds the sweep limit ({MAX_VERIFY_M})")
    _check_trials(args)
    cap = _geometry_cap(args)
    _check_build_size(max(min(args.max_m, cap), _MIN_COUNTED))
    checks = _verify_checks(args, cap)
    all_passed = all(c["passed"] for c in checks)

    result = {"checks": checks, "all_passed": all_passed}
    inputs = {"max_m": args.max_m, "trials": args.trials, "geom_cap": cap}
    tags = [*_SYMBOLIC, "charpoly", "genfunc", "geometric"]
    envelope = _envelope("verify", inputs, tags, result, all_passed)

    human = []
    for check in checks:
        status = "ok  " if check["passed"] else "FAIL"
        line = f"{status} {check['name']} [{check['scope']}]"
        if not check["passed"]:
            line += f": {check['detail']}"
        human.append(line)
    human.append(f"verdict: {'all checks passed' if all_passed else 'DISAGREEMENT found'}")
    _emit(args, envelope, human)
    return EXIT_OK if all_passed else EXIT_DISAGREEMENT


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_sequence_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seq", help="comma-separated terms (integers or p/q rationals)")
    sub.add_argument("--file", help="file with one term per line (# comments allowed)")
    sub.add_argument(
        "--moser",
        nargs="?",
        const=7,
        type=int,
        metavar="N",
        help="use the first N circle-division counts (default N=7)",
    )
    sub.add_argument(
        "--max-depth", type=int, default=None, help="difference-table depth limit"
    )
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``recurlab`` parser, built once per process on first use.

    Building it runs argparse's help formatter, which reads the terminal
    size, on each ``add_argument``, and ``main`` may run many times in one
    process.  Parsing leaves the parser unchanged, so every call shares it.
    ``main`` looks each subcommand's ``cmd_*`` handler up by name when it
    runs, so the parser holds no function.
    """
    parser = argparse.ArgumentParser(
        prog="recurlab",
        description="Exact linear-recurrence inference, solving, and verification.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    table = commands.add_parser(
        "table", help="difference table and next-term prediction"
    )
    _add_sequence_options(table)

    solve = commands.add_parser(
        "solve", help="infer the recurrence and compute closed forms"
    )
    _add_sequence_options(solve)
    solve.add_argument(
        "--method",
        choices=["charpoly", "genfunc", "both"],
        default="both",
        help="solver route(s) to run (default: both, with agreement verdict)",
    )

    regions = commands.add_parser(
        "regions", help="circle-division region count for m points"
    )
    regions.add_argument("--m", type=int, required=True, help="number of circle points")
    regions.add_argument(
        "--method",
        choices=[*_SYMBOLIC, "geometric", "all"],
        default="all",
        help="counting method (default: all, with agreement verdict)",
    )
    regions.add_argument("--trials", type=int, default=1, help="geometric layouts to try")
    regions.add_argument("--seed", type=int, default=None, help="seeded generic layouts")
    regions.add_argument(
        "--degenerate",
        choices=["hexagon"],
        default=None,
        help="use the exactly symmetric degenerate hexagon (requires --method geometric, --m 6)",
    )
    regions.add_argument(
        "--geom-cap",
        type=int,
        default=DEFAULT_GEOM_CAP,
        help=f"max m for the geometric method (default {DEFAULT_GEOM_CAP})",
    )
    regions.add_argument(
        "--dump-arrangement",
        metavar="PATH",
        help="write the full arrangement (points, chords, intersections) as JSON",
    )
    regions.add_argument("--json", action="store_true", help="emit a JSON report")

    verify = commands.add_parser("verify", help="run every cross-check")
    verify.add_argument("--max-m", type=int, default=30, help="sweep limit (default 30)")
    verify.add_argument(
        "--trials", type=int, default=2, help="geometric layouts, one build each (default 2)"
    )
    verify.add_argument("--seed", type=int, default=None, help="seeded generic layouts")
    verify.add_argument(
        "--geom-cap",
        type=int,
        default=DEFAULT_GEOM_CAP,
        help=f"max m for geometric checks (default {DEFAULT_GEOM_CAP})",
    )
    verify.add_argument("--json", action="store_true", help="emit a JSON report")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)
    except DegeneracyBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except RecurlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
