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
difference row, irrational/zero characteristic roots).
"""

from __future__ import annotations

import argparse
import functools
import io
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
from .errors import RecurlabError
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

DEFAULT_GEOM_CAP = 15
# Most points one geometric build may have, whatever --geom-cap says.  Its
# time and memory grow as C(m, 4) crossings: `regions --method geometric`
# took 0.21 s and 24 MB peak RSS at m = 60, and the same build and count of
# 80 points 0.54 s and 31 MB (Python 3.11, 2-CPU x86-64 host).
MAX_GEOM_M = 60
# Most terms --moser may ask for; time and memory grow linearly: `table --moser
# N --json` took 0.44 s and 73 MB peak RSS at N = 100,000, 1.0 s and 190 MB at 300,000.
MAX_MOSER_N = 100_000
# Most terms `solve --seq` or `--file` may give.  N terms can infer an order
# N - 3 recurrence, and both routes grow steeply with the order: on n^d with
# d + 4 terms, `solve --file` took 0.22 s and 27 MB peak RSS at 204 terms, 0.70
# s and 50 MB at 304, 1.8 s and 95 MB at 404, and 22 s and 668 MB at 804.
# --moser keeps MAX_MOSER_N: its terms certify order 4 (`solve --moser 100000`
# took 0.17 s and 54 MB).  The deepest table 300 terms can certify has depth
# 298, and `solve --file` on 300 terms of n^298 (182,829 bytes) took 1.0-1.25 s
# and 50 MB, so --max-depth needs no bound of its own.  Python 3.11, 2-CPU
# x86-64 host.
MAX_SOLVE_TERMS = 300
# Most terms `table --seq` or `--file` may give.  The table holds about N^2 / 2
# cells, and row k of an alternating sequence holds +-2^k, so the cost grows
# about as N^3 bits: on alternating 0/1 terms `table --seq` took 0.64 s and 84
# MB peak RSS at 1,200 terms, 1.0 s and 136 MB at 1,500, 4.2 s and 273 MB at
# 2,000, and 35 s and 1.7 GB at 4,000.  1,200 terms of 2^n take 82 MB.
MAX_TABLE_TERMS = 1_200
# Most bytes a --file may hold (a longer file is not read past them) and most
# bytes of --seq text (checked before it is split).  The 1,200 terms of 2^n
# take 218,362 bytes, and 300 terms of n^296 181,607.  At the two term limits,
# terms that fill it cost most: 1,200 alternating terms of 217 digits took
# `table --file` 2.3 s and 152 MB peak RSS, and 300 terms of 10^270 n^296 + n
# `solve --file` 1.4 s and 60 MB.  (As a program argument, --seq is at most
# 128 KiB on Linux; `main(argv)` in process takes any length.)  Python 3.11,
# 2-CPU x86-64 host.
MAX_FILE_BYTES = 262_144
# Largest verify --max-m; its symbolic sweeps are linear in it: `verify --max-m
# N` took 0.8 s and 17 MB peak RSS in process at N = 100,000, 2.5 s at 300,000.
MAX_VERIFY_M = 100_000
# Most --trials for regions or verify; each trial is one more counted build,
# so the worst case is MAX_TRIALS builds of MAX_GEOM_M points: `verify --max-m
# 60 --geom-cap 60 --trials 100` took 17 s and 25 MB peak RSS.
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

# The two solver routes, by --method name, each from a recurrence to its
# closed form; looked up when they run, as _SYMBOLIC is.
_ROUTES = {
    "charpoly": lambda rec: solve_charpoly(rec),
    "genfunc": lambda rec: extract_coefficient_formula(partial_fractions(build_ogf(rec))),
}


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _emit(args, envelope: dict, human_lines: list[str]) -> int:
    if args.json:
        print(json.dumps(envelope, indent=2))
    else:
        print("\n".join(human_lines))
    return EXIT_DISAGREEMENT if envelope["agreement"] is False else EXIT_OK


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


def _resolve_sequence(args, limit: int) -> tuple[tuple[Fraction, ...], dict]:
    """The terms of the one sequence source given, and their JSON inputs.

    --seq and --file may give at most ``limit`` terms, the command's own
    limit, in at most MAX_FILE_BYTES bytes; --moser has MAX_MOSER_N.  Each
    bound is checked before any term is parsed or computed.
    """
    provided = [
        (name, value)
        for name, value in (("seq", args.seq), ("file", args.file), ("moser", args.moser))
        if value is not None
    ]
    if len(provided) != 1:
        raise ValueError("provide exactly one of --seq, --file, --moser")
    source, value = provided[0]
    if source == "moser":
        if value < 2:
            raise ValueError(f"--moser needs at least 2 terms, got {value}")
        if value > MAX_MOSER_N:
            raise ValueError(f"--moser {value} exceeds the term limit ({MAX_MOSER_N} terms)")
        terms = [Fraction(v) for v in moser_terms(value)]
    else:
        if source == "seq":
            # Its UTF-8 length; a lone surrogate (an undecodable argv byte) counts 3.
            if len(value.encode("utf-8", "surrogatepass")) > MAX_FILE_BYTES:
                raise ValueError(f"--seq is over the size limit ({MAX_FILE_BYTES} bytes)")
            tokens = [tok.strip() for tok in value.split(",")]
            if "" in tokens:
                raise ValueError(f"malformed sequence: term {tokens.index('') + 1} is empty")
        else:
            with open(value, "rb") as handle:
                data = handle.read(MAX_FILE_BYTES + 1)
            if len(data) > MAX_FILE_BYTES:
                raise ValueError(f"{value} is over the file size limit ({MAX_FILE_BYTES} bytes)")
            # Lines split as iterating a text file splits them: on \n, \r\n or \r.
            lines = [line.strip() for line in io.StringIO(data.decode("utf-8"), newline=None)]
            tokens = [line for line in lines if line and not line.startswith("#")]
            if not tokens:
                raise ValueError(f"no terms found in {value}")
        if len(tokens) > limit:
            raise ValueError(f"{args.command} got {len(tokens)} terms, over the term limit ({limit} terms)")
        terms = [parse_rational(tok) for tok in tokens]
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
    seq, inputs = _resolve_sequence(args, MAX_TABLE_TERMS)
    table = build_difference_table(seq, args.max_depth)
    depth = table.constant_depth
    next_term = None if depth is None else predict_next(table)

    # Only the printed view is built, not both for _emit: the table can hold
    # tens of thousands of cells.  Its rows go out one at a time, each cell
    # from its integer numerator, laid out as json.dumps(indent=2) would.
    # A cell holds only digits, "-" and "/", so quoting it needs no escaping.
    # An integer table's cells are joined from map(repr, row): an int's repr
    # is its str, and the builtin costs less per cell than the str type call.
    den = table.denominator
    if args.json:
        next_text = None if next_term is None else format_rational(next_term)
        result = {"rows": [], "constant_depth": depth, "next": next_text}
        text = json.dumps(_envelope("table", inputs, ["differences"], result, None), indent=2)
        head, tail = text.split('"rows": []', 1)
        write = sys.stdout.write
        write(head + '"rows": [')
        for d, row in enumerate(table.rows):
            if den == 1:
                cells = '/1",\n        "'.join(map(repr, row)) + "/1"
            else:
                cells = '",\n        "'.join(format_quotient(v, den) for v in row)
            write(("," if d else "") + '\n      [\n        "' + cells + '"\n      ]')
        write("\n    ]" + tail + "\n")
        return EXIT_OK

    # The human view is printed a row at a time, so only one row's text is held.
    for d, row in enumerate(table.rows):
        if den == 1:
            cells = " ".join(map(repr, row))
        else:
            cells = " ".join(format_quotient(v, den, False) for v in row)
        print(("sequence " if d == 0 else f"depth {d}  ") + ": " + cells)
    if depth is None:
        print("constant row: none certified")
        print("next term: unknown")
    else:
        print(f"constant row: depth {depth}")
        print(f"next term: {next_term}")
    return EXIT_OK


def cmd_solve(args) -> int:
    seq, inputs = _resolve_sequence(args, MAX_SOLVE_TERMS)
    table = build_difference_table(seq, args.max_depth)
    rec = infer_recurrence(table)
    methods = [*_ROUTES] if args.method == "both" else [args.method]
    forms = [_ROUTES[method](rec) for method in methods]

    agreement = forms[0].agrees_with(forms[1]) if len(forms) == 2 else None
    forms_json = []
    for form in forms:
        entry = _closed_form_json(form)
        if form.polynomial_form() is not None:
            entry["display_in_m"] = format_polynomial(to_moser_variable(form), "m")
        forms_json.append(entry)
    result = {"recurrence": _recurrence_json(rec), "closed_forms": forms_json}
    envelope = _envelope("solve", inputs, methods, result, agreement)

    human = []  # built only when printed: --json never reads it
    if not args.json:
        human.append(f"recurrence: {rec.describe()}")
        for form, entry in zip(forms, forms_json):
            human.append(f"closed form [{form.method}]: a(n) = {form.describe()}")
            if "display_in_m" in entry:
                human.append(f"  in m = n + 1: {entry['display_in_m']}")
        if agreement is not None:
            human.append(f"methods agree: {'yes' if agreement else 'NO'}")
    return _emit(args, envelope, human)


def cmd_regions(args) -> int:
    m = args.m
    if m < 1:
        raise ValueError(f"--m must be >= 1, got {m}")
    cap = _geometry_cap(args)
    _check_trials(args)
    layouts = args.trials != 1 or args.seed is not None  # options only a generic build reads
    if args.degenerate is not None:
        if args.method != "geometric":
            raise ValueError("--degenerate requires --method geometric")
        if m != 6:
            raise ValueError("--degenerate hexagon requires --m 6")
        if layouts:
            raise ValueError("--degenerate hexagon takes neither --trials nor --seed")

    wants = [*_SYMBOLIC, "geometric"] if args.method == "all" else [args.method]
    over_cap = f"m={m} exceeds the geometric cap ({cap}); raise --geom-cap to force it"
    if "geometric" not in wants:
        if layouts:
            raise ValueError(f"--method {args.method} takes neither --trials nor --seed")
        if args.dump_arrangement:
            raise ValueError(f"--method {args.method} has no arrangement to dump")
    elif m > cap and (args.method == "geometric" or args.dump_arrangement or layouts):
        raise ValueError(over_cap)
    elif m <= cap:
        _check_build_size(m)

    counts = {name: count(m) for name, count in _SYMBOLIC.items() if name in wants}
    trial_counts = []  # every trial's regions; only the last layout is kept
    geometric_detail = geometric_note = None

    if "geometric" in wants:
        if m > cap:
            geometric_note = over_cap
        else:
            for trial in range(args.trials):
                last = None  # free the previous layout before the next is built
                if args.degenerate == "hexagon":
                    last = hexagon_arrangement()
                else:
                    last = generic_arrangement(m, trial=trial, seed=args.seed)
                vertices, edges, counts["geometric"] = count_regions(last)
                trial_counts.append(counts["geometric"])
            geometric_detail = {
                "trials": args.trials,
                "counts": trial_counts,
                "vertices": vertices,
                "edges": edges,
                "general_position": last.general_position,
                "degeneracy": None if last.general_position else last.describe_degeneracy(),
            }
            if args.dump_arrangement:
                with open(args.dump_arrangement, "w", encoding="utf-8") as handle:
                    json.dump(arrangement_to_json_dict(last), handle, indent=2)
                    handle.write("\n")

    # Every method's count and every trial's count must be equal.  A lone
    # method has nothing to agree with, unless its trials differ.
    agree = len({*counts.values(), *trial_counts}) == 1
    agreement = None if agree and len(counts) == 1 else agree

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
    return _emit(args, envelope, human)


def _verify_checks(args, cap: int) -> list[dict]:
    max_m = args.max_m
    checks: list[dict] = []

    def add(name: str, scope: str, passed: bool, detail: str = "") -> None:
        checks.append({"name": name, "scope": scope, "passed": passed, "detail": detail})

    # Each trial is one build of K = max(geom_limit, _MIN_COUNTED) points,
    # freed before the next, whose regions are counted at every k = 1..K and
    # compared with the closed formula.
    geom_limit = min(max_m, cap)
    built = max(geom_limit, _MIN_COUNTED)
    _check_build_size(built)
    formula = moser_terms(built)
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
    #    closed formula is only compared with what comes out.  Counts that
    #    give no solved recurrence fail all four checks with the reason.
    iterate_count = min(max_m, 100)
    try:
        rec = infer_recurrence(build_difference_table(trials[0][0]))
        charpoly_form, genfunc_form = (route(rec) for route in _ROUTES.values())
    except RecurlabError as exc:
        outcomes = [(False, f"counted regions: {exc}")] * 4
    else:
        iterate_count = max(rec.order, iterate_count)
        in_m, quartic = to_moser_variable(charpoly_form), moser_polynomial()
        eval_mismatch = None
        for m in range(1, max_m + 1):
            if charpoly_form.evaluate(m - 1) != regions_binomial(m):
                eval_mismatch = f"m={m}"
                break
        iterated = iterate_recurrence(rec, iterate_count)
        outcomes = [
            (
                charpoly_form.agrees_with(genfunc_form),
                f"charpoly: {charpoly_form.describe()} | genfunc: {genfunc_form.describe()}",
            ),
            (in_m == quartic, f"{format_polynomial(in_m, 'm')} vs {format_polynomial(quartic, 'm')}"),
            (eval_mismatch is None, eval_mismatch or "closed form reproduces the region counts"),
            (
                all(iterated[i] == regions_binomial(i + 1) for i in range(iterate_count)),
                "recurrence iteration reproduces the region counts",
            ),
        ]
    scopes = {
        "solver-routes-agree": "order-4 region recurrence",
        "closed-form-matches-quartic": "m-variable comparison",
        "closed-form-evaluation": f"m=1..{max_m}",
        "forward-iteration": f"m=1..{iterate_count}",
    }
    for (name, scope), outcome in zip(scopes.items(), outcomes):
        add(name, scope, *outcome)

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
    checks = _verify_checks(args, cap)
    all_passed = all(c["passed"] for c in checks)

    result = {"checks": checks, "all_passed": all_passed}
    inputs = {"max_m": args.max_m, "trials": args.trials, "geom_cap": cap}
    tags = [*_SYMBOLIC, *_ROUTES, "geometric"]
    envelope = _envelope("verify", inputs, tags, result, all_passed)

    human = []
    for check in checks:
        status = "ok  " if check["passed"] else "FAIL"
        line = f"{status} {check['name']} [{check['scope']}]"
        if not check["passed"]:
            line += f": {check['detail']}"
        human.append(line)
    human.append(f"verdict: {'all checks passed' if all_passed else 'DISAGREEMENT found'}")
    return _emit(args, envelope, human)


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
        choices=[*_ROUTES, "both"],
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
    except (RecurlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED if isinstance(exc, RecurlabError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
