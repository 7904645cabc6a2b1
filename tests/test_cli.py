"""Command-line interface: golden outputs, JSON schema, exit codes.

Most tests drive ``main(argv)`` in-process and capture stdout; one smoke
test runs ``python3 -m recurlab`` as a real subprocess.
"""

import hashlib
import json
import subprocess
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recurlab import build_difference_table, format_rational, predict_next, regions_binomial, regions_polynomial
from recurlab.cli import (
    MAX_FILE_BYTES,
    MAX_GEOM_M,
    MAX_MOSER_N,
    MAX_SOLVE_TERMS,
    MAX_TABLE_TERMS,
    MAX_TRIALS,
    MAX_VERIFY_M,
    build_parser,
    main,
)
from recurlab.core_numeric import format_quotient
from recurlab.geometry import arrangement as arrangement_module
from recurlab.geometry import (
    CirclePoint,
    build_arrangement,
    hexagon_arrangement,
    seeded_parameters,
)

from conftest import drop_first_born, drop_last_crossing

QUARTIC_IN_M = "(m^4 - 6*m^3 + 23*m^2 - 18*m + 24)/24"
QUARTIC_IN_N = "(n^4 - 2*n^3 + 11*n^2 + 14*n + 24)/24"


def _point(x, y, *chords):
    return {"x": x, "y": y, "chords": list(chords)}


# The whole --dump-arrangement file of the degenerate hexagon, as written by
# json.dump(..., indent=2) plus a newline.
HEXAGON_DUMP = {
    "schema_version": 1,
    "m": 6,
    "points": ["-2/1", "-1/2", "0/1", "1/2", "2/1", "inf"],
    "chords": [[a, b] for a in range(6) for b in range(a + 1, 6)],
    "interior_points": [
        _point("3/5", "-1/5", 1, 6),
        _point("3/11", "-4/11", 1, 7),
        _point("0/1", "-1/2", 1, 8),
        _point("0/1", "0/1", 2, 7, 11),
        _point("-3/11", "-4/11", 2, 8),
        _point("3/11", "4/11", 2, 10),
        _point("-3/5", "-1/5", 3, 8),
        _point("-3/5", "0/1", 3, 11),
        _point("-3/5", "1/5", 3, 13),
        _point("3/5", "1/5", 6, 10),
        _point("3/5", "0/1", 6, 11),
        _point("-3/11", "4/11", 7, 13),
        _point("0/1", "1/2", 10, 13),
    ],
    "degeneracy": {
        "concurrent": [_point("0/1", "0/1", 2, 7, 11)],
        "on_circle": [],
        "summary": "1 concurrent intersection point(s) (up to 3 chords through one point)",
    },
    "general_position": False,
}

# sha256 of the dump file of `regions --m 12 --method geometric --seed 5`.
SEEDED_M12_DUMP_SHA256 = "90698d53f2ec3f17b943e6f1481e4a1c987a8621550d77b9df78e6fe5a34e36e"


# sha256 of the --dump-arrangement file and of stdout, per geometric command.
GEOMETRY_PINS = {
    "--m 6 --method geometric --degenerate hexagon --json": (
        "6a2092b2f1ba3f9ae058cd1870f25c17699f2351e9e5e32940fbb4294f2eb682",
        "3cda204b2a01386a332e0c5608532d012f4bb54085a223bc797962def6fbaec3",
    ),
    "--m 12 --method geometric --seed 5 --json": (
        "90698d53f2ec3f17b943e6f1481e4a1c987a8621550d77b9df78e6fe5a34e36e",
        "0929c58ffbb838805a70f57c06eda156c5316a8fbb9615000a8a0a37f39afb86",
    ),
    "--m 24 --method geometric --seed 5 --geom-cap 24 --json": (
        "5e8ed9a4d1440f025f767a48de0adb5ca6dd2b05453b422d42e3a2a1b7a420fa",
        "f1de4ba1589e2b1e03a8d62fc2e5a6475863f2a1039ffa84b0ad77f0425c5bb9",
    ),
}


# stdout of `verify --max-m 30 --geom-cap 25`.
VERIFY_NORTH_STAR = """\
ok   symbolic-methods-agree [m=1..30]
ok   solver-routes-agree [order-4 region recurrence]
ok   closed-form-matches-quartic [m-variable comparison]
ok   closed-form-evaluation [m=1..30]
ok   forward-iteration [m=1..30]
ok   geometric-construction [m=1..25, trials=2]
verdict: all checks passed
"""

# sha256 of the stdout of `verify --max-m 30 --geom-cap 25 --trials 3 --seed 11 --json`.
VERIFY_SEEDED_JSON_SHA256 = "ac2e97d5b54e31233c6c0eace91f13ad3313ed49d238a27d27b6943ecedfe82a"


# Pinned `table` and `solve` inputs: rational terms with a common
# denominator, the rational sequence whose recurrence prints `(2)/3`, and a
# mixed-sign cubic.  Human stdout is pinned as text, `--json` stdout by its
# sha256; every run exits 0.
PIN_HALVES = "--seq=1/2,3/2,5/2"
PIN_RATIONAL = "--seq=1/7,-1/42,10/21,23/14,73/21,251/42,64/7,545/42,367/21"
PIN_MIXED_SIGN = "--seq=4,-2,-14,-20,-8,34,118,256"

TABLE_PINS = {
    PIN_HALVES: (
        """\
sequence : 1/2 3/2 5/2
depth 1  : 1 1
constant row: depth 1
next term: 7/2
""",
        "6fd118e1c03350345dddd545885c32cdf81b4b82ac2c5212c383e36488b91b0a",
    ),
    PIN_RATIONAL: (
        """\
sequence : 1/7 -1/42 10/21 23/14 73/21 251/42 64/7 545/42 367/21
depth 1  : -1/6 1/2 7/6 11/6 5/2 19/6 23/6 9/2
depth 2  : 2/3 2/3 2/3 2/3 2/3 2/3 2/3
constant row: depth 2
next term: 317/14
""",
        "c71f8ef052cc9f419eeb7ba76b60e5b6d19e1c1cb882fe3142e86bc1c2d243e3",
    ),
    PIN_MIXED_SIGN: (
        """\
sequence : 4 -2 -14 -20 -8 34 118 256
depth 1  : -6 -12 -6 12 42 84 138
depth 2  : -6 6 18 30 42 54
depth 3  : 12 12 12 12 12
constant row: depth 3
next term: 460
""",
        "9f0095fa49d5bb740a883fdf043aed5ca37d8969fb46bd26e1aaa84569a75229",
    ),
}

SOLVE_PINS = {
    PIN_HALVES: (
        """\
recurrence: a[n+1] - a[n] = 1
closed form [charpoly]: a(n) = (2*n + 1)/2
  in m = n + 1: (2*m - 1)/2
closed form [genfunc]: a(n) = (2*n + 1)/2
  in m = n + 1: (2*m - 1)/2
methods agree: yes
""",
        "781e8021697d6bdc38b7043602ccf3764a1effa8f1a45e095af622bdd44aca5c",
    ),
    PIN_RATIONAL: (
        """\
recurrence: a[n+2] - 2*a[n+1] + a[n] = (2)/3
closed form [charpoly]: a(n) = (14*n^2 - 21*n + 6)/42
  in m = n + 1: (14*m^2 - 49*m + 41)/42
closed form [genfunc]: a(n) = (14*n^2 - 21*n + 6)/42
  in m = n + 1: (14*m^2 - 49*m + 41)/42
methods agree: yes
""",
        "69dae0126a092d5f068e9034f32d434d00701d1c34e92a8b366cd04e04ee3838",
    ),
    PIN_MIXED_SIGN: (
        """\
recurrence: a[n+3] - 3*a[n+2] + 3*a[n+1] - a[n] = 12
closed form [charpoly]: a(n) = 2*n^3 - 9*n^2 + n + 4
  in m = n + 1: 2*m^3 - 15*m^2 + 25*m - 8
closed form [genfunc]: a(n) = 2*n^3 - 9*n^2 + n + 4
  in m = n + 1: 2*m^3 - 15*m^2 + 25*m - 8
methods agree: yes
""",
        "edfef683d084692096ef6d5e32c7e78ec1e184575c32ddb2e7663bc1847010c0",
    ),
}


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv + ["--json"], capsys)
    return code, json.loads(out), err


def check_pins(command, pins, capsys):
    for seq, (human, json_sha256) in pins.items():
        assert run_cli([command, seq], capsys) == (0, human, ""), seq
        code, out, err = run_cli([command, seq, "--json"], capsys)
        assert (code, err) == (0, ""), seq
        assert hashlib.sha256(out.encode()).hexdigest() == json_sha256, seq


class TestTable:
    def test_golden_pins(self, capsys):
        check_pins("table", TABLE_PINS, capsys)

    def test_human_golden(self, capsys):
        code, out, err = run_cli(["table", "--moser"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "sequence : 1 2 4 8 16 31 57",
            "depth 1  : 1 2 4 8 15 26",
            "depth 2  : 1 2 4 7 11",
            "depth 3  : 1 2 3 4",
            "depth 4  : 1 1 1",
            "constant row: depth 4",
            "next term: 99",
        ]

    def test_json_envelope(self, capsys):
        code, payload, _ = run_json(["table", "--moser"], capsys)
        assert code == 0
        assert payload["schema_version"] == 1
        assert payload["command"] == "table"
        assert payload["inputs"]["source"] == "moser"
        assert payload["inputs"]["terms"][:3] == ["1/1", "2/1", "4/1"]
        assert payload["method_tags"] == ["differences"]
        assert payload["result"]["constant_depth"] == 4
        assert payload["result"]["next"] == "99/1"
        assert payload["result"]["rows"][4] == ["1/1", "1/1", "1/1"]
        assert payload["agreement"] is None

    def test_constant_sequence(self, capsys):
        code, payload, _ = run_json(["table", "--seq", "5,5,5"], capsys)
        assert code == 0
        assert payload["result"]["constant_depth"] == 0
        assert payload["result"]["next"] == "5/1"

    def test_rational_terms(self, capsys):
        code, payload, _ = run_json(["table", "--seq", "1/2,1,3/2,2"], capsys)
        assert code == 0
        assert payload["result"]["constant_depth"] == 1
        assert payload["result"]["next"] == "5/2"

    def test_no_constant_row_is_reported_not_an_error(self, capsys):
        # Pure doubling never has a constant difference row; the table
        # command still succeeds and reports the unknown next term.
        code, payload, _ = run_json(["table", "--seq", "1,2,4,8,16"], capsys)
        assert code == 0
        assert payload["result"]["constant_depth"] is None
        assert payload["result"]["next"] is None

    def test_unknown_next_human(self, capsys):
        code, out, _ = run_cli(["table", "--seq", "1,2,4,8,16"], capsys)
        assert code == 0
        assert "constant row: none certified" in out
        assert "next term: unknown" in out

    def test_file_source(self, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text("# region counts\n1\n2\n\n4\n8\n16\n31\n57\n")
        code, payload, _ = run_json(["table", "--file", str(path)], capsys)
        assert code == 0
        assert payload["result"]["next"] == "99/1"

    def test_file_with_byte_order_mark(self, tmp_path, capsys):
        # A UTF-8 byte-order mark, as some editors write, is not part of
        # the first term: the output is that of the same file without it.
        path = tmp_path / "seq.txt"
        text = "1\n2\n4\n8\n16\n31\n"
        for argv in (["table", "--file", str(path)], ["table", "--file", str(path), "--json"]):
            path.write_text(text, encoding="utf-8")
            plain = run_cli(argv, capsys)
            path.write_text(text, encoding="utf-8-sig")
            assert path.read_bytes().startswith(b"\xef\xbb\xbf")
            assert run_cli(argv, capsys) == plain, argv
            assert plain[0] == 0 and plain[2] == "", argv

    @pytest.mark.parametrize("text", ["", "# no terms\n\n#  1, 2, 3\n"])
    def test_empty_file_exit_2(self, text, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text(text)
        code, out, err = run_cli(["table", "--file", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: no terms found in {path}\n"

    def test_malformed_sequence_exit_2(self, capsys):
        code, out, err = run_cli(["table", "--seq", "1,,2"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: malformed sequence: term 2 is empty\n"

    def test_malformed_long_sequence_names_its_empty_term(self, capsys):
        # 260,002 bytes, under the --seq size limit: the message names the
        # empty term's position, not the text.
        value = "1," * 130_000 + ",1"
        assert len(value) == 260_002
        code, out, err = run_cli(["table", "--seq=" + value], capsys)
        assert (code, out) == (2, "")
        assert err == "error: malformed sequence: term 130001 is empty\n"
        assert len(err) < 200

    def test_non_numeric_token_exit_2(self, capsys):
        code, _, err = run_cli(["table", "--seq", "1,two,3"], capsys)
        assert code == 2
        assert "error" in err

    def test_exponent_term_exit_2_at_parse(self, capsys):
        # Fraction would read 1e99999999 and build a 10^99999999 integer;
        # 1e5 goes first, so a parser that accepts exponents fails fast.
        for term in ("1e5", "2E3", "1e99999999"):
            for command in ("table", "solve"):
                code, out, err = run_cli([command, f"--seq=1,2,{term}"], capsys)
                assert (code, out) == (2, ""), (command, term)
                assert err == f"error: not a rational number: '{term}'\n"

    def test_term_over_digit_limit_exit_2_with_short_message(self, tmp_path, capsys):
        # Python converts at most get_int_max_str_digits() digits to an int.
        # A term at the limit parses; one digit more exits 2 at parse, and
        # the message gives the term's length and the limit, not the term.
        limit = sys.get_int_max_str_digits()
        code, _, err = run_cli(["table", f"--seq=1,2,{'9' * limit}"], capsys)
        assert (code, err) == (0, "")
        path = tmp_path / "seq.txt"
        for digits in (limit + 1, 2 * limit):
            path.write_text(f"1\n2\n{'9' * digits}\n")
            for argv in (["table", f"--seq=1,2,{'9' * digits}"], ["solve", "--file", str(path)]):
                code, out, err = run_cli(argv, capsys)
                assert (code, out) == (2, ""), (argv[0], digits)
                assert err == (
                    f"error: not a rational number: a {digits}-character term "
                    f"(Python's integer-string limit is {limit} digits)\n"
                )
                assert len(err.encode()) < 200

    def test_number_over_digit_limit_exit_2_before_output(self, capsys):
        # A cell or next term with more digits than the limit exits 2 before
        # anything is printed, in both views; one at the limit prints.
        limit = sys.get_int_max_str_digits()
        n = "9" * limit
        refused = {
            f"{n},-{n},{n}": "depth 1 of the table has a cell",  # row 1 holds 2n
            f"{n},0,-{n}": "the next term is",  # -2n, after every row fits
            f"1/{n},1/7": "depth 1 of the table has a cell",  # denominator 7n
        }
        printed = {
            f"{n},0": f"sequence : {n} 0\ndepth 1  : -{n}\nconstant row: none certified\nnext term: unknown\n",
            f"{n},{n}": f"sequence : {n} {n}\nconstant row: depth 0\nnext term: {n}\n",
        }
        for seq, what in refused.items():
            for argv in (["table", f"--seq={seq}"], ["table", f"--seq={seq}", "--json"]):
                message = f"error: {what} over Python's integer-string limit ({limit} digits)\n"
                assert run_cli(argv, capsys) == (2, "", message), what
        for seq, human in printed.items():
            assert run_cli(["table", f"--seq={seq}"], capsys) == (0, human, "")
            code, report, err = run_json(["table", f"--seq={seq}"], capsys)
            rows = [line.split(": ")[1].split() for line in human.splitlines()[:-2]]
            assert (code, err) == (0, "")
            assert report["result"]["rows"] == [[f"{v}/1" for v in row] for row in rows]

    def test_two_sources_exit_2(self, capsys):
        code, _, err = run_cli(["table", "--seq", "1,2", "--moser"], capsys)
        assert code == 2
        assert "exactly one" in err

    def test_no_source_exit_2(self, capsys):
        code, _, err = run_cli(["table"], capsys)
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(["table", "--file", "/nonexistent/seq.txt"], capsys)
        assert code == 2

    def test_moser_needs_two_terms(self, capsys):
        code, _, err = run_cli(["table", "--moser", "1"], capsys)
        assert code == 2

    def test_moser_term_limit_exit_2(self, capsys, monkeypatch):
        # Over the limit nothing is built: the terms are never computed.
        def never(n):
            raise AssertionError(f"moser_terms({n}) called over the limit")

        monkeypatch.setattr("recurlab.moser_formulas.moser_terms", never)
        for command in ("table", "solve"):
            for n in (MAX_MOSER_N + 1, 10**40):
                code, out, err = run_cli([command, f"--moser={n}", "--json"], capsys)
                assert (code, out) == (2, ""), (command, n)
                assert err == f"error: --moser {n} exceeds the term limit ({MAX_MOSER_N} terms)\n"

    def test_solve_term_limit_exit_2(self, tmp_path, capsys, monkeypatch):
        # Up to the limit a sequence solves; over it, from --seq or --file,
        # nothing is solved: the difference table is never built.  --moser
        # keeps its own limit.
        squares = [n * n for n in range(MAX_SOLVE_TERMS + 1)]
        code, out, _ = run_cli(["solve", "--seq=" + ",".join(map(str, squares[:-1]))], capsys)
        assert code == 0 and "methods agree: yes" in out
        code, _, _ = run_cli(["solve", f"--moser={MAX_SOLVE_TERMS + 1}"], capsys)
        assert code == 0

        def never(*args):
            raise AssertionError("a difference table was built over the limit")

        monkeypatch.setattr("recurlab.difference_engine.build_difference_table", never)
        path = tmp_path / "squares.txt"
        path.write_text("".join(f"{v}\n" for v in squares))
        for argv in (["solve", "--seq=" + ",".join(map(str, squares))], ["solve", "--file", str(path), "--json"]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, ""), argv
            assert err == f"error: solve got {MAX_SOLVE_TERMS + 1} terms, over the term limit ({MAX_SOLVE_TERMS} terms)\n"

    def test_table_term_limit_exit_2(self, tmp_path, capsys, monkeypatch):
        # Up to the limit a table is built; over it, from --seq or --file,
        # no term is parsed and no table is built.
        code, out, _ = run_cli(["table", "--seq=" + ",".join(map(str, range(MAX_TABLE_TERMS)))], capsys)
        assert code == 0 and out.endswith(f"constant row: depth 1\nnext term: {MAX_TABLE_TERMS}\n")

        def never(*args):
            raise AssertionError("parsed or built over the limit")

        monkeypatch.setattr("recurlab.core_numeric.parse_rational", never)
        monkeypatch.setattr("recurlab.difference_engine.build_difference_table", never)
        path = tmp_path / "alternating.txt"
        path.write_text("0\n1\n" * (MAX_TABLE_TERMS // 2) + "0\n")
        seq = "--seq=" + ",".join("01"[n % 2] for n in range(MAX_TABLE_TERMS + 1))
        for argv in (["table", seq], ["table", "--file", str(path), "--json"]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, ""), argv
            assert err == f"error: table got {MAX_TABLE_TERMS + 1} terms, over the term limit ({MAX_TABLE_TERMS} terms)\n"

    def test_file_byte_limit_exit_2(self, tmp_path, capsys, monkeypatch):
        # A file of MAX_FILE_BYTES is read whole; one byte more is not read
        # past the limit, whatever it holds, and no term is parsed.
        path = tmp_path / "padded.txt"
        head = "1\n2\n4\n8\n16\n31\n#"
        path.write_text(head + "-" * (MAX_FILE_BYTES - len(head) - 1) + "\n")
        assert path.stat().st_size == MAX_FILE_BYTES
        assert run_cli(["table", "--file", str(path)], capsys)[1].endswith("next term: 57\n")
        path.write_text(head + "-" * (MAX_FILE_BYTES - len(head)) + "\n")

        def never(*args):
            raise AssertionError("a term was parsed over the limit")

        monkeypatch.setattr("recurlab.core_numeric.parse_rational", never)
        for command in ("table", "solve"):
            code, out, err = run_cli([command, "--file", str(path)], capsys)
            assert (code, out) == (2, ""), command
            assert err == f"error: {path} is over the file size limit ({MAX_FILE_BYTES} bytes)\n"

    def test_seq_byte_limit_exit_2(self, capsys, monkeypatch):
        # --seq text of MAX_FILE_BYTES bytes is split, so its one term too
        # many is what exits; one byte more exits before the text is split.
        # In process nothing else bounds it (as a program argument the OS
        # caps it lower), and no term is parsed either way.
        def never(*args):
            raise AssertionError("a term was parsed over the limit")

        monkeypatch.setattr("recurlab.core_numeric.parse_rational", never)
        terms = ["1"] * (MAX_SOLVE_TERMS + 1)
        terms[-1] = "1".rjust(MAX_FILE_BYTES - 2 * MAX_SOLVE_TERMS, "0")
        text = ",".join(terms)
        assert len(text.encode()) == MAX_FILE_BYTES
        for seq, message in (
            (text, f"solve got {MAX_SOLVE_TERMS + 1} terms, over the term limit ({MAX_SOLVE_TERMS} terms)"),
            ("0" + text, f"--seq is over the size limit ({MAX_FILE_BYTES} bytes)"),
        ):
            assert run_cli(["solve", "--seq=" + seq, "--json"], capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "seq, max_depth",
        [
            ("1,2,4,8,16", 4),  # no certified row; the last row holds one cell
            ("1/3,2/5", None),  # two terms: one-cell last row
            (PIN_RATIONAL[len("--seq="):], None),  # rational cells, certified depth and next
            ("1,2,4,8,16,31", None),  # integer cells, certified depth and next
            (PIN_MIXED_SIGN[len("--seq="):], 2),  # --max-depth stops above the constant row
            ("-3,0,0,5,-7,0", 10),  # negative and zero integer cells; one-cell last row
        ],
    )
    def test_json_streams_as_json_dumps_lays_out(self, seq, max_depth, capsys):
        # The rows are written one at a time; the bytes must be those of the
        # whole envelope through json.dumps(indent=2) plus print's newline.
        terms = [Fraction(t) for t in seq.split(",")]
        table = build_difference_table(terms, max_depth)
        depth = table.constant_depth
        envelope = {
            "schema_version": 1,
            "command": "table",
            "inputs": {"source": "seq", "terms": [format_rational(t) for t in terms]},
            "method_tags": ["differences"],
            "result": {
                "rows": [
                    [format_rational(Fraction(v, table.denominator)) for v in row]
                    for row in table.rows
                ],
                "constant_depth": depth,
                "next": None if depth is None else format_rational(predict_next(table)),
            },
            "agreement": None,
        }
        argv = ["table", "--seq=" + seq, "--json"]
        if max_depth is not None:
            argv += ["--max-depth", str(max_depth)]
        assert run_cli(argv, capsys) == (0, json.dumps(envelope, indent=2) + "\n", "")

    @pytest.mark.parametrize("seq", ["-3,0,0,5,-7,0", "0,-4", "1/3,-2/3,0,5,-7/2"])
    def test_human_cells_as_format_quotient(self, seq, capsys):
        # Integer and rational tables, with negative and zero cells, print
        # each cell as format_quotient does, down to the one-cell last row.
        table = build_difference_table([Fraction(t) for t in seq.split(",")], 10)
        assert len(table.rows[-1]) == 1
        expected = [
            ("sequence " if d == 0 else f"depth {d}  ") + ": "
            + " ".join(format_quotient(v, table.denominator, False) for v in row)
            for d, row in enumerate(table.rows)
        ]
        code, out, err = run_cli(["table", "--seq=" + seq, "--max-depth=10"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[: len(table.rows)] == expected


class TestSolve:
    def test_golden_pins(self, capsys):
        check_pins("solve", SOLVE_PINS, capsys)

    def test_human_golden(self, capsys):
        code, out, _ = run_cli(["solve", "--moser"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "recurrence: a[n+4] - 4*a[n+3] + 6*a[n+2] - 4*a[n+1] + a[n] = 1"
        assert lines[1] == f"closed form [charpoly]: a(n) = {QUARTIC_IN_N}"
        assert lines[2] == f"  in m = n + 1: {QUARTIC_IN_M}"
        assert lines[3] == f"closed form [genfunc]: a(n) = {QUARTIC_IN_N}"
        assert lines[4] == f"  in m = n + 1: {QUARTIC_IN_M}"
        assert lines[5] == "methods agree: yes"

    def test_json_envelope(self, capsys):
        code, payload, _ = run_json(["solve", "--moser"], capsys)
        assert code == 0
        assert payload["agreement"] is True
        assert payload["method_tags"] == ["charpoly", "genfunc"]
        rec = payload["result"]["recurrence"]
        assert rec["order"] == 4
        assert rec["coefficients"] == ["1/1", "-4/1", "6/1", "-4/1", "1/1"]
        assert rec["rhs"] == "1"
        assert rec["initial_conditions"] == ["1/1", "2/1", "4/1", "8/1"]
        forms = payload["result"]["closed_forms"]
        assert [f["method"] for f in forms] == ["charpoly", "genfunc"]
        for form in forms:
            assert form["display"] == QUARTIC_IN_N
            assert form["display_in_m"] == QUARTIC_IN_M
            assert form["variable"] == "n"
            (term,) = form["terms"]
            assert term["root"] == "1/1"
            assert term["coefficients"] == ["1/1", "7/12", "11/24", "-1/12", "1/24"]

    def test_six_terms_suffice(self, capsys):
        # Six region counts already certify the depth-4 constant row.
        code, payload, _ = run_json(["solve", "--moser", "6"], capsys)
        assert code == 0
        assert payload["agreement"] is True
        assert payload["result"]["closed_forms"][0]["display_in_m"] == QUARTIC_IN_M

    def test_single_method_no_agreement_verdict(self, capsys):
        for method in ("charpoly", "genfunc"):
            code, payload, _ = run_json(["solve", "--moser", "--method", method], capsys)
            assert code == 0
            assert payload["agreement"] is None
            assert payload["method_tags"] == [method]
            assert len(payload["result"]["closed_forms"]) == 1

    def test_constant_sequence(self, capsys):
        code, payload, _ = run_json(["solve", "--seq", "5,5,5,5"], capsys)
        assert code == 0
        rec = payload["result"]["recurrence"]
        assert rec["order"] == 1
        assert rec["coefficients"] == ["1/1", "-1/1"]
        for form in payload["result"]["closed_forms"]:
            assert form["display"] == "5"

    def test_no_constant_row_exit_3(self, capsys):
        # No difference row of this sequence is constant, so no recurrence
        # of the supported shape exists within the depth budget.
        code, _, err = run_cli(["solve", "--seq", "1,2,4,8,16,32,32,32"], capsys)
        assert code == 3

    def test_fibonacci_exit_3(self, capsys):
        code, out, err = run_cli(
            ["solve", "--seq", "1,1,2,3,5,8,13,21,34,55"], capsys
        )
        assert code == 3
        assert out == ""
        assert "constant" in err

    def test_squares(self, capsys):
        code, payload, _ = run_json(["solve", "--seq", "0,1,4,9,16,25"], capsys)
        assert code == 0
        assert payload["agreement"] is True
        assert payload["result"]["closed_forms"][0]["display"] == "n^2"


class TestRegions:
    def test_all_methods_agree_m6(self, capsys):
        code, payload, _ = run_json(["regions", "--m", "6"], capsys)
        assert code == 0
        assert payload["agreement"] is True
        counts = payload["result"]["counts"]
        assert counts == {
            "binomial": 31,
            "polynomial": 31,
            "sum": 31,
            "euler": 31,
            "geometric": 31,
        }
        detail = payload["result"]["geometric"]
        assert detail["general_position"] is True
        assert detail["degeneracy"] is None
        assert (detail["vertices"], detail["edges"]) == (21, 51)

    @pytest.mark.parametrize("method", ["all", "geometric"])
    def test_later_trial_disagreement_exits_1(self, method, capsys, monkeypatch):
        # A kernel that drops a crossing in trial 1 only: its count joins the
        # comparison, with two or more methods or with the geometric one alone.
        from recurlab.geometry import _kernel, generic_arrangement

        def faulty(m, trial, seed):
            with monkeypatch.context() as patch:
                if trial == 1:
                    pairs = _kernel.intersect_pairs
                    patch.setattr(_kernel, "intersect_pairs", lambda *args: drop_last_crossing(pairs(*args)))
                return generic_arrangement(m, trial=trial, seed=seed)

        monkeypatch.setattr("recurlab.geometry.arrangement.generic_arrangement", faulty)
        argv = ["regions", "--m", "12", "--trials", "2", "--method", method]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert "  trials: [562, 561]" in lines and lines[-1] == "methods agree: NO"
        code, payload, _ = run_json(argv, capsys)
        assert (code, payload["agreement"]) == (1, False)
        assert payload["result"]["geometric"]["counts"] == [562, 561]

    def test_m1(self, capsys):
        code, payload, _ = run_json(["regions", "--m", "1"], capsys)
        assert code == 0
        assert payload["agreement"] is True
        assert set(payload["result"]["counts"].values()) == {1}

    def test_m10_expected_256(self, capsys):
        code, payload, _ = run_json(["regions", "--m", "10"], capsys)
        assert code == 0
        assert payload["result"]["counts"]["geometric"] == 256
        assert payload["agreement"] is True

    def test_degenerate_hexagon(self, capsys):
        code, payload, _ = run_json(
            ["regions", "--m", "6", "--method", "geometric", "--degenerate", "hexagon"],
            capsys,
        )
        assert code == 0
        assert payload["result"]["counts"] == {"geometric": 30}
        detail = payload["result"]["geometric"]
        assert detail["general_position"] is False
        assert "concurrent" in detail["degeneracy"]
        assert payload["agreement"] is None

    def test_degenerate_hexagon_human(self, capsys):
        code, out, _ = run_cli(
            ["regions", "--m", "6", "--method", "geometric", "--degenerate", "hexagon"],
            capsys,
        )
        assert code == 0
        assert " geometric: 30" in out
        assert "general position: no" in out
        assert "degeneracy:" in out

    def test_degenerate_requires_geometric_method(self, capsys):
        code, _, err = run_cli(
            ["regions", "--m", "6", "--degenerate", "hexagon"], capsys
        )
        assert code == 2
        assert "requires --method geometric" in err

    def test_degenerate_requires_m6(self, capsys):
        code, _, err = run_cli(
            ["regions", "--m", "7", "--method", "geometric", "--degenerate", "hexagon"],
            capsys,
        )
        assert code == 2
        assert "--m 6" in err

    def test_degenerate_rejects_trials_and_seed(self, capsys):
        argv = ["regions", "--m", "6", "--method", "geometric", "--degenerate", "hexagon"]
        for extra in (["--trials", "3"], ["--seed", "4"], ["--trials", "1", "--seed", "0"]):
            code, out, err = run_cli(argv + extra + ["--json"], capsys)
            assert (code, out) == (2, ""), extra
            assert "neither --trials nor --seed" in err, extra

    def test_geometry_flags_without_geometry_exit_2(self, tmp_path, capsys):
        # A flag that only the geometric construction reads is an input
        # error when no construction runs, never silently dropped.
        path = tmp_path / "arrangement.json"
        dump = ["--dump-arrangement", str(path)]
        cases = [
            (["--m", "5", "--method", "binomial"] + dump, "no arrangement to dump"),
            (["--m", "20"] + dump, "exceeds the geometric cap"),
        ]
        for method in ("binomial", "polynomial", "sum", "euler"):
            for extra in (["--trials", "2"], ["--seed", "3"]):
                cases.append(
                    (["--m", "5", "--method", method] + extra, "neither --trials nor --seed")
                )
        for argv, message in cases:
            code, out, err = run_cli(["regions"] + argv + ["--json"], capsys)
            assert (code, out) == (2, ""), argv
            assert message in err, argv
            assert not path.exists(), argv

    def test_trials_and_seed_over_cap_exit_2(self, capsys):
        # With --method all above the cap the geometric count is skipped, so
        # --trials and --seed have nothing to act on.
        for extra in (["--trials", "2"], ["--seed", "3"]):
            code, out, err = run_cli(["regions", "--m", "20"] + extra, capsys)
            assert (code, out) == (2, ""), extra
            assert err == (
                "error: m=20 exceeds the geometric cap (15); raise --geom-cap to force it\n"
            ), extra
        code, payload, _ = run_json(["regions", "--m", "20", "--seed", "3", "--geom-cap", "20"], capsys)
        assert code == 0
        assert payload["result"]["counts"]["geometric"] == 5036

    def test_m0_exit_2(self, capsys):
        code, _, err = run_cli(["regions", "--m", "0"], capsys)
        assert code == 2

    def test_trials_validated(self, capsys):
        code, _, err = run_cli(["regions", "--m", "4", "--trials", "0"], capsys)
        assert code == 2

    def test_multiple_trials_reported(self, capsys):
        code, payload, _ = run_json(
            ["regions", "--m", "5", "--method", "geometric", "--trials", "3"], capsys
        )
        assert code == 0
        detail = payload["result"]["geometric"]
        assert detail["trials"] == 3
        assert detail["counts"] == [16, 16, 16]

    def test_cap_blocks_geometric_only_run(self, capsys):
        code, _, err = run_cli(
            ["regions", "--m", "6", "--method", "geometric", "--geom-cap", "5"], capsys
        )
        assert code == 2
        assert "exceeds the geometric cap" in err

    def test_cap_skips_geometric_in_all_mode(self, capsys):
        code, payload, _ = run_json(["regions", "--m", "6", "--geom-cap", "5"], capsys)
        assert code == 0
        counts = payload["result"]["counts"]
        assert "geometric" not in counts
        assert len(counts) == 4
        assert payload["agreement"] is True
        assert "exceeds the geometric cap" in payload["result"]["geometric_note"]

    def test_build_limit_exit_2(self, capsys):
        # MAX_GEOM_M bounds the build, not --geom-cap: a cap above it runs
        # while the build stays within it, and an over-cap m builds nothing.
        assert MAX_GEOM_M >= 40  # regions-large builds m = 40
        over = MAX_GEOM_M + 1
        for argv, m in (
            (["regions", "--m", over, "--method", "geometric", "--geom-cap", over], over),
            (["regions", "--m", over, "--geom-cap", 1000], over),
            (["verify", "--max-m", over, "--geom-cap", over], over),
            (["verify", "--max-m", 1000, "--geom-cap", 1000], 1000),
        ):
            code, out, err = run_cli(list(map(str, argv)), capsys)
            assert (code, out) == (2, ""), argv
            assert err == f"error: m={m} exceeds the geometric build limit ({MAX_GEOM_M} points)\n"
        for argv in (
            ["regions", "--m", over],
            ["regions", "--m", "8", "--method", "geometric", "--geom-cap", "1000"],
            ["verify", "--max-m", "8", "--geom-cap", "1000", "--trials", "1"],
            ["verify", "--max-m", "1000", "--geom-cap", "8", "--trials", "1"],
        ):
            code, _, err = run_cli(list(map(str, argv)), capsys)
            assert (code, err) == (0, ""), argv

    def test_cap_zero_exit_2(self, capsys):
        code, _, err = run_cli(
            ["regions", "--m", "4", "--method", "geometric", "--geom-cap", "0"], capsys
        )
        assert code == 2

    def test_single_symbolic_method(self, capsys):
        code, payload, _ = run_json(["regions", "--m", "20", "--method", "binomial"], capsys)
        assert code == 0
        assert payload["result"]["counts"] == {"binomial": 5036}
        assert payload["agreement"] is None

    def test_symbolic_routes_read_patched_names(self, capsys, monkeypatch):
        # Each command reads the routes' functions from moser_formulas when
        # it runs, so a wrapper bound there after import (as perfbench's
        # tracer binds them) is what runs, in regions and in verify's check
        # 1.  A geometric-only run calls none of them.  verify's moser_terms calls
        # regions_binomial itself before check 1, so it computes its terms
        # with the real function and records nothing.
        from recurlab import moser_formulas

        calls = []
        routes = ("regions_binomial", "regions_polynomial", "regions_binomial_sum", "euler_counts")
        binomial = moser_formulas.regions_binomial
        monkeypatch.setattr(moser_formulas, "moser_terms", lambda n: [binomial(m) for m in range(1, n + 1)])
        for name in routes:
            real = getattr(moser_formulas, name)
            monkeypatch.setattr(
                moser_formulas, name, lambda m, real=real, name=name: calls.append(name) or real(m)
            )
        assert run_cli(["regions", "--m=5"], capsys)[0] == 0
        assert calls == list(routes)
        calls.clear()
        assert run_cli(["regions", "--m=5", "--method=sum"], capsys)[0] == 0
        assert calls == ["regions_binomial_sum"]
        calls.clear()
        assert run_cli(["regions", "--m=7", "--method=geometric"], capsys)[0] == 0
        assert calls == []
        assert run_cli(["verify", "--max-m=2", "--trials=1"], capsys)[0] == 0
        assert calls[:8] == list(routes) * 2

    def test_human_and_json_same_numbers(self, capsys):
        code_h, out, _ = run_cli(["regions", "--m", "7"], capsys)
        code_j, payload, _ = run_json(["regions", "--m", "7"], capsys)
        assert code_h == code_j == 0
        for value in payload["result"]["counts"].values():
            assert value == 57
        assert out.count("57") == len(payload["result"]["counts"])

    def test_seeded_runs_deterministic(self, capsys):
        argv = ["regions", "--m", "8", "--method", "geometric", "--seed", "11"]
        code1, payload1, _ = run_json(argv, capsys)
        code2, payload2, _ = run_json(argv, capsys)
        assert code1 == code2 == 0
        assert payload1 == payload2
        assert payload1["result"]["counts"]["geometric"] == 99

    def test_dump_arrangement(self, tmp_path, capsys):
        path = tmp_path / "arrangement.json"
        code, payload, _ = run_json(
            [
                "regions",
                "--m",
                "4",
                "--method",
                "geometric",
                "--dump-arrangement",
                str(path),
            ],
            capsys,
        )
        assert code == 0
        dumped = json.loads(path.read_text())
        assert dumped["schema_version"] == 1
        assert dumped["m"] == 4
        assert len(dumped["points"]) == 4
        assert len(dumped["chords"]) == 6
        assert len(dumped["interior_points"]) == 1
        assert dumped["general_position"] is True

    def test_dump_arrangement_golden(self, tmp_path, capsys):
        path = tmp_path / "hexagon.json"
        argv = ["regions", "--m", "6", "--method", "geometric", "--degenerate", "hexagon"]
        code, out, err = run_cli(argv + ["--dump-arrangement", str(path)], capsys)
        assert (code, err) == (0, "")
        assert "geometric: 30" in out
        assert path.read_text() == json.dumps(HEXAGON_DUMP, indent=2) + "\n"

        path = tmp_path / "seeded.json"
        argv = ["regions", "--m", "12", "--method", "geometric", "--seed", "5"]
        code, payload, err = run_json(argv + ["--dump-arrangement", str(path)], capsys)
        assert (code, err) == (0, "")
        assert payload["result"]["counts"]["geometric"] == 562
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SEEDED_M12_DUMP_SHA256


    @pytest.mark.parametrize("args", list(GEOMETRY_PINS))
    def test_geometric_golden_pins(self, args, tmp_path, capsys):
        path = tmp_path / "arrangement.json"
        code, out, err = run_cli(["regions", *args.split(), "--dump-arrangement", str(path)], capsys)
        assert (code, err) == (0, "")
        dump_sha256, out_sha256 = GEOMETRY_PINS[args]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == dump_sha256
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha256

    def test_seeded_trials_step_the_seed(self, tmp_path, capsys):
        # Trial t of a seeded run is the layout of seed + t, so the second
        # trial of seed 5, which is the one dumped, is seed 6's first.
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, extra in zip(paths, (["--seed", "5", "--trials", "2"], ["--seed", "6"])):
            argv = ["regions", "--m", "12", "--method", "geometric", *extra]
            assert run_cli([*argv, "--dump-arrangement", str(path)], capsys)[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_trials_hold_one_layout_at_a_time(self, capsys, monkeypatch):
        # Each trial's arrangement is freed before the next is built, so
        # peak memory is that of one build, whatever --trials says.
        from recurlab.geometry import generic_arrangement

        held = []

        def tracked(m, trial, seed):
            assert all(ref() is None for ref in held), f"trial {trial}: a layout is still held"
            arr = generic_arrangement(m, trial=trial, seed=seed)
            held.append(weakref.ref(arr))
            return arr

        monkeypatch.setattr("recurlab.geometry.arrangement.generic_arrangement", tracked)
        code, out, _ = run_cli(["regions", "--m=8", "--method=geometric", "--trials=3"], capsys)
        assert code == 0 and "  trials: [99, 99, 99]" in out.splitlines()
        assert len(held) == 3


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, payload, _ = run_json(
            ["verify", "--max-m", "8", "--trials", "1"], capsys
        )
        assert code == 0
        assert payload["agreement"] is True
        result = payload["result"]
        assert result["all_passed"] is True
        names = [c["name"] for c in result["checks"]]
        assert names == [
            "symbolic-methods-agree",
            "solver-routes-agree",
            "closed-form-matches-quartic",
            "closed-form-evaluation",
            "forward-iteration",
            "geometric-construction",
        ]
        assert all(c["passed"] for c in result["checks"])

    def test_human_lines(self, capsys):
        code, out, _ = run_cli(["verify", "--max-m", "6", "--trials", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert all(line.startswith("ok  ") for line in lines[:-1])
        assert lines[-1] == "verdict: all checks passed"

    def test_symbolic_mismatch_fails_check_1(self, capsys, monkeypatch):
        # One symbolic count one too high at m = 7 fails check 1 alone, with
        # every method's count at the first m where they differ.
        monkeypatch.setattr("recurlab.moser_formulas.regions_polynomial", lambda m: regions_polynomial(m) + (m == 7))
        argv = ["verify", "--max-m", "12", "--geom-cap", "10"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[0] == (
            "FAIL symbolic-methods-agree [m=1..12]: "
            "m=7: {'binomial': 57, 'polynomial': 58, 'sum': 57, 'euler': 57}"
        )
        assert all(line.startswith("ok  ") for line in lines[1:-1])
        code, payload, _ = run_json(argv, capsys)
        assert code == 1 and payload["agreement"] is False
        assert [c["passed"] for c in payload["result"]["checks"]] == [False] + [True] * 5

    def test_caps_geometric_scope(self, capsys):
        code, payload, _ = run_json(
            ["verify", "--max-m", "40", "--trials", "1", "--geom-cap", "4"], capsys
        )
        assert code == 0
        geom = [c for c in payload["result"]["checks"] if c["name"] == "geometric-construction"]
        assert geom[0]["scope"] == "m=1..4, trials=1"

    def test_north_star_golden(self, capsys):
        code, out, err = run_cli(["verify", "--max-m", "30", "--geom-cap", "25"], capsys)
        assert (code, out, err) == (0, VERIFY_NORTH_STAR, "")
        argv = ["verify", "--max-m", "30", "--geom-cap", "25", "--trials", "3", "--seed", "11"]
        code, out, err = run_cli(argv + ["--json"], capsys)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SEEDED_JSON_SHA256

    def test_dropped_crossing_is_a_disagreement(self, capsys, monkeypatch):
        # A kernel that loses a crossing must fail the geometric check
        # (exit 1).  Each trial builds one 10-point arrangement, and the
        # kernel's last crossing there involves the last point, so the first
        # failing prefix is m=10.
        # Trial 0's counts have no constant difference row, so checks 2-5,
        # which run on them, fail as well (exit 1, not 3).
        self._drop_last_crossing(monkeypatch)
        code, out, _ = run_cli(["verify", "--max-m", "12", "--geom-cap", "10"], capsys)
        assert code == 1
        points = ", ".join(f"'{2**i}/1'" for i in range(10))
        assert (
            "FAIL geometric-construction [m=1..10, trials=2]: "
            f"m=10: counted 255, expected 256, points ({points})\n"
        ) in out
        assert self._unsolved_lines(12) == out.splitlines()[1:5]

    def test_dropped_early_crossing_fails_at_its_birth(self, capsys, monkeypatch):
        # Drop the crossing of chords (0, 2) and (1, 3).  The generic layouts'
        # parameters increase, so angular order is birth order, and that
        # crossing is born with the fourth point: every prefix from m=4 on
        # misses it.
        from recurlab.geometry import _kernel

        intersect_pairs = _kernel.intersect_pairs
        monkeypatch.setattr(
            _kernel, "intersect_pairs", lambda *args: drop_first_born(intersect_pairs(*args), args[7])
        )
        code, out, _ = run_cli(["verify", "--max-m", "12", "--geom-cap", "10"], capsys)
        assert code == 1
        assert (
            "FAIL geometric-construction [m=1..10, trials=2]: "
            "m=4: counted 7, expected 8, points ('1/1', '2/1', '4/1', '8/1')\n"
        ) in out
        assert self._unsolved_lines(12) == out.splitlines()[1:5]

    @staticmethod
    def _unsolved_lines(max_m):
        """Checks 2-5 as verify prints them when the counts have no
        certified constant difference row."""
        detail = "counted regions: no constant difference row was certified; cannot infer a recurrence"
        return [
            f"FAIL solver-routes-agree [order-4 region recurrence]: {detail}",
            f"FAIL closed-form-matches-quartic [m-variable comparison]: {detail}",
            f"FAIL closed-form-evaluation [m=1..{max_m}]: {detail}",
            f"FAIL forward-iteration [m=1..{min(max_m, 100)}]: {detail}",
        ]

    def test_wrong_formula_value_is_a_disagreement(self, capsys, monkeypatch):
        # The formula is only compared: one wrong value of it fails the
        # geometric check (exit 1) and leaves the derivation, which runs on
        # the counted regions, untouched.  Fed to the difference table, the
        # same value left no constant row, and verify exited 3.
        from recurlab.moser_formulas import moser_terms

        def wrong(count):
            terms = moser_terms(count)
            terms[5] += 1
            return terms

        monkeypatch.setattr("recurlab.moser_formulas.moser_terms", wrong)
        code, payload, _ = run_json(["verify", "--max-m", "12", "--geom-cap", "10"], capsys)
        assert code == 1
        checks = {c["name"]: c for c in payload["result"]["checks"]}
        assert checks["solver-routes-agree"]["passed"] is True
        assert checks["solver-routes-agree"]["detail"] == f"charpoly: {QUARTIC_IN_N} | genfunc: {QUARTIC_IN_N}"
        assert [name for name, c in checks.items() if not c["passed"]] == ["geometric-construction"]
        assert checks["geometric-construction"]["detail"].startswith("m=6: counted 31, expected 32, points ")

    def test_at_least_seven_points_are_built(self, capsys, monkeypatch):
        # Checks 2-5 read trial 0's counts, and a trial builds at least 7
        # points, whatever the geometric scope.
        builds = self._track_builds(monkeypatch)
        code, out, _ = run_cli(["verify", "--max-m", "3"], capsys)
        assert code == 0
        assert "ok   geometric-construction [m=1..3, trials=2]" in out.splitlines()
        code, payload, _ = run_json(["verify", "--max-m", "40", "--geom-cap", "4", "--trials", "1"], capsys)
        assert (code, payload["result"]["checks"][-1]["scope"]) == (0, "m=1..4, trials=1")
        assert builds == [(7, 0, None), (7, 1, None), (7, 0, None)]

    def test_count_wrong_beyond_the_scope_fails_the_derivation(self, capsys, monkeypatch):
        # A count wrong only at k = 6 lies outside geometric-construction's
        # m=1..3 and m=1..4, but it is among the counts checks 2-5 run on.
        prefix_region_counts = arrangement_module.prefix_region_counts

        def wrong_at_six(arr):
            counts = prefix_region_counts(arr)
            counts[5] += 1
            return counts

        monkeypatch.setattr(arrangement_module, "prefix_region_counts", wrong_at_six)
        for argv, max_m, scope in (
            (["--max-m", "3"], 3, "m=1..3, trials=2"),
            (["--max-m", "40", "--geom-cap", "4", "--trials", "1"], 40, "m=1..4, trials=1"),
        ):
            code, out, _ = run_cli(["verify", *argv], capsys)
            assert code == 1
            lines = out.splitlines()
            assert lines[1:5] == self._unsolved_lines(max_m)
            assert lines[5] == f"ok   geometric-construction [{scope}]"

    def test_build_limit_bounds_the_size_built(self, capsys, monkeypatch):
        # --max-m 3 builds 7 points, so the limit applies to 7, not 3.
        monkeypatch.setattr("recurlab.cli.MAX_GEOM_M", 6)
        code, out, err = run_cli(["verify", "--max-m", "3"], capsys)
        assert (code, out, err) == (2, "", "error: m=7 exceeds the geometric build limit (6 points)\n")
        monkeypatch.setattr("recurlab.cli.MAX_GEOM_M", 7)
        assert run_cli(["verify", "--max-m", "3"], capsys)[0] == 0

    @staticmethod
    def _drop_last_crossing(monkeypatch):
        from recurlab.geometry import _kernel

        intersect_pairs = _kernel.intersect_pairs
        monkeypatch.setattr(
            _kernel, "intersect_pairs", lambda *args: drop_last_crossing(intersect_pairs(*args))
        )

    @staticmethod
    def _track_builds(monkeypatch):
        """Record each trial's build, and check that no earlier trial's
        arrangement is alive when the next one is built."""
        build = arrangement_module.generic_arrangement
        builds, held = [], []

        def tracked(m, *, trial=0, seed=None):
            assert all(ref() is None for ref in held), f"trial {trial}: a layout is still held"
            arr = build(m, trial=trial, seed=seed)
            builds.append((m, trial, seed))
            held.append(weakref.ref(arr))
            return arr

        monkeypatch.setattr(arrangement_module, "generic_arrangement", tracked)
        return builds

    @staticmethod
    def _seeded_prefix(k, seed):
        return tuple(p.parameter_text for p in build_arrangement(map(CirclePoint, seeded_parameters(k, seed))))

    def test_one_build_per_trial_each_freed(self, capsys, monkeypatch):
        # Peak memory is that of one build, whatever --trials says.
        builds = self._track_builds(monkeypatch)
        assert run_cli(["verify", "--max-m=12", "--geom-cap=12"], capsys)[0] == 0
        assert run_cli(["verify", "--max-m=8", "--geom-cap=8", "--trials=3", "--seed=5"], capsys)[0] == 0
        assert builds == [(12, 0, None), (12, 1, None), (8, 0, 5), (8, 1, 5), (8, 2, 5)]

    def test_mismatch_is_read_off_the_counted_build(self, capsys, monkeypatch):
        # A dropped crossing fails both trials at m=7 with seed 3.  The
        # reported points are trial 0's 7-prefix, read off its 8-point
        # build: nothing is rebuilt at m=7 to report them.
        self._drop_last_crossing(monkeypatch)
        builds = self._track_builds(monkeypatch)
        code, out, _ = run_cli(["verify", "--max-m=8", "--geom-cap=8", "--seed=3"], capsys)
        assert code == 1
        assert f"m=7: counted 56, expected 57, points {self._seeded_prefix(7, 3)}" in out
        assert builds == [(8, 0, 3), (8, 1, 3)]

    @pytest.mark.parametrize("seed, births", [(3, [7, 7]), (7, [8, 7]), (7, [8, 7, 8])])
    def test_smallest_failing_k_across_trials(self, capsys, monkeypatch, seed, births):
        # Dropping the kernel's last crossing fails trial t first at
        # births[t] (test_geometry's TestVerifyAgainstFormula pins these).
        # The smallest k is reported, from the first trial that fails there.
        # Seed 3: both trials fail at m=7, and trial 0 is reported, not the
        # last trial on the tie.  Seed 7: trial 1 fails at m=7 before trial 0
        # does at m=8, so neither the largest k nor the first failing trial
        # is reported; with three trials, trial 2 fails at m=8 as trial 0 does.
        self._drop_last_crossing(monkeypatch)
        trials, m = len(births), min(births)
        trial = births.index(m)
        assert len({self._seeded_prefix(m, seed + t) for t in range(trials)}) == trials
        argv = ["verify", "--max-m=8", "--geom-cap=8", f"--trials={trials}", f"--seed={seed}"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 1
        assert (
            f"FAIL geometric-construction [m=1..8, trials={trials}]: m={m}: counted "
            f"{regions_binomial(m) - 1}, expected {regions_binomial(m)}, "
            f"points {self._seeded_prefix(m, seed + trial)}"
        ) in out.splitlines()

    def test_invalid_arguments(self, capsys):
        assert run_cli(["verify", "--max-m", "0"], capsys)[0] == 2
        assert run_cli(["verify", "--trials", "0"], capsys)[0] == 2

    def test_sweep_limit_exit_2(self, capsys, monkeypatch):
        # The limit is checked before any sweep: stub the checks, so the
        # largest allowed --max-m passes at once and anything above exits 2.
        swept = []

        def no_checks(args, cap):
            swept.append(args.max_m)
            return []

        monkeypatch.setattr("recurlab.cli._verify_checks", no_checks)
        assert run_cli(["verify", f"--max-m={MAX_VERIFY_M}"], capsys) == (
            0, "verdict: all checks passed\n", ""
        )
        for n in (MAX_VERIFY_M + 1, 10**40):
            code, out, err = run_cli(["verify", f"--max-m={n}", "--json"], capsys)
            assert (code, out) == (2, ""), n
            assert err == f"error: --max-m {n} exceeds the sweep limit ({MAX_VERIFY_M})\n"
        assert swept == [MAX_VERIFY_M]

    def test_trial_limit_exit_2(self, capsys, monkeypatch):
        # Both geometric commands check --trials before any build: stub the
        # verify checks and the regions build, so the largest allowed count
        # runs at once and anything above exits 2 with nothing built.
        built = []

        def no_checks(args, cap):
            built.append(("verify", args.trials))
            return []

        def no_build(m, trial, seed):
            built.append(("regions", trial))
            return hexagon_arrangement()

        monkeypatch.setattr("recurlab.cli._verify_checks", no_checks)
        monkeypatch.setattr("recurlab.geometry.arrangement.generic_arrangement", no_build)
        commands = (["verify"], ["regions", "--m=6", "--method=geometric"])
        for command in commands:
            assert run_cli([*command, f"--trials={MAX_TRIALS}"], capsys)[0] == 0
        assert built == [("verify", MAX_TRIALS)] + [("regions", t) for t in range(MAX_TRIALS)]
        built.clear()
        for command in commands:
            for n in (MAX_TRIALS + 1, 10**40):
                code, out, err = run_cli([*command, f"--trials={n}", "--json"], capsys)
                assert (code, out) == (2, ""), (command, n)
                assert err == f"error: --trials {n} exceeds the trial limit ({MAX_TRIALS})\n"
        assert built == []


class TestParser:
    # Each outcome once: argparse errors, a ValueError, unsupported
    # mathematics and three successes.
    MIXED = (
        ["frobnicate"],
        ["table", "--moser", "0"],
        ["solve", "--seq=1,2,4,8,16"],
        ["table", "--moser", "--json"],
        ["verify", "--max-m", "12", "--geom-cap", "10"],
        ["regions", "--m", "6", "--method", "bogus"],
        ["regions", "--m", "5", "--method", "binomial", "--json"],
    )

    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_shared_parser_answers_as_a_fresh_one(self, capsys, monkeypatch):
        shared = [run_cli(argv, capsys) for argv in self.MIXED * 2]
        monkeypatch.setattr("recurlab.cli.build_parser", build_parser.__wrapped__)
        fresh = [run_cli(argv, capsys) for argv in self.MIXED * 2]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 2, 3, 0, 0, 2, 0] * 2

    def test_handlers_read_patched_names(self, capsys, monkeypatch):
        # The shared parser holds no handler: a cmd_* or a name it calls,
        # patched after the parser is built, is what main runs.
        build_parser()
        monkeypatch.setattr("recurlab.moser_formulas.moser_terms", lambda n: [0] * n)
        assert run_cli(["table", "--moser=3"], capsys)[1].startswith("sequence : 0 0 0\n")
        seen = []
        monkeypatch.setattr("recurlab.cli.cmd_regions", lambda args: seen.append(args.m) or 4)
        assert run_cli(["regions", "--m=5"], capsys) == (4, "", "")
        assert seen == [5]


# Well-formed terms; the malformed ones are among MALFORMED's tokens.
TERMS = st.one_of(
    st.integers(-50, 50).map(str),
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(1, 9)),
)
# One of these goes into about one argv in five.
MALFORMED = ["--bogus", "stray", "--m=x", "--trials=1.5", "--seq=1,,2", "--seq=1e5,2",
             "--seq=1/0,1", "--moser=x", "--max-depth=", "--method=x", "--json=1"]


@st.composite
def sequence_sources(draw):
    """--seq of free terms or of a polynomial's values, --moser, or both."""
    kind = draw(st.sampled_from(["terms", "polynomial", "polynomial", "moser", "both"]))
    argv = []
    if kind in ("terms", "both"):
        argv.append("--seq=" + ",".join(draw(st.lists(TERMS, min_size=1, max_size=12))))
    elif kind == "polynomial":
        coefficients = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
        length = draw(st.integers(2, 12))
        values = (sum(c * n**k for k, c in enumerate(coefficients)) for n in range(length))
        argv.append("--seq=" + ",".join(map(str, values)))
    if kind in ("moser", "both"):
        argv += draw(st.sampled_from([["--moser"], ["--moser=12"], ["--moser=1"]]))
    return argv


@st.composite
def cli_argvs(draw):
    """argv over the four subcommands with bounded sizes, some malformed."""
    command = draw(st.sampled_from(["table", "solve", "regions", "verify"]))
    argv = [command]

    def maybe(flag, low, high):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(st.integers(low, high))}")

    if command in ("table", "solve"):
        argv += draw(sequence_sources())
        maybe("--max-depth", -1, 12)
        if command == "solve" and draw(st.booleans()):
            argv.append("--method=" + draw(st.sampled_from(["charpoly", "genfunc", "both"])))
    else:
        if command == "regions":
            argv.append(f"--m={draw(st.integers(-1, 12))}")
            methods = ["binomial", "polynomial", "sum", "euler", "geometric", "all"]
            argv.append("--method=" + draw(st.sampled_from(methods)))
            if draw(st.integers(0, 3)) == 0:
                argv.append("--degenerate=hexagon")
        else:
            maybe("--max-m", -1, 40)
        maybe("--trials", 0, 3)
        maybe("--seed", -5, 99)
        maybe("--geom-cap", 0, 12)
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(MALFORMED)))
    return argv


class TestExitCodeContract:
    @given(cli_argvs())
    @settings(
        max_examples=500,
        deadline=None,
        # readouterr() empties the capture after every example.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_documented_exit_code_and_no_traceback(self, capsys, argv):
        code, _, err = run_cli(argv, capsys)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "recurlab", "regions", "--m", "5", "--method", "binomial"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "binomial: 16" in proc.stdout

    def test_console_script_parser_rejects_unknown_command(self):
        proc = subprocess.run(
            [sys.executable, "-m", "recurlab", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
