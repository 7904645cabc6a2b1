"""CI's checks at sizes the tier-1 suite cannot afford, one function per step.

Run from the root of the repository, with no arguments, as
``PYTHONPATH=src python tests/ci_checks.py`` (no PYTHONPATH where recurlab is
installed).  The steps run in order and the first failed check stops the run.
"""

import json
import math
import re
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from fractions import Fraction
from pathlib import Path

from conftest import pairing_determinants  # this file's directory is first on sys.path
from recurlab.cli import MAX_FILE_BYTES, MAX_GEOM_M, MAX_MOSER_N, MAX_SOLVE_TERMS, MAX_TABLE_TERMS, MAX_TRIALS, MAX_VERIFY_M

ROOT = Path(__file__).resolve().parent.parent
# The statements of the installed `recurlab` console script, run with -c.
CONSOLE_SCRIPT = "import sys; from recurlab.cli import main; sys.exit(main())"


def run(command, *more, want=0, timeout=None):
    """Run ``python <command split on spaces> <more>`` in a fresh child from the
    repository root; check that it exits ``want`` and prints no traceback."""
    argv = [*command.split(), *map(str, more)]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    shown = " ".join(arg if len(arg) < 60 else arg[:20] + "..." for arg in argv)
    assert proc.returncode == want, f"{shown}: exit {proc.returncode}, expected {want}\n{proc.stderr}"
    assert "Traceback" not in proc.stderr, f"{shown}: traceback\n{proc.stderr}"
    return proc


# With -c: run ``python <its arguments>``, stdout to /dev/null; print its peak RSS in KiB, exit with its code.
WAIT4 = ("import os, sys; null = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]; "
         "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ, file_actions=null); "
         "_, status, usage = os.wait4(pid, 0); print(usage.ru_maxrss); sys.exit(os.waitstatus_to_exitcode(status))")


def peak_rss_mb(command, *more):
    """Run ``python <command> <more>`` as ``run`` does and return its own peak RSS in MB.
    A child's ru_maxrss starts at its parent's peak, so a bare interpreter starts it
    and reads it alone with ``os.wait4``: RUSAGE_CHILDREN holds the largest child ever."""
    return int(run("-c", WAIT4, *command.split(), *more).stdout) / 1024


def check_peak(bound_mb, what, command, *more):
    peak = peak_rss_mb(command, *more)
    print(f"{what}: peak RSS {peak:.0f} MB (bound {bound_mb} MB)")
    assert peak <= bound_mb, f"{what}: peak RSS {peak:.0f} MB is above the {bound_mb} MB bound"


def no_triple_point(tmp):
    # generic_arrangement builds an unseeded layout once and asserts its
    # general position.  Tier-1 proves it up to m = 30; this is the same
    # exhaustive check at MAX_GEOM_M, 50,063,860 six-subsets (18-27 s on a
    # 2-CPU x86-64 host, Python 3.11).
    from recurlab.geometry import generic_parameters

    subsets = zeros = 0
    for det in pairing_determinants(generic_parameters(MAX_GEOM_M)):
        subsets += 1
        zeros += det == 0
    print(f"generic_parameters({MAX_GEOM_M}): {subsets} six-subsets, {zeros} triple points")
    assert (subsets, zeros) == (math.comb(MAX_GEOM_M, 6), 0)


def src_line_count(tmp):
    print("src/:", sum(path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py")), "lines of .py")


def verify(tmp):
    # Checks 2-5 run on trial 0's counted regions: at least 7 points are
    # built below the geometric scope (--max-m 3), and K = 25 above it.
    run("-m recurlab verify")
    for argv in ("--max-m 3", "--max-m 30 --geom-cap 25"):
        result = json.loads(run(f"-m recurlab verify {argv} --json").stdout)["result"]
        failed = [c["name"] for c in result["checks"] if not c["passed"]]
        print(f"verify {argv}: all_passed={result['all_passed']}")
        assert result["all_passed"] is True and not failed, failed


def geometry_commands(tmp):
    run("-m recurlab verify --max-m 30 --geom-cap 25")
    run("-m recurlab verify --max-m 30 --geom-cap 25 --trials 3 --seed 11 --json")
    run("-m recurlab regions --m 40 --method geometric --geom-cap 40 --seed 5 --json")
    dump = "--json --dump-arrangement"
    run(f"-m recurlab regions --m 6 --method geometric --degenerate hexagon {dump}", tmp / "hex.json")
    run(f"-m recurlab regions --m 24 --method geometric --seed 5 --geom-cap 24 {dump}", tmp / "m24.json")
    # The unseeded MAX_GEOM_M has the most rows where two chords share the kernel's
    # 30-bit key but not their crossing (1,220 of 1,770).  The first finds no triple
    # point at its exact keys, and the width doubles to 60 bits, where none clashes.
    out = run("-m recurlab regions --m 60 --method geometric --geom-cap 60 --json").stdout
    geometric = json.loads(out)["result"]["geometric"]
    counts, general = geometric["counts"], geometric["general_position"]
    print(f"unseeded m=60: {counts} regions, general position {general}")
    assert counts == [489406] and general is True, geometric
    # Each verify trial frees its arrangement before the next is built, and keeps
    # the kernel's row bitsets, not an object per crossing: it peaks at 23-24 MB.
    argv = "verify --max-m 60 --geom-cap 60 --trials 2 --seed 1"
    check_peak(35, argv, f"-m recurlab {argv}")
    # One point over the geometric build limit exits exactly 2, whatever the cap.
    run(f"-m recurlab regions --m {MAX_GEOM_M + 1} --method geometric --geom-cap {MAX_GEOM_M + 1}", want=2)


def exit_code_contract(tmp):
    # Each command exits with exactly its documented code within 10 s, prints
    # no traceback, and prints nothing on stdout unless it exits 0.
    bom = tmp / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf1\n2\n4\n8\n16\n31\n")
    over_file = tmp / "over.txt"
    over_file.write_text("1" * MAX_FILE_BYTES + "\n")
    assert over_file.stat().st_size == MAX_FILE_BYTES + 1
    nines = "9" * sys.get_int_max_str_digits()
    cases = [
        (3, "solve --seq=1,2,4,8,16"),
        (2, "table --moser 0"),
        (2, "table --file /dev/null"),
        (0, "table --file", bom),  # a UTF-8 byte-order mark is not part of the first term
        # Terms Fraction accepts on some Python versions only: a separator and
        # whitespace inside a term exit 2 on every interpreter.
        (2, "table --seq=1_000,2"),
        (2, "table", "--seq=1 /2,3"),
        # One over each limit, read from the code.  The table term limit exits
        # before any term is parsed: 4,000 alternating terms took 35 s and 1.7 GB.
        (2, f"verify --max-m {MAX_VERIFY_M + 1}"),
        (2, f"verify --trials {MAX_TRIALS + 1}"),
        (2, "table", "--seq=" + ",".join("01"[n % 2] for n in range(MAX_TABLE_TERMS + 1))),
        (2, "solve", "--seq=" + ",".join(map(str, range(MAX_SOLVE_TERMS + 1)))),
        (2, f"table --moser {MAX_MOSER_N + 1}"),
        # A file one byte over the read limit, and one with no end: neither is read past it.
        (2, "table --file", over_file),
        (2, "solve --file /dev/zero"),
        # Row 1 holds a cell over the integer-string limit: exit 2 before row 0.
        (2, "table", f"--seq={nines},-{nines},{nines}"),
    ]
    for want, command, *more in cases:
        proc = run(f"-m recurlab {command}", *more, want=want, timeout=10)
        assert want == 0 or proc.stdout == "", f"recurlab {command}: exit {want} with output on stdout"
    # A term over the integer-string limit exits 2 with a message that gives
    # its length, not the term itself.
    err = run("-m recurlab table", f"--seq=1,2,{'9' * 5000}", want=2, timeout=10).stderr
    assert len(err.encode()) <= 200, f"over-long term: {len(err.encode())} bytes of stderr"


def warnings_are_errors(tmp):
    # Under -X dev an unclosed file is a ResourceWarning, which -W error cannot
    # turn into an exit code when it is raised at finalization: it is printed
    # instead.  So each command must exit 0 with empty stderr.
    moser = tmp / "moser.txt"
    moser.write_text("# Moser counts\n1\n2\n4\n8\n16\n31\n")
    hexagon = ("regions --m 6 --method geometric --degenerate hexagon --dump-arrangement", tmp / "strict-hex.json")
    for command, *more in [("verify --max-m 30 --geom-cap 25 --trials 3 --seed 11 --json",), hexagon,
                           ("solve --moser 8",), ("table --file", moser)]:
        err = run(f"-X dev -W error -m recurlab {command}", *more).stderr
        assert err == "", f"recurlab {command}: output on stderr under -X dev -W error\n{err}"


def face_walk(tmp):
    # count_faces is on no CLI path: check it against count_regions, that against
    # euler_counts' rules, and the last prefix count, also on the degenerate
    # hexagon in a permuted order, where births are not in angular order.
    from recurlab import euler_counts
    from recurlab.geometry import CirclePoint, count_faces, count_regions, generic_arrangement
    from recurlab.geometry import hexagon_arrangement, hexagon_parameters, intersect_chords, prefix_region_counts

    seeded = [generic_arrangement(m, seed=5) for m in (25, 40)]
    params = hexagon_parameters()
    permuted = intersect_chords(CirclePoint(params[i]) for i in (3, 0, 5, 1, 4, 2))
    assert permuted.births == (5, 3, 2, 4, 6, 1), permuted.births
    for arr in seeded + [hexagon_arrangement(), permuted]:
        faces, (vertices, edges, regions) = count_faces(arr), count_regions(arr)
        last = prefix_region_counts(arr)[-1]
        print(f"m={arr.m}: {faces} faces, V={vertices} E={edges}, {regions} regions, last prefix {last}")
        assert faces == regions + 1 == last + 1, (arr.m, faces, regions, last)
    assert prefix_region_counts(permuted)[-1] == 30
    for arr in seeded:
        assert count_regions(arr) == euler_counts(arr.m), arr.m
    # The hexagon triple point: two vertices, three edges and one region fewer.
    assert count_regions(hexagon_arrangement()) == (19, 48, 30), count_regions(hexagon_arrangement())
    assert euler_counts(6) == (21, 51, 31), euler_counts(6)
    # Two designed concurrent points: four antipodal pairs (t, -1/t) moved by one
    # Mobius map of the parameter, three by another (designed_parameters((4, 3),
    # seed=1) in conftest.py).  A k-fold point costs C(k - 1, 2) regions:
    # f(14) - 3 - 1 = 1089.
    params = """1275/1024 11/230 1187/292 3823/3282 2633/2474 2049/1192 2357/1815
                470/787 41/36 7/5 278/259 596/513 1313/1099 1759/1572""".split()
    arr = intersect_chords(CirclePoint(Fraction(t)) for t in params)
    faces, regions, sizes = count_faces(arr), count_regions(arr)[2], sorted(map(len, arr.concurrent))
    print(f"designed (4, 3): {faces} faces, {regions} regions, concurrency {sizes}")
    assert (faces, regions, sizes) == (1090, 1089, [3, 4]), (faces, regions, sizes)
    # The walk at MAX_GEOM_M peaks at 118 MB; one that holds every chord's
    # stops at once peaks at 193 MB.
    walk = ("from recurlab.geometry import count_faces, count_regions, generic_arrangement\n"
            f"arr = generic_arrangement({MAX_GEOM_M}, seed=1)\nassert count_faces(arr) == count_regions(arr)[2] + 1")
    check_peak(160, "face walk at MAX_GEOM_M", "-c", walk)


def algebra_commands(tmp):
    seq = ",".join(str((n - 3) ** 32 + 5 * n**7 - 2) for n in range(36))
    run("-m recurlab solve", f"--seq={seq}", "--json")
    # Each route alone, as --method picks it, gives the same terms: on the
    # order-32 sequence, Moser's counts and rational terms.  The order-12
    # rational terms (right-hand side 13685760) give the charpoly route's
    # elimination a right-hand side over denominators.
    rat12 = ",".join(str(Fraction((n - 3) ** 12 + n, 35) + Fraction(1, 6)) for n in range(16))
    rational = "--seq=1/7,-1/42,10/21,23/14,73/21,251/42,64/7,545/42,367/21"
    for source in (f"--seq={seq}", "--moser=8", rational, f"--seq={rat12}"):
        charpoly, genfunc = (json.loads(run("-m recurlab solve", source, f"--method={method}", "--json").stdout)
                             ["result"]["closed_forms"][0] for method in ("charpoly", "genfunc"))
        assert (charpoly["method"], genfunc["method"]) == ("charpoly", "genfunc")
        assert charpoly["terms"] == genfunc["terms"], "the two routes give different terms"
        print("charpoly and genfunc give the same", len(charpoly["terms"]), "term(s)")
    # The 300-term integer table, its cells joined from repr(v), with "/1" in
    # --json and bare in the human view: every row of both views must be the
    # differences recomputed here.  2^n certifies no row, so they run to two cells.
    row = [2**n + n**3 for n in range(300)]
    seq = "--seq=" + ",".join(map(str, row))
    result = json.loads(run("-m recurlab table", seq, "--json").stdout)["result"]
    lines = run("-m recurlab table", seq).stdout.splitlines()
    rows = [row]
    while len(row) > 2:
        row = [b - a for a, b in zip(row, row[1:])]
        rows.append(row)
    assert result["rows"] == [[f"{v}/1" for v in row] for row in rows], "rows differ"
    assert result["constant_depth"] is None and result["next"] is None, result
    human = [(f"depth {d}  " if d else "sequence ") + ": " + " ".join(map(str, row)) for d, row in enumerate(rows)]
    assert lines == human + ["constant row: none certified", "next term: unknown"], "human rows differ"
    print(f"300-term table: {len(rows)} rows, {sum(map(len, rows))} cells as recomputed, in both views")
    # table --json writes its rows as it goes.  On 1,200 terms of 2^n it peaks
    # at 82 MB, and at 443 MB when the whole indented text was built first.
    pow2 = tmp / "pow2.txt"
    pow2.write_text("".join(f"{2**n}\n" for n in range(1200)))
    check_peak(150, "table --json on 1,200 terms of 2^n", "-m recurlab table --file", pow2, "--json")
    # Rational terms: the difference table's common-denominator path.
    run("-m recurlab table --seq=1/2,3/2,5/2 --json")
    run("-m recurlab solve", rational)


def import_sets(tmp):
    # Through the console script's own statements, table and solve never
    # import the geometry.  Then each command's fresh-process wall time
    # (median of 7), next to python -c pass.
    for argv in ("table --moser 8", "solve --moser 8"):
        err = run("-X importtime -c", CONSOLE_SCRIPT, *argv.split()).stderr
        print(f"recurlab {argv} imports:", *re.findall(r"recurlab[._a-z]*$", err, re.M))
        assert "recurlab.geometry" not in err, f"recurlab {argv} imported recurlab.geometry"

    def wall_ms(*argv):
        return 1000 * statistics.median(timeit.repeat(lambda: run(*argv), number=1, repeat=7))

    print(f"python -c pass: {wall_ms('-c pass'):.1f} ms")
    for argv in ("table --moser 8", "solve --moser 8", "regions --m 10", "verify"):
        print(f"recurlab {argv}: {wall_ms('-c', CONSOLE_SCRIPT, *argv.split()):.1f} ms")


def benchmark_smoke(tmp):
    # perfbench exits 0 when a hook is missing or a counter fails: fail on its
    # "trace: hook" and "trace: cannot count" lines, and on null metrics.
    for workload in ("verify-sweep", "regions-large", "algebra", "facewalk"):
        proc = run(f"perfbench/run.py --workload {workload} --seed 1 --seconds 1 --trace 1")
        print(proc.stdout, end="")
        missing = re.findall(r"^.*trace: (?:cannot count|hook).*$", proc.stderr, re.M)
        assert not missing, f"perfbench {workload}: a hook is missing or a counter read null: {missing}"
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        null = [name for name, metric in metrics.items() if metric["value"] is None]
        assert not null, f"perfbench {workload}: null metrics: {null}"


STEPS = [no_triple_point, src_line_count, verify, geometry_commands, exit_code_contract, warnings_are_errors,
         face_walk, algebra_commands, import_sets, benchmark_smoke]


def main():
    if sys.flags.optimize:
        sys.exit("the checks are asserts, which -O strips: run without -O")
    with tempfile.TemporaryDirectory() as tmp:
        for step in STEPS:
            start = time.perf_counter()
            step(Path(tmp))
            print(f"== {step.__name__}: passed in {time.perf_counter() - start:.1f} s", flush=True)


if __name__ == "__main__":
    main()
