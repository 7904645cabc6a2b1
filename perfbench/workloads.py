"""The four benchmark workloads: seeded inputs, one timed op, its answer check.

Each workload draws every op's inputs from its own ``random.Random`` seeded
by the workload seed, so the same seed gives the same sequence of ops.
recurlab receives only the generated inputs.  An op calls nothing but
``recurlab.cli.main`` or ``recurlab.count_faces``; the facewalk inputs are
built with ``recurlab.geometry.generic_arrangement`` outside the timed op.

A workload has three methods:

- ``prepare()`` makes the next op's input (not timed);
- ``run(op_input)`` is the timed op and returns its raw answer;
- ``check(op_input, answer)`` returns None or the reason the answer is wrong.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

import recurlab
import recurlab.cli
import recurlab.geometry

import oracle

# Layouts are drawn with seeds below this bound.
SEED_RANGE = 10**6


@dataclass(frozen=True)
class CliResult:
    """What one ``recurlab`` command returned and printed."""

    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    """Run ``recurlab <argv>`` in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = recurlab.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def out_bytes(answer) -> int:
    """Bytes the op printed on standard output."""
    if isinstance(answer, CliResult):
        answer = [answer]
    if isinstance(answer, list):
        return sum(len(r.out.encode()) for r in answer)
    return 0


class VerifySweep:
    """``verify --max-m 30 --geom-cap 25``: 50 mid-size arrangements per op."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"verify-sweep:{seed}")

    def prepare(self):
        layout_seed = self.rng.randrange(SEED_RANGE)
        return ["verify", "--max-m", "30", "--geom-cap", "25", "--seed", str(layout_seed), "--json"]

    def run(self, argv):
        return run_cli(argv)

    def check(self, argv, answer):
        return oracle.check_verify(answer)


class RegionsLarge:
    """``regions --m 40 --method geometric``: one arrangement, 92,171 regions."""

    M = 40

    def __init__(self, seed: int):
        self.rng = random.Random(f"regions-large:{seed}")

    def prepare(self):
        layout_seed = self.rng.randrange(SEED_RANGE)
        return [
            "regions", "--m", str(self.M), "--method", "geometric",
            "--geom-cap", str(self.M), "--seed", str(layout_seed), "--json",
        ]

    def run(self, argv):
        return run_cli(argv)

    def check(self, argv, answer):
        return oracle.check_regions(self.M, answer)


@dataclass(frozen=True)
class AlgebraInput:
    """One pass: two polynomial sequences to solve and one long table."""

    polys: tuple[list[int], ...]
    n_terms: tuple[int, ...]
    table_terms: list[int]

    def argvs(self) -> list[list[str]]:
        calls = []
        for coefficients, n in zip(self.polys, self.n_terms):
            terms = [oracle.poly_value(coefficients, i) for i in range(n)]
            calls.append(["solve", "--seq=" + ",".join(map(str, terms)), "--json"])
        calls.append(["table", "--seq=" + ",".join(map(str, self.table_terms)), "--json"])
        return calls


class Algebra:
    """One pass of ``solve`` (degree 16 and 32) and ``table`` (300 terms)."""

    DEGREES = (16, 32)
    # Terms beyond the minimum degree + 2, so the constant row has 4 entries.
    EXTRA_TERMS = 2
    TABLE_TERMS = 300

    def __init__(self, seed: int):
        self.rng = random.Random(f"algebra:{seed}")

    def _poly(self, degree: int) -> list[int]:
        rng = self.rng
        lead = rng.choice([c for c in range(-9, 10) if c])
        return [rng.randint(-9, 9) for _ in range(degree)] + [lead]

    def prepare(self):
        rng = self.rng
        polys = tuple(self._poly(d) for d in self.DEGREES)
        n_terms = tuple(d + 2 + self.EXTRA_TERMS for d in self.DEGREES)
        # c * 2^n + q(n): every difference row keeps c * 2^n, so no row is
        # ever constant and the table runs to full depth (~45k cells).
        scale = rng.randint(1, 9)
        cubic = [rng.randint(-9, 9) for _ in range(4)]
        table = [scale * 2**n + oracle.poly_value(cubic, n) for n in range(self.TABLE_TERMS)]
        inputs = AlgebraInput(polys, n_terms, table)
        return inputs, inputs.argvs()

    def run(self, op_input):
        _, argvs = op_input
        return [run_cli(argv) for argv in argvs]

    def check(self, op_input, answer):
        inputs, _ = op_input
        for coefficients, n, result in zip(inputs.polys, inputs.n_terms, answer):
            reason = oracle.check_solve(coefficients, n, result)
            if reason:
                return reason
        return oracle.check_table(inputs.table_terms, answer[-1])


class Facewalk:
    """``count_faces`` on a seeded m = 20 arrangement built before the op."""

    M = 20

    def __init__(self, seed: int):
        self.rng = random.Random(f"facewalk:{seed}")

    def prepare(self):
        return recurlab.geometry.generic_arrangement(self.M, seed=self.rng.randrange(SEED_RANGE))

    def run(self, arr):
        return recurlab.count_faces(arr)

    def check(self, arr, answer):
        return oracle.check_faces(self.M, answer)


WORKLOADS = {
    "verify-sweep": VerifySweep,
    "regions-large": RegionsLarge,
    "algebra": Algebra,
    "facewalk": Facewalk,
}
