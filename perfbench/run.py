"""Run one recurlab benchmark workload and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0

One client runs ops back to back in this process (a closed loop, no
threads) until ``--seconds`` have passed, and checks every answer with
``oracle``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: the median op time, the peak
RSS of this process and the set-up time, the median over fresh processes
of interpreter start, ``import recurlab`` and generating the first input.
``--trace 1`` alternates untraced and traced ops on the same input and
reports the per-layer metrics of ``tracer``, with the spans written to
``perfbench/out/spans-<workload>.jsonl``.

Times are reported in reference seconds, scaled by the machine speed that
``speed`` samples during each timed interval.  The raw wall-clock median is
printed too.

recurlab is imported from ``src/`` next to this directory; without it the
run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The keys of workloads.WORKLOADS, which cannot be imported before recurlab.
WORKLOADS = ("verify-sweep", "regions-large", "algebra", "facewalk")
# Fresh processes timed for setup_s, spread evenly over the run so that
# they see the same mix of host speeds as the ops; the median is reported.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="recurlab benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=int, required=True, help="how long to run ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def import_recurlab():
    """Import recurlab from this checkout's ``src/``, or exit 2."""
    if not (SRC / "recurlab" / "__init__.py").is_file():
        print(f"perfbench: no recurlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import recurlab

    if Path(recurlab.__file__).resolve().parent != SRC / "recurlab":
        print(f"perfbench: recurlab was imported from {recurlab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def measure_setup(args, sampler) -> float:
    """Reference seconds from starting a fresh process to its first op input being ready.

    The child cannot sample itself, so this process samples the machine's
    speed while it waits for the child.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]

    def start_child():
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True)
        return child, child.stdout.readline()

    (child, ready), _, seconds = sampler.measure(start_child)
    with child:
        try:
            _, err = child.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise RuntimeError("set-up probe did not exit")
    if ready.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({child.returncode}): {err.strip()}")
    return seconds


def timed(sampler, workload, op_input, call):
    """Run ``call(op_input)`` as one op.

    Returns (wall seconds, reference seconds, answer or None, failure
    reason or None).
    """
    def op():
        try:
            return call(op_input), None
        except Exception:  # an op that raises is a failed op, not a crashed run
            return None, traceback.format_exc(limit=3)

    gc.collect()
    (answer, reason), wall, seconds = sampler.measure(op)
    if reason is None:
        try:
            reason = workload.check(op_input, answer)
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            reason = f"malformed answer: {exc!r}"
    return wall, seconds, answer, reason


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile above the median with >= 10 samples beyond it."""
    p = int(100 * (n - 10) / n) if n > 10 else 0
    return p if p > 50 else None


def run_metadata(args, ops: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "src_py_lines": src_lines,
    }


def timed_run(args, workload, sampler):
    setup, wall, times, failures = [], [], [], []
    start = time.perf_counter()
    # Time spent on set-up children does not count towards --seconds.
    setup_wall = 0.0
    while (ran := time.perf_counter() - start - setup_wall) < args.seconds:
        if ran >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(measure_setup(args, sampler))
            setup_wall = time.perf_counter() - start - ran
        op_input = workload.prepare()
        elapsed, seconds, _, reason = timed(sampler, workload, op_input, workload.run)
        wall.append(elapsed)
        times.append(seconds)
        if reason:
            failures.append(reason)
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(args, sampler))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50 = statistics.median(times)
    tail = tail_percentile(len(times))
    tail_text = "n/a (needs more than 20 ops)"
    if tail is not None:
        tail_text = f"p{tail} {statistics.quantiles(times, n=100)[tail - 1]:.4f} s"
    print(f"{args.workload} seed {args.seed}: op_s.p50 {p50:.4f} s (n={len(times)}; "
          f"wall-clock p50 {statistics.median(wall):.4f} s), tail {tail_text}, "
          f"fail_ratio {len(failures)}/{len(times)}, peak_rss_mb {rss_mb:.1f}, "
          f"setup_s {statistics.median(setup):.4f} (median of {len(setup)} processes)")
    metrics = {
        "op_s.p50": {"value": p50, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    return len(times), failures, [], metrics


def traced_run(args, workload, sampler):
    import tracer
    from workloads import out_bytes

    tr = tracer.Tracer()
    for name in tr.missing:
        print(f"trace: hook {name} not found; its metrics read null", file=sys.stderr)
    records, untraced, failures, problems = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    pair = 0
    while time.perf_counter() < deadline:
        op_input = workload.prepare()
        # Alternate which side goes first, on the same input.
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            if not traced:
                _, seconds, _, reason = timed(sampler, workload, op_input, workload.run)
                untraced.append(seconds)
            else:
                wall, seconds, answer, reason = timed(
                    sampler, workload, op_input, lambda op: tr.run(workload.run, op))
                if answer is not None:
                    record = tr.op_record(args.workload, seconds / wall,
                                          {"cli.out_bytes": out_bytes(answer)})
                    records.append(record)
                    problems.extend(f"op {len(records)}: {p}" for p in record["problems"])
            if reason:
                failures.append(reason)
        pair += 1
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}.jsonl", "w", encoding="utf-8") as handle:
        for i, record in enumerate(records):
            handle.write(json.dumps({"op": i, "op_s": record["op_s"], "spans": record["spans"]}))
            handle.write("\n")
    metrics = tr.metrics(records, untraced) if records else {}
    print(f"{args.workload} seed {args.seed}: {len(records)} traced and {len(untraced)} untraced "
          f"ops, fail_ratio {len(failures)}/{len(records) + len(untraced)}, "
          f"self-check {'ok' if not problems else 'FAILED'}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    return len(records) + len(untraced), failures, problems, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_recurlab()
    import speed
    from workloads import WORKLOADS as CLASSES

    workload = CLASSES[args.workload](args.seed)
    if args.setup_probe:
        workload.prepare()
        print("ready", flush=True)
        return 0
    run = traced_run if args.trace else timed_run
    attempted, failures, problems, metrics = run(args, workload, speed.Sampler())
    for reason in failures[:5] + problems[:20]:
        print(f"perfbench: {reason.strip()}", file=sys.stderr)
    correct = not failures and not problems and bool(metrics)
    print("meta: " + json.dumps(run_metadata(args, attempted)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
