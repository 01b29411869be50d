"""Benchmark entry point: one workload, one seed, one measured run.

Run from the repository root:

    python3 benchmarks/run.py --workload power-oracle --seed 0 --seconds 30 --trace 0

The loop is closed, with one caller and no threads: each op is one in-process
``mnar_dre.cli.main`` call, issued when the previous one has returned, and
op i's inputs derive from (seed, i).  Every op must exit 0 and pass its
workload's output check.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates traced
and untraced rounds and prints the per-layer metrics of the traced ones,
with the tracing overhead; the spans are written to ``.bench_work/``.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 when every check passed, 1 when one failed, and
2 when the program's source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One caller and no threads: BLAS runs single-threaded in the benchmark and
# in every process it starts.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
# Rerunning an experiment in a fresh process should write the same bytes; it
# does not yet, because the table's config_hash hashes repr(args.func), which
# holds a memory address.  Reported, never counted as a failed op.
KNOWN_DEFECTS = {"rerun_identical": "config_hash covers repr(args.func)"}


def run_op(cli, argv: list[str]) -> tuple[float, str | None]:
    """Wall time of one CLI call, and why it failed (None when it exited 0)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an escaped traceback is a failed op
            rc = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if rc == 0:
        return elapsed, None
    return elapsed, f"exit {rc}: {err.getvalue().strip()}"


def prepare(name: str, seed: int, workdir: str):
    """Import the CLI, generate the inputs and run the untimed warm-up op."""
    from mnar_dre import cli

    wl = WORKLOADS[name](seed, workdir)
    wl.setup()
    _, error = run_op(cli, wl.warmup_argv())
    if error:
        raise RuntimeError(f"warm-up op failed: {error}")
    return cli, wl


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its first timed op."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--setup-probe"],
            stdout=subprocess.PIPE,
            text=True,
        )
        with proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return times


def rerun_in_fresh_process(op) -> tuple[bytes, bytes]:
    """Rerun ``op`` through ``python -m mnar_dre.cli``: (first, rerun) bytes."""
    with open(op.out, "rb") as fh:
        first = fh.read()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "mnar_dre.cli", *op.argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"rerun exited {proc.returncode}: {proc.stderr.strip()}")
    with open(op.out, "rb") as fh:
        return first, fh.read()


def mask_config_hash(table: bytes) -> bytes:
    """The table with the config_hash field of its ``#`` line blanked."""
    return re.sub(rb"\A(#[^\n]*\bconfig_hash=)[0-9a-f]+", rb"\1*", table)


def difference(first: bytes, second: bytes) -> str | None:
    """None when the bytes match, else the first differing lines."""
    if first == second:
        return None
    diff = [
        f"{a!r} != {b!r}"
        for a, b in zip(first.decode().splitlines(), second.decode().splitlines())
        if a != b
    ]
    return "; ".join(diff[:2]) or "lengths differ"


def tail(ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND values beyond it: (percentile,
    value, values beyond).  TAIL_BEYOND values or fewer report the largest."""
    ordered = sorted(ms)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1], beyond


def rounds_done(elapsed: float, rounds: int, seconds: float) -> bool:
    """Whether a run of whole rounds ends here: once one more round would
    end farther from ``seconds`` than this one.  A run then measures
    ``seconds`` give or take half a round, not up to a whole round more."""
    return elapsed + 0.5 * elapsed / rounds >= seconds


def upper_quartile(values: list[float]) -> float:
    """Third quartile, interpolated between the values (the value itself
    when there is one)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def position_quartiles(ms: list[float], round_size: int) -> list[float]:
    """Upper quartile of the wall times of each position of the round,
    across rounds."""
    return [upper_quartile(ms[k::round_size]) for k in range(round_size)]


def measure(args, workdir: str) -> int:
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    cli, wl = prepare(args.workload, args.seed, workdir)
    tracer = tracing.Tracer() if args.trace else None
    op_ms: dict[bool, list[float]] = {False: [], True: []}
    failures: list[str] = []
    start = time.perf_counter()
    rnd = 0
    while True:
        traced = tracer is not None and rnd % 2 == 1
        with tracer.installed() if traced else contextlib.nullcontext():
            for k in range(wl.round_size):
                op = wl.op(rnd * wl.round_size + k)
                if traced:
                    tracer.op = op.index
                elapsed, error = run_op(cli, op.argv)
                op_ms[traced].append(1000.0 * elapsed)
                if error is None:
                    error = wl.check(op)
                if error is not None:
                    failures.append(f"op {op.index} ({op.argv[0]}): {error}")
        rnd += 1
        # A traced run needs one untraced and one traced round at least.
        if rnd >= (2 if tracer else 1) and rounds_done(
                time.perf_counter() - start, rnd, args.seconds):
            break

    checks = wl.final_checks()
    if tracer is not None:
        leftover = tracer.leftover_wrappers()
        checks["wrappers_restored"] = ", ".join(leftover) or None
    defects = {}
    rerun = wl.rerun_op()
    if rerun is not None:
        # The whole-file comparison is the known defect; with config_hash
        # masked, the rerun must match.
        try:
            first, second = rerun_in_fresh_process(rerun)
        except RuntimeError as exc:
            checks["rerun_identical_except_config_hash"] = str(exc)
        else:
            defects["rerun_identical"] = difference(first, second)
            checks["rerun_identical_except_config_hash"] = difference(
                mask_config_hash(first), mask_config_hash(second))

    all_ms = op_ms[False] + op_ms[True]
    attempted = len(all_ms)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {rnd} rounds, {len(failures)} failed")
    if tracer is not None:
        tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.csv")
        values = tracing.layer_metrics(tracer.spans, op_ms[True], op_ms[False])
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
    else:
        # The machine's speed switches between a common loaded state and a
        # faster one, for tens of seconds at a time and ~30-60% apart, and
        # the share of a run spent in either varies from run to run.  A
        # median or a mean follows that share; the upper quartile of an op's
        # times stays in the loaded state unless most of the run is fast.
        # So throughput is that of a round whose ops each take their upper
        # quartile.  A round repeats the same ops, so on round-based
        # workloads the tail is also taken over per-position upper quartiles:
        # its rank then does not depend on how many rounds ran.
        quartiles = position_quartiles(all_ms, wl.round_size)
        per_position = wl.round_size > 1
        pct, tail_ms, beyond = tail(quartiles if per_position else all_ms)
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": 1000.0 * wl.round_size / sum(quartiles),
            "op_ms_p50": statistics.median(all_ms),
            "op_ms_tail": tail_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        print(f"  setup_s probes: {', '.join(f'{t:.3f}' for t in setup_times)} s")
        of = f"{wl.round_size} per-position upper quartiles" if per_position else f"{attempted} ops"
        print(f"  op_ms_tail is p{pct:.2f} of {of} ({beyond} beyond it)")
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, reason in checks.items():
        print(f"check {name}: {'pass' if reason is None else 'FAIL: ' + reason}")
    for name, reason in defects.items():
        status = "no longer reproduces" if reason is None else "FAIL: " + reason
        print(f"known defect {name} ({KNOWN_DEFECTS[name]}): {status}")
    for failure in failures[:5]:
        print(f"failed {failure}", file=sys.stderr)

    correct = not failures and all(r is None for r in checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "mnar_dre" / "cli.py").is_file():
        print(f"error: no mnar_dre source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.setup_probe:
            prepare(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
