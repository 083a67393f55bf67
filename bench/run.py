#!/usr/bin/env python3
"""Benchmark for posetrep: one client, closed loop, commands in-process.

Run from the root of a source checkout:

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Each operation is one ``posetrep`` command run through
``posetrep.cli.main(argv)`` on inputs written at set-up from ``--seed``;
the next starts when the previous one returns.  The operations run in
several rounds with a fixed reference kernel (``reference.py``) before the
first and after every operation; each run's latency is scaled by the kernel
time next to it, each operation's latency is the median of its scaled runs,
and every output of every run is checked by the benchmark's own code
(``checks.py``).  The last line of stdout is one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1`` (one
untraced round, then one traced round of all the operations).  See
``bench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is one client on a 2-CPU machine, and the
# variable must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 5
SETUP_KERNEL_RUNS = 5
CHILD_TIMEOUT = 120
#: Fewest rounds of a run, however slow the host.
MIN_ROUNDS = 2


def parse_args(argv=None):
    par = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    par.add_argument("--workload", required=True)
    par.add_argument("--seed", type=int, required=True)
    par.add_argument("--seconds", type=float, required=True)
    par.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up in a fresh interpreter, timed by the parent
    par.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    return par.parse_args(argv)


def import_posetrep():
    if not os.path.isfile(os.path.join(SRC, "posetrep", "cli.py")):
        sys.exit(f"error: no posetrep sources under {SRC}")
    sys.path.insert(0, SRC)
    import posetrep.cli

    return posetrep.cli


def run_op(main, argv):
    """Run one command; returns (exit code or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # the op failed; the run goes on
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def set_up(cli, workload, seed, workdir):
    """Input generation, file writes and a warm-up command."""
    shutil.rmtree(workdir, ignore_errors=True)
    ops, warmup = workloads.build(workload, seed, workdir)
    for argv in warmup:
        code, _, err = run_op(cli.main, argv)
        if code != 0:
            sys.exit(f"error: warm-up {argv} exited {code}: {err}")
    return ops


def setup_sample(args, k: int) -> tuple[float, float]:
    """Process start to ready-to-time, in one fresh interpreter.  Returns
    the seconds measured and the kernel time around them (the median of
    SETUP_KERNEL_RUNS kernel runs before and as many after)."""
    refs = [reference.kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)]
    workdir = os.path.join(OUT, f"setup-{args.workload}-{k}")
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-only", workdir]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"error: set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    refs += [reference.kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)]
    return elapsed, statistics.median(refs)


def timed_pass(main, ops, sampler=None):
    """Closed loop over ops.  With a sampler, the reference kernel runs
    before the first op, after each one and every sampler interval.
    Returns per op (latency s, code, stdout, err) and the kernel seconds
    around it (empty without a sampler).  A latency leaves out the kernel
    runs that fell inside it."""
    gc.collect()
    spans, results = [], []
    if sampler:
        sampler.start()
        sampler.sample()
    try:
        for op in ops:
            t0 = time.perf_counter()
            code, out, err = run_op(main, op.argv)
            t1 = time.perf_counter()
            spans.append((t0, t1))
            results.append([t1 - t0, code, out, err])
            if sampler:
                sampler.sample()
    finally:
        if sampler:
            sampler.stop()
    if not sampler:
        return results, []
    for res, (t0, t1) in zip(results, spans):
        res[0] -= sampler.spent_in(t0, t1)
    return results, [sampler.speed(t0, t1) for t0, t1 in spans]


def judge(ops, results):
    """Check every output.  Returns (failed ops per kind, unexpected
    failures)."""
    failed, unexpected = Counter(), []
    for op, (_, code, out, err) in zip(ops, results):
        if code is None:
            bad = ["raised"]
        elif code != 0:
            bad = [f"exit-{code}"]
        else:
            try:
                bad = checks.CHECKS[op.check](op.expect, out)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                bad = [f"unreadable:{type(exc).__name__}"]
        if not bad:
            continue
        failed[op.kind] += 1
        allowed = workloads.KNOWN_DEFECTS.get(op.kind, (frozenset(), ""))[0]
        if not set(bad) <= allowed:
            unexpected.append((op.kind, op.argv, bad, err.strip()[-300:]))
    return failed, unexpected


def tail_rank(n: int) -> int:
    """1-based rank of the highest order statistic with at least ten
    samples beyond it (the whole sample when there are ten or fewer)."""
    return max(1, n - 10)


def end_to_end(latency, setup_s, ok_frac):
    """latency: each operation's scaled latency, in seconds."""
    lat = sorted(latency)
    n = len(lat)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (lat[tail_rank(n) - 1] * 1e3, "ms"),
        "ops_per_s": (n / sum(lat), "1/s"),
        "ok_frac": (ok_frac, "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kib / 1024, "MiB"),
    }


def write_raw(args, ops, measured, kernel, setups) -> None:
    """Every measured latency of every operation with the kernel time next
    to it, and the set-up samples, for later analysis."""
    os.makedirs(os.path.join(OUT, "raw"), exist_ok=True)
    path = os.path.join(OUT, "raw", f"{args.workload}-{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kinds": [op.kind for op in ops], "measured": measured,
                   "kernel": kernel, "setup": setups,
                   "nominal_s": reference.NOMINAL_S}, fh)


def summary(args, ops, latency, rounds, kernel, attempted, failed, unexpected):
    n = len(ops)
    kinds: dict[str, list[float]] = {}
    for op, t in zip(ops, latency):
        kinds.setdefault(op.kind, []).append(t)
    print(f"machine: python {platform.python_version()}, numpy {np.__version__}, "
          f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, nproc {os.cpu_count()}")
    print(f"workload {args.workload} seed {args.seed}: {n} ops, {rounds} rounds, "
          f"tail = p{100 * tail_rank(n) / n:.1f} (rank {tail_rank(n)} of {n})")
    if kernel:
        print(f"reference kernel: median {statistics.median(kernel) * 1e3:.3f} ms, "
              f"nominal {reference.NOMINAL_S * 1e3:.3f} ms")
    for kind, lat in sorted(kinds.items()):
        print(f"  {kind:26s} {len(lat):4d} ops  scaled latency: median "
              f"{statistics.median(lat) * 1e3:9.2f} ms  max {max(lat) * 1e3:9.2f} ms")
    print(f"failed {sum(failed.values())} of {attempted}; unexpected {len(unexpected)}")
    for kind, count in sorted(failed.items()):
        reason = workloads.KNOWN_DEFECTS.get(kind, (None, "not a known defect"))[1]
        print(f"  {kind}: {count} failed; {reason}")
    for item in unexpected[:10]:
        print("  UNEXPECTED", item)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    cli = import_posetrep()
    if args.setup_only:
        set_up(cli, args.workload, args.seed, args.setup_only)
        return 0

    t_start = time.perf_counter()
    workdir = os.path.join(OUT, f"run-{args.workload}")
    ops = set_up(cli, args.workload, args.seed, workdir)

    # The set-up samples run between the rounds, so that a slow spell of
    # the host does not fall on all of them.
    setups: list[tuple[float, float]] = []
    measured: list[list[float]] = [[] for _ in ops]
    kernel: list[list[float]] = [[] for _ in ops]
    failed, unexpected, walls, op_seconds = Counter(), [], [], []
    setup_samples = 0 if args.trace else SETUP_SAMPLES
    while True:
        # Every round runs every operation.  Rounds go on while one more,
        # and the set-up samples still to take, end within --seconds;
        # --trace 1 runs one.
        if walls:
            left = setup_samples - len(setups)
            need = walls[-1] + left * max((t for t, _ in setups), default=0.0)
            if args.trace or (len(walls) >= MIN_ROUNDS
                              and time.perf_counter() - t_start + need > args.seconds):
                break
        if len(setups) < setup_samples:
            setups.append(setup_sample(args, len(setups)))
        t0 = time.perf_counter()
        results, speeds = timed_pass(cli.main, ops, reference.Sampler())
        walls.append(time.perf_counter() - t0)
        op_seconds.append(sum(res[0] for res in results))
        f, u = judge(ops, results)
        for i, res in enumerate(results):
            measured[i].append(res[0])
            kernel[i].append(speeds[i])
        failed, unexpected = failed + f, unexpected + u
    while len(setups) < setup_samples:
        setups.append(setup_sample(args, len(setups)))
    rounds = len(walls)
    # Each run's latency is scaled by the kernel time next to it; an
    # operation's latency is the median of its scaled runs.
    latency = [statistics.median(t * reference.NOMINAL_S / r for t, r in zip(ts, rs))
               for ts, rs in zip(measured, kernel)]
    attempted = sum(len(ts) for ts in measured)
    write_raw(args, ops, measured, kernel, setups)

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = timed_pass(tracer.wrap("cli.main", cli.main), ops)
        finally:
            tracer.uninstall()
        f, u = judge(ops, traced)
        failed, unexpected = failed + f, unexpected + u
        attempted += len(ops)
        metrics = layer_metrics(tracer)
        metrics["trace.ops_per_s_ratio"] = (
            op_seconds[0] / sum(res[0] for res in traced), "ratio")
        tracer.write(os.path.join(OUT, "trace", f"{args.workload}.spans.npz"))
    else:
        setup_s = statistics.median(t * reference.NOMINAL_S / r for t, r in setups)
        metrics = end_to_end(latency, setup_s, 1 - sum(failed.values()) / attempted)

    summary(args, ops, latency, rounds, [r for rs in kernel for r in rs],
            attempted, failed, unexpected)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": sum(failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
