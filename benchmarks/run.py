"""Benchmark for ope-lab: one workload per process, timed from outside.

    python3 benchmarks/run.py --workload study-hard --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run sets up the workload, then repeats whole rounds of the same calls
until the next round would end past ``--seconds``, makes the workload's
untimed calls that only the checks need, checks the first round's outputs
against independent references, and checks that every later round produced
identical outputs.  With ``--trace 1`` it instead runs one untraced
and one traced round and reports per-layer metrics from the spans.  The last
line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_PROBES = 5


def _load_program():
    """Put the checkout's ``src`` on the import path; fail without it."""
    src = ROOT / "src"
    if not (src / "ope_lab" / "__init__.py").is_file():
        sys.exit(f"no ope_lab sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


def _workdir(name: str) -> Path:
    path = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _setup(args, workdir):
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed, workdir, threads=args.threads)
    return workload


def _setup_seconds(args) -> float:
    """Set-up time of a fresh process: from spawn to the end of the
    workload's set-up, on the system-wide monotonic clock."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--threads", str(args.threads), "--setup-probe",
    ]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def _measure(workload, args):
    """Whole rounds until the next one would end past ``args.seconds``, with
    a set-up probe after each round (and at least SETUP_PROBES in all), so
    that both samples spread over the whole run.  Probe time does not count
    towards ``args.seconds``."""
    from workloads import fingerprint

    times, setup, attempted, failed = [], [], 0, 0
    first, first_print, identical = None, None, True
    start, probing = time.perf_counter(), 0.0
    while True:
        t0 = time.perf_counter()
        rnd = workload.run_round()
        times.append(time.perf_counter() - t0)
        attempted += rnd.attempted
        failed += rnd.failed
        outputs = workload.extract(rnd)
        if first is None:
            first, first_rnd, first_print = outputs, rnd, fingerprint(outputs)
        elif fingerprint(outputs) != first_print:
            identical = False
        t0 = time.perf_counter()
        setup.append(_setup_seconds(args))
        probing += time.perf_counter() - t0
        elapsed = time.perf_counter() - start - probing
        if elapsed + statistics.median(times) > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_seconds(args))
    return times, setup, attempted, failed, first, first_rnd, identical


def _verify(workload, outputs: dict):
    """The workload's untimed calls that only the checks need, added to
    ``outputs``."""
    extra = workload.verify_round()
    if extra.attempted:
        outputs.update(workload.extract(extra))
    return extra


def _errors(rnd) -> list:
    return [f"{k}: {type(v).__name__}: {v}" for k, v in rnd.raw.items() if isinstance(v, Exception)]


def _timed_run(args, env) -> dict:
    import checks

    workdir = _workdir(args.workload)
    try:
        workload = _setup(args, workdir)
        times, setup, attempted, failed, outputs, rnd, identical = _measure(workload, args)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        extra = _verify(workload, outputs)
        attempted, failed = attempted + extra.attempted, failed + extra.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = checks.CHECKS[args.workload](outputs, workload.check_config)
    if not identical:
        problems.append("a later round's outputs differ from the first round's")
    summary = dict(env, workload=args.workload, seed=args.seed, rounds=len(times),
                   round_s=times, setup_probe_s=setup, problems=problems, errors=_errors(rnd))
    print(json.dumps(summary))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "estimates_per_s": {"value": rnd.attempted / statistics.median(times), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        },
    }


def _traced_run(args, env) -> dict:
    import checks
    import tracing
    from workloads import fingerprint

    workdir = _workdir(args.workload)
    tracer = tracing.Tracer()
    try:
        workload = _setup(args, workdir)
        t0 = time.perf_counter()
        plain = workload.run_round()
        plain_s = time.perf_counter() - t0
        tracer.install(tracing.program_modules())
        try:
            # set-up is traced too, so that work done there shows per layer
            workload = _setup(args, workdir)
            t0 = time.perf_counter()
            traced = workload.run_round()
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        plain_out, traced_out = workload.extract(plain), workload.extract(traced)
        problems = [
            # results CSVs are compared as text, byte for byte
            f"traced {key} differs from the untraced one"
            for key in sorted(set(plain_out) | set(traced_out))
            if fingerprint(plain_out.get(key)) != fingerprint(traced_out.get(key))
        ]
        extra = _verify(workload, traced_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += checks.CHECKS[args.workload](traced_out, workload.check_config)
    spans = ROOT / ".bench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    values = tracer.layer_metrics()
    values["trace.overhead_s"] = traced_s - plain_s
    units = {"calls": "count", "self_s": "s", "overhead_s": "s", "fits_per_cv": "fits/cv"}
    metrics = {
        name: {"value": values[name], "unit": units.get(name.rpartition(".")[2], "count")}
        for name in tracing.LAYER_METRICS
    }
    summary = dict(env, workload=args.workload, seed=args.seed, untraced_s=plain_s,
                   traced_s=traced_s, spans=len(tracer.spans), spans_file=str(spans.relative_to(ROOT)),
                   problems=problems, errors=_errors(traced))
    print(json.dumps(summary))
    return {
        "correct": not problems,
        "attempted": plain.attempted + traced.attempted + extra.attempted,
        "failed": plain.failed + traced.failed + extra.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("study-hard", "smalln-finite", "theory-diag"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=2,
                        help="thread budget of the simulate calls; recorded figures use 2")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _load_program()

    if args.setup_probe:
        workdir = _workdir(args.workload)
        try:
            _setup(args, workdir)
            print(time.monotonic())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    env = _environment()
    result = _traced_run(args, env) if args.trace else _timed_run(args, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
