#!/usr/bin/env python3
"""Layered benchmark of momabs.

    python3 bench/run.py --workload paper-example|simulate-large|synthesis \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` next
to this directory; without it the benchmark exits 2 and prints no result.
One process sets up the workload (imports, inputs built from --seed), then
runs ops one after another (a closed loop with one client) until S seconds
have passed and at least MIN_OPS ops have run, and checks every op's
outputs.  Workloads, ops and checks are described in ``workloads.py``.

--trace 0 prints these end-to-end figures; the result line carries the
ones BENCHMARK.json declares:
  setup_s      median wall time of SETUP_SAMPLES set-ups, each from process
               start to the first op: this process's, and fresh child
               processes' started between ops, spread over the run;
  op_s.min     fastest op of the run;
  op_s.p50     median op wall time;
  op_s.tail    the op time with exactly 10 ops slower than it, i.e. the
               highest percentile that still has 10 samples beyond it;
  fail_ratio   failed / attempted ops;
  peak_rss_mb  peak resident set size of this process.
On a shared 2-core machine whose speed drifts over tens of seconds, the
run-to-run spread of op_s.p50 and op_s.tail (about p50 at 20 ops a run)
can exceed 25 %, so the regression gate is op_s.min, the op time with the
least machine noise; the median and tail are printed beside it.
--trace 1 alternates untraced and traced ops and reports the per-layer
metrics of BENCHMARK.json (per traced op, see ``tracing.py``) and the
tracing overhead; the spans go to .bench_work/spans-<workload>-seed<N>.json.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import os
import time

_T0 = time.perf_counter()
BLAS_THREADS = 1  # set before numpy loads; at most nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
MIN_OPS = 11  # op_s.tail needs 10 ops beyond it
TAIL_BEYOND = 10
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one timed set-up in a fresh process, for the setup_s median
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def tail(times) -> tuple[float, float]:
    """(value, percentile) of the op time with exactly TAIL_BEYOND slower ops."""
    ordered = sorted(times)
    j = len(ordered) - TAIL_BEYOND - 1
    return ordered[j], 100.0 * (j + 1) / len(ordered)


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "seed": seed,
    }


def child_setup_seconds(args) -> float:
    """Time one set-up in a fresh interpreter (imports included)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def run_ops(workload, seconds: float, tracer=None, setup_sampler=None, setup_count: int = 0):
    """Closed loop of ops; with a tracer, every second op is traced.

    setup_sampler is called setup_count times between ops, spread evenly
    over the run, so that the set-up times see the same drift of machine
    speed as the ops.  Returns (op times, traced flags, problems per op,
    set-up times).
    """
    times, traced_flags, problems, setups = [], [], [], []
    start = time.perf_counter()
    i = 0
    while i < MIN_OPS or time.perf_counter() - start < seconds:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install(i)
        t0 = time.perf_counter()
        if traced:
            tracer.begin_op()
        try:
            result, error = workload.op(i), None
        except Exception as exc:  # an op that escapes with an exception fails
            result, error = None, exc
        if traced:
            tracer.end_op()
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        if error is None:
            problems.append(workload.check(i, result))
        else:
            problems.append([("wrong", f"{type(error).__name__}: {error}")])
        times.append(elapsed)
        traced_flags.append(traced)
        i += 1
        if len(setups) < setup_count:
            if time.perf_counter() - start >= len(setups) * seconds / setup_count:
                setups.append(setup_sampler())
    while len(setups) < setup_count:
        setups.append(setup_sampler())
    return times, traced_flags, problems, setups


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momabs" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'momabs'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports numpy and momabs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup = time.perf_counter() - _T0
        if args.setup_only:
            print(f"{setup!r}")
            return 0
        return measure(args, workload, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end_values(times, setups, peak_rss_mb: float) -> dict:
    tail_value, _ = tail(times)
    return {
        "setup_s": statistics.median(setups),
        "op_s.min": min(times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_value,
        "peak_rss_mb": peak_rss_mb,
    }


def layer_values(tracer, times, traced) -> dict:
    """Per-layer values of the traced ops, and the tracing overhead as
    traced minus untraced median op time."""
    with_trace = [t for t, tr in zip(times, traced) if tr]
    values = tracer.layer_metrics(len(with_trace))
    values["op_s.p50.traced"] = statistics.median(with_trace)
    values["op_s.p50.untraced"] = statistics.median(t for t, tr in zip(times, traced) if not tr)
    values["trace.overhead_s"] = values["op_s.p50.traced"] - values["op_s.p50.untraced"]
    return values


def result(declared, values: dict, attempted: int, failed: int, correct: bool) -> dict:
    """The result object: each declared metric with its value and unit."""
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def measure(args, workload, setup: float) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload.prepare_checks()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    times, traced, problems, child_setups = run_ops(
        workload, args.seconds, tracer,
        setup_sampler=lambda: child_setup_seconds(args),
        setup_count=0 if args.trace else SETUP_SAMPLES - 1,
    )
    setups = [setup, *child_setups]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(times)
    failed = sum(1 for p in problems if p)
    correct = not any(kind == "wrong" for p in problems for kind, _ in p)
    print("env " + json.dumps(environment(args.seed)))
    print(f"workload {args.workload}: {attempted} ops in {sum(times):.3f} s, "
          f"fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    print("op times (s): " + " ".join(f"{t:.3f}" for t in times))
    seen = set()
    for i, op_problems in enumerate(problems):
        for kind, msg in op_problems:
            if (kind, msg) not in seen:
                seen.add((kind, msg))
                print(f"op {i} {kind}: {msg}")

    if args.trace:
        values, declared = layer_values(tracer, times, traced), spec["per_layer"]
        spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        values, declared = end_to_end_values(times, setups, peak_rss_mb), spec["end_to_end"]
        _, pct = tail(times)
        print(f"setup_s samples (s): {' '.join(f'{s:.4f}' for s in setups)}")
        print(f"op_s.p50 {values['op_s.p50']:.6g} s, op_s.tail {values['op_s.tail']:.6g} s "
              f"(p{pct:.1f} of {attempted} ops, {TAIL_BEYOND} beyond it)")

    out = result(declared, values, attempted, failed, correct)
    for name, m in out["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
