"""Run one benchmark workload against the satnav sources of this checkout.

    python3 perfbench/run.py --workload exact_grid3x4 --seed 0 --seconds 30 --trace 0

With --trace 0 the workload's operations run in a closed loop for about
--seconds seconds and the end-to-end metrics are reported: wall_s, the
wall time of one pass over the operation list (the sum over operations of
each one's median time); setup_s, the median over fresh processes of the
time to import satnav and build the inputs; and peak_rss_mb, the peak
resident memory of the process that ran the loop. With --trace 1 untraced
and traced passes alternate and the per-layer metrics of the traced passes
are reported instead, with the tracing overhead and the trust-clamp probe.

Every operation's answer is checked outside the timed region (see
workloads.py). The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; fail_ratio is failed / attempted.
Spans, per-operation times and the run environment go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("exact_grid3x4", "optimize_grid3x3", "cli_cactus6")
# fresh processes whose median set-up time is reported
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup(name: str, seed: int, workdir: Path):
    """Import satnav from this checkout and build the workload's inputs;
    returns (seconds, workloads module, workload)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import satnav
    import workloads

    if Path(satnav.__file__).resolve().parent != SRC / "satnav":
        die(f"imported satnav from {satnav.__file__}, not from {SRC}")
    workload = workloads.WORKLOADS[name](seed, workdir)
    return time.perf_counter() - start, workloads, workload


def setup_seconds(name: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            die(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


@dataclass
class Record:
    label: str
    seconds: float
    result: object
    error: str | None
    traced: bool


def run_op(op, traced: bool) -> Record:
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception:  # one failed operation must not stop the run
        result, error = None, traceback.format_exc()
    return Record(op.label, time.perf_counter() - start, result, error, traced)


def closed_loop(workload, seconds: float) -> list[Record]:
    """Cycle through the operations; start one only if its median time so
    far still fits in the budget, after at least one full pass."""
    records: list[Record] = []
    times: dict[str, list[float]] = {op.label: [] for op in workload.ops}
    start = time.perf_counter()
    for i in itertools.count():
        op = workload.ops[i % len(workload.ops)]
        if i >= len(workload.ops):
            expected = statistics.median(times[op.label])
            if time.perf_counter() - start + expected > seconds:
                break
        records.append(run_op(op, traced=False))
        times[op.label].append(records[-1].seconds)
    return records


def run_pass(workload, records: list[Record], tracer=None) -> float:
    start = time.perf_counter()
    for op in workload.ops:
        if tracer is not None:
            tracer.op = len(records)
        records.append(run_op(op, traced=tracer is not None))
    return time.perf_counter() - start


def traced_loop(workload, seconds: float, origin: float):
    """Alternate an untraced and a traced pass while a pair fits."""
    from tracer import Tracer

    records: list[Record] = []
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(workload, records))
        with Tracer(origin) as tracer:
            traced.append(run_pass(workload, records, tracer))
        tracers.append(tracer)
        if time.perf_counter() - start + untraced[-1] + traced[-1] > seconds:
            return records, untraced, traced, tracers


def check(workload, records: list[Record]) -> int:
    """Judge every record; returns the number that failed."""
    first: dict[str, object] = {}
    verdict: dict[str, str | None] = {}
    failed = 0
    for rec in records:
        if rec.error is None and rec.label not in first:
            first[rec.label] = rec.result
            try:
                verdict[rec.label] = workload.check(rec.label, rec.result)
            except Exception:
                verdict[rec.label] = traceback.format_exc()
        if rec.error is None and rec.result != first[rec.label]:
            rec.error = f"result {rec.result!r} differs from {first[rec.label]!r}"
        elif rec.error is None:
            rec.error = verdict[rec.label]
        if rec.error is not None:
            failed += 1
            print(f"perfbench: {rec.label} failed: {rec.error}", file=sys.stderr)
    return failed


def wall_of_pass(records: list[Record]) -> float:
    by_label: dict[str, list[float]] = {}
    for rec in records:
        by_label.setdefault(rec.label, []).append(rec.seconds)
    return sum(statistics.median(times) for times in by_label.values())


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def traced_metrics(workload, workloads, seed, records, untraced, traced,
                   tracers) -> tuple[dict, list[str]]:
    from tracer import LAYER_METRICS, layer_metrics

    per_pass = [layer_metrics(t, workload.uses) for t in tracers]
    # median_low reports a value one pass measured, so counts stay whole
    values = {name: statistics.median_low([p[name] for p in per_pass if name in p])
              for name in per_pass[0]}
    units = {name: unit for name, (_, unit, _) in LAYER_METRICS.items()}
    last_pass = [r for r in records if r.traced][-len(workload.ops):]
    values["cli.output_bytes"] = sum(
        workload.output_bytes(r.result) for r in last_pass if r.error is None)
    values["trace_overhead_s"] = (statistics.median(traced)
                                  - statistics.median(untraced))
    values["solver.clamp_singular"] = workloads.clamp_singular(seed)
    units.update({"cli.output_bytes": "bytes", "trace_overhead_s": "s",
                  "solver.clamp_singular": "count"})
    absent = sorted(set(LAYER_METRICS) - set(values))
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    return metrics, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        die("--seed must be >= 0")
    if not (SRC / "satnav" / "__init__.py").is_file():
        die(f"no satnav sources under {SRC}")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.setup_probe:
            print(repr(setup(args.workload, args.seed, Path(tmp))[0]))
            return 0
        origin = time.perf_counter()
        _, workloads, workload = setup(args.workload, args.seed, Path(tmp))
        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": environment()}
        if args.trace:
            records, untraced, traced, tracers = traced_loop(
                workload, args.seconds, origin)
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            records = closed_loop(workload, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = check(workload, records)

    if args.trace:
        metrics, absent = traced_metrics(workload, workloads, args.seed,
                                         records, untraced, traced, tracers)
        if absent:
            print(f"perfbench: absent per-layer metrics: {', '.join(absent)}",
                  file=sys.stderr)
        report.update(absent=absent, untraced_pass_s=untraced,
                      traced_pass_s=traced,
                      spans_per_pass=[t.spans for t in tracers])
    else:
        metrics = {
            "wall_s": {"value": wall_of_pass(records), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    report["operations"] = [
        {"label": r.label, "seconds": r.seconds, "traced": r.traced,
         "error": r.error} for r in records]
    report["metrics"] = metrics
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
