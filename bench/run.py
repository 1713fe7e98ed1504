"""Benchmark of seal-gcd: runs one workload and prints one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload train_seal --seed 1 --seconds 30 --trace 0

Workloads: train_seal, train_baseline, infer (see bench/README.md).
``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` runs alternate untraced and traced rounds and prints the
per-layer metrics plus the tracing overhead, and writes the spans to
bench/results/. The library is imported from ``src/`` next to this
directory; BLAS is pinned to one thread before numpy loads, as
``seal --deterministic`` does. Exit status: 0 when every output check
passed, 1 when one failed, 2 when the run could not start.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "infer_s": "s",
    "predict_samples_per_s": "samples/s",
    "acc_all": "fraction",
    "acc_new": "fraction",
    "coarse_consistency": "fraction",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import the library from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import seal
    except ImportError as exc:
        fail_to_start(f"cannot import seal from {ROOT / 'src'}: {exc}")
    if Path(seal.__file__).resolve().parent != (ROOT / "src" / "seal").resolve():
        fail_to_start(f"seal was imported from {seal.__file__}, not from {ROOT / 'src'}")


def fail_to_start(message: str):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import oracle
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail_to_start(f"unknown workload {args.workload!r}; have {workloads.WORKLOADS}")
    imported_s = time.perf_counter() - STARTED
    size = workloads.Size()
    workdir = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    workload = workloads.make(args.workload, args.seed, size, workdir)
    try:
        run = workloads.measure(workload, args.seconds, size, tracer)
    except oracle.CheckFailed as exc:
        print(f"bench: output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values = workload.metrics()
        values["setup_s"] = imported_s + median(run["setup_s"])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics = spans.per_layer(tracer)
        overhead = median(t - u for t, u in zip(run["traced_op_s"], run["untraced_op_s"]))
        metrics["trace.overhead_s"] = (overhead, "s")
        write_trace(args, tracer, metrics)

    for name, (value, unit) in metrics.items():
        print(f"{name:38s} {value:14.6g} {unit}")
    if tracer is not None and tracer.absent:
        print("absent (metrics read 0): " + ", ".join(sorted(tracer.absent)))
    result = {
        "correct": True,
        "attempted": run["attempted"],
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, samples=run,
                  quality={str(k): v for k, v in sorted(workload.quality.items())})
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


def write_trace(args, tracer, metrics) -> None:
    doc = tracer.table()
    doc["per_layer"] = {name: value for name, (value, _unit) in metrics.items()}
    path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    sys.exit(main())
