"""Before/after timings of seal-gcd's units of work, written to BENCH_<label>.json.

Run from any directory; the file goes to the root of the checkout that
holds this script:

    python3 perf/run.py --label main --repeats 10

The library is imported from ``src/`` next to this directory. BLAS is
pinned to one thread before numpy loads, unless the environment already
sets its thread variables. Each repeat times, in this order:

- one 5-epoch ``train()`` of the frozen ``seal`` arm at seed 1, which
  calls ``predict_levels`` 11 times (per epoch the transition refresh
  and the validation pass, then the final pass);
- one 5-epoch ``train()`` of the ``baseline`` arm at seed 1, which calls
  it 6 times (it has no transition matrices to refresh);
- one ``predict_levels`` of the seal model over the held-out draw: the
  frozen generator at 400 samples per class, less the rows that repeat
  training rows.

Every repeat must give the same records and predictions bit for bit;
otherwise nothing is written and the exit status is 1. The file holds
the machine facts, the sizes, and per unit the raw samples in seconds
with their median and interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EPOCHS = 5
HELDOUT_PER_CLASS = 400
SEED = 1


def machine() -> dict:
    import numpy as np
    import scipy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count()
    model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        found = re.search(r"^model name\s*:\s*(.+)$", cpuinfo.read_text(), re.MULTILINE)
        model = found.group(1) if found else None
    return {
        "cpus_usable": cpus, "cpu_model": model, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def summary(samples: list[float]) -> dict:
    import numpy as np

    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_s": float(med), "iqr_s": float(q3 - q1), "samples_s": samples}


def collect(repeats: int, epochs: int, heldout_per_class: int) -> dict:
    """Time ``repeats`` rounds of the three units; raises RuntimeError
    when a repeat's record or predictions differ from the first's."""
    from seal import benchmark, datagen, trainer

    spec, ds, split = benchmark.benchmark_dataset()
    draw = datagen.generate_synthetic(
        spec, per_class=heldout_per_class, dim=benchmark.BENCHMARK_DIM,
        spreads=benchmark.BENCHMARK_SPREADS, seed=benchmark.BENCHMARK_DATA_SEED,
    )
    seen = {row.tobytes() for row in ds.features}
    heldout = draw.features[[row.tobytes() not in seen for row in draw.features]]

    samples = {"train_seal": [], "train_baseline": [], "predict_levels": []}
    firsts: dict[str, bytes] = {}

    def same(what: str, result: bytes, repeat: int) -> None:
        if firsts.setdefault(what, result) != result:
            raise RuntimeError(f"repeat {repeat}: the {what} differs from repeat 0's")

    for repeat in range(repeats):
        for arm in ("seal", "baseline"):
            arm_spec, train_cfg, loss_cfg, model_cfg = benchmark.arm_configs(arm, SEED, epochs)
            started = time.perf_counter()
            state, record = trainer.train(ds, split, arm_spec, SEED, train_cfg, loss_cfg, model_cfg)
            samples[f"train_{arm}"].append(time.perf_counter() - started)
            lines = json.dumps({"epochs": record.epochs, "final": record.final}, sort_keys=True)
            same(f"{arm} record", lines.encode(), repeat)
            if arm == "seal":
                seal_state = state
        started = time.perf_counter()
        preds, scores = trainer.predict_levels(seal_state, heldout)
        samples["predict_levels"].append(time.perf_counter() - started)
        same("predictions", b"".join(a.tobytes() for a in preds + scores), repeat)

    units = {name: summary(values) for name, values in samples.items()}
    predict = units["predict_levels"]
    predict["samples_per_s"] = heldout.shape[0] / predict["median_s"]
    return {
        "machine": machine(),
        "sizes": {"repeats": repeats, "epochs": epochs, "seed": SEED,
                  "heldout_rows": int(heldout.shape[0])},
        "units": units,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file: BENCH_<label>.json")
    parser.add_argument("--repeats", type=int, default=10)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error(f"--label takes letters, digits, '_', '.' and '-', got {args.label!r}")
    if args.repeats < 1:
        parser.error(f"--repeats must be positive, got {args.repeats}")
    try:
        doc = collect(args.repeats, EPOCHS, HELDOUT_PER_CLASS)
    except RuntimeError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    doc["label"] = args.label
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, unit in doc["units"].items():
        print(f"{name}: median {unit['median_s']:.4f} s, IQR {unit['iqr_s']:.4f} s")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    for _var in BLAS_VARS:
        os.environ.setdefault(_var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
