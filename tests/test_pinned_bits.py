"""The bits of training and inference, pinned: SHA-256 digests of five
short runs and of one model's predicted scores and classes.

A change that keeps the numbers must keep these digests. A change that
moves the bits on purpose updates the pins here and says so in
CHANGES.md, with the old and the new digests and a fresh run of the
acceptance criteria 5-7.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the criterion-8 `seal --deterministic train` metrics.jsonl, then
# json.dumps({"epochs", "final"}, sort_keys=True) of run_arm(arm, seed=1, epochs=5),
# then the predict_levels scores and the int64 predictions of every level,
# level 1 first, of that seal arm's model on the benchmark's unlabelled rows
PINNED = {
    "criterion_8": "a778f0d267a0d792a3731dafc2565d3e06c81f1f104cdaf9f39edc7d176ad38a",
    "seal": "b49aa1a459ae8ad691dc78a67f74fe6b07a2e56ec934855cfea9846cbe0b3965",
    "baseline": "3d490b559b621ba0b4470feb18a72589fb905643af6110862e591d62a9a47d21",
    "seal_shuffled_hierarchy": "f658fe0019a85377f9aaca3ba45cdd578de91b62a69a6d4d18979adbb3766be8",
    "seal_no_cgc": "bf6a0f05375f5864af7554571a905e441f60a672126781d7b03c3f66eaf02eda",
    "seal_predict_scores": "4f3b85c35adae9a1fecbb7c4b29926bd24128eba212c01d269223a96e0c182de",
    "seal_predict_preds": "27d159f0cadaecfc4deaf550b5ce90475404f220fe988dc9c65b1abad0c75d07",
}

SCRIPT = r"""
import hashlib, json, sys
from pathlib import Path

import numpy as np

from seal.benchmark import arm_configs, benchmark_dataset
from seal.cli import main
from seal.trainer import predict_levels, train

run = Path(sys.argv[1])
# the config of acceptance criterion 8
config = {
    "seed": 9,
    "data": {
        "synthetic": {"counts": [2, 6], "per_class": 12, "dim": 8,
                      "spreads": [6, 2, 0.5], "seed": 2},
        "old_fraction": 0.5,
        "labelled_fraction": 0.5,
        "split_seed": 2,
    },
    "train": {"epochs": 4, "batch_size": 8},
    "loss": {},
    "model": {"hidden": [8], "proj_dim": 8},
}
(run / "config.json").write_text(json.dumps(config))
code = main(["--deterministic", "train", "--config", str(run / "config.json"),
             "--out", str(run / "out")])
assert code == 0, code
digests = {"criterion_8": hashlib.sha256((run / "out" / "metrics.jsonl").read_bytes()).hexdigest()}
_, ds, split = benchmark_dataset()
for arm in ("seal", "baseline", "seal_shuffled_hierarchy", "seal_no_cgc"):
    # what run_arm(arm, seed=1, epochs=5) does, keeping the model
    spec, train_cfg, loss_cfg, model_cfg = arm_configs(arm, 1, 5)
    state, record = train(ds, split, spec, 1, train_cfg, loss_cfg, model_cfg)
    blob = json.dumps({"epochs": record.epochs, "final": record.final}, sort_keys=True)
    digests[arm] = hashlib.sha256(blob.encode()).hexdigest()
    if arm == "seal":
        preds, scores = predict_levels(state, ds.features[split.unlabelled])
        scores_blob = b"".join(s.tobytes() for s in scores)
        digests["seal_predict_scores"] = hashlib.sha256(scores_blob).hexdigest()
        preds_blob = b"".join(p.astype(np.int64).tobytes() for p in preds)
        digests["seal_predict_preds"] = hashlib.sha256(preds_blob).hexdigest()
print(json.dumps(digests))
"""


def test_training_bits_match_the_pins(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == PINNED
