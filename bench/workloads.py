"""The three benchmark workloads and the loop that measures them.

Each workload is set up ``Size.repeats`` times (the median set-up time
is reported) and then runs whole rounds of ``Size.repeats`` operations,
one per sub-seed, until the run's seconds are spent. Sub-seed k of run
seed s is ``1000 * s + k``; the same seed always gives the same inputs.
Quality metrics are the median over the sub-seeds, timings the median
over every operation. Every operation is checked against ``oracle``.

The caller must pin BLAS to one thread and put the repository's
``src`` first on ``sys.path`` before importing this module.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from seal import benchmark, datagen, evaluation, hierarchy, model, trainer

WORKLOADS = ("train_seal", "train_baseline", "infer")


@dataclass(frozen=True)
class Size:
    """How much work one run does. The defaults are the benchmark; the
    tests shrink them."""

    epochs: int = 5  # of each train() call on the train workloads
    checkpoint_epochs: int = 5  # of the seal arm that makes an infer checkpoint
    heldout_per_class: int = 400
    repeats: int = 6  # set-ups per run, and operations (sub-seeds) per round


def sub_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def tensors(state) -> list[tuple[str, np.ndarray]]:
    named = [(f"weights[{i}]", w) for i, w in enumerate(state.weights)]
    named += [(f"biases[{i}]", b) for i, b in enumerate(state.biases)]
    named += [(f"prototypes[{i}]", p) for i, p in enumerate(state.prototypes)]
    return named + [("slice_bounds", state.slice_bounds)]


def reference_scores(state, x):
    return oracle.encoder_scores(
        state.weights, state.biases, state.slice_bounds, state.prototypes, x
    )


def reference_acc(state, x, truth_fine, old):
    """acc_all of a model scored only by the independent code."""
    pred = np.argmax(reference_scores(state, x)[-1], axis=1)
    return oracle.hungarian(truth_fine, pred, state.prototypes[-1].shape[0], old)[0]


def check_tensors(what: str, written, read) -> None:
    """Every tensor of a read-back model equals the written one bitwise."""
    for (name, a), (_, b) in zip(tensors(written), tensors(read)):
        oracle.check_bitwise(f"{what} tensor {name}", a, b)


def check_round_trip(path: Path, state) -> None:
    """Save a checkpoint and read it back bitwise."""
    model.save_checkpoint(path, state)
    check_tensors("checkpoint", state, model.load_checkpoint(path)[0])


def untrained_like(spec, dim, seed, loss_cfg, model_cfg):
    return model.init_model(
        spec, in_dim=dim, hidden=model_cfg.hidden, proj_dim=model_cfg.proj_dim,
        tau=loss_cfg.tau, tau_sharp=loss_cfg.tau_sharp, seed=seed,
    )


def record_lines(record) -> str:
    return json.dumps({"epochs": record.epochs, "final": record.final}, sort_keys=True)


class Workload:
    """Timing samples of every operation and (acc_all, acc_new,
    coarse_consistency) of every sub-seed, reduced to medians."""

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed, self.size, self.workdir = seed, size, workdir
        self.samples = {"train_s": [], "infer_s": [], "predict_samples_per_s": []}
        self.quality: dict[int, tuple[float, float, float]] = {}

    def metrics(self) -> dict[str, float]:
        out = {name: statistics.median(v) for name, v in self.samples.items()}
        for i, name in enumerate(("acc_all", "acc_new", "coarse_consistency")):
            out[name] = statistics.median(q[i] for q in self.quality.values())
        return out


class TrainWorkload(Workload):
    """One train() call of a frozen arm on the frozen dataset, then the
    scoring of its unlabelled set (predict_levels + evaluate_predictions)."""

    def __init__(self, arm: str, seed: int, size: Size, workdir: Path):
        super().__init__(seed, size, workdir)
        self.arm = arm
        self.data = None
        self.lines: dict[int, str] = {}

    def setup(self, repeat: int) -> float:
        """Build the frozen dataset; returns the seconds it took."""
        started = time.perf_counter()
        data = benchmark.benchmark_dataset()
        elapsed = time.perf_counter() - started
        if self.data is None:
            self.data = data
            return elapsed
        _, ds, split = data
        _, first, first_split = self.data
        oracle.check_bitwise("set-up features", first.features, ds.features)
        oracle.check_bitwise("set-up labels", first.labels, ds.labels)
        oracle.check_bitwise("set-up labelled split", first_split.labelled, split.labelled)
        return elapsed

    def operation(self, k: int) -> float:
        _, ds, split = self.data
        seed = sub_seed(self.seed, k)
        spec, train_cfg, loss_cfg, model_cfg = benchmark.arm_configs(
            self.arm, seed, self.size.epochs
        )
        unlab = split.unlabelled
        x = ds.features[unlab]
        truth = ds.labels[unlab][:, -spec.levels :]

        started = time.perf_counter()
        state, record = trainer.train(ds, split, spec, seed, train_cfg, loss_cfg, model_cfg)
        trained = time.perf_counter()
        preds, scores = trainer.predict_levels(state, x)
        predicted = time.perf_counter()
        reports = evaluation.evaluate_predictions(
            truth, np.stack(preds, axis=1), spec, split.old_classes
        )
        scored = time.perf_counter()
        check_round_trip(self.workdir / f"{self.arm}.seal", state)

        self.samples["train_s"].append(trained - started)
        self.samples["infer_s"].append(scored - trained)
        self.samples["predict_samples_per_s"].append(x.shape[0] / (predicted - trained))
        self._check(k, seed, state, record, preds, scores, reports, (spec, loss_cfg, model_cfg))
        return trained - started

    def _check(self, k, seed, state, record, preds, scores, reports, cfg):
        _, ds, split = self.data
        unlab = split.unlabelled
        x, truth_fine = ds.features[unlab], ds.fine_labels()[unlab]
        lines = record_lines(record)
        if k in self.lines:
            oracle.check_same(f"sub-seed {seed} per-epoch lines", self.lines[k], lines)
            return
        oracle.check_epoch_lines(record.epochs)
        oracle.check_unit_rows(state.prototypes)
        oracle.check_scores(reference_scores(state, x), scores, preds)
        n_fine = ds.spec.num_fine
        acc_all, acc_old, acc_new, mapping = oracle.hungarian(
            truth_fine, preds[-1], n_fine, split.old_classes
        )
        final = record.final
        oracle.check_accuracy("train() final metrics", (final["all"], final["old"], final["new"]),
                              (acc_all, acc_old, acc_new))
        fine = reports[len(preds)]
        oracle.check_accuracy("evaluate_predictions", (fine.acc_all, fine.acc_old, fine.acc_new),
                              (acc_all, acc_old, acc_new))
        ancestor = oracle.fine_to_coarse(ds.spec.parent_maps, 1)
        if len(preds) > 1:
            consistency = oracle.head_agreement(preds[-1], preds[0], ancestor)
            oracle.check_value("train() level-1 consistency",
                               final["consistency"].get("1"), consistency)
            oracle.check_value("evaluate_predictions level-1 consistency",
                               fine.consistency.get(1), consistency)
        else:
            consistency = oracle.family_agreement(truth_fine, preds[-1], mapping, ancestor)
        spec, loss_cfg, model_cfg = cfg
        untrained = untrained_like(spec, ds.dim, seed, loss_cfg, model_cfg)
        oracle.check_learned(
            reference_acc(state, x, truth_fine, split.old_classes),
            reference_acc(untrained, x, truth_fine, split.old_classes),
        )
        self.lines[k] = lines
        self.quality[k] = (acc_all, acc_new, consistency)


class InferWorkload(Workload):
    """Ingest a held-out CSV, a hierarchy JSON and a checkpoint, then
    predict every level at batch 512 and score the fine level."""

    def __init__(self, seed: int, size: Size, workdir: Path):
        super().__init__(seed, size, workdir)
        self.csv = workdir / "heldout.csv"
        self.hierarchy = workdir / "hierarchy.json"
        self.csv_digest = None
        self.heldout = None
        self.states: dict[int, object] = {}

    def checkpoint(self, k: int) -> Path:
        return self.workdir / f"model{k}.seal"

    def setup(self, repeat: int) -> float:
        """Write the held-out draw and the hierarchy, and train and save
        the checkpoint of sub-seed ``repeat`` (one short seal arm);
        returns the seconds this took, checks left out."""
        started = time.perf_counter()
        spec, ds, split = benchmark.benchmark_dataset()
        seed = sub_seed(self.seed, repeat)
        arm_spec, train_cfg, loss_cfg, model_cfg = benchmark.arm_configs(
            "seal", seed, self.size.checkpoint_epochs
        )
        training = time.perf_counter()
        state, record = trainer.train(ds, split, arm_spec, seed, train_cfg, loss_cfg, model_cfg)
        self.samples["train_s"].append(time.perf_counter() - training)
        model.save_checkpoint(self.checkpoint(repeat), state)
        heldout = heldout_dataset(spec, self.size.heldout_per_class, ds)
        datagen.save_features_csv(self.csv, heldout)
        hierarchy.save_hierarchy(self.hierarchy, spec, known=split.old_classes)
        elapsed = time.perf_counter() - started

        digest = hashlib.sha256(self.csv.read_bytes()).hexdigest()
        if self.csv_digest is not None:
            oracle.check_same("held-out CSV", self.csv_digest, digest)
        self.csv_digest, self.heldout = digest, heldout
        oracle.check_epoch_lines(record.epochs)
        oracle.check_unit_rows(state.prototypes)
        truth = heldout.fine_labels()
        oracle.check_learned(
            reference_acc(state, heldout.features, truth, split.old_classes),
            reference_acc(untrained_like(arm_spec, ds.dim, seed, loss_cfg, model_cfg),
                          heldout.features, truth, split.old_classes),
        )
        self.states[repeat] = state
        return elapsed

    def operation(self, k: int) -> float:
        started = time.perf_counter()
        _, known = hierarchy.load_hierarchy(self.hierarchy)
        spec, ds = datagen.load_embeddings(self.csv, self.hierarchy)
        state, _ = model.load_checkpoint(self.checkpoint(k))
        loaded = time.perf_counter()
        preds, scores = trainer.predict_levels(state, ds.features)
        predicted = time.perf_counter()
        reports = evaluation.evaluate_predictions(ds.labels, np.stack(preds, axis=1), spec, known)
        scored = time.perf_counter()

        self.samples["infer_s"].append(scored - started)
        self.samples["predict_samples_per_s"].append(ds.features.shape[0] / (predicted - loaded))
        self._check(k, spec, ds, known, state, preds, scores, reports)
        return scored - started

    def _check(self, k, spec, ds, known, state, preds, scores, reports):
        oracle.check_bitwise("held-out CSV features", self.heldout.features, ds.features)
        oracle.check_bitwise("held-out CSV labels", self.heldout.labels, ds.labels)
        check_tensors("checkpoint", self.states[k], state)
        if k in self.quality:
            return
        oracle.check_scores(reference_scores(state, ds.features), scores, preds)
        truth = ds.fine_labels()
        acc_all, acc_old, acc_new, _ = oracle.hungarian(truth, preds[-1], spec.num_fine, known)
        fine = reports[spec.levels]
        oracle.check_accuracy("evaluate_predictions", (fine.acc_all, fine.acc_old, fine.acc_new),
                              (acc_all, acc_old, acc_new))
        consistency = oracle.head_agreement(
            preds[-1], preds[0], oracle.fine_to_coarse(spec.parent_maps, 1)
        )
        oracle.check_value("evaluate_predictions level-1 consistency",
                           fine.consistency.get(1), consistency)
        self.quality[k] = (acc_all, acc_new, consistency)


def heldout_dataset(spec, per_class: int, training):
    """A larger draw from the frozen mixture: the generator seed of the
    training set with more samples per class. The generator draws every
    class from one stream, so leading rows of the first classes repeat
    training rows; those rows are left out."""
    draw = datagen.generate_synthetic(
        spec, per_class=per_class, dim=benchmark.BENCHMARK_DIM,
        spreads=benchmark.BENCHMARK_SPREADS, seed=benchmark.BENCHMARK_DATA_SEED,
    )
    seen = {row.tobytes() for row in training.features}
    keep = np.array([row.tobytes() not in seen for row in draw.features])
    return datagen.Dataset(draw.features[keep], draw.labels[keep], spec)


def make(name: str, seed: int, size: Size, workdir: Path):
    if name == "train_seal":
        return TrainWorkload("seal", seed, size, workdir)
    if name == "train_baseline":
        return TrainWorkload("baseline", seed, size, workdir)
    if name == "infer":
        return InferWorkload(seed, size, workdir)
    raise ValueError(f"unknown workload {name!r}; have {WORKLOADS}")


def measure(workload, seconds: float, size: Size, tracer=None) -> dict:
    """Set the workload up ``size.repeats`` times, then run whole rounds
    of ``size.repeats`` operations until ``seconds`` have passed. With a
    tracer, every operation of a round runs twice, untraced and traced
    in turn (the order alternates between rounds), so the traced run
    also gives the tracing overhead as paired differences."""
    setup_s = [workload.setup(repeat) for repeat in range(size.repeats)]
    op_s = {False: [], True: []}
    started = time.perf_counter()
    rounds = 0
    while True:
        for k in range(size.repeats):
            if tracer is None:
                op_s[False].append(workload.operation(k))
                continue
            for traced in (False, True) if rounds % 2 == 0 else (True, False):
                if traced:
                    with tracer.installed(), tracer.operation():
                        op_s[True].append(workload.operation(k))
                else:
                    op_s[False].append(workload.operation(k))
        rounds += 1
        if time.perf_counter() - started >= seconds:
            break
    return {
        "setup_s": setup_s,
        "untraced_op_s": op_s[False],
        "traced_op_s": op_s[True],
        "attempted": len(op_s[False]) + len(op_s[True]),
    }
