"""Tests of the benchmark itself, at a tiny size.

Run from the repository root: ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from seal import benchmark, datagen, model, trainer  # noqa: E402

TINY = workloads.Size(epochs=2, checkpoint_epochs=2, heldout_per_class=110, repeats=2)


@pytest.fixture(scope="module")
def tiny_seal():
    """One 2-epoch seal arm on the frozen data, with its scoring outputs."""
    spec, ds, split = benchmark.benchmark_dataset()
    arm, train_cfg, loss_cfg, model_cfg = benchmark.arm_configs("seal", 3, 2)
    state, record = trainer.train(ds, split, arm, 3, train_cfg, loss_cfg, model_cfg)
    x = ds.features[split.unlabelled]
    preds, scores = trainer.predict_levels(state, x)
    return {
        "spec": spec, "ds": ds, "split": split, "state": state, "record": record,
        "x": x, "truth": ds.fine_labels()[split.unlabelled], "preds": preds, "scores": scores,
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_checks_pass(name, tmp_path):
    wl = workloads.make(name, 0, TINY, tmp_path)
    run = workloads.measure(wl, 0.0, TINY)
    assert run["attempted"] == TINY.repeats
    metrics = wl.metrics()
    assert set(metrics) == {"train_s", "infer_s", "predict_samples_per_s",
                            "acc_all", "acc_new", "coarse_consistency"}
    assert all(np.isfinite(v) and v > 0 for v in metrics.values())


def test_two_train_calls_give_identical_lines(tiny_seal):
    ds, split = tiny_seal["ds"], tiny_seal["split"]
    arm, train_cfg, loss_cfg, model_cfg = benchmark.arm_configs("seal", 3, 2)
    _, again = trainer.train(ds, split, arm, 3, train_cfg, loss_cfg, model_cfg)
    oracle.check_same("lines", workloads.record_lines(tiny_seal["record"]),
                      workloads.record_lines(again))
    with pytest.raises(oracle.CheckFailed):
        again.epochs[-1]["loss_cls"] += 1e-15
        oracle.check_same("lines", workloads.record_lines(tiny_seal["record"]),
                          workloads.record_lines(again))


def test_scores_check_catches_a_corrupted_reference(tiny_seal):
    state, x = tiny_seal["state"], tiny_seal["x"]
    oracle.check_scores(workloads.reference_scores(state, x), tiny_seal["scores"], tiny_seal["preds"])
    bad = state.copy()
    bad.weights[0][0, 0] += 1e-6
    with pytest.raises(oracle.CheckFailed):
        oracle.check_scores(workloads.reference_scores(bad, x), tiny_seal["scores"], tiny_seal["preds"])
    flipped = [p.copy() for p in tiny_seal["preds"]]
    flipped[-1][0] = (flipped[-1][0] + 1) % state.prototypes[-1].shape[0]
    with pytest.raises(oracle.CheckFailed):
        oracle.check_scores(workloads.reference_scores(state, x), tiny_seal["scores"], flipped)


def test_accuracy_check_catches_corrupted_truth(tiny_seal):
    final, truth, split = tiny_seal["record"].final, tiny_seal["truth"], tiny_seal["split"]
    reported = (final["all"], final["old"], final["new"])
    ref = oracle.hungarian(truth, tiny_seal["preds"][-1], 24, split.old_classes)
    oracle.check_accuracy("final", reported, ref[:3])
    corrupt = truth.copy()
    row = int(np.flatnonzero(ref[3][tiny_seal["preds"][-1]] == truth)[0])
    corrupt[row] = (corrupt[row] + 1) % 24
    with pytest.raises(oracle.CheckFailed):
        oracle.check_accuracy(
            "final", reported,
            oracle.hungarian(corrupt, tiny_seal["preds"][-1], 24, split.old_classes)[:3],
        )


def test_consistency_check_catches_a_corrupted_taxonomy(tiny_seal):
    preds, spec = tiny_seal["preds"], tiny_seal["spec"]
    reported = tiny_seal["record"].final["consistency"]["1"]
    maps = [m.copy() for m in spec.parent_maps]
    oracle.check_value("consistency", reported,
                       oracle.head_agreement(preds[-1], preds[0], oracle.fine_to_coarse(maps, 1)))
    maps[0] = (maps[0] + 1) % spec.counts[0]
    with pytest.raises(oracle.CheckFailed):
        oracle.check_value("consistency", reported,
                           oracle.head_agreement(preds[-1], preds[0], oracle.fine_to_coarse(maps, 1)))


def test_fine_to_coarse_matches_the_program(tiny_seal):
    from seal.hierarchy import level_map

    spec = tiny_seal["spec"]
    for level in (1, 2, 3):
        assert np.array_equal(oracle.fine_to_coarse(spec.parent_maps, level), level_map(spec, level))


def test_epoch_line_check_catches_bad_totals_and_nan(tiny_seal):
    epochs = tiny_seal["record"].epochs
    oracle.check_epoch_lines(epochs)
    for key, value in (("loss_total", 1e-6), ("loss_hscl", float("nan"))):
        bad = [dict(e) for e in epochs]
        bad[-1][key] = bad[-1][key] + value
        with pytest.raises(oracle.CheckFailed):
            oracle.check_epoch_lines(bad)


def test_unit_row_check_catches_a_scaled_prototype(tiny_seal):
    protos = [p.copy() for p in tiny_seal["state"].prototypes]
    oracle.check_unit_rows(protos)
    protos[1][2] *= 1.0 + 1e-8
    with pytest.raises(oracle.CheckFailed):
        oracle.check_unit_rows(protos)


def test_learned_check_needs_a_gain(tiny_seal):
    state, x, truth = tiny_seal["state"], tiny_seal["x"], tiny_seal["truth"]
    old = tiny_seal["split"].old_classes
    arm, _, loss_cfg, model_cfg = benchmark.arm_configs("seal", 3, 2)
    untrained = workloads.untrained_like(arm, x.shape[1], 3, loss_cfg, model_cfg)
    trained_acc = workloads.reference_acc(state, x, truth, old)
    untrained_acc = workloads.reference_acc(untrained, x, truth, old)
    oracle.check_learned(trained_acc, untrained_acc)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_learned(untrained_acc, trained_acc)


def test_round_trip_checks_catch_corrupted_files(tiny_seal, tmp_path):
    state = tiny_seal["state"]
    path = tmp_path / "m.seal"
    workloads.check_round_trip(path, state)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01  # last byte of the last prototype tensor
    path.write_bytes(bytes(blob))
    loaded, _ = model.load_checkpoint(path)
    with pytest.raises(oracle.CheckFailed):
        workloads.check_tensors("checkpoint", state, loaded)

    spec = tiny_seal["spec"]
    heldout = workloads.heldout_dataset(spec, 110, tiny_seal["ds"])
    csv, hjson = tmp_path / "h.csv", tmp_path / "h.json"
    datagen.save_features_csv(csv, heldout)
    from seal.hierarchy import save_hierarchy

    save_hierarchy(hjson, spec)
    _, ds = datagen.load_embeddings(csv, hjson)
    oracle.check_bitwise("features", heldout.features, ds.features)
    lines = csv.read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-15) + 1e-300)
    lines[1] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    _, ds = datagen.load_embeddings(csv, hjson)
    with pytest.raises(oracle.CheckFailed):
        oracle.check_bitwise("features", heldout.features, ds.features)


def test_heldout_draw_leaves_out_the_training_rows():
    spec, ds, _ = benchmark.benchmark_dataset()
    draw = datagen.generate_synthetic(
        spec, per_class=110, dim=benchmark.BENCHMARK_DIM,
        spreads=benchmark.BENCHMARK_SPREADS, seed=benchmark.BENCHMARK_DATA_SEED,
    )
    assert np.array_equal(draw.features[:100], ds.features[:100])
    heldout = workloads.heldout_dataset(spec, 110, ds)
    train_rows = {r.tobytes() for r in ds.features}
    assert not any(r.tobytes() in train_rows for r in heldout.features)
    # held-out class k row j is training class k row j + 10k while that exists
    assert len(heldout) == 24 * 110 - sum(100 - 10 * k for k in range(10))


def test_tracing_reports_every_layer_metric_and_leaves_numbers_alone(tiny_seal, tmp_path):
    ds, split = tiny_seal["ds"], tiny_seal["split"]
    targets = dict(spans.TARGETS)
    targets["seal.losses"] = targets["seal.losses"] + ("objective",)
    tracer = spans.Tracer(targets)
    original = model.forward
    arm, train_cfg, loss_cfg, model_cfg = benchmark.arm_configs("seal", 3, 2)
    with tracer.installed(), tracer.operation():
        assert trainer.forward is not original
        _, record = trainer.train(ds, split, arm, 3, train_cfg, loss_cfg, model_cfg)
    assert model.forward is original and trainer.forward is original
    assert workloads.record_lines(record) == workloads.record_lines(tiny_seal["record"])
    assert tracer.absent == {"seal.losses.objective"}

    metrics = spans.per_layer(tracer)
    assert [m for m, *_ in spans.PER_LAYER] == list(metrics)
    epochs = len(record.epochs)
    train_lab, val = trainer.validation_split(split.labelled, train_cfg.val_fraction, train_cfg.seed)
    unlab = split.unlabelled.size
    steps = epochs * math.ceil((train_lab.size + unlab) / train_cfg.batch_size)
    batches = lambda n: math.ceil(n / 512)  # noqa: E731
    # per epoch: the transition refresh and the validation pass; then the final pass
    assert metrics["trainer.predict_levels_calls"][0] == 2 * epochs + 1
    predict_forwards = epochs * (batches(unlab) + batches(val.size)) + batches(unlab)
    assert metrics["model.forward_calls"][0] == 2 * steps + predict_forwards
    assert metrics["losses.hscl_calls"][0] == 3 * steps
    assert metrics["hierarchy.update_transition_calls"][0] == 2 * len(record.epochs)
    assert metrics["trainer.step_ms"][0] > 0 and metrics["losses.similarity_ms"][0] > 0
    assert metrics["datagen.load_embeddings_s"][0] == 0.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "infer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "cannot import seal" in done.stderr
    with pytest.raises(json.JSONDecodeError):
        json.loads(done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "")


def test_benchmark_json_lists_what_the_command_prints():
    import run

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert per_layer == [(m, u) for m, u, *_ in spans.PER_LAYER] + [("trace.overhead_s", "s")]
