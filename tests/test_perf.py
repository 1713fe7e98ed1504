"""Tests of perf/run.py, the harness that writes BENCH_<label>.json, at
one repeat of a one-epoch arm and a small held-out draw."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import seal.trainer

SCRIPT = Path(__file__).resolve().parent.parent / "perf" / "run.py"
# 24 classes of 110, less the rows that repeat training rows
HELDOUT_ROWS = 24 * 110 - sum(100 - 10 * k for k in range(10))


@pytest.fixture
def perf_run(monkeypatch, tmp_path):
    """perf/run.py as a module, writing to tmp_path at tiny sizes."""
    spec = importlib.util.spec_from_file_location("perf_run", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    monkeypatch.setattr(module, "EPOCHS", 1)
    monkeypatch.setattr(module, "HELDOUT_PER_CLASS", 110)
    return module


def test_one_repeat_writes_every_unit(perf_run, tmp_path, capsys):
    assert perf_run.main(["--label", "tiny", "--repeats", "1"]) == 0
    doc = json.loads((tmp_path / "BENCH_tiny.json").read_text())
    assert doc["label"] == "tiny"
    assert set(doc["machine"]) == {"cpus_usable", "cpu_model", "python", "numpy", "scipy",
                                   "blas_env"}
    assert doc["machine"]["cpus_usable"] >= 1
    rows = HELDOUT_ROWS
    assert doc["sizes"] == {"repeats": 1, "epochs": 1, "seed": 1, "heldout_rows": rows}
    assert set(doc["units"]) == {"train_seal", "train_baseline", "predict_levels"}
    for unit in doc["units"].values():
        assert len(unit["samples_s"]) == 1 and unit["samples_s"][0] > 0
        assert unit["median_s"] == unit["samples_s"][0] and unit["iqr_s"] == 0
    predict = doc["units"]["predict_levels"]
    assert predict["samples_per_s"] == rows / predict["median_s"]
    assert "wrote" in capsys.readouterr().out


def test_predictions_that_differ_between_repeats_write_nothing(perf_run, tmp_path, monkeypatch,
                                                               capsys):
    calls = []
    original = seal.trainer.predict_levels

    def drifting(state, features):
        # the held-out draw's scores move by one ulp a call; the calls
        # inside train() are left alone, so the records still agree
        preds, scores = original(state, features)
        if features.shape[0] == HELDOUT_ROWS:
            calls.append(1)
            scores[0] += np.finfo(float).eps * len(calls)
        return preds, scores

    monkeypatch.setattr(seal.trainer, "predict_levels", drifting)
    assert perf_run.main(["--label", "tiny", "--repeats", "2"]) == 1
    assert "repeat 1: the predictions differ" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_tiny.json").exists()


@pytest.mark.parametrize("argv", [["--label", "../x"], ["--label", "x", "--repeats", "0"]])
def test_bad_arguments_are_refused(perf_run, argv):
    with pytest.raises(SystemExit) as info:
        perf_run.main(argv)
    assert info.value.code == 2
