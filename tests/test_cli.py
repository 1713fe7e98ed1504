"""Tests for the command-line interface: artifact layout, exit codes,
config validation, and byte-level determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from seal.cli import main


TINY_CONFIG = {
    "seed": 3,
    "data": {
        "synthetic": {
            "counts": [2, 6],
            "per_class": 10,
            "dim": 8,
            "spreads": [6, 2, 0.4],
            "seed": 1,
        },
        "old_fraction": 0.5,
        "labelled_fraction": 0.5,
        "split_seed": 1,
    },
    "train": {"epochs": 3, "batch_size": 8, "view_noise": 0.1},
    "loss": {"soft_smoothness": 0.0},
    "model": {"hidden": [6], "proj_dim": 6},
}


def write_config(tmp_path, overrides=None):
    doc = json.loads(json.dumps(TINY_CONFIG))
    if overrides:
        doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def set_field(doc, dotted, value):
    """A deep copy of doc with the dotted field (e.g. "loss.tau") set."""
    doc = json.loads(json.dumps(doc))
    *outer, last = dotted.split(".")
    target = doc
    for name in outer:
        target = target[name]
    target[last] = value
    return doc


class TestGenerate:
    def test_writes_dataset_files(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main([
            "generate", "--counts", "2,4", "--per-class", "5", "--dim", "6",
            "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        assert (out / "features.csv").exists()
        assert (out / "hierarchy.json").exists()
        doc = json.loads((out / "hierarchy.json").read_text())
        assert doc["counts"] == [2, 4]
        assert len(doc["known"]) == 2

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["generate", "--counts", "2,4", "--per-class", "50", "--dim", "16",
                "--seed", "7"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("features.csv", "hierarchy.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bad_counts_exit_one(self, tmp_path, capsys):
        assert main(["generate", "--counts", "2,x", "--out", str(tmp_path)]) == 1
        assert "integer" in capsys.readouterr().err


class TestTrain:
    def test_run_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3
        entry = json.loads(lines[0])
        assert {"epoch", "loss_total", "loss_cls", "loss_cgc", "lr", "lambda_c"} <= set(entry)
        final = json.loads((out / "final.json").read_text())
        assert "all" in final["final"]
        assert "wall_clock_seconds" in final
        assert (out / "model.seal").exists()
        assert (out / "model.seal.meta.json").exists()

    def test_checkpoint_loads_back(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(cfg), "--out", str(out)])
        from seal.model import load_checkpoint

        state, meta = load_checkpoint(out / "model.seal")
        assert meta["seed"] == 3
        assert state.levels == 2

    def test_missing_config_names_path(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
        assert code == 1
        assert "missing.json" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, overrides={"trrain": {}})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert "trrain" in capsys.readouterr().err

    def test_unknown_loss_key_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc["loss"]["lambda_q"] = 0.5
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert "lambda_q" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("loss", "beta", 1.0),
        ("loss", "fuse_mode", "cummean"),
        ("loss", "clamp_soft_negatives", False),
        ("loss", "detach_cgc_target", False),
        ("train", "transition_update", "epoch"),
        ("train", "cgc_both_views", False),
        ("model", "family_prototypes", False),
        ("model", "family_spread", 0.5),
    ])
    def test_removed_config_key_rejected(self, tmp_path, capsys, section, key, value):
        doc = json.loads(json.dumps(TINY_CONFIG))
        doc[section][key] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert "unknown key" in err and key in err

    @pytest.mark.parametrize("field, value, expected", [
        (None, [1, 2], "config.json: expected a JSON object"),
        ("train", [1], "config.json:train: expected a JSON object"),
        ("train.epochs", "x", "config.json:train.epochs: expected int"),
        ("train.epochs", True, "config.json:train.epochs: expected int"),
        ("train.use_cgc", 1, "config.json:train.use_cgc: expected bool"),
        ("loss.tau", "0.1", "config.json:loss.tau: expected float"),
        ("model.hidden", [6, "a"], "config.json:model.hidden: expected tuple[int, ...]"),
        ("data.synthetic.dim", "8", "config.json:data.synthetic.dim: expected int"),
        ("data.synthetic.counts", [2.0, 6], "config.json:data.synthetic.counts: expected list[int]"),
    ])
    def test_mistyped_config_names_field(self, tmp_path, capsys, field, value, expected):
        doc = value if field is None else set_field(TINY_CONFIG, field, value)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("loss.tau", 1),  # an int where a float is expected
        ("loss.curriculum_horizon", None),
        ("model.proj_dim", None),
        ("data.synthetic.spreads", None),
    ])
    def test_well_typed_values_accepted(self, tmp_path, field, value):
        from seal.cli import load_run_config

        doc = set_field(TINY_CONFIG, field, value)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert load_run_config(cfg) == doc

    def test_unknown_flag_exit_one(self, capsys):
        assert main(["train", "--confg", "x.json"]) == 1
        assert "usage error" in capsys.readouterr().err


class TestEvalCommand:
    def _write_files(self, tmp_path):
        from seal.datagen import generate_synthetic, save_features_csv
        from seal.hierarchy import balanced_hierarchy, save_hierarchy

        spec = balanced_hierarchy([2, 4])
        ds = generate_synthetic(spec, per_class=5, dim=6, spreads=[6, 2, 0.3], seed=2)
        save_hierarchy(tmp_path / "h.json", spec, known={0, 1})
        save_features_csv(tmp_path / "truth.csv", ds)
        # predictions: perfect at both levels
        with open(tmp_path / "pred.csv", "w") as fh:
            fh.write("id,level_1,level_2\n")
            for i in range(len(ds)):
                fh.write(f"{i},{ds.labels[i,0]},{ds.labels[i,1]}\n")
        return spec, ds

    def test_perfect_predictions_score_one(self, tmp_path, capsys):
        self._write_files(tmp_path)
        code = main([
            "eval", "--pred", str(tmp_path / "pred.csv"),
            "--truth", str(tmp_path / "truth.csv"),
            "--hierarchy", str(tmp_path / "h.json"),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["2"]["all"] == 1.0
        assert doc["2"]["old"] == 1.0
        assert doc["2"]["consistency"]["1"] == 1.0

    def test_id_mismatch_rejected(self, tmp_path, capsys):
        self._write_files(tmp_path)
        (tmp_path / "pred2.csv").write_text("id,level_1,level_2\n99,0,0\n")
        code = main([
            "eval", "--pred", str(tmp_path / "pred2.csv"),
            "--truth", str(tmp_path / "truth.csv"),
            "--hierarchy", str(tmp_path / "h.json"),
        ])
        assert code == 1

    def test_empty_label_file_named(self, tmp_path, capsys):
        self._write_files(tmp_path)
        (tmp_path / "empty.csv").write_text("id,level_1,level_2\n")
        code = main([
            "eval", "--pred", str(tmp_path / "empty.csv"),
            "--truth", str(tmp_path / "truth.csv"),
            "--hierarchy", str(tmp_path / "h.json"),
        ])
        assert code == 1
        assert "empty.csv: no label rows" in capsys.readouterr().err

    def test_projection_dump(self, tmp_path, capsys):
        self._write_files(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(cfg), "--out", str(out)])
        # retrain artifacts are for a [2,6] hierarchy; rebuild matching data
        from seal.datagen import generate_synthetic, save_features_csv
        from seal.hierarchy import balanced_hierarchy, save_hierarchy

        spec = balanced_hierarchy([2, 6])
        ds = generate_synthetic(spec, per_class=10, dim=8, spreads=[6, 2, 0.4], seed=1)
        save_hierarchy(tmp_path / "h2.json", spec)
        save_features_csv(tmp_path / "feats.csv", ds)
        with open(tmp_path / "pred2.csv", "w") as fh:
            fh.write("id,level_1,level_2\n")
            for i in range(len(ds)):
                fh.write(f"{i},{ds.labels[i,0]},{ds.labels[i,1]}\n")
        code = main([
            "eval", "--pred", str(tmp_path / "pred2.csv"),
            "--truth", str(tmp_path / "feats.csv"),
            "--hierarchy", str(tmp_path / "h2.json"),
            "--dump-projection", str(tmp_path / "proj.csv"),
            "--features", str(tmp_path / "feats.csv"),
            "--checkpoint", str(out / "model.seal"),
        ])
        assert code == 0
        lines = (tmp_path / "proj.csv").read_text().splitlines()
        assert lines[0] == "id,x,y"
        assert len(lines) == len(ds) + 1


class TestVerifyTheory:
    def test_all_checks_pass(self, capsys):
        assert main(["verify-theory", "--trials", "60", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_bad_trials_exit_one(self, capsys):
        assert main(["verify-theory", "--trials", "0"]) == 1

    def test_bad_thread_env_exit_one(self, monkeypatch, capsys):
        monkeypatch.setenv("SEAL_THREADS", "abc")
        assert main(["verify-theory", "--trials", "1"]) == 1
        assert "SEAL_THREADS" in capsys.readouterr().err


class TestReport:
    def test_summary_and_curves(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        main(["train", "--config", str(cfg), "--out", str(out)])
        assert main(["report", "--run", str(out)]) == 0
        curves = (out / "curves.csv").read_text().splitlines()
        assert len(curves) == 4  # header + 3 epochs
        assert curves[0].split(",")[0] == "epoch"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epochs"] == 3
        assert "all" in summary["final"]

    def test_missing_metrics_exit_one(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 1

    def test_corrupt_line_names_line_number(self, tmp_path, capsys):
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_text('{"epoch": 0}\nnot json\n')
        assert main(["report", "--run", str(run_dir)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_object_line_names_line_number(self, tmp_path, capsys):
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_text('{"epoch": 0}\n3\n')
        assert main(["report", "--run", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert "metrics.jsonl: line 2: expected a JSON object" in err

    @pytest.mark.parametrize("content", ['{"final": ', "[1, 2]"])
    def test_corrupt_final_names_file(self, tmp_path, capsys, content):
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_text('{"epoch": 0}\n')
        (run_dir / "final.json").write_text(content)
        assert main(["report", "--run", str(run_dir)]) == 1
        assert "final.json" in capsys.readouterr().err

    def test_empty_metrics_exit_one(self, tmp_path, capsys):
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_text("")
        assert main(["report", "--run", str(run_dir)]) == 1


class TestDeterminism:
    def test_two_cli_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "seal.cli", "--deterministic",
                 "train", "--config", str(cfg), "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        assert (outs[0] / "metrics.jsonl").read_bytes() == (outs[1] / "metrics.jsonl").read_bytes()
