"""Tests for the command-line interface: artifact layout, exit codes,
config validation, and byte-level determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seal.cli import main
from seal.errors import InputError

SRC = Path(__file__).resolve().parent.parent / "src"

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


# JSON that a plain json.loads cannot take: an integer over Python's digit
# limit, and nesting deeper than the parser recurses
TOO_LONG_INT = '{"epoch": ' + "1" * 5001 + "}"
TOO_DEEP = "[" * 100_000
BEYOND_THE_PARSER = pytest.mark.parametrize(
    "text, reason",
    [(TOO_LONG_INT, "Exceeds the limit (4300 digits)"), (TOO_DEEP, "nested too deeply")],
    ids=["too-long integer", "too-deep nesting"],
)


def corruptions(full: bytes, seed: int, alphabet: bytes, count: int = 100, step: int = 1):
    """The truncations of ``full`` at every ``step`` bytes, then ``count``
    copies with one byte substituted, at a seeded position by a seeded
    byte of ``alphabet``."""
    yield from (full[:cut] for cut in range(0, len(full), step))
    rng = np.random.default_rng(seed)
    for _ in range(count):
        data = bytearray(full)
        data[int(rng.integers(len(data)))] = alphabet[int(rng.integers(len(alphabet)))]
        yield bytes(data)


JSON_ALPHABET = b'0123456789.-+e"[]{},: \ntruefalsnl\xff\x00'
CSV_ALPHABET = b'0123456789.-+e",# \nab\xff\x00'


def exit_code_naming(capsys, argv, path) -> int:
    """main(argv)'s exit code, which must be 0, 1 or 2; an exit-1 message
    must name ``path``. An exception that escapes main fails the test."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (argv, err)
    if code == 1:
        assert err.startswith("seal: error: ") and str(path) in err, err
    return code


def tiny_run_config(root):
    """The train config of a two-epoch run on root's generated dataset."""
    path = root / "config.json"
    path.write_text(json.dumps({
        "seed": 3,
        "data": {"features": str(root / "features.csv"),
                 "hierarchy": str(root / "hierarchy.json")},
        "train": {"epochs": 2, "batch_size": 4},
        "loss": {"soft_smoothness": 0.0},
        "model": {"hidden": [4], "proj_dim": 4},
    }))
    return path


def train_tiny_run(root):
    """Generate a dataset (counts 2,4, 3 per class, 3 features) into root
    and train the two-epoch run of ``tiny_run_config`` there."""
    assert main(["generate", "--counts", "2,4", "--per-class", "3", "--dim", "3",
                 "--seed", "1", "--out", str(root)]) == 0
    assert main(["train", "--config", str(tiny_run_config(root)), "--out", str(root)]) == 0


def projection_argv(root):
    """seal eval of root's features against themselves, dumping the
    projection of root's checkpoint to root / proj.csv."""
    features = root / "features.csv"
    return [
        "eval", "--pred", str(features), "--truth", str(features),
        "--hierarchy", str(root / "hierarchy.json"),
        "--dump-projection", str(root / "proj.csv"),
        "--features", str(features), "--checkpoint", str(root / "model.seal"),
    ]


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
        ("train", "seed", 5),  # the run's seed is the top-level one
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
        ("seed", "x", "config.json:seed: expected int"),
        ("seed", 1.5, "config.json:seed: expected int"),
        ("data.split_seed", "z", "config.json:data.split_seed: expected int"),
        ("data.old_fraction", "a", "config.json:data.old_fraction: expected float"),
        ("data.features", 3, "config.json:data.features: expected str"),
        ("seed", -1, "config.json:seed: must be at least 0, got -1"),
        ("data.split_seed", -1, "config.json:data.split_seed: must be at least 0"),
        ("data.synthetic.seed", -1, "config.json:data.synthetic.seed: must be at least 0"),
        ("model.hidden", [-3], "config.json:model.hidden: must be at least 1, got [-3]"),
        ("model.hidden", [6, 0], "config.json:model.hidden: must be at least 1, got [6, 0]"),
        ("train.seed", 5, "config.json:train.seed: unknown key"),
        # a float field takes only a finite number
        ("loss.tau", math.inf, "config.json:loss.tau: expected float, got Infinity"),
        ("loss.tau", -math.inf, "config.json:loss.tau: expected float, got -Infinity"),
        ("loss.tau", math.nan, "config.json:loss.tau: expected float, got NaN"),
        ("loss.tau_sharp", math.nan, "config.json:loss.tau_sharp: expected float, got NaN"),
        ("loss.tau_consistency", math.nan,
         "config.json:loss.tau_consistency: expected float, got NaN"),
        ("loss.entropy_weight", math.nan,
         "config.json:loss.entropy_weight: expected float, got NaN"),
        ("train.lr_initial", math.inf, "config.json:train.lr_initial: expected float, got Infinity"),
        ("train.view_noise", math.inf, "config.json:train.view_noise: expected float, got Infinity"),
        pytest.param("loss.tau", 10**400, "config.json:loss.tau: expected float, got 1000",
                     id="loss.tau-int past the float range"),
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

    def test_non_utf8_config_names_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        cfg.write_bytes(cfg.read_bytes().replace(b'"seed": 3', b'"seed\xff": 3'))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert f"{cfg}: invalid JSON" in capsys.readouterr().err

    def test_negative_seed_flag_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        args = ["train", "--config", str(cfg), "--out", str(tmp_path / "r"), "--seed", "-1"]
        assert main(args) == 1
        assert "--seed must be at least 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["generate", "--counts", "2,4", "--per-class", "2", "--dim", "3", "--out", "{out}"],
        ["verify-theory", "--trials", "1"],
    ], ids=["generate", "verify-theory"])
    def test_negative_seed_of_the_other_commands_exit_one(self, tmp_path, capsys, command):
        args = [a.format(out=tmp_path / "d") for a in command] + ["--seed", "-1"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "seal: error: --seed must be at least 0, got -1" in captured.err
        assert captured.out == "" and not (tmp_path / "d").exists()

    def test_unknown_unlabelled_truth_is_not_scored(self, tmp_path, capsys):
        # every row of a novel class carries -1 at both levels
        data = tmp_path / "d"
        assert main(["generate", "--counts", "2,4", "--per-class", "20", "--dim", "8",
                     "--out", str(data)]) == 0
        known = set(json.loads((data / "hierarchy.json").read_text())["known"])
        lines = (data / "features.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert sum(int(row[2]) not in known for row in rows) == 40
        for row in rows:
            if int(row[2]) not in known:
                row[1] = row[2] = "-1"
        (data / "features.csv").write_text(
            "\n".join([lines[0]] + [",".join(row) for row in rows]) + "\n")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seed": 0,
            "data": {"features": str(data / "features.csv"),
                     "hierarchy": str(data / "hierarchy.json")},
            "train": {"epochs": 2}, "model": {"proj_dim": 8},
        }))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        final = json.loads((out / "final.json").read_text())["final"]
        assert final["new"] is None  # no novel row has a known label
        assert f"unlabelled ACC all={final['all']:.4f}" in capsys.readouterr().out

    def test_labels_against_an_edited_hierarchy_name_both_files(self, tmp_path, capsys):
        data = tmp_path / "data"
        args = ["generate", "--counts", "2,4", "--per-class", "3", "--dim", "3", "--out", str(data)]
        assert main(args) == 0
        hierarchy = data / "hierarchy.json"
        doc = json.loads(hierarchy.read_text())
        doc["parents"] = [[0, 1, 1, 1]]  # fine class 1 moves under coarse class 1
        hierarchy.write_text(json.dumps(doc))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seed": 0, "data": {"features": str(data / "features.csv"), "hierarchy": str(hierarchy)},
        }))
        capsys.readouterr()
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"seal: error: {cfg}: {data / 'features.csv'}: row 3: level_1 label 0 is not the "
            f"ancestor 1 of fine label 1 (hierarchy {hierarchy})\n"
        )

    def test_every_row_labelled_prints_the_note(self, tmp_path, capsys):
        doc = set_field(TINY_CONFIG, "data.old_fraction", 1.0)
        doc["data"]["labelled_fraction"] = 1.0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert "trained 3 epochs; no unlabelled samples ->" in capsys.readouterr().out
        final = json.loads((out / "final.json").read_text())["final"]
        assert final == {"note": "no unlabelled samples"}

    def test_value_the_builder_rejects_names_the_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, overrides={"train": {"epochs": 0}})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert f"seal: error: {cfg}: epochs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("model.proj_dim", -3, "model.proj_dim must be at least the level count 2, got -3"),
        ("model.proj_dim", 0, "model.proj_dim must be at least the level count 2, got 0"),
        ("model.proj_dim", 1, "model.proj_dim must be at least the level count 2, got 1"),
        ("train.view_noise", -0.1, "view_noise must be non-negative, got -0.1"),
        ("train.momentum", -2.0, "momentum must be in [0, 1), got -2.0"),
        ("train.momentum", 1.0, "momentum must be in [0, 1), got 1.0"),
        ("train.weight_decay", -1.0, "weight_decay must be non-negative, got -1.0"),
        ("loss.curriculum_horizon", -1, "curriculum_horizon must be at least 0, got -1"),
    ], ids=["proj_dim -3", "proj_dim 0", "proj_dim 1", "view_noise -0.1", "momentum -2",
            "momentum 1", "weight_decay -1", "curriculum_horizon -1"])
    def test_value_the_run_cannot_use_names_the_config(self, tmp_path, capsys, field, value,
                                                       message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(set_field(TINY_CONFIG, field, value)))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert f"seal: error: {cfg}: {message}" in capsys.readouterr().err

    @BEYOND_THE_PARSER
    def test_config_beyond_the_parser_names_file(self, tmp_path, capsys, text, reason):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert f"seal: error: {cfg}: invalid JSON (" in err and reason in err

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

    def test_reassign_subsets_is_a_usage_error(self, tmp_path, capsys):
        self._write_files(tmp_path)
        code = main([
            "eval", "--pred", str(tmp_path / "pred.csv"),
            "--truth", str(tmp_path / "truth.csv"),
            "--hierarchy", str(tmp_path / "h.json"), "--reassign-subsets",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "usage error" in captured.err and "--reassign-subsets" in captured.err
        assert captured.out == ""

    def test_id_mismatch_rejected(self, tmp_path, capsys):
        self._write_files(tmp_path)
        (tmp_path / "pred2.csv").write_text("id,level_1,level_2\n99,0,0\n")
        code = main([
            "eval", "--pred", str(tmp_path / "pred2.csv"),
            "--truth", str(tmp_path / "truth.csv"),
            "--hierarchy", str(tmp_path / "h.json"),
        ])
        assert code == 1

    def test_text_ids_matched_by_string(self, tmp_path, capsys):
        # the truth is a feature CSV with file-name ids, as seal train
        # reads it; the predictions list the same ids in reverse order
        _, ds = self._write_files(tmp_path)
        lines = (tmp_path / "truth.csv").read_text().splitlines()
        rows = [f"img_{i}.jpg," + line.split(",", 1)[1] for i, line in enumerate(lines[1:])]
        (tmp_path / "truth.csv").write_text("\n".join([lines[0]] + rows) + "\n")
        pred = [f"img_{i}.jpg,{ds.labels[i, 0]},{ds.labels[i, 1]}" for i in range(len(ds))]
        (tmp_path / "pred.csv").write_text("\n".join(["id,level_1,level_2"] + pred[::-1]) + "\n")
        args = ["eval", "--pred", str(tmp_path / "pred.csv"),
                "--truth", str(tmp_path / "truth.csv"), "--hierarchy", str(tmp_path / "h.json")]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["2"]["all"] == 1.0
        # "img_0.jpg" and " img_0.jpg" are different ids
        pred[0] = " " + pred[0]
        (tmp_path / "pred.csv").write_text("\n".join(["id,level_1,level_2"] + pred) + "\n")
        assert main(args) == 1
        assert "different sample ids" in capsys.readouterr().err

    def test_repeated_id_named(self, tmp_path, capsys):
        # every prediction equals a truth row of its id, but pairing the
        # two rows of id "a" by position would score level 1 at 0.5
        from seal.hierarchy import balanced_hierarchy, save_hierarchy

        save_hierarchy(tmp_path / "h.json", balanced_hierarchy([2, 4]), known={0, 1})
        rows = ["id,level_1,level_2", "a,0,0", "a,1,2", "b,0,1", "c,1,3"]
        swapped = [rows[0], rows[2], rows[1]] + rows[3:]
        unique = [rows[0], "d,0,0"] + rows[2:]
        (tmp_path / "rows.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "swapped.csv").write_text("\n".join(swapped) + "\n")
        (tmp_path / "unique.csv").write_text("\n".join(unique) + "\n")
        for pred, truth, named in (
            ("swapped.csv", "rows.csv", "swapped.csv"),
            ("unique.csv", "rows.csv", "rows.csv"),
            ("rows.csv", "unique.csv", "rows.csv"),
        ):
            code = main([
                "eval", "--pred", str(tmp_path / pred), "--truth", str(tmp_path / truth),
                "--hierarchy", str(tmp_path / "h.json"),
            ])
            assert code == 1
            err = capsys.readouterr().err
            assert f"seal: error: {tmp_path / named}: id 'a' appears more than once" in err

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

    def test_non_utf8_label_file_named(self, tmp_path, capsys):
        self._write_files(tmp_path)
        (tmp_path / "latin1.csv").write_bytes(b"id,level_1,level_2\n0,0,0\n1,\xe9,0\n")
        code = main([
            "eval", "--pred", str(tmp_path / "latin1.csv"),
            "--truth", str(tmp_path / "truth.csv"),
            "--hierarchy", str(tmp_path / "h.json"),
        ])
        assert code == 1
        assert "latin1.csv: row 1 is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("edits, named, message", [
        ({("pred", 3, 2): "99"}, "pred", "row 3: level_2 label 99 outside [0, 4)"),
        ({("pred", 3, 1): "-1"}, "pred", "row 3: level_1 label is -1 (unknown); cannot score"),
        ({("pred", 3, 1): "2"}, "pred", "row 3: level_1 label 2 outside [0, 2)"),
        ({("truth", 3, 1): "7"}, "truth", "row 3: level_1 label 7 outside [0, 2)"),
        # an unknown fine truth is not an error: the row is predicted, not scored
        ({("truth", 3, 2): "-1"}, None, None),
        ({("truth", 3, 2): "-2"}, "truth", "row 3: level_2 label -2 outside [0, 4)"),
        # the first bad row in file order, not in id order ("12" sorts before "2")
        ({("pred", 12, 1): "5", ("pred", 2, 2): "4"}, "pred",
         "row 2: level_2 label 4 outside [0, 4)"),
        ({("truth", 12, 1): "5", ("truth", 2, 2): "4"}, "truth",
         "row 2: level_2 label 4 outside [0, 4)"),
        # a known coarse truth must be the ancestor of the known fine truth
        ({("truth", 3, 1): "1"}, "truth",
         "row 3: level_1 label 1 is not the ancestor 0 of fine label 0"),
    ], ids=["pred 99", "pred -1", "pred level_1 2", "truth 7", "truth -1", "truth -2",
            "file order", "truth file order", "truth not the ancestor"])
    def test_label_out_of_range_names_file_row_and_column(self, tmp_path, capsys, edits, named,
                                                          message):
        self._write_files(tmp_path)
        files = {"pred": tmp_path / "pred.csv", "truth": tmp_path / "truth.csv"}
        for (which, row, column), value in edits.items():
            lines = files[which].read_text().splitlines()
            cells = lines[row + 1].split(",")
            cells[column] = value
            lines[row + 1] = ",".join(cells)
            files[which].write_text("\n".join(lines) + "\n")
        code = main([
            "eval", "--pred", str(files["pred"]), "--truth", str(files["truth"]),
            "--hierarchy", str(tmp_path / "h.json"),
        ])
        if named is None:
            assert code == 0
            return
        assert code == 1
        assert f"seal: error: {files[named]}: {message}" in capsys.readouterr().err

    def _masked_truth(self, tmp_path, capsys):
        """seal generate --counts 2,4 --per-class 5 --dim 3, a truth file
        with every novel row's labels masked to -1, and predictions that
        miss every third row and are consistent on every row."""
        d = tmp_path / "d"
        assert main(["generate", "--counts", "2,4", "--per-class", "5", "--dim", "3",
                     "--out", str(d)]) == 0
        capsys.readouterr()
        known = set(json.loads((d / "hierarchy.json").read_text())["known"])
        lines = (d / "features.csv").read_text().splitlines()
        truth, pred = [lines[0]], ["id,level_1,level_2"]
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            fine = int(cells[2])
            guess = (fine + 1) % 4 if i % 3 == 0 else fine
            pred.append(f"{cells[0]},{guess // 2},{guess}")
            if fine not in known:
                cells[1] = cells[2] = "-1"
            truth.append(",".join(cells))
        (tmp_path / "masked.csv").write_text("\n".join(truth) + "\n")
        (tmp_path / "pred.csv").write_text("\n".join(pred) + "\n")
        return ["eval", "--pred", str(tmp_path / "pred.csv"), "--truth",
                str(tmp_path / "masked.csv"), "--hierarchy", str(d / "hierarchy.json")]

    def test_unknown_fine_truth_is_predicted_not_scored(self, tmp_path, capsys):
        from seal.datagen import load_labels
        from seal.evaluation import evaluate_predictions
        from seal.hierarchy import load_hierarchy

        args = self._masked_truth(tmp_path, capsys)
        assert main(args) == 0
        out = capsys.readouterr().out
        spec, known = load_hierarchy(tmp_path / "d" / "hierarchy.json")
        _, truth = load_labels(tmp_path / "masked.csv", 2)
        _, pred = load_labels(tmp_path / "pred.csv", 2)
        kept = truth[:, 1] >= 0
        assert kept.sum() == 10
        expected = evaluate_predictions(truth[kept], pred[kept], spec, known)[2]
        assert expected.acc_all < 1.0
        assert json.loads(out)["2"]["all"] == expected.acc_all
        # another prediction for a masked row (row 5) changes nothing printed
        lines = (tmp_path / "pred.csv").read_text().splitlines()
        assert lines[6].startswith("5,")
        lines[6] = "5,1,3" if lines[6] != "5,1,3" else "5,1,2"
        (tmp_path / "pred.csv").write_text("\n".join(lines) + "\n")
        assert main(args) == 0
        assert capsys.readouterr().out == out

    def test_no_known_fine_truth_prints_the_note(self, tmp_path, capsys):
        self._write_files(tmp_path)
        lines = (tmp_path / "truth.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for cells in rows:
            cells[2] = "-1"
        (tmp_path / "truth.csv").write_text(
            "\n".join([lines[0]] + [",".join(cells) for cells in rows]) + "\n"
        )
        code = main([
            "eval", "--pred", str(tmp_path / "pred.csv"),
            "--truth", str(tmp_path / "truth.csv"),
            "--hierarchy", str(tmp_path / "h.json"),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"consistency": {"1": 1.0},
                       "note": "no unlabelled sample has a known fine label"}

    def test_classes_that_never_occur_allocate_nothing(self, tmp_path, capsys):
        # a 100000-class level scored on three rows: the contingency table
        # spans the four ids that occur, not 100000 x 100000 of them
        (tmp_path / "h.json").write_text('{"counts": [100000], "parents": [], "known": [0]}')
        (tmp_path / "pred.csv").write_text("id,level_1\n0,0\n1,5\n2,99999\n")
        (tmp_path / "truth.csv").write_text("id,level_1\n0,0\n1,7\n2,7\n")
        code = main([
            "eval", "--pred", str(tmp_path / "pred.csv"), "--truth", str(tmp_path / "truth.csv"),
            "--hierarchy", str(tmp_path / "h.json"),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["1"]["all"], doc["1"]["old"], doc["1"]["new"]) == (2 / 3, 1.0, 0.5)

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
        # file-name ids, in the features file and the predictions alike
        ids = [f"img_{i}.jpg" for i in range(len(ds))]
        lines = (tmp_path / "feats.csv").read_text().splitlines()
        rows = [ident + "," + line.split(",", 1)[1] for ident, line in zip(ids, lines[1:])]
        (tmp_path / "feats.csv").write_text("\n".join([lines[0]] + rows) + "\n")
        with open(tmp_path / "pred2.csv", "w") as fh:
            fh.write("id,level_1,level_2\n")
            for i in range(len(ds)):
                fh.write(f"{ids[i]},{ds.labels[i,0]},{ds.labels[i,1]}\n")
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
        cells = [line.split(",") for line in lines[1:]]
        assert [c[0] for c in cells] == ids
        assert all(len(c) == 3 for c in cells)
        coords = np.array([[float(c[1]), float(c[2])] for c in cells])
        assert np.all(np.isfinite(coords)) and np.ptp(coords, axis=0).min() > 0

    def test_projection_dump_of_another_width_names_both_files(self, tmp_path, capsys):
        # the checkpoint takes 8 inputs, the features file has 4 columns
        from seal.datagen import generate_synthetic, save_features_csv
        from seal.hierarchy import balanced_hierarchy, save_hierarchy

        out = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        spec = balanced_hierarchy([2, 6])
        ds = generate_synthetic(spec, per_class=2, dim=4, spreads=[6, 2, 0.4], seed=1)
        save_hierarchy(tmp_path / "h.json", spec)
        save_features_csv(tmp_path / "feats.csv", ds)
        code = main([
            "eval", "--pred", str(tmp_path / "feats.csv"), "--truth", str(tmp_path / "feats.csv"),
            "--hierarchy", str(tmp_path / "h.json"),
            "--dump-projection", str(tmp_path / "proj.csv"),
            "--features", str(tmp_path / "feats.csv"), "--checkpoint", str(out / "model.seal"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert (f"seal: error: {tmp_path / 'feats.csv'} has 4 feature columns, the checkpoint "
                f"{out / 'model.seal'} takes 8") in err
        assert not (tmp_path / "proj.csv").exists()


    # sidecar edits of the trained run: counts the JSON parser reads as
    # infinity, and a hidden width whose shapes need more bytes than exist
    SIDECAR_EDITS = {
        "sidecar counts 1e400": {"counts": [math.inf]},
        "sidecar hidden 2**63": {"hidden": [2**63]},
    }

    @pytest.mark.parametrize("case", [
        "no features", "no checkpoint", "another width", *SIDECAR_EDITS,
    ])
    def test_projection_input_errors_print_no_scores(self, tmp_path, capsys, case):
        from seal.datagen import generate_synthetic, save_features_csv
        from seal.hierarchy import balanced_hierarchy, save_hierarchy

        out = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        spec = balanced_hierarchy([2, 6])
        dim = 4 if case == "another width" else 8
        ds = generate_synthetic(spec, per_class=2, dim=dim, spreads=[6, 2, 0.4], seed=1)
        save_hierarchy(tmp_path / "h.json", spec)
        save_features_csv(tmp_path / "feats.csv", ds)
        capsys.readouterr()
        args = [
            "eval", "--pred", str(tmp_path / "feats.csv"), "--truth", str(tmp_path / "feats.csv"),
            "--hierarchy", str(tmp_path / "h.json"),
            "--dump-projection", str(tmp_path / "proj.csv"),
        ]
        if case != "no features":
            args += ["--features", str(tmp_path / "feats.csv")]
        if case != "no checkpoint":
            args += ["--checkpoint", str(out / "model.seal")]
        sidecar = out / "model.seal.meta.json"
        if case in self.SIDECAR_EDITS:
            edit = self.SIDECAR_EDITS[case]
            sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **edit})
                               .replace("Infinity", "1e400"))
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("seal: error: ")
        if case == "sidecar counts 1e400":
            assert f"{sidecar}: counts is [inf], expected" in captured.err
        if case == "sidecar hidden 2**63":  # refused from the file size, before any allocation
            assert f"{out / 'model.seal'}: 1152 bytes, the shapes in {sidecar} need " in captured.err
        assert not (tmp_path / "proj.csv").exists()

    def test_projection_keeps_an_id_holding_a_comma(self, tmp_path, capsys):
        train_tiny_run(tmp_path)
        features = tmp_path / "features.csv"
        lines = features.read_text().splitlines()
        lines[1] = '"a,b"' + lines[1][lines[1].index(","):]
        features.write_text("\n".join(lines) + "\n")
        assert main(projection_argv(tmp_path)) == 0
        with open(tmp_path / "proj.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "x", "y"]
        assert [r[0] for r in rows[1:]] == ["a,b"] + [str(i) for i in range(1, 12)]
        assert all(len(r) == 3 for r in rows)

    def test_projection_numeric_failure_names_the_checkpoint_and_features(self, tmp_path,
                                                                          capsys):
        from seal.model import load_checkpoint, save_checkpoint

        train_tiny_run(tmp_path)
        checkpoint = tmp_path / "model.seal"
        state, meta = load_checkpoint(checkpoint)
        state.weights[0][0, 0] = 1e200
        save_checkpoint(checkpoint, state, meta)
        capsys.readouterr()
        assert main(projection_argv(tmp_path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"seal: numeric failure: checkpoint {checkpoint} on {tmp_path / 'features.csv'}: "
            "degenerate norm in slice normalization at level 1\n"
        )
        assert not (tmp_path / "proj.csv").exists()

    def test_projection_of_a_changed_payload_names_the_checkpoint(self, tmp_path, capsys):
        # model.load_checkpoint loads the flipped file; the command does not use it
        train_tiny_run(tmp_path)
        checkpoint = tmp_path / "model.seal"
        blob = bytearray(checkpoint.read_bytes())
        blob[-1] ^= 0x01
        checkpoint.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(projection_argv(tmp_path)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"seal: error: {checkpoint}: payload SHA-256 is ")
        assert f"{checkpoint}.meta.json gives '" in captured.err
        assert not (tmp_path / "proj.csv").exists()

    def test_projection_without_a_payload_digest_names_the_sidecar(self, tmp_path, capsys):
        train_tiny_run(tmp_path)
        sidecar = tmp_path / "model.seal.meta.json"
        meta = json.loads(sidecar.read_text())
        del meta["payload_sha256"]
        sidecar.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(projection_argv(tmp_path)) == 1
        assert capsys.readouterr().err == (
            f"seal: error: {sidecar}: missing metadata field 'payload_sha256'\n"
        )
        assert not (tmp_path / "proj.csv").exists()

    def test_projection_parses_the_features_once(self, tmp_path, capsys, monkeypatch):
        from seal import datagen

        train_tiny_run(tmp_path)
        features = tmp_path / "features.csv"
        argv = projection_argv(tmp_path)
        # predictions and truth from copies, so that only the projection reads features.csv
        for flag in ("--pred", "--truth"):
            copy = tmp_path / f"{flag[2:]}.csv"
            copy.write_bytes(features.read_bytes())
            argv[argv.index(flag) + 1] = str(copy)
        parsed = []
        read_csv = datagen._read_csv

        def counting_read_csv(path, row_dtype):
            parsed.append(path)
            return read_csv(path, row_dtype)

        monkeypatch.setattr(datagen, "_read_csv", counting_read_csv)
        assert main(argv) == 0
        assert parsed.count(features) == 1
        assert len((tmp_path / "proj.csv").read_text().splitlines()) == 13


class TestVerifyTheory:
    def test_all_checks_pass(self, capsys):
        assert main(["verify-theory", "--trials", "60", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_worst_residuals_are_not_negative(self, capsys):
        assert main(["verify-theory", "--trials", "20", "--seed", "0"]) == 0
        worsts = [line.rsplit(" ", 1)[1].rstrip(")")
                  for line in capsys.readouterr().out.splitlines()]
        assert len(worsts) == 5
        assert not any(w.startswith("-") for w in worsts), worsts

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
        # the bytes the writer gave before epoch lines were checked: str of
        # the epoch, then the repr of each loss, lr and lambda_c
        entries = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        keys = sorted(k for k in entries[0] if k.startswith("loss_"))
        rows = [["epoch", *keys, "lr", "lambda_c"]] + [
            [str(e["epoch"]), *(repr(e[k]) for k in keys), repr(e["lr"]), repr(e["lambda_c"])]
            for e in entries
        ]
        assert curves == [",".join(r) for r in rows]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["epochs"] == 3
        assert "all" in summary["final"]

    def test_missing_metrics_exit_one(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 1

    GOOD = '{"epoch": 0, "loss_total": 1.5, "lr": 0.1, "lambda_c": 1.0}'

    @pytest.mark.parametrize("line, message", [
        ("{}", "'epoch' must be an integer, got null"),
        ('{"epoch": "zero", "loss_total": "x"}', "'epoch' must be an integer, got \"zero\""),
        ('{"epoch": 1.0}', "'epoch' must be an integer, got 1.0"),
        ('{"epoch": true}', "'epoch' must be an integer, got true"),
        ('{"epoch": 1, "loss_total": "x"}', "'loss_total' must be a number, got \"x\""),
        ('{"epoch": 1, "loss_cls": false}', "'loss_cls' must be a number, got false"),
        ('{"epoch": 1, "lr": null}', "'lr' must be a number, got null"),
        ('{"epoch": 1, "lambda_c": [1.0]}', "'lambda_c' must be a number, got [1.0]"),
        ('{"epoch": 1, "val_acc": "x", "note": null}', None),
        ('{"epoch": 1, "loss_total": 2}', None),
    ], ids=[
        "no epoch", "text epoch", "float epoch", "bool epoch", "text loss", "bool loss",
        "null lr", "list lambda_c", "other keys unread", "integer loss",
    ])
    def test_epoch_line_checks(self, tmp_path, capsys, line, message):
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_text(self.GOOD + "\n" + line + "\n")
        code = main(["report", "--run", str(run_dir)])
        err = capsys.readouterr().err
        if message is None:
            assert code == 0, err
            curves = (run_dir / "curves.csv").read_text().splitlines()
            # a value the line does not give is an empty cell
            assert curves[1:] == ["0,1.5,0.1,1.0", "1,2,," if "loss_total" in line else "1,,,"]
        else:
            assert code == 1
            assert err == f"seal: error: {run_dir / 'metrics.jsonl'}: line 2: {message}\n"
            assert not (run_dir / "curves.csv").exists()

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

    @BEYOND_THE_PARSER
    def test_metrics_line_beyond_the_parser_names_line(self, tmp_path, capsys, text, reason):
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_text('{"epoch": 0}\n' + text + "\n")
        assert main(["report", "--run", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert f"{run_dir / 'metrics.jsonl'}: line 2: invalid JSON (" in err and reason in err

    @BEYOND_THE_PARSER
    def test_final_beyond_the_parser_names_file(self, tmp_path, capsys, text, reason):
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_text('{"epoch": 0}\n')
        (run_dir / "final.json").write_text(text)
        assert main(["report", "--run", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert f"{run_dir / 'final.json'}: invalid JSON (" in err and reason in err

    def test_non_utf8_metrics_names_file(self, tmp_path, capsys):
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_bytes(b'{"epoch": 0}\n{"note": "\xff"}\n')
        assert main(["report", "--run", str(run_dir)]) == 1
        assert "metrics.jsonl: not UTF-8 text" in capsys.readouterr().err

    def test_non_utf8_final_names_file(self, tmp_path, capsys):
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_text('{"epoch": 0}\n')
        (run_dir / "final.json").write_bytes(b'{"final": "\xff"}')
        assert main(["report", "--run", str(run_dir)]) == 1
        assert "final.json: invalid JSON" in capsys.readouterr().err

    def test_empty_metrics_exit_one(self, tmp_path, capsys):
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_text("")
        assert main(["report", "--run", str(run_dir)]) == 1


class TestPathOfTheWrongKind:
    """A path that names a file where a directory is wanted, or a
    directory where a file is wanted, is exit 1 naming the path."""

    @pytest.mark.parametrize("case", [
        "train --out file", "generate --out file", "train --config dir", "eval --pred dir",
        "report metrics.jsonl dir",
    ])
    def test_exit_one_naming_the_path(self, tmp_path, capsys, case):
        from seal.hierarchy import balanced_hierarchy, save_hierarchy

        cfg = write_config(tmp_path)
        a_file, a_dir = tmp_path / "taken", tmp_path / "folder"
        a_file.write_text("x")
        a_dir.mkdir()
        save_hierarchy(tmp_path / "h.json", balanced_hierarchy([2, 4]))
        (a_dir / "metrics.jsonl").mkdir()
        argv, named = {
            "train --out file": (["train", "--config", str(cfg), "--out", str(a_file)], a_file),
            "generate --out file": (["generate", "--counts", "2,4", "--out", str(a_file)], a_file),
            "train --config dir": (["train", "--config", str(a_dir), "--out", str(tmp_path)], a_dir),
            "eval --pred dir": (
                ["eval", "--pred", str(a_dir), "--truth", str(cfg),
                 "--hierarchy", str(tmp_path / "h.json")],
                a_dir,
            ),
            "report metrics.jsonl dir": (["report", "--run", str(a_dir)], a_dir / "metrics.jsonl"),
        }[case]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("seal: error: ") and str(named) in err, err


class TestMetricsCorruption:
    """Every corrupted metrics.jsonl either reports (exit 0) or is exit 1
    with a message naming the file, and the line when a line is not an
    epoch line; none ends in a traceback."""

    ENTRIES = [
        {"epoch": e, "lambda_c": 1.0 - e / 3, "loss_cgc": 0.25 / (e + 1), "loss_cls": 2.5 - e,
         "loss_total": 3.125 - e, "lr": 0.1 / (e + 1), "val_acc": {"1": 0.5, "2": 0.25}}
        for e in range(3)
    ]
    FULL = "".join(json.dumps(e, sort_keys=True) + "\n" for e in ENTRIES).encode()

    @staticmethod
    def check(tmp_path, capsys, data: bytes) -> int:
        run_dir = tmp_path / "run"
        run_dir.mkdir(exist_ok=True)
        path = run_dir / "metrics.jsonl"
        path.write_bytes(data)
        code = main(["report", "--run", str(run_dir)])
        err = capsys.readouterr().err
        assert code in (0, 1), (data, err)
        if code == 1:
            assert err.startswith("seal: error: ") and str(path) in err, (data, err)
            if "not UTF-8" not in err and "no metric entries" not in err:
                assert f"{path}: line " in err, (data, err)
        return code

    def test_reference_reports(self, tmp_path, capsys):
        assert self.check(tmp_path, capsys, self.FULL) == 0
        assert json.loads((tmp_path / "run" / "summary.json").read_text())["epochs"] == 3

    def test_every_truncation(self, tmp_path, capsys):
        codes = [self.check(tmp_path, capsys, self.FULL[:cut]) for cut in range(len(self.FULL))]
        # a cut at either side of a newline leaves whole lines, which report
        ends = [i for i, b in enumerate(self.FULL) if b == ord("\n")]
        whole = set(ends) | {i + 1 for i in ends}
        assert [c == 0 for c in codes] == [cut in whole for cut in range(len(self.FULL))]

    def test_random_byte_edits(self, tmp_path, capsys):
        # seeded byte edits anywhere in the file: overwrite, insert or delete
        rng = np.random.default_rng(12)
        alphabet = b'0123456789.-+e"[]{},: \ntruefalsnl\xff\x00'
        codes = set()
        for _ in range(300):
            data = bytearray(self.FULL)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(len(data)))
                byte = alphabet[int(rng.integers(len(alphabet)))]
                edit = rng.integers(3)
                if edit == 0:
                    data[pos] = byte
                elif edit == 1:
                    data.insert(pos, byte)
                else:
                    del data[pos]
            codes.add(self.check(tmp_path, capsys, bytes(data)))
        assert codes == {0, 1}

    @pytest.mark.parametrize("line, code", [
        ("[1, 2]", 1), ('"epoch"', 1), ("3", 1), ("null", 1), ("{}", 1),
    ], ids=["list", "string", "number", "null", "empty object"])
    def test_line_of_another_kind(self, tmp_path, capsys, line, code):
        data = self.FULL + line.encode() + b"\n"
        assert self.check(tmp_path, capsys, data) == code

    @pytest.mark.parametrize("field, value", [
        ("epoch", "zero"), ("epoch", None), ("epoch", [0]), ("lr", "fast"), ("lr", {"a": 1}),
        ("lambda_c", True), ("loss_total", "x"), ("loss_total", None), ("loss_cls", [1.5]),
        ("val_acc", 0.5),
    ])
    def test_value_of_the_wrong_type_reports(self, tmp_path, capsys, field, value):
        # the epoch and the curve values are checked; val_acc is not read
        entries = [dict(e) for e in self.ENTRIES]
        entries[1][field] = value
        data = "".join(json.dumps(e) + "\n" for e in entries).encode()
        assert self.check(tmp_path, capsys, data) == (0 if field == "val_acc" else 1)


class TestEvalCorruption:
    """Every truncation and a seeded set of byte substitutions of either
    seal eval CSV either scores (exit 0) or is exit 1 with a message
    naming the file; none ends in a traceback."""

    PRED = b"id,level_1,level_2\na,0,0\nb,0,1\nc,1,2\nd,1,3\ne,0,1\nf,1,2\n"
    TRUTH = b"id,level_1,level_2,f0\na,0,0,0.5\nb,0,1,1\nc,1,2,-2\nd,-1,3,3e1\ne,0,0,4\nf,-1,-1,5\n"

    HIERARCHY = b'{"counts": [2, 4], "parents": [[0, 0, 1, 1]], "known": [0, 1]}'

    @staticmethod
    def check(tmp_path, capsys, name: str, data: bytes) -> int:
        files = {
            "pred": tmp_path / "pred.csv", "truth": tmp_path / "truth.csv",
            "hierarchy": tmp_path / "h.json",
        }
        for which, path in files.items():
            path.write_bytes(data if which == name else getattr(TestEvalCorruption, which.upper()))
        return exit_code_naming(capsys, [
            "eval", "--pred", str(files["pred"]), "--truth", str(files["truth"]),
            "--hierarchy", str(files["hierarchy"]),
        ], files[name])

    @pytest.mark.parametrize("name, seed, alphabet", [
        ("pred", 16, CSV_ALPHABET),
        ("truth", 16, CSV_ALPHABET),
        # a hierarchy that loads but disagrees with a CSV's labels is named
        # beside the CSV
        ("hierarchy", 17, JSON_ALPHABET),
    ], ids=["pred", "truth", "hierarchy"])
    def test_every_truncation_and_byte_substitution(self, tmp_path, capsys, name, seed,
                                                    alphabet):
        full = getattr(self, name.upper())
        assert self.check(tmp_path, capsys, name, full) == 0
        codes = {
            self.check(tmp_path, capsys, name, data)
            for data in corruptions(full, seed, alphabet)
        }
        assert codes == {0, 1}


class TestRunCorruption:
    """About 40 truncations (every len / 40 bytes) and 60 seeded byte
    substitutions of each file a tiny run reads or writes, through the
    command that reads it: the checkpoint and its sidecar through seal
    eval --dump-projection, metrics.jsonl and final.json through seal
    report, the features CSV through seal train. Each exits 0, 1 with the
    file named, or 2; none ends in a traceback. A checkpoint with any byte
    changed or cut is exit 1."""

    @pytest.fixture(scope="class")
    def originals(self, tmp_path_factory):
        """The bytes of a generated dataset and of the two-epoch run
        trained on it, by file name."""
        root = tmp_path_factory.mktemp("tiny")
        train_tiny_run(root)
        return {
            name: (root / name).read_bytes()
            for name in ("features.csv", "hierarchy.json", "model.seal", "model.seal.meta.json",
                         "metrics.jsonl", "final.json")
        }

    @pytest.mark.parametrize("name, seed, alphabet", [
        # a checkpoint is raw float64 with no header, so any changed byte
        # loads; the command refuses it by the sidecar's payload_sha256
        ("model.seal", 31, bytes(range(256))),
        ("model.seal.meta.json", 30, JSON_ALPHABET),
        ("metrics.jsonl", 32, JSON_ALPHABET),
        ("final.json", 33, JSON_ALPHABET),
        ("features.csv", 34, CSV_ALPHABET),
    ], ids=["checkpoint", "sidecar", "metrics", "final", "features"])
    def test_truncation_steps_and_byte_substitutions(self, tmp_path, capsys, originals, name,
                                                     seed, alphabet):
        for other, data in originals.items():
            (tmp_path / other).write_bytes(data)
        if name.startswith("model.seal"):
            argv = projection_argv(tmp_path)
        elif name == "features.csv":
            argv = ["train", "--config", str(tiny_run_config(tmp_path)), "--out",
                    str(tmp_path / "out")]
        else:
            argv = ["report", "--run", str(tmp_path)]
        named = tmp_path / name
        full = originals[name]
        assert exit_code_naming(capsys, argv, named) == 0
        codes = set()
        for data in corruptions(full, seed, alphabet, count=60, step=len(full) // 40):
            (tmp_path / name).write_bytes(data)
            code = exit_code_naming(capsys, argv, named)
            # every change to a checkpoint's bytes is refused
            assert code == 1 or name != "model.seal" or data == full
            codes.add(code)
        assert 1 in codes


class TestConfigCorruption:
    """Every corrupted train config either loads (load_run builds the
    run) or is an InputError naming the file; through the CLI that is
    exit 1."""

    @staticmethod
    def check(tmp_path, data: bytes):
        from seal.cli import load_run

        path = tmp_path / "config.json"
        path.write_bytes(data)
        try:
            load_run(path)
        except InputError as exc:
            assert str(path) in str(exc), exc
            return str(exc)
        return None

    def test_reference_config_loads(self, tmp_path):
        assert self.check(tmp_path, json.dumps(TINY_CONFIG, indent=1).encode()) is None

    def test_every_truncation(self, tmp_path):
        full = json.dumps(TINY_CONFIG, indent=1).encode()
        messages = [self.check(tmp_path, full[:cut]) for cut in range(len(full))]
        assert all(m is not None for m in messages)

    def test_random_byte_edits(self, tmp_path):
        # seeded byte edits anywhere in the file: overwrite, insert or delete
        rng = np.random.default_rng(11)
        full = json.dumps(TINY_CONFIG, indent=1).encode()
        alphabet = b'0123456789.-+e"[]{},: \ntruefalsnl\xff\x00'
        outcomes = set()
        for _ in range(300):
            data = bytearray(full)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(len(data)))
                byte = alphabet[int(rng.integers(len(alphabet)))]
                edit = rng.integers(3)
                if edit == 0:
                    data[pos] = byte
                elif edit == 1:
                    data.insert(pos, byte)
                else:
                    del data[pos]
            outcomes.add(self.check(tmp_path, bytes(data)) is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("field, value", [
        ("seed", "x"), ("seed", 1.5), ("seed", -1), ("data.split_seed", "z"),
        ("data.split_seed", -1), ("data.old_fraction", "a"), ("data.features", 3),
        ("model.hidden", [-3]), ("model.hidden", [0]), ("data.synthetic.counts", [6, 2]),
        ("data.old_fraction", 1.5), ("train.batch_size", 1),
    ])
    def test_bad_value_names_the_file(self, tmp_path, field, value):
        assert self.check(tmp_path, json.dumps(set_field(TINY_CONFIG, field, value)).encode())

    def test_every_truncation_and_byte_substitution_through_main(self, tmp_path, capsys):
        # a config that loads trains the tiny run; one that does not is
        # exit 1 naming the file, and none ends in a traceback. Written
        # without spaces, so that no substitution turns a space into a
        # digit ahead of a number (3 epochs into 73)
        path = tmp_path / "config.json"
        codes = set()
        full = json.dumps(TINY_CONFIG, separators=(",", ":")).encode()
        for data in corruptions(full, 18, JSON_ALPHABET):
            path.write_bytes(data)
            argv = ["train", "--config", str(path), "--out", str(tmp_path / "run")]
            codes.add(exit_code_naming(capsys, argv, path))
        assert codes == {0, 1}

    def test_truncated_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(json.dumps(TINY_CONFIG).encode()[:40])
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert f"seal: error: {cfg}: invalid JSON" in capsys.readouterr().err


class TestDeterminism:
    def test_two_cli_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "seal.cli", "--deterministic",
                 "train", "--config", str(cfg), "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        assert (outs[0] / "metrics.jsonl").read_bytes() == (outs[1] / "metrics.jsonl").read_bytes()
