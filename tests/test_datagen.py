"""Tests for synthetic data generation, CSV round trips, and GCD splits."""

import csv
import io
import json

import numpy as np
import pytest

from seal.datagen import (
    Dataset,
    GcdSplit,
    generate_synthetic,
    load_embeddings,
    load_labels,
    make_gcd_split,
    save_features_csv,
)
from seal.errors import DataFormatError, InputError
from seal.hierarchy import balanced_hierarchy, save_hierarchy


def two_level_spec():
    return balanced_hierarchy([2, 4])


class TestGenerateSynthetic:
    def test_deterministic(self):
        spec = two_level_spec()
        a = generate_synthetic(spec, per_class=50, dim=16, spreads=[10, 1, 0.1], seed=7)
        b = generate_synthetic(spec, per_class=50, dim=16, spreads=[10, 1, 0.1], seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_noise_collapses_classes(self):
        spec = two_level_spec()
        ds = generate_synthetic(spec, per_class=5, dim=8, spreads=[10, 1, 0.0], seed=3)
        for k in range(4):
            feats = ds.features[ds.fine_labels() == k]
            np.testing.assert_array_equal(feats, np.tile(feats[0], (5, 1)))

    def test_label_levels_consistent(self):
        spec = balanced_hierarchy([2, 4, 8])
        ds = generate_synthetic(spec, per_class=10, dim=12, spreads=[8, 2, 1, 0.2], seed=1)
        fine = ds.fine_labels()
        for h in (1, 2):
            np.testing.assert_array_equal(ds.labels[:, h - 1], spec.ancestors[fine, h - 1])

    def test_distance_ordering(self):
        # within-fine < within-coarse < global mean pairwise distance
        spec = two_level_spec()
        ds = generate_synthetic(spec, per_class=40, dim=16, spreads=[10, 1, 0.1], seed=5)
        d = np.linalg.norm(ds.features[:, None] - ds.features[None, :], axis=2)
        fine = ds.fine_labels()
        coarse = ds.labels[:, 0]
        off_diag = ~np.eye(len(ds), dtype=bool)
        same_fine = (fine[:, None] == fine[None, :]) & off_diag
        same_coarse = (coarse[:, None] == coarse[None, :]) & off_diag
        assert d[same_fine].mean() < d[same_coarse].mean() < d[off_diag].mean()

    def test_imbalance_profile(self):
        spec = two_level_spec()
        ds = generate_synthetic(
            spec, per_class=100, dim=8, spreads=[10, 1, 0.1], seed=2, imbalance=0.25
        )
        sizes = np.bincount(ds.fine_labels(), minlength=4)
        assert sizes[0] == 100 and sizes[-1] == 25
        assert np.all(np.diff(sizes) <= 0)

    def test_rejects_bad_args(self):
        spec = two_level_spec()
        with pytest.raises(InputError):
            generate_synthetic(spec, per_class=0, dim=8)
        with pytest.raises(InputError):
            generate_synthetic(spec, per_class=5, dim=1)
        with pytest.raises(InputError):
            generate_synthetic(spec, per_class=5, dim=8, spreads=[1, 1])


class TestGcdSplit:
    def test_counts_match_protocol(self):
        # 10 fine classes, 100 samples each, half old, half labelled
        spec = balanced_hierarchy([5, 10])
        ds = generate_synthetic(spec, per_class=100, dim=12, spreads=[10, 1, 0.1], seed=0)
        split = make_gcd_split(ds, old_fraction=0.5, labelled_fraction=0.5, seed=0)
        assert len(split.old_classes) == 5
        assert split.labelled.size == 250
        assert split.unlabelled.size == 750

    def test_everything_labelled_when_fractions_one(self):
        ds = generate_synthetic(two_level_spec(), per_class=10, dim=8, spreads=[10, 1, 0.1], seed=0)
        split = make_gcd_split(ds, old_fraction=1.0, labelled_fraction=1.0, seed=0)
        assert split.unlabelled.size == 0
        assert split.labelled.size == len(ds)

    def test_labelled_samples_are_old(self):
        ds = generate_synthetic(two_level_spec(), per_class=20, dim=8, spreads=[10, 1, 0.1], seed=4)
        split = make_gcd_split(ds, old_fraction=0.5, labelled_fraction=0.7, seed=4)
        fine = ds.fine_labels()
        assert set(fine[split.labelled]) <= split.old_classes

    def test_partition_exact_over_random_seeds(self):
        rng = np.random.default_rng(11)
        ds = generate_synthetic(
            balanced_hierarchy([3, 9]), per_class=17, dim=8, spreads=[10, 1, 0.1], seed=1
        )
        for _ in range(25):
            old_f = float(rng.uniform(0.15, 1.0))
            lab_f = float(rng.uniform(0.05, 1.0))
            split = make_gcd_split(ds, old_f, lab_f, seed=int(rng.integers(1 << 31)))
            merged = np.concatenate([split.labelled, split.unlabelled])
            np.testing.assert_array_equal(np.sort(merged), np.arange(len(ds)))

    def test_pinned_old_classes(self):
        ds = generate_synthetic(two_level_spec(), per_class=10, dim=8, spreads=[10, 1, 0.1], seed=0)
        split = make_gcd_split(ds, old_classes={1, 2}, seed=9)
        assert split.old_classes == {1, 2}
        assert split.new_classes == {0, 3}

    def test_rejects_empty_old_set(self):
        ds = generate_synthetic(two_level_spec(), per_class=10, dim=8, spreads=[10, 1, 0.1], seed=0)
        with pytest.raises(InputError):
            make_gcd_split(ds, old_fraction=0.1, labelled_fraction=0.5)

    def test_overlapping_partition_rejected(self):
        with pytest.raises(InputError):
            GcdSplit(
                labelled=np.array([0, 1]),
                unlabelled=np.array([1, 2]),
                old_classes={0},
                all_classes={0, 1},
            )


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        spec = balanced_hierarchy([2, 4, 8])
        ds = generate_synthetic(spec, per_class=6, dim=10, spreads=[8, 2, 1, 0.3], seed=13)
        save_hierarchy(tmp_path / "h.json", spec, known={0, 1})
        save_features_csv(tmp_path / "f.csv", ds)
        spec2, loaded = load_embeddings(tmp_path / "f.csv", tmp_path / "h.json")
        assert spec2.counts == spec.counts
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        np.testing.assert_array_equal(loaded.features, ds.features)

    def test_hidden_labels(self, tmp_path):
        spec = two_level_spec()
        ds = generate_synthetic(spec, per_class=4, dim=6, spreads=[10, 1, 0.1], seed=0)
        save_hierarchy(tmp_path / "h.json", spec)
        labels = ds.labels.copy()
        labels[[0, 1]] = -1
        save_features_csv(tmp_path / "f.csv", Dataset(ds.features, labels, spec))
        _, loaded = load_embeddings(tmp_path / "f.csv", tmp_path / "h.json")
        assert loaded.labels[0].tolist() == [-1, -1]
        np.testing.assert_array_equal(loaded.labels[2:], ds.labels[2:])

    def test_inconsistent_parent_names_row(self, tmp_path):
        spec = two_level_spec()
        save_hierarchy(tmp_path / "h.json", spec)
        (tmp_path / "f.csv").write_text(
            "id,level_1,level_2,f0\n0,0,0,1.0\n1,1,0,2.0\n"
        )  # row 1: fine class 0 belongs to coarse 0, not 1
        with pytest.raises(DataFormatError, match="row 1"):
            load_embeddings(tmp_path / "f.csv", tmp_path / "h.json")

    def test_out_of_range_label_names_row(self, tmp_path):
        spec = two_level_spec()
        save_hierarchy(tmp_path / "h.json", spec)
        (tmp_path / "f.csv").write_text("id,level_1,level_2,f0\n0,0,9,1.0\n")
        with pytest.raises(DataFormatError, match="row 0"):
            load_embeddings(tmp_path / "f.csv", tmp_path / "h.json")

    def test_two_row_load(self, tmp_path):
        spec = two_level_spec()
        save_hierarchy(tmp_path / "h.json", spec)
        (tmp_path / "f.csv").write_text(
            "id,level_1,level_2,f0,f1,f2\n0,0,0,1.0,2.0,3.0\n1,1,2,4.0,5.0,6.0\n"
        )
        _, ds = load_embeddings(tmp_path / "f.csv", tmp_path / "h.json")
        assert len(ds) == 2 and ds.dim == 3

    def test_missing_file(self, tmp_path):
        spec = two_level_spec()
        save_hierarchy(tmp_path / "h.json", spec)
        with pytest.raises(DataFormatError, match="nope.csv"):
            load_embeddings(tmp_path / "nope.csv", tmp_path / "h.json")


class TestCsvWriter:
    @pytest.mark.parametrize("hidden", [(), (0, 5, 9)])
    def test_bytes_match_csv_writer(self, tmp_path, hidden):
        spec = balanced_hierarchy([2, 4, 8])
        ds = generate_synthetic(spec, per_class=3, dim=7, seed=4)
        marked = ds.labels.copy()
        marked[list(hidden)] = -1
        save_features_csv(tmp_path / "f.csv", Dataset(ds.features, marked, spec))
        # the writer before the bulk rewrite: csv.writer over per-element reprs
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["id", "level_1", "level_2", "level_3"] + [f"f{j}" for j in range(7)])
        for i in range(len(ds)):
            labels = [-1] * 3 if i in hidden else ds.labels[i].tolist()
            writer.writerow([i] + labels + [repr(float(v)) for v in ds.features[i]])
        assert (tmp_path / "f.csv").read_bytes() == expected.getvalue().encode()


VALID_CSV = (
    "id,level_1,level_2,f0,f1,f2\n"
    "0,0,1,0.5,-1.25,3.0\n"
    "1,1,2,1e-3,2.5,-0.0\n"
    "2,-1,-1,7.0,8.0,0.1\n"
)


def with_row(row: int, line: str) -> str:
    """VALID_CSV with data row ``row`` replaced by ``line``."""
    lines = VALID_CSV.splitlines(keepends=True)
    lines[row + 1] = line + "\n"
    return "".join(lines)


def reference_load(data: bytes, spec):
    """The per-field reader the bulk parse replaced: csv rows, empty rows
    skipped, int() of each label and float() of each feature. Returns
    (labels, features), or None where the file must be refused."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    limit = csv.field_size_limit(max(len(text), 131072))
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    finally:
        csv.field_size_limit(limit)
    if not rows:
        return None
    header, body = rows[0], [r for r in rows[1:] if r]
    names = ["id"] + [f"level_{h}" for h in range(1, spec.levels + 1)]
    if header[: len(names)] != names or len(header) == len(names) or not body:
        return None
    labels, features = [], []
    for row in body:
        if len(row) != len(header):
            return None
        try:
            labels.append([int(v) for v in row[1 : spec.levels + 1]])
            features.append([float(v) for v in row[spec.levels + 1 :]])
        except ValueError:
            return None
    try:
        ds = Dataset(features, labels, spec)
    except InputError:
        return None
    return ds.labels, ds.features


# (case, file bytes, the data row an error must name, or None)
CORRUPT_CSV = [
    ("valid", VALID_CSV.encode(), None),
    ("short row", with_row(1, "1,1,2,1e-3,2.5").encode(), 1),
    ("long row", with_row(2, "2,-1,-1,7.0,8.0,0.1,9.0").encode(), 2),
    ("long first row", with_row(0, "0,0,1,0.5,-1.25,3.0,4.0").encode(), 0),
    ("empty field", with_row(1, "1,1,2,,2.5,-0.0").encode(), 1),
    ("text feature", with_row(2, "2,-1,-1,7.0,abc,0.1").encode(), 2),
    ("fractional label", with_row(0, "0,0.5,1,0.5,-1.25,3.0").encode(), 0),
    ("nan feature", with_row(1, "1,1,2,nan,2.5,-0.0").encode(), 1),
    ("inf feature", with_row(2, "2,-1,-1,7.0,8.0,-inf").encode(), 2),
    ("non-utf8 id", with_row(1, "1,1,2,1e-3,2.5,-0.0").encode().replace(b"\n1,", b"\n\xff1,"), 1),
    ("non-utf8 feature", with_row(2, "2,-1,-1,7.0,8.0,0.1").encode().replace(b"8.0", b"8\xe9"), 2),
    ("non-utf8 header", VALID_CSV.encode().replace(b"f1", b"f\xff"), None),
    ("string ids", VALID_CSV.replace("\n1,", "\nimg_001.jpg,").encode(), None),
    ("hash ids", VALID_CSV.replace("\n0,", "\n#0,").replace("\n2,", "\n# 2,").encode(), None),
    ("quoted fields", with_row(1, '"img,1",1,"2","1e-3",2.5,-0.0').encode(), None),
    ("blank lines", VALID_CSV.replace("\n1,", "\n\n\n1,").encode() + b"\n\n", None),
    ("blank line before a bad row",
     with_row(2, "2,-1,-1,7.0,abc,0.1").replace("\n2,", "\n\n2,").encode(), 2),
    ("crlf", VALID_CSV.replace("\n", "\r\n").encode(), None),
    ("crlf bad row", with_row(1, "1,1,2,x,2.5,-0.0").replace("\n", "\r\n").encode(), 1),
    ("whitespace line", VALID_CSV.replace("\n1,", "\n  \n1,").encode(), 1),
    ("no data rows", b"id,level_1,level_2,f0,f1,f2\n\n", None),
    ("empty file", b"", None),
    ("blank first line", b"\n" + VALID_CSV.encode(), None),
    ("field over the csv module's size limit",
     VALID_CSV.replace("\n2,", "\n" + "x" * 200_000 + ",").encode() + b"3,0,0,abc,0,0\n", 3),
    ("wrong header", VALID_CSV.replace("level_2", "level2").encode(), None),
    ("inconsistent parent", with_row(0, "0,1,1,0.5,-1.25,3.0").encode(), 0),
]


class TestCsvCorruption:
    """Every feature CSV either loads to exactly what the per-field
    reference reads, or is a DataFormatError naming the file."""

    @staticmethod
    def check(tmp_path, data: bytes, row=None):
        spec = two_level_spec()
        save_hierarchy(tmp_path / "h.json", spec)
        path = tmp_path / "f.csv"
        path.write_bytes(data)
        expected = reference_load(data, spec)
        if expected is None:
            with pytest.raises(DataFormatError) as info:
                load_embeddings(path, tmp_path / "h.json")
            message = str(info.value)
            assert message.startswith(f"{path}: "), message
            if row is not None:
                assert f"row {row}" in message, message
            assert "at row" not in message, message  # numpy's own row count is not shown
            return message
        _, ds = load_embeddings(path, tmp_path / "h.json")
        np.testing.assert_array_equal(ds.labels, expected[0])
        assert ds.features.tobytes() == expected[1].tobytes()  # bitwise
        return None

    @pytest.mark.parametrize("case,data,row", CORRUPT_CSV, ids=[c[0] for c in CORRUPT_CSV])
    def test_case(self, tmp_path, case, data, row):
        self.check(tmp_path, data, row)

    def test_table_cases_that_load(self, tmp_path):
        spec = two_level_spec()
        loads = {case for case, data, _ in CORRUPT_CSV if reference_load(data, spec) is not None}
        assert loads == {"valid", "string ids", "hash ids", "quoted fields", "blank lines", "crlf"}

    def test_every_truncation(self, tmp_path):
        full = VALID_CSV.replace("\n2,", "\n\n2,").encode()
        messages = [self.check(tmp_path, full[:cut]) for cut in range(len(full) + 1)]
        assert any(m is None for m in messages) and any(m is not None for m in messages)

    def test_random_body_edits(self, tmp_path):
        # seeded byte edits below the header: overwrite, insert or delete
        rng = np.random.default_rng(5)
        full = VALID_CSV.replace("\n2,", '\n\n"x,y",').encode()
        start = len(VALID_CSV.splitlines()[0]) + 1
        alphabet = b'0123456789,.-+"#\n\r eEnaI\xff\xc3\x00x'
        outcomes = set()
        for _ in range(300):
            data = bytearray(full)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(start, len(data)))
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

    def test_no_data_rows_named(self, tmp_path):
        message = self.check(tmp_path, b"id,level_1,level_2,f0,f1,f2\r\n")
        assert message.endswith("no data rows")

    def test_seal_train_exits_one(self, tmp_path, capsys):
        from seal.cli import main

        data = with_row(1, "1,1,2,1e-3,abc,-0.0").encode()
        save_hierarchy(tmp_path / "h.json", two_level_spec())
        (tmp_path / "f.csv").write_bytes(data)
        config = {
            "data": {"features": str(tmp_path / "f.csv"), "hierarchy": str(tmp_path / "h.json")},
            "train": {"epochs": 1, "batch_size": 2},
            "model": {"hidden": [4], "proj_dim": 4},
        }
        (tmp_path / "c.json").write_text(json.dumps(config))
        code = main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        where = f"{tmp_path / 'f.csv'}: row 1"
        assert f"{where}: could not convert string 'abc' to float64 in column f1" in err


LABEL_CSV = (
    "id,level_1,level_2,score\n"
    "img_0.jpg,0,1,0.5\n"
    "img_1.jpg,1,2,not a number\n"
    "2,1,3,\n"
)


def with_label_row(row: int, line: str) -> str:
    """LABEL_CSV with data row ``row`` replaced by ``line``."""
    lines = LABEL_CSV.splitlines(keepends=True)
    lines[row + 1] = line + "\n"
    return "".join(lines)


def reference_labels(data: bytes, levels: int = 2):
    """A per-field reader of a label CSV: csv rows, empty rows skipped,
    the id as text and int() of each level column. Returns (ids,
    labels), or None where the file must be refused."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    rows = list(csv.reader(io.StringIO(text, newline="")))
    wanted = ["id"] + [f"level_{h}" for h in range(1, levels + 1)]
    if not rows or not set(wanted) <= set(rows[0]):
        return None
    header, body = rows[0], [r for r in rows[1:] if r]
    cols = [header.index(name) for name in wanted]
    ids, labels = [], []
    for row in body:
        if len(row) != len(header):
            return None
        try:
            labels.append([int(row[c]) for c in cols[1:]])
        except ValueError:
            return None
        ids.append(row[cols[0]])
    if not ids or np.abs(labels).max() >= 2**63:
        return None
    return ids, np.array(labels, dtype=np.int64)


# (case, file bytes, the data row an error must name, or None)
CORRUPT_LABEL_CSV = [
    ("valid", LABEL_CSV.encode(), None),
    ("short row", with_label_row(1, "img_1.jpg,1,2").encode(), 1),
    ("long row", with_label_row(2, "2,1,3,,4").encode(), 2),
    ("empty label", with_label_row(0, "img_0.jpg,,1,0.5").encode(), 0),
    ("text label", with_label_row(1, "img_1.jpg,1,abc,0").encode(), 1),
    ("fractional label", with_label_row(0, "img_0.jpg,0.5,1,0.5").encode(), 0),
    ("float-formatted label", with_label_row(2, "2,1.0,3,").encode(), 2),
    ("exponent label", with_label_row(2, "2,1,3e0,").encode(), 2),
    ("non-utf8 id", LABEL_CSV.encode().replace(b"img_1", b"img\xff1"), 1),
    ("non-utf8 unread column", LABEL_CSV.encode().replace(b"0.5", b"0\xe95"), 0),
    ("non-utf8 header", LABEL_CSV.encode().replace(b"score", b"sc\xffre"), None),
    ("missing id column", LABEL_CSV.replace("id,", "name,", 1).encode(), None),
    ("missing label column", LABEL_CSV.replace("level_2", "level2").encode(), None),
    ("no data rows", b"id,level_1,level_2\n\n", None),
    ("empty file", b"", None),
    ("blank first line", b"\n" + LABEL_CSV.encode(), None),
    ("quoted id", with_label_row(0, '"img,0",0,1,0.5').encode(), None),
    ("hash ids", LABEL_CSV.replace("\n2,", "\n#2,").encode(), None),
    ("blank lines", LABEL_CSV.replace("\nimg_1", "\n\n\nimg_1").encode() + b"\n\n", None),
    ("crlf", LABEL_CSV.replace("\n", "\r\n").encode(), None),
    ("columns reordered",
     "score,level_2,id,level_1\n0.5,1,img_0.jpg,0\nx,2,img_1.jpg,1\n".encode(), None),
]


class TestLabelCsvCorruption:
    """Every label CSV either loads to exactly what the per-field
    reference reads, ids as text, or is a DataFormatError naming the
    file."""

    @staticmethod
    def check(tmp_path, data: bytes, row=None):
        path = tmp_path / "labels.csv"
        path.write_bytes(data)
        expected = reference_labels(data)
        if expected is None:
            with pytest.raises(DataFormatError) as info:
                load_labels(path, 2)
            message = str(info.value)
            assert message.startswith(f"{path}: "), message
            if row is not None:
                assert f"row {row}" in message, message
            assert "at row" not in message, message  # numpy's own row count is not shown
            return message
        ids, labels = load_labels(path, 2)
        assert ids.tolist() == expected[0]
        np.testing.assert_array_equal(labels, expected[1])
        return None

    @pytest.mark.parametrize(
        "case,data,row", CORRUPT_LABEL_CSV, ids=[c[0] for c in CORRUPT_LABEL_CSV]
    )
    def test_case(self, tmp_path, case, data, row):
        self.check(tmp_path, data, row)

    def test_table_cases_that_load(self):
        loads = {case for case, data, _ in CORRUPT_LABEL_CSV if reference_labels(data)}
        assert loads == {
            "valid", "quoted id", "hash ids", "blank lines", "crlf", "columns reordered",
        }

    def test_ids_stay_text(self, tmp_path):
        (tmp_path / "labels.csv").write_text("id,level_1\n007,1\n7,2\n")
        ids, labels = load_labels(tmp_path / "labels.csv", 1)
        assert ids.tolist() == ["007", "7"]
        np.testing.assert_array_equal(labels, [[1], [2]])

    def test_every_truncation(self, tmp_path):
        full = LABEL_CSV.replace("\n2,", "\n\n2,").encode()
        messages = [self.check(tmp_path, full[:cut]) for cut in range(len(full) + 1)]
        assert any(m is None for m in messages) and any(m is not None for m in messages)

    def test_random_byte_edits(self, tmp_path):
        # seeded byte edits anywhere in the file: overwrite, insert or delete
        rng = np.random.default_rng(6)
        full = LABEL_CSV.replace("\n2,", '\n\n"x,y",').encode()
        alphabet = b'0123456789,.-+"#\n\r eEnaI_\xff\xc3\x00x'
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

    @pytest.mark.parametrize("case", ["text label", "short row", "missing label column"])
    def test_seal_eval_exits_one(self, tmp_path, capsys, case):
        from seal.cli import main

        data = {c: d for c, d, _ in CORRUPT_LABEL_CSV}[case]
        save_hierarchy(tmp_path / "h.json", two_level_spec())
        (tmp_path / "labels.csv").write_bytes(data)
        (tmp_path / "good.csv").write_text(LABEL_CSV)
        for pred, truth in (("labels.csv", "good.csv"), ("good.csv", "labels.csv")):
            code = main([
                "eval", "--pred", str(tmp_path / pred), "--truth", str(tmp_path / truth),
                "--hierarchy", str(tmp_path / "h.json"),
            ])
            assert code == 1
            assert f"seal: error: {tmp_path / 'labels.csv'}: " in capsys.readouterr().err


class TestDatasetInvariants:
    def test_rejects_nonfinite_features(self):
        spec = two_level_spec()
        feats = np.zeros((2, 4))
        feats[1, 1] = np.nan
        labels = np.array([[0, 0], [0, 1]])
        with pytest.raises(InputError, match="^row 1: non-finite feature value$"):
            Dataset(feats, labels, spec)

    def test_rejects_inconsistent_labels(self):
        spec = two_level_spec()
        labels = np.array([[1, 0]])  # fine class 0 has coarse parent 0
        with pytest.raises(InputError):
            Dataset(np.zeros((1, 4)), labels, spec)

    def test_generated_labels_always_consistent(self):
        # property: random specs and seeds produce ancestry-consistent labels
        rng = np.random.default_rng(21)
        for _ in range(10):
            counts = [int(rng.integers(2, 4))]
            for _ in range(int(rng.integers(1, 3))):
                counts.append(int(counts[-1] * rng.integers(2, 4)))
            spec = balanced_hierarchy(counts)
            spreads = list(10.0 * 0.5 ** np.arange(spec.levels)) + [0.1]
            ds = generate_synthetic(
                spec, per_class=3, dim=spec.levels + 4, spreads=spreads,
                seed=int(rng.integers(1 << 31)),
            )
            fine = ds.fine_labels()
            for h in range(1, spec.levels):
                np.testing.assert_array_equal(ds.labels[:, h - 1], spec.ancestors[fine, h - 1])
