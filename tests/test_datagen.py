"""Tests for synthetic data generation, CSV round trips, and GCD splits."""

import numpy as np
import pytest

from seal.datagen import (
    Dataset,
    GcdSplit,
    generate_synthetic,
    load_embeddings,
    make_gcd_split,
    save_features_csv,
)
from seal.errors import DataFormatError, InputError
from seal.hierarchy import balanced_hierarchy, fine_to_level, save_hierarchy


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
            np.testing.assert_array_equal(ds.labels[:, h - 1], fine_to_level(spec, fine, h))

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
        np.testing.assert_allclose(loaded.features, ds.features, atol=1e-12)

    def test_hidden_labels(self, tmp_path):
        spec = two_level_spec()
        ds = generate_synthetic(spec, per_class=4, dim=6, spreads=[10, 1, 0.1], seed=0)
        save_hierarchy(tmp_path / "h.json", spec)
        save_features_csv(tmp_path / "f.csv", ds, hide_labels_at=[0, 1])
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

    def test_float32_export_mode(self, tmp_path):
        spec = two_level_spec()
        ds = generate_synthetic(spec, per_class=3, dim=5, spreads=[10, 1, 0.1], seed=8)
        save_hierarchy(tmp_path / "h.json", spec)
        save_features_csv(tmp_path / "f.csv", ds, float32=True)
        _, loaded = load_embeddings(tmp_path / "f.csv", tmp_path / "h.json")
        np.testing.assert_allclose(loaded.features, ds.features, atol=1e-5)
        np.testing.assert_array_equal(
            loaded.features, ds.features.astype(np.float32).astype(np.float64)
        )

    def test_missing_file(self, tmp_path):
        spec = two_level_spec()
        save_hierarchy(tmp_path / "h.json", spec)
        with pytest.raises(DataFormatError, match="nope.csv"):
            load_embeddings(tmp_path / "nope.csv", tmp_path / "h.json")


class TestDatasetInvariants:
    def test_rejects_nonfinite_features(self):
        spec = two_level_spec()
        feats = np.zeros((2, 4))
        feats[1, 1] = np.nan
        labels = np.array([[0, 0], [0, 1]])
        with pytest.raises(InputError):
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
                np.testing.assert_array_equal(ds.labels[:, h - 1], fine_to_level(spec, fine, h))
