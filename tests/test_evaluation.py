"""Tests for Hungarian-matched accuracy and consistency diagnostics."""

import itertools

import numpy as np
import pytest

from seal.errors import InputError
from seal.evaluation import (
    consistency_rate,
    evaluate_known,
    evaluate_predictions,
    hungarian_acc,
    split_acc,
)
from seal.hierarchy import balanced_hierarchy


def brute_force_acc(y_true, y_pred, num_classes):
    """Oracle: exhaustive search over all injective cluster-to-class maps."""
    contingency = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(contingency, (y_pred, y_true), 1)
    best = 0
    for perm in itertools.permutations(range(num_classes)):
        best = max(best, sum(contingency[j, perm[j]] for j in range(num_classes)))
    return best / len(y_true)


class TestHungarianAcc:
    def test_perfect_predictions(self):
        y = np.array([0, 1, 2, 2, 1])
        acc, assignment = hungarian_acc(y, y, 3)
        assert acc == 1.0
        assert assignment == {0: 0, 1: 1, 2: 2}

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 5, size=100)
        perm = rng.permutation(5)
        acc, _ = hungarian_acc(y, perm[y], 5)
        assert acc == 1.0

    def test_hand_worked_case(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([1, 1, 0, 2])
        acc, _ = hungarian_acc(y_true, y_pred, 3)
        assert acc == 0.75

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(5, 60))
            y_true = rng.integers(0, k, size=n)
            y_pred = rng.integers(0, k, size=n)
            acc, _ = hungarian_acc(y_true, y_pred, k)
            assert acc == brute_force_acc(y_true, y_pred, k)

    def test_padded_when_pred_uses_more_clusters(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 3, 1, 2])  # 4 clusters vs 2 classes
        acc, assignment = hungarian_acc(y_true, y_pred, 4)
        assert acc == 0.5
        assert len(set(assignment.values())) == len(assignment)  # injective

    def test_table_spans_the_ids_that_occur(self):
        # ids skipped on either side change no accuracy, and every
        # predicted cluster that occurs is a key of the assignment
        rng = np.random.default_rng(43)
        for _ in range(100):
            k = int(rng.integers(3, 8))
            y_true = rng.choice(rng.choice(k, size=int(rng.integers(1, k)), replace=False), 20)
            y_pred = rng.choice(rng.choice(k, size=int(rng.integers(1, k)), replace=False), 20)
            acc, assignment = hungarian_acc(y_true, y_pred, k)
            assert acc == brute_force_acc(y_true, y_pred, k)
            assert set(np.unique(y_pred).tolist()) <= set(assignment)
            assert len(set(assignment.values())) == len(assignment)
        acc, assignment = hungarian_acc([0, 7, 7], [0, 5, 99_999], 100_000)
        assert acc == 2 / 3 and set(assignment) == {0, 5, 7, 99_999}

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            hungarian_acc([], [], 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            hungarian_acc([0, 1], [0, 5], 3)


class TestSplitAcc:
    def test_all_old_perfect(self):
        y = np.array([0, 1, 0, 1])
        acc, assignment = hungarian_acc(y, y, 2)
        acc_old, acc_new = split_acc(y, y, {0, 1}, assignment)
        assert acc_old == 1.0 and acc_new is None

    def test_perfect_old_imperfect_new(self):
        y_true = np.array([0, 0, 1, 1, 2, 2])
        y_pred = np.array([0, 0, 1, 1, 2, 1])
        _, assignment = hungarian_acc(y_true, y_pred, 3)
        acc_old, acc_new = split_acc(y_true, y_pred, {0, 1}, assignment)
        assert acc_old == 1.0
        assert acc_new == 0.5

    def test_hand_worked_decomposition(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([1, 1, 0, 2])
        _, assignment = hungarian_acc(y_true, y_pred, 3)
        acc_old, acc_new = split_acc(y_true, y_pred, {0}, assignment)
        assert acc_old == 1.0
        assert acc_new == 0.5

    def test_missing_cluster_in_assignment(self):
        with pytest.raises(InputError):
            split_acc(np.array([0, 1]), np.array([0, 2]), {0}, {0: 0, 1: 1})

    def test_negative_cluster_rejected(self):
        with pytest.raises(InputError, match="non-negative"):
            split_acc(np.array([0, 1]), np.array([0, -1]), {0}, {0: 0, 1: 1})

    def test_matches_a_per_sample_lookup(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            k = int(rng.integers(2, 9))
            y_true = rng.integers(0, k, 60)
            # clusters may skip ids and exceed the true class count
            y_pred = rng.choice(rng.choice(k + 3, size=k, replace=False), size=60)
            _, assignment = hungarian_acc(y_true, y_pred, k + 3)
            old = set(rng.choice(k, size=int(rng.integers(1, k)), replace=False).tolist())
            hits = np.array([assignment[int(c)] for c in y_pred]) == y_true
            old_mask = np.isin(y_true, sorted(old))
            expected = (
                float(hits[old_mask].mean()) if old_mask.any() else None,
                float(hits[~old_mask].mean()) if (~old_mask).any() else None,
            )
            assert split_acc(y_true, y_pred, old, assignment) == expected

    def test_all_acc_between_old_and_new(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(3, 7))
            n = int(rng.integers(20, 80))
            y_true = rng.integers(0, k, size=n)
            y_pred = rng.integers(0, k, size=n)
            old = set(int(c) for c in rng.choice(k, size=k // 2, replace=False))
            if not (np.isin(y_true, sorted(old)).any() and (~np.isin(y_true, sorted(old))).any()):
                continue
            acc, assignment = hungarian_acc(y_true, y_pred, k)
            acc_old, acc_new = split_acc(y_true, y_pred, old, assignment)
            assert min(acc_old, acc_new) - 1e-12 <= acc <= max(acc_old, acc_new) + 1e-12


class TestConsistencyRate:
    def test_derived_coarse_is_fully_consistent(self):
        spec = balanced_hierarchy([2, 4, 8])
        rng = np.random.default_rng(2)
        fine = rng.integers(0, 8, size=100)
        levels = [spec.ancestors[fine, h - 1] for h in (1, 2)]
        rates = consistency_rate(fine, levels, spec)
        assert rates == {1: 1.0, 2: 1.0}

    def test_constant_coarse_prediction_rate(self):
        # balanced fine predictions over c coarse groups, coarse pinned to one
        # class: expected agreement is 1/c
        spec = balanced_hierarchy([4, 8])
        fine = np.tile(np.arange(8), 500)
        coarse = np.zeros_like(fine)
        rates = consistency_rate(fine, [coarse], spec)
        assert abs(rates[1] - 0.25) < 1e-12

    def test_single_level_empty(self):
        spec = balanced_hierarchy([5])
        assert consistency_rate(np.array([0, 1]), [], spec) == {}


class TestEvaluatePredictions:
    def test_per_level_reports(self):
        spec = balanced_hierarchy([2, 4])
        true_labels = np.array([[0, 0], [0, 1], [1, 2], [1, 3]])
        pred = true_labels.copy()
        reports = evaluate_predictions(true_labels, pred, spec, old_fine_classes={0, 1})
        assert reports[1].acc_all == 1.0
        assert reports[2].acc_all == 1.0
        assert reports[2].consistency == {1: 1.0}
        assert reports[1].consistency == {}

    def test_reassign_subsets_flag(self):
        # Old and New are read under All's one assignment; there is no
        # per-subset re-matching to ask for
        spec = balanced_hierarchy([4])
        y_true = np.array([[0], [0], [1], [1], [2], [2], [3], [3]])
        y_pred = np.array([[1], [1], [0], [0], [2], [2], [3], [2]])
        shared = evaluate_predictions(y_true, y_pred, spec, old_fine_classes={0, 1})
        assert (shared[1].acc_all, shared[1].acc_old, shared[1].acc_new) == (0.875, 1.0, 0.75)
        with pytest.raises(TypeError, match="reassign_subsets"):
            evaluate_predictions(y_true, y_pred, spec, {0, 1}, reassign_subsets=True)


class TestEvaluateKnown:
    SPEC = balanced_hierarchy([2, 4])
    # rows 2 and 5 have unknown fine truth
    FINE_TRUTH = np.array([0, 1, -1, 2, 3, -1])
    PRED = np.array([[0, 1], [0, 0], [1, 3], [1, 2], [0, 3], [1, 0]])

    def test_scores_the_known_rows_under_ancestor_truth(self):
        out = evaluate_known(self.FINE_TRUTH, self.PRED.T, self.SPEC, self.SPEC, {0, 2})
        known = self.FINE_TRUTH >= 0
        fine = self.FINE_TRUTH[known]
        truth = self.SPEC.ancestors[fine]
        expected = evaluate_predictions(truth, self.PRED[known], self.SPEC, {0, 2})
        assert out["levels"]["1"] == expected[1].as_dict()
        for key in ("all", "old", "new"):
            assert out["levels"]["2"][key] == expected[2].as_dict()[key] == out[key]
        # consistency covers all six predicted rows, not the four scored ones
        rates = consistency_rate(self.PRED[:, 1], [self.PRED[:, 0]], self.SPEC)
        assert rates == {1: 4 / 6} != expected[2].consistency
        assert out["consistency"] == out["levels"]["2"]["consistency"] == {"1": 4 / 6}
        assert "note" not in out

    def test_no_known_row_gives_a_note(self):
        out = evaluate_known(np.full(6, -1), self.PRED.T, self.SPEC, self.SPEC, {0, 2})
        assert out == {"consistency": {"1": 4 / 6},
                       "note": "no unlabelled sample has a known fine label"}

    def test_other_level_counts_score_the_fine_column_alone(self):
        flat = balanced_hierarchy([4])
        out = evaluate_known(self.FINE_TRUTH, self.PRED.T, self.SPEC, flat, {0, 2})
        known = self.FINE_TRUTH >= 0
        expected = evaluate_predictions(
            self.FINE_TRUTH[known][:, None], self.PRED[known][:, 1:], flat, {0, 2}
        )
        assert set(out["levels"]) == {"2"}
        assert out["all"] == expected[1].acc_all
