"""Clustering-accuracy evaluation with optimal cluster-to-class matching.

Accuracy is the matched fraction under the maximum-weight one-to-one
assignment between predicted clusters and true classes, solved on the
full prediction set and then reused to decompose accuracy over known
("old") and novel ("new") classes. Consistency diagnostics measure how
often the predicted fine class's ancestor agrees with the predicted
coarse class at each level. ``evaluate_known`` is the one home of the
rule that says which rows are scored against which truth, shared by
``final.json`` and ``seal eval``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError
from .hierarchy import HierarchySpec, level_map


def hungarian_acc(y_true, y_pred, num_classes: int) -> tuple[float, dict[int, int]]:
    """Clustering accuracy under the optimal one-to-one assignment.

    Builds the square contingency matrix over the ids that occur on
    either side (an id seen on one side only gets a zero row or column,
    which covers the estimated-class-count case) and solves the
    maximum-weight matching. Ids in range(num_classes) that never occur
    would add only zero rows and columns, which change no maximum, so
    the table grows with the rows scored, not with num_classes. Returns
    (accuracy, {predicted cluster -> true class}), with a key for every
    id that occurs.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.size == 0:
        raise InputError("empty label sequences")
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise InputError(f"label shapes differ: {y_true.shape} vs {y_pred.shape}")
    if y_true.min() < 0 or y_pred.min() < 0:
        raise InputError("labels must be non-negative")
    if max(y_true.max(), y_pred.max()) >= num_classes:
        raise InputError(
            f"labels exceed num_classes={num_classes}: "
            f"max true {y_true.max()}, max pred {y_pred.max()}"
        )
    ids, codes = np.unique(np.concatenate([y_pred, y_true]), return_inverse=True)
    contingency = np.zeros((ids.size, ids.size), dtype=np.int64)
    np.add.at(contingency, (codes[: y_pred.size], codes[y_pred.size :]), 1)
    rows, cols = linear_sum_assignment(contingency, maximize=True)
    assignment = {int(ids[r]): int(ids[c]) for r, c in zip(rows, cols)}
    matched = contingency[rows, cols].sum()
    return float(matched) / y_true.size, assignment


def split_acc(
    y_true, y_pred, old_classes, assignment: dict[int, int]
) -> tuple[float | None, float | None]:
    """Old/New accuracy decomposition under one shared assignment.

    Old restricts to samples whose true class is in old_classes, New to
    the complement; an empty subset reports None. The assignment must
    come from hungarian_acc over the same predictions.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_pred.size and y_pred.min() < 0:
        raise InputError("predicted clusters must be non-negative")
    # a table from cluster id to class, indexed by y_pred; -1 marks an id
    # the assignment lacks
    table = np.full(max([*assignment, int(y_pred.max(initial=-1))]) + 1, -1, dtype=np.int64)
    table[list(assignment)] = list(assignment.values())
    mapped = table[y_pred]
    if np.any(mapped < 0):
        missing = np.unique(y_pred[mapped < 0]).tolist()
        raise InputError(f"assignment missing predicted clusters {missing}")
    hits = mapped == y_true
    old_mask = np.isin(y_true, sorted(old_classes))
    acc_old = float(hits[old_mask].mean()) if old_mask.any() else None
    acc_new = float(hits[~old_mask].mean()) if (~old_mask).any() else None
    return acc_old, acc_new


def consistency_rate(pred_fine, pred_levels, spec: HierarchySpec) -> dict[int, float]:
    """Per-level agreement between coarse predictions and the ancestors
    of the fine predictions: {level h: rate} for h < H. Empty for H = 1."""
    pred_fine = np.asarray(pred_fine, dtype=np.int64)
    rates: dict[int, float] = {}
    for h in range(1, spec.levels):
        col = np.asarray(pred_levels[h - 1], dtype=np.int64)
        if col.shape != pred_fine.shape:
            raise InputError(
                f"level {h} predictions have shape {col.shape}, expected {pred_fine.shape}"
            )
        ancestors = level_map(spec, h)[pred_fine]
        rates[h] = float((ancestors == col).mean())
    return rates


@dataclass(frozen=True)
class EvalReport:
    """All/Old/New accuracy (None where the subset is empty) and
    fine-coarse consistency rates."""

    acc_all: float
    acc_old: float | None
    acc_new: float | None
    consistency: dict[int, float] = field(default_factory=dict, compare=False)

    def as_dict(self) -> dict:
        return {
            "all": self.acc_all,
            "old": self.acc_old,
            "new": self.acc_new,
            "consistency": {str(h): r for h, r in self.consistency.items()},
        }


def evaluate_predictions(
    true_labels: np.ndarray,
    pred_labels: np.ndarray,
    spec: HierarchySpec,
    old_fine_classes,
) -> dict[int, EvalReport]:
    """Full per-level evaluation of an (N, H) prediction matrix against
    an (N, H) truth matrix.

    Old classes at coarse levels are the ancestors of the old fine
    classes; Old and New share the level's one assignment.
    """
    true_labels = np.asarray(true_labels, dtype=np.int64)
    pred_labels = np.asarray(pred_labels, dtype=np.int64)
    if true_labels.shape != pred_labels.shape or true_labels.ndim != 2:
        raise InputError("truth and prediction matrices must share an (N, H) shape")
    if true_labels.shape[1] != spec.levels:
        raise InputError(
            f"expected {spec.levels} label columns, got {true_labels.shape[1]}"
        )
    old_fine = sorted(int(c) for c in old_fine_classes)
    reports: dict[int, EvalReport] = {}
    for h in range(1, spec.levels + 1):
        truth_h, pred_h = true_labels[:, h - 1], pred_labels[:, h - 1]
        acc, assignment = hungarian_acc(truth_h, pred_h, spec.counts[h - 1])
        old_h = set(level_map(spec, h)[old_fine]) if old_fine else set()
        acc_old, acc_new = split_acc(truth_h, pred_h, old_h, assignment)
        consistency = (
            consistency_rate(
                pred_labels[:, -1], [pred_labels[:, k] for k in range(spec.levels - 1)], spec
            )
            if h == spec.levels
            else {}
        )
        reports[h] = EvalReport(acc, acc_old, acc_new, consistency)
    return reports


def evaluate_known(fine_truth, pred_levels, spec: HierarchySpec, truth_spec: HierarchySpec,
                   old_fine_classes) -> dict:
    """Score one prediction array per level of spec against fine truth
    that may be -1 (unknown): evaluate_predictions on the known rows, each
    level's truth that label's ancestor in truth_spec (the fine column
    alone when truth_spec has other level counts). The consistency rates
    of every row under spec stand in the fine level's report; a note
    replaces the scores when no row is known."""
    rates = consistency_rate(pred_levels[-1], pred_levels[:-1], spec)
    out: dict = {"consistency": {str(h): r for h, r in rates.items()}}
    known = fine_truth >= 0
    if not known.any():
        return {**out, "note": "no unlabelled sample has a known fine label"}
    if truth_spec.counts != spec.counts:
        truth_spec, pred_levels = HierarchySpec(counts=(spec.num_fine,)), pred_levels[-1:]
    truth = truth_spec.ancestors[fine_truth[known]]
    pred = np.stack(pred_levels, axis=1)[known]
    reports = evaluate_predictions(truth, pred, truth_spec, old_fine_classes)
    levels = {str(h + spec.levels - truth_spec.levels): r.as_dict() for h, r in reports.items()}
    fine = levels[str(spec.levels)]
    fine["consistency"] = out["consistency"]
    return {**out, "levels": levels, "all": fine["all"], "old": fine["old"], "new": fine["new"]}
