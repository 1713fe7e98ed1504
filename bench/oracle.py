"""Independent references and output checks for the benchmark.

Nothing here imports ``seal``: the encoder forward pass, the taxonomy
walk and the Hungarian scoring are written again from the method's
definition, so a check that compares the program against them compares
two separate computations. Every check raises ``CheckFailed`` naming
what disagreed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.special import erf

SCORE_ATOL = 1e-9
UNIT_NORM_TOL = 1e-9
ACC_TOL = 1e-12


class CheckFailed(Exception):
    """A program output disagreed with its reference or property."""


def encoder_scores(weights, biases, bounds, prototypes, x) -> list[np.ndarray]:
    """Cosine scores of every level head, from the architecture alone:
    erf-GELU hidden layers, a linear projection split at ``bounds`` into
    L2-normalised slices, the renormalised concatenation, and unit-row
    prototypes."""
    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(weights[:-1], biases[:-1]):
        a = h @ w + b
        h = a * 0.5 * (1.0 + erf(a / math.sqrt(2.0)))
    z = h @ weights[-1] + biases[-1]
    parts = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        piece = z[:, lo:hi]
        parts.append(piece / np.sqrt((piece * piece).sum(axis=1, keepdims=True)))
    cat = np.hstack(parts)
    cat = cat / np.sqrt((cat * cat).sum(axis=1, keepdims=True))
    return [cat @ p.T for p in prototypes]


def fine_to_coarse(parent_maps, level: int) -> np.ndarray:
    """Ancestor at ``level`` (1 = coarsest) of every finest-level class,
    walking the child-to-parent maps upward one level at a time."""
    parent_maps = [np.asarray(m, dtype=np.int64) for m in parent_maps]
    n_fine = parent_maps[-1].size if parent_maps else 0
    walk = np.arange(n_fine)
    for m in reversed(parent_maps[level - 1 :]):
        walk = m[walk]
    return walk


def hungarian(truth, pred, n_classes: int, old_classes):
    """(acc_all, acc_old, acc_new, pred->true map) under the
    maximum-weight one-to-one matching of predicted to true ids; Old and
    New reuse the one matching. An empty subset reads None."""
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    table = np.zeros((n_classes, n_classes), dtype=np.int64)
    for p, t in zip(pred.tolist(), truth.tolist()):
        table[p, t] += 1
    rows, cols = linear_sum_assignment(table, maximize=True)
    mapping = np.full(n_classes, -1, dtype=np.int64)
    mapping[rows] = cols
    hit = mapping[pred] == truth
    old = np.isin(truth, sorted(old_classes))
    acc_old = float(hit[old].mean()) if old.any() else None
    acc_new = float(hit[~old].mean()) if (~old).any() else None
    return float(hit.mean()), acc_old, acc_new, mapping


def head_agreement(pred_fine, pred_coarse, ancestor) -> float:
    """Share of rows whose fine prediction, walked up the taxonomy,
    equals the coarse head's prediction."""
    return float((ancestor[np.asarray(pred_fine)] == np.asarray(pred_coarse)).mean())


def family_agreement(truth_fine, pred_fine, mapping, ancestor) -> float:
    """Share of rows whose matched fine prediction has the same level-1
    ancestor as the true fine class (for a model with no coarse head)."""
    matched = mapping[np.asarray(pred_fine)]
    return float((ancestor[matched] == ancestor[np.asarray(truth_fine)]).mean())


def check_scores(reference, scores, preds) -> None:
    """The program's scores match the reference forward to rounding, and
    its predictions are their argmax wherever the top two are apart."""
    for lvl, (ref, got, pred) in enumerate(zip(reference, scores, preds), start=1):
        if ref.shape != got.shape:
            raise CheckFailed(f"level {lvl} scores have shape {got.shape}, reference {ref.shape}")
        err = float(np.max(np.abs(ref - got)))
        if not err <= SCORE_ATOL:
            raise CheckFailed(f"level {lvl} scores differ from the reference forward by {err:.3e}")
        top = np.sort(ref, axis=1)
        clear = top[:, -1] - top[:, -2] > SCORE_ATOL
        wrong = clear & (np.argmax(ref, axis=1) != np.asarray(pred))
        if wrong.any():
            raise CheckFailed(f"level {lvl}: {int(wrong.sum())} predictions are not the argmax")


def check_accuracy(what: str, reported, reference) -> None:
    """Reported (all, old, new) equal the independent scoring."""
    for name, got, ref in zip(("all", "old", "new"), reported, reference):
        if (got is None) != (ref is None) or (
            ref is not None and not abs(got - ref) <= ACC_TOL
        ):
            raise CheckFailed(f"{what}: acc_{name} {got!r}, independent scoring gives {ref!r}")


def check_value(what: str, reported, reference) -> None:
    if reported is None or not abs(reported - reference) <= ACC_TOL:
        raise CheckFailed(f"{what}: program reports {reported!r}, reference gives {reference!r}")


def check_epoch_lines(epochs) -> None:
    """Every per-epoch number is finite and loss_total is the sum of its
    representation, classification and consistency terms."""
    if not epochs:
        raise CheckFailed("the run recorded no epochs")
    for entry in epochs:
        for key, value in entry.items():
            values = value.values() if isinstance(value, dict) else [value]
            if not all(math.isfinite(v) for v in values):
                raise CheckFailed(f"epoch {entry.get('epoch')}: {key} is not finite ({value!r})")
        parts = entry["loss_rep"] + entry["loss_cls"] + entry["loss_cgc"]
        if not abs(entry["loss_total"] - parts) <= 1e-12 * max(1.0, abs(parts)):
            raise CheckFailed(
                f"epoch {entry['epoch']}: loss_total {entry['loss_total']!r} is not "
                f"loss_rep + loss_cls + loss_cgc = {parts!r}"
            )


def check_unit_rows(prototypes) -> None:
    for lvl, protos in enumerate(prototypes, start=1):
        err = float(np.max(np.abs(np.sqrt((protos * protos).sum(axis=1)) - 1.0)))
        if not err <= UNIT_NORM_TOL:
            raise CheckFailed(f"level {lvl} prototype rows are off unit norm by {err:.3e}")


def check_learned(acc_trained: float, acc_untrained: float) -> None:
    if not acc_trained > acc_untrained:
        raise CheckFailed(
            f"trained acc_all {acc_trained:.4f} is not above the untrained model's "
            f"{acc_untrained:.4f}"
        )


def check_bitwise(what: str, written, read) -> None:
    written = np.ascontiguousarray(written)
    read = np.ascontiguousarray(read)
    if written.shape != read.shape or written.tobytes() != read.tobytes():
        raise CheckFailed(f"{what} read back differs from what was written")


def check_same(what: str, first, again) -> None:
    if first != again:
        raise CheckFailed(f"{what} differs between two runs with one seed")
