"""Training objectives: entropy-regularized classification with sharpened
cross-view pseudo-labels, cross-granularity consistency distillation
through transition matrices, and the hierarchical semantic-guided soft
contrastive loss with its hybrid angle/distance similarity.

Every loss returns its scalar value together with analytic gradients
w.r.t. its immediate inputs (logits or features); the trainer chains
those into parameter gradients via model.backward. Pseudo-labels and
similarity-derived soft labels are constants; cgc_loss also returns the
gradient through its pseudo-coarse target, and trainer.objective decides
which terms it applies.

similarity_matrix and hscl_loss take unit-norm rows, the encoder's level
slices, refuse any other row and build one Gram matrix per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .hierarchy import TransitionMatrix
from .model import softmax

KL_FLOOR = 1e-12
_TINY_DIST = 1e-12
UNIT_ROW_TOL = 1e-9

@dataclass
class LossConfig:
    """All scalar loss hyperparameters and schedules.

    tau: classifier temperature; tau_sharp: pseudo-label sharpening
    temperature; balance: supervised/unsupervised mix; entropy_weight:
    mean-prediction entropy regularizer; tau_consistency: consistency
    temperature for distillation and transition updates;
    soft_smoothness: soft-label smoothness; curriculum_*: linear decay
    of the hybrid-similarity coefficient (horizon None = the full run);
    transition_momentum: transition-matrix update momentum.
    """

    tau: float = 0.1
    tau_sharp: float = 0.07
    balance: float = 0.35
    entropy_weight: float = 2.0
    tau_consistency: float = 0.75
    # calibrated for 128-sample batches over ~24 classes; scale inversely
    # with batch_size * mean batch similarity when the class count grows
    soft_smoothness: float = 0.001
    curriculum_start: float = 1.0
    curriculum_end: float = 0.0
    curriculum_horizon: int | None = None
    transition_momentum: float = 0.95

    def __post_init__(self):
        if self.tau <= 0 or self.tau_sharp <= 0 or self.tau_consistency <= 0:
            raise InputError("temperatures must be positive")
        if not 0 <= self.balance <= 1:
            raise InputError(f"balance must be in [0, 1], got {self.balance}")
        if not 0 <= self.soft_smoothness <= 1:
            raise InputError(f"soft_smoothness must be in [0, 1], got {self.soft_smoothness}")
        for name in ("curriculum_start", "curriculum_end"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise InputError(f"{name} must be in [0, 1], got {v}")
        if self.curriculum_horizon is not None and self.curriculum_horizon < 0:
            raise InputError(
                f"curriculum_horizon must be at least 0, got {self.curriculum_horizon}"
            )
        if not 0 <= self.transition_momentum <= 1:
            raise InputError("transition_momentum must be in [0, 1]")
        if self.entropy_weight < 0:
            raise InputError("entropy_weight must be non-negative")


def sharpen(scores: np.ndarray, tau_sharp: float) -> np.ndarray:
    """Low-temperature softmax of the other view's scores (a detached
    pseudo-label target)."""
    return softmax(scores / tau_sharp)


def _safe_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.where(p > 0, p, 1.0))


def cls_loss(
    probs: np.ndarray,
    pseudo: np.ndarray,
    labels: np.ndarray,
    labelled_mask: np.ndarray,
    cfg: LossConfig,
) -> tuple[float, np.ndarray]:
    """Mixed classification loss with entropy regularization.

    Unsupervised part: mean cross-entropy of each row against its
    (detached) pseudo-label minus entropy_weight times the entropy of
    the mean prediction. Supervised part: mean cross-entropy of the
    labelled rows against their class. The two mix as
    (1 - balance) * unsup + balance * sup. ``labelled_mask`` is a bool
    flag per row and ``labels`` an int class per row, read only where the
    flag is set. Returns the loss and its gradient w.r.t. the logits
    behind ``probs``.
    """
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise InputError("probs must be a non-empty (batch, classes) matrix")
    if pseudo.shape != probs.shape:
        raise InputError(f"pseudo shape {pseudo.shape} does not match probs {probs.shape}")
    batch, _n = probs.shape
    if labelled_mask.shape != (batch,):
        raise InputError("labelled_mask must be one flag per row")

    log_p = _safe_log(probs)
    unsup_ce = float(-(pseudo * log_p).sum() / batch)
    p_bar = probs.mean(axis=0)
    log_pbar = _safe_log(p_bar)
    entropy = float(-(p_bar * log_pbar).sum())
    unsup = unsup_ce - cfg.entropy_weight * entropy
    d_unsup = (probs - pseudo) / batch
    # d(-xi * H(p_bar))/dlogits through the softmax Jacobian
    weighted = probs * log_pbar
    d_unsup += cfg.entropy_weight / batch * (weighted - probs * weighted.sum(axis=1, keepdims=True))

    sup = 0.0
    d_sup = np.zeros_like(probs)
    n_lab = int(labelled_mask.sum())
    if n_lab:
        if labels.shape != (batch,):
            raise InputError("labels must be one entry per row")
        rows = np.flatnonzero(labelled_mask)
        sup = float(-log_p[rows, labels[rows]].sum() / n_lab)
        d_sup[rows] = probs[rows] / n_lab
        d_sup[rows, labels[rows]] -= 1.0 / n_lab

    lam = cfg.balance
    loss = (1.0 - lam) * unsup + lam * sup
    return loss, (1.0 - lam) * d_unsup + lam * d_sup


def _check_unit_rows(sq_norms: np.ndarray, what: str) -> None:
    """Refuse any squared row norm off 1 by more than UNIT_ROW_TOL, or NaN."""
    if not np.all(np.abs(sq_norms - 1.0) <= UNIT_ROW_TOL):
        raise NumericError(f"{what} needs unit-norm rows (|norm^2 - 1| <= {UNIT_ROW_TOL:g})")


def similarity_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities of a batch of unit-norm rows: one Gram
    matrix, symmetrised, with the diagonal pinned to exactly 1. The Gram
    diagonal, read before the pinning, is the unit-row check; a row off
    the sphere is a numeric error."""
    sims = features @ features.T
    _check_unit_rows(np.diagonal(sims), "similarity matrix")
    sims = 0.5 * (sims + sims.T)
    np.fill_diagonal(sims, 1.0)
    return sims


def fuse_hierarchy(sims: list[np.ndarray]) -> np.ndarray:
    """Fuse the level-h similarity matrix with its coarser counterparts:
    the entrywise mean over levels 1..h."""
    if not sims:
        raise InputError("need at least one similarity matrix")
    shape = sims[0].shape
    for s in sims[1:]:
        if s.shape != shape:
            raise InputError("similarity matrices must share one shape")
    return np.mean(sims, axis=0)


def soft_labels(fused: np.ndarray, smoothness: float) -> np.ndarray:
    """(1 - smoothness) * I + smoothness * fused."""
    if not 0 <= smoothness <= 1:
        raise InputError(f"smoothness must be in [0, 1], got {smoothness}")
    if fused.ndim != 2 or fused.shape[0] != fused.shape[1]:
        raise InputError("fused similarity must be square")
    return (1.0 - smoothness) * np.eye(fused.shape[0]) + smoothness * fused


def _off_diagonal_log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row log-sum-exp and row softmax of a square matrix over its entries
    off the diagonal, where a contrastive denominator leaves out the
    anchor's pair with itself: (lse, softmax). One row sum serves both."""
    masked = logits.copy()
    np.fill_diagonal(masked, -np.inf)
    row_max = masked.max(axis=1, keepdims=True)
    exp_shift = np.exp(masked - row_max)
    row_sum = exp_shift.sum(axis=1, keepdims=True)
    return row_max[:, 0] + np.log(row_sum[:, 0]), exp_shift / row_sum


def hscl_loss(
    z: np.ndarray, z_prime: np.ndarray, soft: np.ndarray, lam_c: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-view contrastive loss with soft targets, on unit-norm rows.

    loss = -(1/B) sum_ij soft(i,j) * log[ exp(sim(z_i, z'_j)) /
    sum_{m != i} exp(sim(z_i, z'_m)) ], with the hybrid metric
    sim = lam_c * cos - (1 - lam_c) * |z_i - z'_j| in numerator and
    denominator alike. Rows off the sphere are a numeric error, so one
    Gram matrix cos = z @ z'^T gives both terms, the distance being
    sqrt(2 - 2 cos). Returns (loss, dZ, dZ'), gradients in the ambient
    space for the encoder's slice-norm backward to project.
    """
    batch = z.shape[0]
    if batch < 2:
        raise InputError("contrastive batch needs at least two samples")
    if z_prime.shape != z.shape:
        raise InputError(f"view shapes differ: {z.shape} vs {z_prime.shape}")
    if soft.shape != (batch, batch):
        raise InputError(f"soft-label matrix must be ({batch}, {batch}), got {soft.shape}")
    _check_unit_rows(np.einsum("ij,ij->i", z, z), "hscl_loss view 1")
    _check_unit_rows(np.einsum("ij,ij->i", z_prime, z_prime), "hscl_loss view 2")

    cos = z @ z_prime.T
    dist = np.sqrt(np.maximum(2.0 - 2.0 * cos, 0.0))
    sims = lam_c * cos - (1.0 - lam_c) * dist
    lse, denom_soft = _off_diagonal_log_softmax(sims)
    row_weight = soft.sum(axis=1)
    loss = float(-((soft * sims).sum() - row_weight @ lse) / batch)

    # d(loss)/d(sims): soft targets minus row-weighted denominator softmax
    d_sims = -(soft - row_weight[:, None] * denom_soft) / batch

    # d(loss)/d(cos): d(dist)/d(cos) = -1/dist, taken as 0 where the two
    # rows coincide
    with np.errstate(divide="ignore", invalid="ignore"):
        d_cos = lam_c * d_sims + np.where(dist > _TINY_DIST, (1.0 - lam_c) * d_sims / dist, 0.0)
    return loss, d_cos @ z_prime, d_cos.T @ z


def supcon_loss(
    z: np.ndarray,
    z_prime: np.ndarray,
    labels: np.ndarray,
    labelled_mask: np.ndarray,
    tau: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-view supervised contrastive loss over the labelled rows.

    ``labelled_mask`` is a bool flag per row and ``labels`` an int class
    per row, read only where the flag is set. Positives for anchor i are
    all labelled rows sharing its label (including its own other view);
    the denominator runs over labelled rows m != i. Temperature-scaled dot
    products, per the baseline form. Returns (loss, dZ, dZ'); both
    gradients are zero outside labelled rows. Fewer than two labelled rows
    yield a zero loss.
    """
    if z_prime.shape != z.shape:
        raise InputError(f"view shapes differ: {z.shape} vs {z_prime.shape}")
    rows = np.flatnonzero(labelled_mask)
    d_z = np.zeros_like(z)
    d_zp = np.zeros_like(z_prime)
    if rows.size < 2:
        return 0.0, d_z, d_zp
    y = labels[rows]
    zs, zps = z[rows], z_prime[rows]
    scores = (zs @ zps.T) / tau
    n = rows.size
    positives = (y[:, None] == y[None, :]).astype(np.float64)
    pos_weight = positives / positives.sum(axis=1, keepdims=True)
    lse, denom_soft = _off_diagonal_log_softmax(scores)
    loss = float(-((pos_weight * scores).sum() - lse.sum()) / n)
    d_scores = -(pos_weight - denom_soft) / n
    d_z[rows] = (d_scores @ zps) / tau
    d_zp[rows] = (d_scores.T @ zs) / tau
    return loss, d_z, d_zp


def cgc_loss(
    level_probs: list[np.ndarray],
    fine_probs: np.ndarray,
    transitions: list[TransitionMatrix],
) -> tuple[float, list[np.ndarray], np.ndarray]:
    """Cross-granularity consistency: per-level KL divergence between
    each coarse posterior and the fine posterior pushed through its
    transition matrix, summed over levels and averaged over the batch.

    Returns the loss, the gradient w.r.t. the logits behind each coarse
    posterior and the gradient w.r.t. the fine logits through the
    pseudo-coarse target; a caller that treats the target as a constant
    ignores the last. Target probabilities are floored at 1e-12 inside
    the log.
    """
    if len(level_probs) != len(transitions):
        raise InputError(
            f"{len(level_probs)} coarse posteriors but {len(transitions)} transitions"
        )
    batch = fine_probs.shape[0]
    loss = 0.0
    d_levels: list[np.ndarray] = []
    d_fine = np.zeros_like(fine_probs)
    for p_h, tm in zip(level_probs, transitions):
        if p_h.shape[0] != batch:
            raise InputError("posterior batch sizes differ")
        if p_h.shape[1] != tm.n_coarse or fine_probs.shape[1] != tm.n_fine:
            raise InputError(
                f"posterior widths {p_h.shape[1]}/{fine_probs.shape[1]} do not match "
                f"transition {tm.n_fine}x{tm.n_coarse}"
            )
        target = fine_probs @ tm.entries
        floored = np.maximum(target, KL_FLOOR)
        ratio = _safe_log(p_h) - np.log(floored)
        kl_terms = np.where(p_h > 0, p_h * ratio, 0.0)
        loss += float(kl_terms.sum() / batch)
        row_dot = (p_h * ratio).sum(axis=1, keepdims=True)
        d_levels.append(p_h * (ratio - row_dot) / batch)
        # gradient into the target: only where the floor is inactive
        d_target = np.where(target > KL_FLOOR, -p_h / floored, 0.0) / batch
        v = d_target @ tm.entries.T
        d_fine += fine_probs * (v - (fine_probs * v).sum(axis=1, keepdims=True))
    return loss, d_levels, d_fine


def consistency_probs(logits: np.ndarray, tau_c: float) -> np.ndarray:
    """Softmax of classifier logits (cosine scores / tau) at the consistency
    temperature tau_c, as ``trainer._consistency_posteriors`` applies it."""
    if tau_c <= 0:
        raise InputError("consistency temperature must be positive")
    return softmax(logits / tau_c)


def total_loss(components: dict[str, float]) -> float:
    """Plain sum of the per-level and consistency terms; a non-finite
    component is a numeric error naming the component."""
    total = 0.0
    for name, value in components.items():
        if not np.isfinite(value):
            raise NumericError(f"non-finite loss component {name!r}: {value!r}")
        total += float(value)
    return total
