"""Single-stage training loop: cross-view objectives at every semantic
level, per-epoch transition-matrix refinement, cosine learning rate and
linear curriculum schedules, SGD with momentum, and run records.

Randomness is split into three deterministic streams derived from the
run seed: [seed, 0] for the validation carve-out, [seed, 1] for batch
composition, [seed, 2] for view noise. Identical seeds and configs give
identical runs in single-threaded mode.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import losses as L
from .datagen import Dataset, GcdSplit
from .errors import InputError, NumericError
from .evaluation import consistency_rate, evaluate_predictions, hungarian_acc
from .hierarchy import HierarchySpec, init_transition, level_map, update_transition
from .losses import LossConfig
from .model import (
    ModelState,
    ParamGrads,
    backward,
    forward,
    init_model,
    renormalize_prototypes,
)

@dataclass
class TrainConfig:
    """Loop hyperparameters: schedule, optimizer, batching."""

    epochs: int = 200
    batch_size: int = 128
    lr_initial: float = 0.1
    lr_final: float = 1e-4
    momentum: float = 0.9
    weight_decay: float = 5e-5
    seed: int = 0
    view_noise: float = 0.1
    val_fraction: float = 0.2
    use_cgc: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise InputError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise InputError(f"batch_size must be >= 2, got {self.batch_size}")
        if not self.lr_initial > self.lr_final > 0 and not (
            self.lr_initial == 0 and self.lr_final == 0
        ):
            raise InputError(
                f"need lr_initial > lr_final > 0 (or both zero), got "
                f"{self.lr_initial} and {self.lr_final}"
            )
        if not 0 <= self.val_fraction < 1:
            raise InputError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


@dataclass
class ModelConfig:
    """Encoder architecture knobs (projection defaults to 64 per level)."""

    hidden: tuple[int, ...] = (64, 64)
    proj_dim: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))


@dataclass
class RunRecord:
    """Per-epoch metrics, the final evaluation, the config snapshot, and
    wall-clock seconds (kept out of the per-epoch lines so that two
    identical runs serialize identically)."""

    epochs: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    wall_clock: float = 0.0


def cosine_lr(step: int, total: int, lr_initial: float, lr_final: float) -> float:
    """Half-cosine decay from lr_initial at step 0 to lr_final at total."""
    if total == 0:
        raise InputError("total step count must be positive")
    if not 0 <= step <= total:
        raise InputError(f"step {step} outside [0, {total}]")
    return lr_final + 0.5 * (lr_initial - lr_final) * (1.0 + math.cos(math.pi * step / total))


def curriculum_lambda(
    step: int, total: int, start: float = 1.0, end: float = 0.0, horizon: int | None = None
) -> float:
    """Linear decay of the hybrid-similarity coefficient: start at step
    0, end at ``horizon`` (the full run when None), flat afterwards."""
    span = total if horizon is None else horizon
    if span <= 0:
        return end
    frac = min(step / span, 1.0)
    return start + (end - start) * frac


def make_views(batch: np.ndarray, noise_scale: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Two independently perturbed copies of a feature batch: additive
    Gaussian noise, then each row rescaled back to its original norm.
    Scale 0 returns exact copies."""
    if noise_scale < 0:
        raise InputError(f"noise scale must be non-negative, got {noise_scale}")
    return _perturb(batch, noise_scale, rng), _perturb(batch, noise_scale, rng)


def _perturb(batch, scale, rng):
    if scale == 0.0:
        return batch.copy()
    noisy = batch + rng.standard_normal(batch.shape) * scale
    orig = np.linalg.norm(batch, axis=1, keepdims=True)
    new = np.linalg.norm(noisy, axis=1, keepdims=True)
    safe = np.where(new == 0, 1.0, new)
    return noisy * (orig / safe)


class CyclingSampler:
    """Draws fixed-size index batches from a pool, reshuffling each time
    the pool is exhausted; deterministic given its rng."""

    def __init__(self, indices: np.ndarray, rng):
        self.indices = np.asarray(indices, dtype=np.int64)
        self.rng = rng
        self._order = self.rng.permutation(self.indices.size)
        self._cursor = 0

    def draw(self, count: int) -> np.ndarray:
        if self.indices.size == 0:
            raise InputError("cannot draw from an empty pool")
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            if self._cursor == self._order.size:
                self._order = self.rng.permutation(self.indices.size)
                self._cursor = 0
            take = min(count - filled, self._order.size - self._cursor)
            out[filled : filled + take] = self.indices[
                self._order[self._cursor : self._cursor + take]
            ]
            self._cursor += take
            filled += take
        return out


def validation_split(labelled: np.ndarray, val_fraction: float, seed: int):
    """Reserve a deterministic fraction of the labelled indices as a
    held-out validation set; returns (train_labelled, validation)."""
    labelled = np.asarray(labelled, dtype=np.int64)
    rng = np.random.default_rng([seed, 0])
    order = rng.permutation(labelled.size)
    n_val = int(round(val_fraction * labelled.size))
    val = np.sort(labelled[order[:n_val]])
    train = np.sort(labelled[order[n_val:]])
    return train, val


def _level_labels(spec: HierarchySpec, fine_labels: np.ndarray) -> list[np.ndarray]:
    """Per-level labels projected from fine labels via the training
    hierarchy (so a deliberately wrong hierarchy supervises wrongly)."""
    return [level_map(spec, h)[fine_labels] for h in range(1, spec.levels + 1)]


def predict_levels(state: ModelState, features: np.ndarray, batch_size: int = 512):
    """Argmax class predictions at every level, plus raw cosine scores."""
    preds = [[] for _ in range(state.levels)]
    scores = [[] for _ in range(state.levels)]
    for start in range(0, features.shape[0], batch_size):
        trace = forward(state, features[start : start + batch_size])
        for lvl in range(state.levels):
            preds[lvl].append(np.argmax(trace.probs[lvl], axis=1))
            scores[lvl].append(trace.scores[lvl])
    return (
        [np.concatenate(p) for p in preds],
        [np.concatenate(s) for s in scores],
    )


def _refresh_transitions(state, features, transitions, tau_c, momentum):
    _, scores = predict_levels(state, features)
    logits = [s / state.tau for s in scores]
    fine_probs = L.consistency_probs(logits[-1], tau_c)
    return [
        update_transition(tm, L.consistency_probs(logits[tm.level - 1], tau_c), fine_probs, momentum)
        for tm in transitions
    ]


def train(
    dataset: Dataset,
    split: GcdSplit,
    spec: HierarchySpec,
    model_seed: int,
    train_cfg: TrainConfig,
    loss_cfg: LossConfig,
    model_cfg: ModelConfig | None = None,
) -> tuple[ModelState, RunRecord]:
    """Run the full single-stage loop and evaluate on the unlabelled set.

    ``spec`` is the hierarchy used for supervision and consistency (it
    may deliberately differ from the generating taxonomy, e.g. for the
    shuffled-hierarchy ablation, but class counts at the finest level
    must agree with the dataset labels).
    """
    model_cfg = model_cfg or ModelConfig()
    if spec.num_fine != dataset.spec.num_fine:
        raise InputError(
            f"training hierarchy has {spec.num_fine} fine classes, dataset has "
            f"{dataset.spec.num_fine}"
        )
    started = time.perf_counter()
    levels = spec.levels
    state = init_model(
        spec,
        in_dim=dataset.dim,
        hidden=model_cfg.hidden,
        proj_dim=model_cfg.proj_dim,
        tau=loss_cfg.tau,
        tau_sharp=loss_cfg.tau_sharp,
        seed=model_seed,
    )
    # transition matrices exist only when the consistency term reads them
    transitions = (
        [init_transition(spec, split.old_classes, h) for h in range(1, levels)]
        if train_cfg.use_cgc
        else []
    )

    train_lab, val_idx = validation_split(split.labelled, train_cfg.val_fraction, train_cfg.seed)
    unlab = split.unlabelled
    data_rng = np.random.default_rng([train_cfg.seed, 1])
    view_rng = np.random.default_rng([train_cfg.seed, 2])
    lab_sampler = CyclingSampler(train_lab, data_rng) if train_lab.size else None
    unlab_sampler = CyclingSampler(unlab, data_rng) if unlab.size else None
    if lab_sampler is None and unlab_sampler is None:
        raise InputError("split contains no samples")

    n_active = train_lab.size + unlab.size
    steps_per_epoch = max(1, math.ceil(n_active / train_cfg.batch_size))
    total_steps = steps_per_epoch * train_cfg.epochs
    fine_labels = dataset.fine_labels()
    per_level_labels = _level_labels(spec, np.maximum(fine_labels, 0))

    velocity = ParamGrads.zeros_like(state)
    record = RunRecord(
        config={
            "train": asdict(train_cfg),
            "loss": asdict(loss_cfg),
            "model": {"hidden": list(model_cfg.hidden), "proj_dim": model_cfg.proj_dim},
            "model_seed": model_seed,
            "hierarchy_counts": list(spec.counts),
        }
    )

    step = 0
    for epoch in range(train_cfg.epochs):
        sums: dict[str, float] = {}
        for _ in range(steps_per_epoch):
            lr = cosine_lr(step, total_steps, train_cfg.lr_initial, train_cfg.lr_final)
            lam_c = curriculum_lambda(
                step,
                total_steps,
                loss_cfg.curriculum_start,
                loss_cfg.curriculum_end,
                loss_cfg.curriculum_horizon,
            )
            idx, labelled_mask = _compose_batch(
                lab_sampler, unlab_sampler, train_cfg.batch_size
            )
            try:
                components = _train_step(
                    state,
                    dataset.features[idx],
                    labelled_mask,
                    [labs[idx] for labs in per_level_labels],
                    transitions,
                    train_cfg,
                    loss_cfg,
                    lam_c,
                    lr,
                    velocity,
                    view_rng,
                )
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, step {step}: {exc}") from exc
            for name, value in components.items():
                sums[name] = sums.get(name, 0.0) + value
            step += 1
        if transitions and unlab.size:
            transitions = _refresh_transitions(
                state,
                dataset.features[unlab],
                transitions,
                loss_cfg.tau_consistency,
                loss_cfg.transition_momentum,
            )
        entry = {
            "epoch": epoch,
            "lr": lr,
            "lambda_c": lam_c,
        }
        for name in sorted(sums):
            entry[name] = sums[name] / steps_per_epoch
        if val_idx.size:
            entry["val_acc"] = _validation_accuracy(state, dataset, spec, val_idx)
        record.epochs.append(entry)

    record.final = _final_metrics(state, dataset, spec, split, transitions)
    record.wall_clock = time.perf_counter() - started
    return state, record


def _compose_batch(lab_sampler, unlab_sampler, batch_size):
    """Half labelled, half unlabelled when both pools are non-empty."""
    if lab_sampler is None:
        idx = unlab_sampler.draw(batch_size)
        return idx, np.zeros(batch_size, dtype=bool)
    if unlab_sampler is None:
        idx = lab_sampler.draw(batch_size)
        return idx, np.ones(batch_size, dtype=bool)
    n_lab = batch_size // 2
    idx = np.concatenate([lab_sampler.draw(n_lab), unlab_sampler.draw(batch_size - n_lab)])
    mask = np.zeros(batch_size, dtype=bool)
    mask[:n_lab] = True
    return idx, mask


def _train_step(
    state,
    x,
    labelled_mask,
    batch_labels,
    transitions,
    train_cfg,
    loss_cfg,
    lam_c,
    lr,
    velocity,
    view_rng,
):
    """One optimizer step over a two-view batch; returns loss components."""
    levels = state.levels
    view_a, view_b = make_views(x, train_cfg.view_noise, view_rng)
    trace_a = forward(state, view_a)
    trace_b = forward(state, view_b)

    d_scores_a = [np.zeros_like(s) for s in trace_a.scores]
    d_scores_b = [np.zeros_like(s) for s in trace_b.scores]
    d_slices_a = [np.zeros_like(z) for z in trace_a.z_slices]
    d_slices_b = [np.zeros_like(z) for z in trace_b.z_slices]
    components: dict[str, float] = {}

    smoothness = loss_cfg.soft_smoothness
    # at smoothness 0 the soft targets are the identity, which is exactly
    # what soft_labels returns then, so no similarity is computed
    soft = np.eye(x.shape[0]) if smoothness == 0 else None
    sims: list[np.ndarray] = []
    cls_sum = hscl_sum = sup_sum = 0.0
    for h in range(levels):
        labels_h = batch_labels[h]
        pseudo_b = L.sharpen(trace_b.scores[h], state.tau_sharp)
        pseudo_a = L.sharpen(trace_a.scores[h], state.tau_sharp)
        loss_a, d_log_a = L.cls_loss(trace_a.probs[h], pseudo_b, labels_h, labelled_mask, loss_cfg)
        loss_b, d_log_b = L.cls_loss(trace_b.probs[h], pseudo_a, labels_h, labelled_mask, loss_cfg)
        cls_sum += 0.5 * (loss_a + loss_b)
        d_scores_a[h] += d_log_a / (2.0 * state.tau)
        d_scores_b[h] += d_log_b / (2.0 * state.tau)

        if smoothness:
            sims.append(L.similarity_matrix(trace_a.z_slices[h]))
            soft = L.soft_labels(L.fuse_hierarchy(sims), smoothness)
        hscl, dza, dzb = L.hscl_loss(trace_a.z_slices[h], trace_b.z_slices[h], soft, lam_c)
        hscl_sum += hscl
        weight_u = 1.0 - loss_cfg.balance
        d_slices_a[h] += weight_u * dza
        d_slices_b[h] += weight_u * dzb

        sup, dza, dzb = L.supcon_loss(
            trace_a.z_slices[h], trace_b.z_slices[h], labels_h, labelled_mask, loss_cfg.tau
        )
        sup_sum += sup
        d_slices_a[h] += loss_cfg.balance * dza
        d_slices_b[h] += loss_cfg.balance * dzb

    components["loss_cls"] = cls_sum
    components["loss_hscl"] = hscl_sum
    components["loss_supcon"] = sup_sum
    components["loss_rep"] = (1.0 - loss_cfg.balance) * hscl_sum + loss_cfg.balance * sup_sum

    cgc_value = 0.0
    if transitions:
        # consistency posteriors soften the classifier logits (scores / tau)
        # by tau_c, so the chain back to raw scores carries 1 / (tau * tau_c);
        # the term runs on view a and also trains the fine head through
        # the pseudo-coarse target
        tau_c = loss_cfg.tau_consistency
        probs_c = [L.consistency_probs(trace_a.logits[h], tau_c) for h in range(levels)]
        cgc_value, d_levels, d_fine = L.cgc_loss(
            probs_c[:-1], probs_c[-1], transitions, detach_target=False
        )
        for h, d in enumerate(d_levels):
            d_scores_a[h] += d / (state.tau * tau_c)
        d_scores_a[levels - 1] += d_fine / (state.tau * tau_c)
    components["loss_cgc"] = cgc_value

    components["loss_total"] = L.total_loss(
        {
            "rep": components["loss_rep"],
            "cls": components["loss_cls"],
            "cgc": components["loss_cgc"],
        }
    )

    grads = backward(state, trace_a, d_scores=d_scores_a, d_slices=d_slices_a)
    grads.add_(backward(state, trace_b, d_scores=d_scores_b, d_slices=d_slices_b))
    sgd_step(state, grads, velocity, lr, train_cfg.momentum, train_cfg.weight_decay)
    return components


def sgd_step(state, grads, velocity, lr, momentum, weight_decay):
    """Momentum SGD; weight decay applies to weight matrices only, and
    prototype rows are renormalized afterwards."""
    for w, g, v in zip(state.weights, grads.weights, velocity.weights):
        v *= momentum
        v += g + weight_decay * w
        w -= lr * v
    for b, g, v in zip(state.biases, grads.biases, velocity.biases):
        v *= momentum
        v += g
        b -= lr * v
    for p, g, v in zip(state.prototypes, grads.prototypes, velocity.prototypes):
        v *= momentum
        v += g
        p -= lr * v
    renormalize_prototypes(state)


def _validation_accuracy(state, dataset, spec, val_idx):
    preds, _ = predict_levels(state, dataset.features[val_idx])
    truth = _level_labels(spec, dataset.fine_labels()[val_idx])
    out = {}
    for h in range(1, spec.levels + 1):
        acc, _ = hungarian_acc(truth[h - 1], preds[h - 1], spec.counts[h - 1])
        out[str(h)] = acc
    return out


def _final_metrics(state, dataset, spec, split, transitions):
    """Unlabelled-set evaluation: per-level All/Old/New accuracy against
    the dataset's own labels plus prediction-consistency rates under the
    training hierarchy."""
    unlab = split.unlabelled
    if unlab.size == 0:
        return {"note": "no unlabelled samples"}
    preds, _ = predict_levels(state, dataset.features[unlab])
    if spec.counts == dataset.spec.counts:
        eval_spec = dataset.spec
        truth, pred = dataset.labels[unlab], np.stack(preds, axis=1)
    else:
        # other level counts: score the fine column alone, under the
        # training hierarchy's finest-level key
        eval_spec = HierarchySpec(counts=(spec.num_fine,))
        truth, pred = dataset.fine_labels()[unlab][:, None], preds[-1][:, None]
    reports = evaluate_predictions(truth, pred, eval_spec, split.old_classes)
    shift = spec.levels - eval_spec.levels
    out: dict = {"levels": {str(h + shift): r.as_dict() for h, r in reports.items()}}
    fine_report = out["levels"][str(spec.levels)]
    out["all"] = fine_report["all"]
    out["old"] = fine_report["old"]
    out["new"] = fine_report["new"]
    # prediction coherence is measured against the hierarchy that was taught
    out["consistency"] = {
        str(h): r for h, r in consistency_rate(preds[-1], preds[:-1], spec).items()
    }
    fine_report["consistency"] = out["consistency"]
    out["transition_row_sums_ok"] = all(
        bool(np.all(np.abs(tm.entries.sum(axis=1) - 1.0) <= 1e-9)) for tm in transitions
    )
    return out
