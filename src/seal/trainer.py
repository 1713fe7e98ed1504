"""Single-stage training loop: cosine learning rate and linear curriculum
schedules, per-epoch transition-matrix refinement, and run records. Each
step composes a batch, makes two views, calls ``objective`` (the one
place the loss terms and their gradient scales are combined) and applies
momentum SGD with ``sgd_step``.

Randomness is split into three deterministic streams derived from the
run seed: [seed, 0] for the validation carve-out, [seed, 1] for batch
composition, [seed, 2] for view noise. Identical seeds and configs give
identical runs with one BLAS thread; predict_levels' thread split moves
no bit.
"""

from __future__ import annotations

import contextvars
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from . import losses as L
from .datagen import Dataset, GcdSplit
from .errors import InputError, NumericError
from .evaluation import evaluate_known, hungarian_acc
from .hierarchy import HierarchySpec, init_transition, update_transition
from .losses import LossConfig
from .model import (
    ModelState,
    backward,
    empty_trace,
    forward,
    init_model,
    parameters,
    renormalize_prototypes,
    softmax,
)

# rows per forward pass in predict_levels; the bits of the scores depend
# on it (batches of 256, 1024 or 2048 each change hundreds to thousands
# of the seal arm's scores), so every caller scores at this size
PREDICT_BATCH = 512


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
        if not 0 <= self.momentum < 1:
            raise InputError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise InputError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if not self.view_noise >= 0:
            raise InputError(f"view_noise must be non-negative, got {self.view_noise}")


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


def predict_levels(state: ModelState, features: np.ndarray):
    """Argmax class predictions at every level, taken of the raw cosine
    scores (softmax(scores / tau) keeps their order), plus those scores.

    One forward pass per batch of PREDICT_BATCH rows. Batch i goes to
    thread i mod T, where T is the smaller of 2, the CPUs this process
    may run on and the batch count: the calling thread and, when T is 2,
    one worker that lives for this call only. Each thread overwrites its
    own trace, both made here before the worker starts, so a call
    allocates T traces however many rows it scores. Every batch runs the
    same pass on the same rows into its own rows of the results, so the
    bits do not depend on T. The results go to arrays made once per
    call, which the caller owns. A NumericError from either thread
    propagates as raised.
    """
    n = features.shape[0]
    if n == 0:
        raise InputError("no rows to predict")
    preds = [np.empty(n, dtype=np.intp) for _ in range(state.levels)]
    scores = [np.empty((n, protos.shape[0])) for protos in state.prototypes]
    starts = range(0, n, PREDICT_BATCH)
    threads = min(2, _usable_cpus(), len(starts))
    # a thread's first batch is its largest, so its trace fits the rest
    traces = [empty_trace(state, features[s : s + PREDICT_BATCH]) for s in starts[:threads]]

    def score_share(share):
        for start in starts[share::threads]:
            batch = features[start : start + PREDICT_BATCH]
            # a shorter last batch runs in the leading rows of the trace
            trace = forward(state, batch, out=traces[share].head(batch.shape[0]))
            rows = slice(start, start + batch.shape[0])
            for lvl in range(state.levels):
                np.argmax(trace.scores[lvl], axis=1, out=preds[lvl][rows])
                scores[lvl][rows] = trace.scores[lvl]

    if threads == 1:
        score_share(0)
    else:
        with ThreadPoolExecutor(max_workers=1) as pool:
            # the worker runs in a copy of this thread's context, so numpy's
            # error state is the caller's in both shares
            worker = pool.submit(contextvars.copy_context().run, score_share, 1)
            score_share(0)
            worker.result()
    return preds, scores


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
    # the training hierarchy's ancestors: a deliberately wrong one supervises wrongly
    per_level_labels = spec.ancestors[np.maximum(fine_labels, 0)].T

    velocity = [np.zeros_like(p) for p in parameters(state)]
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
                step, total_steps, loss_cfg.curriculum_start, loss_cfg.curriculum_end,
                loss_cfg.curriculum_horizon,
            )
            idx, labelled_mask = _compose_batch(lab_sampler, unlab_sampler, train_cfg.batch_size)
            view_a, view_b = make_views(dataset.features[idx], train_cfg.view_noise, view_rng)
            try:
                components, grads = objective(
                    state, view_a, view_b, labelled_mask,
                    [labs[idx] for labs in per_level_labels], transitions, loss_cfg, lam_c,
                )
            except NumericError as exc:
                raise NumericError(f"epoch {epoch}, step {step}: {exc}") from exc
            sgd_step(state, grads, velocity, lr, train_cfg.momentum, train_cfg.weight_decay)
            for name, value in components.items():
                sums[name] = sums.get(name, 0.0) + value
            step += 1
        if transitions and unlab.size:
            transitions = _refresh_transitions(
                state, dataset.features[unlab], transitions,
                loss_cfg.tau_consistency, loss_cfg.transition_momentum,
            )
        entry = {"epoch": epoch, "lr": lr, "lambda_c": lam_c}
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


def objective(state, view_a, view_b, labelled_mask, batch_labels, transitions, loss_cfg, lam_c):
    """The summed training loss of a two-view batch and its gradient.

    The one place the loss terms and their gradient scales are combined,
    and where the heads' cosine scores meet all three temperatures: per
    level, the classification term on softmax(scores / tau) against the
    other view's pseudo-labels at tau_sharp, averaged over the two views,
    and the soft contrastive and supervised contrastive terms mixed by
    ``balance``; then, with transition matrices, the consistency term on
    view a at tau * tau_c. Returns the ``loss_*`` components and the
    gradient of ``loss_total``, a list in ``parameters`` order.
    Pseudo-labels, soft targets and the coarse heads' finer slices are
    constants, as the gradient controller makes them.
    """
    trace_a = forward(state, view_a)
    trace_b = forward(state, view_b)
    balance, smoothness = loss_cfg.balance, loss_cfg.soft_smoothness
    # at smoothness 0 the soft targets are the identity, which is exactly
    # what soft_labels returns then, so no similarity is computed
    soft = np.eye(view_a.shape[0]) if smoothness == 0 else None
    sims: list[np.ndarray] = []
    logits_a: list[np.ndarray] = []
    d_scores_a, d_scores_b, d_slices_a, d_slices_b = [], [], [], []
    cls_sum = hscl_sum = sup_sum = 0.0
    for h, labels_h in enumerate(batch_labels):
        za, zb = trace_a.z_slices[h], trace_b.z_slices[h]
        pseudo_b = L.sharpen(trace_b.scores[h], state.tau_sharp)
        pseudo_a = L.sharpen(trace_a.scores[h], state.tau_sharp)
        # the classifier logits; the consistency term reads view a's again
        logits_a.append(trace_a.scores[h] / state.tau)
        probs_a, probs_b = softmax(logits_a[h]), softmax(trace_b.scores[h] / state.tau)
        loss_a, d_log_a = L.cls_loss(probs_a, pseudo_b, labels_h, labelled_mask, loss_cfg)
        loss_b, d_log_b = L.cls_loss(probs_b, pseudo_a, labels_h, labelled_mask, loss_cfg)
        cls_sum += 0.5 * (loss_a + loss_b)
        # the two views are averaged, and the logits are scores / tau
        d_scores_a.append(d_log_a / (2.0 * state.tau))
        d_scores_b.append(d_log_b / (2.0 * state.tau))

        if smoothness:
            sims.append(L.similarity_matrix(za))
            soft = L.soft_labels(L.fuse_hierarchy(sims), smoothness)
        hscl, d_hscl_a, d_hscl_b = L.hscl_loss(za, zb, soft, lam_c)
        sup, d_sup_a, d_sup_b = L.supcon_loss(za, zb, labels_h, labelled_mask, loss_cfg.tau)
        hscl_sum += hscl
        sup_sum += sup
        d_slices_a.append((1.0 - balance) * d_hscl_a + balance * d_sup_a)
        d_slices_b.append((1.0 - balance) * d_hscl_b + balance * d_sup_b)
    rep = (1.0 - balance) * hscl_sum + balance * sup_sum

    cgc_value = 0.0
    if transitions:
        # consistency posteriors soften the classifier logits by tau_c, so
        # the chain back to raw scores carries 1 / (tau * tau_c); the term
        # runs on view a and also trains the fine head through the
        # pseudo-coarse target
        tau_c = loss_cfg.tau_consistency
        probs_c = [L.consistency_probs(logits, tau_c) for logits in logits_a]
        cgc_value, d_levels, d_fine = L.cgc_loss(probs_c[:-1], probs_c[-1], transitions)
        d_scores_a = [
            d_cls + d / (state.tau * tau_c) for d_cls, d in zip(d_scores_a, d_levels + [d_fine])
        ]

    components = {
        "loss_cls": cls_sum, "loss_hscl": hscl_sum, "loss_supcon": sup_sum, "loss_rep": rep,
        "loss_cgc": cgc_value,
        "loss_total": L.total_loss({"rep": rep, "cls": cls_sum, "cgc": cgc_value}),
    }
    grads = backward(state, trace_a, d_scores=d_scores_a, d_slices=d_slices_a)
    grads_b = backward(state, trace_b, d_scores=d_scores_b, d_slices=d_slices_b)
    for g, g_b in zip(grads, grads_b):
        g += g_b
    return components, grads


def sgd_step(state, grads, velocity, lr, momentum, weight_decay):
    """Momentum SGD over ``parameters``, whose order ``grads`` and
    ``velocity`` share; weight decay applies to the weight matrices only,
    which come first, and prototype rows are renormalized afterwards."""
    n_weights = len(state.weights)
    for i, (p, g, v) in enumerate(zip(parameters(state), grads, velocity)):
        v *= momentum
        v += (g + weight_decay * p) if i < n_weights else g
        p -= lr * v
    renormalize_prototypes(state)


def _validation_accuracy(state, dataset, spec, val_idx):
    preds, _ = predict_levels(state, dataset.features[val_idx])
    truth = spec.ancestors[dataset.fine_labels()[val_idx]]
    out = {}
    for h in range(1, spec.levels + 1):
        acc, _ = hungarian_acc(truth[:, h - 1], preds[h - 1], spec.counts[h - 1])
        out[str(h)] = acc
    return out


def _final_metrics(state, dataset, spec, split, transitions):
    """Unlabelled-set evaluation under ``evaluation.evaluate_known``, the
    dataset's own hierarchy giving the truth and the training hierarchy
    the consistency, plus whether every transition row sums to one."""
    unlab = split.unlabelled
    if unlab.size == 0:
        return {"note": "no unlabelled samples"}
    preds, _ = predict_levels(state, dataset.features[unlab])
    out = evaluate_known(dataset.fine_labels()[unlab], preds, spec, dataset.spec, split.old_classes)
    out["transition_row_sums_ok"] = all(
        bool(np.all(np.abs(tm.entries.sum(axis=1) - 1.0) <= 1e-9)) for tm in transitions
    )
    return out
