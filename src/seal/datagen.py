"""Synthetic hierarchical datasets, embedding-file I/O, and GCD splits.

Synthetic features come from a tree-structured Gaussian mixture: level-1
centroids sit on a sphere, each child centroid is its parent plus a
Gaussian offset, and samples are leaf centroids plus noise. Real
precomputed embeddings can be loaded from a headered CSV instead; either
way the GCD protocol then partitions samples into a labelled set drawn
from the known ("old") classes and an unlabelled remainder.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, InputError
from .hierarchy import HierarchySpec, level_map

# Default tree-mixture scales for the 3-level desk-scale benchmark
# (level-1 radius, level-2 offset, level-3 offset, sample noise). Sample
# noise exceeds the sibling offset so the finest level is genuinely hard
# without the coarse scaffolding; calibrated once, then frozen.
DEFAULT_SPREADS = (10.0, 4.0, 1.0, 1.2)


class Dataset:
    """Columnar container for N samples: features (N, d) float64 and
    labels (N, H) int64."""

    def __init__(self, features: np.ndarray, labels: np.ndarray, spec: HierarchySpec):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if features.ndim != 2:
            raise InputError("features must be 2-D (samples x dims)")
        if labels.shape != (features.shape[0], spec.levels):
            raise InputError(
                f"labels shape {labels.shape} does not match "
                f"({features.shape[0]}, {spec.levels})"
            )
        if not np.all(np.isfinite(features)):
            raise InputError("features contain non-finite values")
        _check_label_consistency(labels, spec)
        self.features = features
        self.labels = labels
        self.spec = spec

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def fine_labels(self) -> np.ndarray:
        return self.labels[:, -1]


def _check_label_consistency(labels: np.ndarray, spec: HierarchySpec, path=None) -> None:
    """Every known (non -1) coarse label must be the ancestor of the
    row's fine label; rows with unknown fine labels are checked only for
    range."""
    for h in range(1, spec.levels + 1):
        col = labels[:, h - 1]
        bad = (col < -1) | (col >= spec.counts[h - 1])
        if bad.any():
            row = int(np.argmax(bad))
            raise _format_or_input_error(
                path, f"row {row}: level_{h} label {labels[row, h - 1]} outside "
                f"[0, {spec.counts[h - 1]})"
            )
    fine = labels[:, -1]
    has_fine = fine >= 0
    for h in range(1, spec.levels):
        ancestors = level_map(spec, h)
        col = labels[:, h - 1]
        mismatch = has_fine & (col >= 0) & (col != ancestors[np.where(has_fine, fine, 0)])
        if mismatch.any():
            row = int(np.argmax(mismatch))
            raise _format_or_input_error(
                path,
                f"row {row}: level_{h} label {col[row]} is not the ancestor "
                f"{ancestors[fine[row]]} of fine label {fine[row]}",
            )


def _format_or_input_error(path, message):
    if path is not None:
        return DataFormatError(f"{path}: {message}")
    return InputError(message)


@dataclass(frozen=True)
class GcdSplit:
    """Index partition into labelled D_l and unlabelled D_u, with the
    known ("old") fine classes and the full class set."""

    labelled: np.ndarray
    unlabelled: np.ndarray
    old_classes: frozenset[int]
    all_classes: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "labelled", np.asarray(self.labelled, dtype=np.int64))
        object.__setattr__(self, "unlabelled", np.asarray(self.unlabelled, dtype=np.int64))
        object.__setattr__(self, "old_classes", frozenset(int(c) for c in self.old_classes))
        object.__setattr__(self, "all_classes", frozenset(int(c) for c in self.all_classes))
        if np.intersect1d(self.labelled, self.unlabelled).size:
            raise InputError("labelled and unlabelled index sets overlap")
        if not self.old_classes <= self.all_classes:
            raise InputError("old classes must be a subset of all classes")

    @property
    def new_classes(self) -> frozenset[int]:
        return self.all_classes - self.old_classes


def generate_synthetic(
    spec: HierarchySpec,
    per_class: int = 100,
    dim: int = 32,
    spreads: Sequence[float] | None = None,
    seed: int = 0,
    imbalance: float = 1.0,
) -> Dataset:
    """Draw a tree-structured Gaussian mixture dataset.

    spreads has H+1 entries: the level-1 centroid sphere radius, the
    offset scale for each finer level's child centroids, and finally the
    per-sample noise scale. Balanced class sizes by default; with
    imbalance r < 1 per-class counts decay geometrically from per_class
    down to r * per_class across fine classes (a long-tailed profile).
    Deterministic for a fixed seed.

    Centroids and per-sample noise come from one stream in a fixed
    order, so a draw with the same seed and a larger per_class repeats
    rows of the smaller draw: with balanced classes, class k row j of the
    larger draw equals class k row j + k * (larger - smaller) of the
    smaller one while that row exists (all of class 0's rows, for a
    start). Such a draw is not a held-out set until the shared rows are
    dropped.
    """
    if per_class < 1:
        raise InputError(f"per_class must be positive, got {per_class}")
    if dim < spec.levels:
        raise InputError(f"dim {dim} smaller than level count {spec.levels}")
    if spreads is None:
        spreads = DEFAULT_SPREADS if spec.levels == 3 else _auto_spreads(spec.levels)
    spreads = [float(s) for s in spreads]
    if len(spreads) != spec.levels + 1:
        raise InputError(
            f"expected {spec.levels + 1} spreads (levels + sample noise), got {len(spreads)}"
        )
    if any(s <= 0 for s in spreads[:-1]) or spreads[-1] < 0:
        raise InputError("spreads must be positive (sample noise may be zero)")
    if not 0 < imbalance <= 1:
        raise InputError(f"imbalance must be in (0, 1], got {imbalance}")

    rng = np.random.default_rng(seed)
    # level-1 centroids: uniform directions scaled to the sphere radius
    dirs = rng.standard_normal((spec.counts[0], dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    centroids = dirs * spreads[0]
    for h in range(2, spec.levels + 1):
        parents = spec.parent_maps[h - 2]
        offsets = rng.standard_normal((spec.counts[h - 1], dim)) * spreads[h - 1]
        centroids = centroids[parents] + offsets

    n_fine = spec.num_fine
    if imbalance == 1.0:
        class_sizes = np.full(n_fine, per_class, dtype=np.int64)
    else:
        ratios = imbalance ** (np.arange(n_fine) / max(n_fine - 1, 1))
        class_sizes = np.maximum(1, np.round(per_class * ratios)).astype(np.int64)

    ancestors = [level_map(spec, h) for h in range(1, spec.levels + 1)]
    features, labels = [], []
    for k in range(n_fine):
        noise = rng.standard_normal((class_sizes[k], dim)) * spreads[-1]
        features.append(centroids[k] + noise)
        row = np.array([anc[k] for anc in ancestors], dtype=np.int64)
        labels.append(np.tile(row, (class_sizes[k], 1)))
    return Dataset(np.concatenate(features), np.concatenate(labels), spec)


def _auto_spreads(levels: int):
    """Geometric spread profile for hierarchies without a tuned default."""
    scales = [10.0 * (0.4 ** h) for h in range(levels)]
    return scales + [scales[-1] * 0.55]


def make_gcd_split(
    dataset: Dataset,
    old_fraction: float = 0.5,
    labelled_fraction: float = 0.5,
    seed: int = 0,
    old_classes=None,
) -> GcdSplit:
    """Partition a dataset per the GCD protocol.

    floor(old_fraction * K) fine classes become the known set (or pass
    old_classes to pin them); labelled_fraction of each known class's
    samples form D_l and everything else is D_u. Deterministic per seed.
    """
    if not 0 < old_fraction <= 1 or not 0 < labelled_fraction <= 1:
        raise InputError("old_fraction and labelled_fraction must be in (0, 1]")
    spec = dataset.spec
    k_total = spec.num_fine
    rng = np.random.default_rng(seed)
    if old_classes is None:
        n_old = int(old_fraction * k_total)
        if n_old < 1:
            raise InputError(
                f"old_fraction {old_fraction} selects no classes out of {k_total}"
            )
        order = rng.permutation(k_total)
        old = frozenset(int(c) for c in order[:n_old])
    else:
        old = frozenset(int(c) for c in old_classes)
        if not old or min(old) < 0 or max(old) >= k_total:
            raise InputError("old_classes must be a non-empty subset of the fine classes")

    fine = dataset.fine_labels()
    labelled_idx = []
    for k in sorted(old):
        members = np.flatnonzero(fine == k)
        members = members[rng.permutation(members.size)]
        n_lab = int(round(labelled_fraction * members.size))
        labelled_idx.append(np.sort(members[:n_lab]))
    labelled = np.sort(np.concatenate(labelled_idx)) if labelled_idx else np.array([], dtype=np.int64)
    mask = np.ones(len(dataset), dtype=bool)
    mask[labelled] = False
    unlabelled = np.flatnonzero(mask)
    return GcdSplit(
        labelled=labelled,
        unlabelled=unlabelled,
        old_classes=old,
        all_classes=frozenset(int(c) for c in np.unique(fine[fine >= 0])) | old,
    )


def save_features_csv(path, dataset: Dataset, hide_labels_at=None, float32: bool = False) -> None:
    """Write the headered feature CSV: id, level_1..level_H, f0..f{d-1}.

    hide_labels_at: optional index array whose rows get -1 labels at all
    levels (the unlabelled-set convention). float32 truncates feature
    precision for smaller files.
    """
    spec = dataset.spec
    hidden = np.zeros(len(dataset), dtype=bool)
    if hide_labels_at is not None:
        hidden[np.asarray(hide_labels_at, dtype=np.int64)] = True
    feats = dataset.features.astype(np.float32) if float32 else dataset.features
    header = (
        ["id"]
        + [f"level_{h}" for h in range(1, spec.levels + 1)]
        + [f"f{j}" for j in range(dataset.dim)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(dataset)):
            labels = [-1] * spec.levels if hidden[i] else dataset.labels[i].tolist()
            writer.writerow([i] + labels + [repr(float(v)) for v in feats[i]])


def load_embeddings(features_path, hierarchy_path) -> tuple[HierarchySpec, Dataset]:
    """Read a feature CSV paired with its hierarchy JSON.

    The CSV must carry the header id, level_1..level_H (-1 for unknown),
    then the feature columns. Label values are validated against the
    hierarchy (range and parent consistency) with the offending row
    named on failure.
    """
    from .hierarchy import load_hierarchy

    spec, _known = load_hierarchy(hierarchy_path)
    path = Path(features_path)
    if not path.exists():
        raise DataFormatError(f"{path}: no such file")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        expected = ["id"] + [f"level_{h}" for h in range(1, spec.levels + 1)]
        if header[: len(expected)] != expected:
            raise DataFormatError(
                f"{path}: header must start with {expected}, got {header[: len(expected)]}"
            )
        dim = len(header) - len(expected)
        if dim < 1:
            raise DataFormatError(f"{path}: no feature columns after the label columns")
        labels, features = [], []
        for row_num, row in enumerate(reader):
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: row {row_num} has {len(row)} fields, expected {len(header)}"
                )
            try:
                labels.append([int(v) for v in row[1 : spec.levels + 1]])
                features.append([float(v) for v in row[spec.levels + 1 :]])
            except ValueError as exc:
                raise DataFormatError(f"{path}: row {row_num}: {exc}") from exc
    labels = np.asarray(labels, dtype=np.int64).reshape(len(labels), spec.levels)
    features = np.asarray(features, dtype=np.float64).reshape(len(labels), dim)
    if not np.all(np.isfinite(features)):
        row = int(np.argmax(~np.isfinite(features).all(axis=1)))
        raise DataFormatError(f"{path}: row {row}: non-finite feature value")
    _check_label_consistency(labels, spec, path=path)
    return spec, Dataset(features, labels, spec)
