"""Synthetic hierarchical datasets, embedding-file I/O, and GCD splits.

Synthetic features come from a tree-structured Gaussian mixture: level-1
centroids sit on a sphere, each child centroid is its parent plus a
Gaussian offset, and samples are leaf centroids plus noise. Real
precomputed embeddings can be loaded from a headered CSV instead, whose
body is parsed in one numpy pass; either way the GCD protocol then
partitions samples into a labelled set drawn from the known ("old")
classes and an unlabelled remainder.
"""

from __future__ import annotations

import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, InputError
from .hierarchy import HierarchySpec

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
        finite = np.isfinite(features).all(axis=1)
        if not finite.all():
            raise InputError(f"row {int(np.argmin(finite))}: non-finite feature value")
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


def _check_label_consistency(labels: np.ndarray, spec: HierarchySpec) -> None:
    """Every label lies in [0, count) of its level or is -1 (unknown), and
    every known coarse label is the ancestor of the row's known fine
    label. The first bad row in order is named, with its column."""
    counts = np.asarray(spec.counts)
    bad = (labels < -1) | (labels >= counts)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise InputError(
            f"row {row}: level_{col + 1} label {labels[row, col]} outside [0, {counts[col]})"
        )
    fine = labels[:, -1]
    ancestors = spec.ancestors[np.maximum(fine, 0)]
    mismatch = (fine[:, None] >= 0) & (labels >= 0) & (labels != ancestors)
    if mismatch.any():
        row, col = np.argwhere(mismatch)[0]
        raise InputError(
            f"row {row}: level_{col + 1} label {labels[row, col]} is not the ancestor "
            f"{ancestors[row, col]} of fine label {fine[row]}"
        )


@dataclass(frozen=True, eq=False)
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

    features = []
    for k in range(n_fine):
        noise = rng.standard_normal((class_sizes[k], dim)) * spreads[-1]
        features.append(centroids[k] + noise)
    labels = spec.ancestors[np.repeat(np.arange(n_fine), class_sizes)]
    return Dataset(np.concatenate(features), labels, spec)


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


def save_features_csv(path, dataset: Dataset) -> None:
    """Write the headered feature CSV: id, level_1..level_H, f0..f{d-1},
    the id being the row number. Every value is written as the repr of
    its Python int or float, comma-separated, with "\\r\\n" line ends:
    the bytes csv.writer gives for the same rows.
    """
    spec = dataset.spec
    header = (
        ["id"]
        + [f"level_{h}" for h in range(1, spec.levels + 1)]
        + [f"f{j}" for j in range(dataset.dim)]
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(len(dataset)):
            fields = [i, *dataset.labels[i].tolist(), *dataset.features[i].tolist()]
            fh.write(",".join(map(repr, fields)) + "\r\n")


# how a CSV is split into fields: '#' is data, not a comment, and a field
# may be quoted
_CSV_FIELDS = {"delimiter": ",", "comments": None, "quotechar": '"'}


def _fields(line: str) -> list[str]:
    """The fields of one non-empty CSV line, split as the bulk parse
    splits them."""
    return np.loadtxt([line], dtype=object, ndmin=1, **_CSV_FIELDS).tolist()


def _read_csv(path: Path, row_dtype) -> tuple[list[str], np.ndarray]:
    """A UTF-8 CSV's header and body. row_dtype(header) checks the
    header (a DataFormatError if it is wrong) and gives the dtype of one
    row, a field per column, so every row must have the header's width.
    The body is parsed in one numpy pass; a body without rows is an empty
    table for the caller to name."""
    if not path.exists():
        raise DataFormatError(f"{path}: no such file")
    try:
        with open(path, encoding="utf-8") as fh:
            line = fh.readline().rstrip("\n")
            if not line:
                raise DataFormatError(f"{path}: no header on the first line")
            header = _fields(line)
            dtype = row_dtype(header)
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, dtype=dtype, ndmin=1, **_CSV_FIELDS)
    except DataFormatError:
        raise
    except ValueError as exc:  # numpy's parse errors and UnicodeDecodeError
        raise DataFormatError(f"{path}: {_first_bad_row(path, row_dtype) or exc}") from exc
    return header, table


def load_embeddings(features_path, hierarchy_path) -> tuple[HierarchySpec, Dataset]:
    """Read a feature CSV paired with its hierarchy JSON.

    The CSV is UTF-8 text with the header id, level_1..level_H (-1 for
    unknown), then the feature columns. The header is checked on its
    own; the body is then parsed in one numpy pass, each feature equal
    bit for bit to float() of its field. The id is free text and never
    parsed. '#' starts no comment, a field may be quoted, and empty
    lines are skipped. Every error is a DataFormatError naming the file;
    "row N" counts data rows from 0, the index into the returned
    Dataset. Row widths, label and feature values, finiteness, label
    range and parent consistency are all checked; a label the hierarchy
    refuses names the hierarchy file too.
    """
    from .hierarchy import load_hierarchy

    spec, _known = load_hierarchy(hierarchy_path)
    path = Path(features_path)
    expected = ["id"] + [f"level_{h}" for h in range(1, spec.levels + 1)]

    def row_dtype(header):
        # the id (zero-width, so never parsed), the labels, the features
        if header[: len(expected)] != expected:
            raise DataFormatError(
                f"{path}: header must start with {expected}, got {header[: len(expected)]}"
            )
        if len(header) == len(expected):
            raise DataFormatError(f"{path}: no feature columns after the label columns")
        dim = len(header) - len(expected)
        return np.dtype([
            ("id", "U0"), ("labels", np.int64, (spec.levels,)), ("features", np.float64, (dim,))
        ])

    _, table = _read_csv(path, row_dtype)
    if table.size == 0:
        raise DataFormatError(f"{path}: no data rows")
    features = np.ascontiguousarray(table["features"])
    try:
        return spec, Dataset(features, np.ascontiguousarray(table["labels"]), spec)
    except InputError as exc:  # the Dataset's own checks, named for the file
        # with every feature finite, a label check failed: it read the hierarchy too
        source = f" (hierarchy {hierarchy_path})" if np.isfinite(features).all() else ""
        raise DataFormatError(f"{path}: {exc}{source}") from exc


def load_labels(path, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Read the id and level_1..level_H columns of a CSV, wherever they
    stand in the header: (ids as text, (n, levels) int64 labels), in file
    order. Other columns are never parsed, so a feature CSV serves too.
    The file is split and checked as load_embeddings splits it, and
    every error is a DataFormatError naming the file.
    """
    path = Path(path)
    kinds = {"id": object, **{f"level_{h}": np.int64 for h in range(1, levels + 1)}}

    def row_dtype(header):
        # the id as text, the labels as integers, other columns zero-width
        if "id" not in header:
            raise DataFormatError(f"{path}: missing 'id' column")
        missing = [c for c in kinds if c not in header]
        if missing:
            raise DataFormatError(f"{path}: missing label columns {missing}")
        return np.dtype([(f"c{i}", kinds.get(name, "U0")) for i, name in enumerate(header)])

    header, table = _read_csv(path, row_dtype)
    if table.size == 0:
        raise DataFormatError(f"{path}: no label rows")
    ids, *labels = (table[f"c{header.index(name)}"] for name in kinds)
    return ids.astype(str), np.stack(labels, axis=1)


def _first_bad_row(path: Path, row_dtype) -> str | None:
    """Name what the bulk parse of a CSV refused, by parsing the file
    again line by line with the same rules. Used on the error path only:
    it returns a message, never data, and None when no single line fails
    on its own."""
    lines = path.read_bytes().splitlines()
    if not lines or not lines[0]:
        return None
    try:
        header = _fields(lines[0].decode("utf-8"))
    except UnicodeDecodeError as exc:
        return f"header is not UTF-8 text ({exc})"
    dtype = row_dtype(header)
    row = 0
    for line in lines[1:]:
        if not line:
            continue
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"row {row} is not UTF-8 text ({exc})"
        width = len(_fields(text))
        if width != len(header):
            return f"row {row} has {width} fields, expected {len(header)}"
        try:
            np.loadtxt([text], dtype=dtype, **_CSV_FIELDS)
        except ValueError as exc:
            # numpy calls the one line it was given row 0 and counts
            # columns from 1; name the column from the header instead
            return f"row {row}: " + re.sub(
                r" at row \d+, column (\d+)\.",
                lambda m: f" in column {header[int(m.group(1)) - 1]}",
                str(exc),
            )
        row += 1
    return None
