"""Semantic taxonomies and dynamic fine-to-coarse transition matrices.

A hierarchy has H levels ordered coarse to fine; level H is the target
granularity. Class counts are ``counts = (n_1, ..., n_H)`` and each
``parent_maps[i]`` sends a level-(i+2) class index to its level-(i+1)
parent; the spec walks them once into its ``ancestors`` table, which
every per-level label, label check and score indexes. Transition
matrices map fine-class posteriors to pseudo-coarse posteriors: rows of
known fine classes are frozen one-hot at the true parent, rows of novel
classes start uniform and drift toward the mean coarse posterior of the
samples currently predicted as that class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, InputError, read_json, type_ok

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HierarchySpec:
    """An H-level taxonomy: per-level class counts plus parent maps.

    counts are coarse to fine and non-decreasing; parent_maps[i] is an
    integer array of length counts[i+1] mapping level-(i+2) classes to
    level-(i+1) classes. Every parent must have at least one child.
    Optional per-level class names are carried for reporting only.
    ``ancestors`` is the (n_H, H) int64 table built from the parent maps:
    column h - 1 holds each fine class's level-h ancestor, the last column
    the fine classes themselves. The spec holds both read-only, and a
    pickle or copy rebuilds it through the checks. Specs compare by
    identity.
    """

    counts: tuple[int, ...]
    parent_maps: tuple[np.ndarray, ...] = ()
    names: tuple[tuple[str, ...], ...] | None = None
    ancestors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        object.__setattr__(self, "counts", counts)
        if not counts or any(c < 1 for c in counts):
            raise InputError(f"class counts must be positive, got {counts}")
        if any(a > b for a, b in zip(counts, counts[1:])):
            raise InputError(f"class counts must be non-decreasing coarse to fine, got {counts}")
        maps = tuple(np.array(m, dtype=np.int64) for m in self.parent_maps)
        object.__setattr__(self, "parent_maps", maps)
        if len(maps) != len(counts) - 1:
            raise InputError(
                f"expected {len(counts) - 1} parent maps for {len(counts)} levels, got {len(maps)}"
            )
        for i, m in enumerate(maps):
            child_count, parent_count = counts[i + 1], counts[i]
            if m.shape != (child_count,):
                raise InputError(
                    f"parent map {i} has shape {m.shape}, expected ({child_count},)"
                )
            if m.min(initial=0) < 0 or m.max(initial=0) >= parent_count:
                raise InputError(f"parent map {i} has entries outside [0, {parent_count})")
            if np.unique(m).size != parent_count:
                raise InputError(f"parent map {i} is not surjective onto {parent_count} parents")
        columns = [np.arange(counts[-1], dtype=np.int64)]
        for m in reversed(maps):
            columns.insert(0, m[columns[0]])
        ancestors = np.stack(columns, axis=1)
        for table in (*maps, ancestors):  # the table is built once from these copies
            table.flags.writeable = False
        object.__setattr__(self, "ancestors", ancestors)

    def __reduce__(self):
        return HierarchySpec, (self.counts, self.parent_maps, self.names)

    @property
    def levels(self) -> int:
        return len(self.counts)

    @property
    def num_fine(self) -> int:
        return self.counts[-1]


def level_map(spec: HierarchySpec, level: int) -> np.ndarray:
    """The full fine-to-``level`` ancestor map as an array of length n_H."""
    if not 1 <= level <= spec.levels:
        raise InputError(f"level {level} outside [1, {spec.levels}]")
    return spec.ancestors[:, level - 1]


def balanced_hierarchy(counts) -> HierarchySpec:
    """Build a spec whose parent maps distribute children contiguously
    and as evenly as possible (child k of level h+1 gets parent
    floor(k * n_h / n_{h+1}))."""
    counts = tuple(int(c) for c in counts)
    maps = []
    for parent_count, child_count in zip(counts, counts[1:]):
        children = np.arange(child_count, dtype=np.int64)
        maps.append((children * parent_count) // child_count)
    return HierarchySpec(counts=counts, parent_maps=tuple(maps))


def shuffled_hierarchy(counts, seed: int) -> HierarchySpec:
    """A spec with the same level counts but random surjective parent
    maps: the shape of a taxonomy with none of its semantics (the
    wrong-hierarchy ablation)."""
    counts = tuple(int(c) for c in counts)
    rng = np.random.default_rng(seed)
    maps = []
    for parent_count, child_count in zip(counts, counts[1:]):
        m = np.concatenate(
            [np.arange(parent_count), rng.integers(0, parent_count, child_count - parent_count)]
        )
        rng.shuffle(m)
        maps.append(m)
    return HierarchySpec(counts=counts, parent_maps=tuple(maps))


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic n_H x n_h map from fine posteriors to pseudo-coarse
    posteriors at ``level``. Rows listed in ``known`` are frozen one-hot."""

    level: int
    entries: np.ndarray
    known: frozenset[int] = frozenset()

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "known", frozenset(int(k) for k in self.known))
        if entries.ndim != 2:
            raise InputError("transition entries must be a 2-D matrix")
        if np.any(entries < 0):
            raise InputError("transition entries must be non-negative")
        row_sums = entries.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            worst = int(np.argmax(np.abs(row_sums - 1.0)))
            raise InputError(f"transition row {worst} sums to {row_sums[worst]!r}, not 1")
        if self.known and max(self.known) >= entries.shape[0]:
            raise InputError("known class index outside the fine-class range")

    @property
    def n_fine(self) -> int:
        return self.entries.shape[0]

    @property
    def n_coarse(self) -> int:
        return self.entries.shape[1]


def init_transition(spec: HierarchySpec, known_classes, level: int) -> TransitionMatrix:
    """Uniform rows for novel fine classes, one-hot rows at the true
    ancestor for known ones. ``level`` must be strictly coarser than H."""
    if not 1 <= level < spec.levels:
        raise InputError(
            f"transition level must be in [1, {spec.levels}), got {level}"
        )
    known = frozenset(int(k) for k in known_classes)
    if known and (min(known) < 0 or max(known) >= spec.num_fine):
        raise InputError("known class index outside the fine-class range")
    n_fine, n_coarse = spec.num_fine, spec.counts[level - 1]
    entries = np.full((n_fine, n_coarse), 1.0 / n_coarse, dtype=np.float64)
    ancestors = level_map(spec, level)
    for k in known:
        entries[k] = 0.0
        entries[k, ancestors[k]] = 1.0
    return TransitionMatrix(level=level, entries=entries, known=known)


def update_transition(
    matrix: TransitionMatrix,
    coarse_probs: np.ndarray,
    fine_probs: np.ndarray,
    momentum: float,
) -> TransitionMatrix:
    """One dynamic-update pass over a set of samples.

    For each novel fine class k with at least one sample whose fine
    posterior argmax is k (ties resolve to the lowest class index), the
    row moves to ``momentum * row + (1 - momentum) * mean coarse
    posterior of those samples`` and is re-normalized. Known rows and
    novel rows with no predicted samples are returned unchanged.
    """
    if not 0.0 <= momentum <= 1.0:
        raise InputError(f"momentum must be in [0, 1], got {momentum}")
    if coarse_probs.ndim != 2 or fine_probs.ndim != 2:
        raise InputError("posteriors must be 2-D (samples x classes)")
    if coarse_probs.shape[0] != fine_probs.shape[0]:
        raise InputError(
            f"posterior sample counts differ: {coarse_probs.shape[0]} vs {fine_probs.shape[0]}"
        )
    if coarse_probs.shape[1] != matrix.n_coarse or fine_probs.shape[1] != matrix.n_fine:
        raise InputError(
            f"posterior widths {coarse_probs.shape[1]}x{fine_probs.shape[1]} do not match "
            f"transition shape {matrix.n_fine}x{matrix.n_coarse}"
        )
    entries = matrix.entries.copy()
    predicted = np.argmax(fine_probs, axis=1)
    for k in range(matrix.n_fine):
        if k in matrix.known:
            continue
        mask = predicted == k
        if not mask.any():
            continue
        avg = coarse_probs[mask].mean(axis=0)
        row = momentum * entries[k] + (1.0 - momentum) * avg
        entries[k] = row / row.sum()
    return TransitionMatrix(level=matrix.level, entries=entries, known=matrix.known)


def load_hierarchy(path) -> tuple[HierarchySpec, frozenset[int]]:
    """Read a hierarchy JSON file; returns (spec, known fine classes).

    Schema: {"counts": [n_1..n_H], "parents": [[level-2 map], ...,
    [level-H map]], "known": [fine indices], "names": optional}.
    """
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict) or "counts" not in doc:
        raise DataFormatError(f"{path}: missing required key 'counts'")
    counts, parents = doc["counts"], doc.get("parents", [])
    known, names = doc.get("known", []), doc.get("names")
    for key, value, expected, kind in (
        ("counts", counts, list[int], "a list of integers"),
        ("parents", parents, list[list[int]], "a list of integer lists"),
        ("known", known, list[int], "a list of integers"),
        ("names", names, list[list[str]] | None, "a list of string lists"),
    ):
        if not type_ok(value, expected):
            raise DataFormatError(f"{path}: {key!r} must be {kind}")
    if names is not None:
        names = tuple(tuple(lvl) for lvl in names)
        if tuple(len(lvl) for lvl in names) != tuple(counts):
            raise DataFormatError(f"{path}: 'names' lengths do not match 'counts'")
    try:
        spec = HierarchySpec(
            counts=tuple(counts), parent_maps=tuple(parents), names=names
        )
    except (InputError, OverflowError) as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    known = frozenset(known)
    if known and (min(known) < 0 or max(known) >= spec.num_fine):
        raise DataFormatError(f"{path}: 'known' index outside [0, {spec.num_fine})")
    return spec, known


def save_hierarchy(path, spec: HierarchySpec, known=frozenset()) -> None:
    """Write the hierarchy JSON file described in load_hierarchy."""
    doc = {
        "counts": list(spec.counts),
        "parents": [m.tolist() for m in spec.parent_maps],
        "known": sorted(int(k) for k in known),
    }
    if spec.names is not None:
        doc["names"] = [list(lvl) for lvl in spec.names]
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
