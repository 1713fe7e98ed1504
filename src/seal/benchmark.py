"""The frozen desk-scale benchmark and its comparison arms.

One dataset recipe (three levels, 24 fine classes, 12 known) and four
training arms: the full hierarchical objective, the single-level
baseline, the shuffled-hierarchy ablation, and the no-consistency
ablation. The configuration was calibrated once against the frozen
generator and is committed here; the acceptance experiments and the
demo scripts run these arms verbatim.

Two desk-scale calibrations differ deliberately from the scales a
200-class image benchmark would use (see the repository notes): the
soft-label smoothness is small because a 128-sample batch over 24
classes carries roughly forty times more positive similarity mass per
row than one drawn from 200 classes, and the consistency distillation
back-propagates into the fine head, which is what transfers coarse
supervision to the unlabelled fine classes when the encoder is trained
from scratch.
"""

from __future__ import annotations

from .datagen import Dataset, GcdSplit, generate_synthetic, make_gcd_split
from .errors import InputError
from .hierarchy import HierarchySpec, balanced_hierarchy, shuffled_hierarchy
from .losses import LossConfig
from .trainer import ModelConfig, RunRecord, TrainConfig, train

BENCHMARK_COUNTS = (4, 12, 24)
BENCHMARK_PER_CLASS = 100
BENCHMARK_DIM = 32
BENCHMARK_SPREADS = (10.0, 4.0, 1.0, 1.2)
BENCHMARK_DATA_SEED = 0
BENCHMARK_SPLIT_SEED = 0
BENCHMARK_EPOCHS = 150
BENCHMARK_PROJ_DIM = 192
BENCHMARK_SOFT_SMOOTHNESS = 0.001
SHUFFLED_HIERARCHY_SEED = 999

ARMS = ("seal", "baseline", "seal_shuffled_hierarchy", "seal_no_cgc")


def benchmark_dataset() -> tuple[HierarchySpec, Dataset, GcdSplit]:
    """The frozen dataset: 4/12/24 classes, 100 samples each, dim 32,
    half the fine classes known, half of their samples labelled."""
    spec = balanced_hierarchy(BENCHMARK_COUNTS)
    dataset = generate_synthetic(
        spec,
        per_class=BENCHMARK_PER_CLASS,
        dim=BENCHMARK_DIM,
        spreads=BENCHMARK_SPREADS,
        seed=BENCHMARK_DATA_SEED,
    )
    split = make_gcd_split(
        dataset, old_fraction=0.5, labelled_fraction=0.5, seed=BENCHMARK_SPLIT_SEED
    )
    return spec, dataset, split


def arm_configs(arm: str, seed: int, epochs: int | None = None):
    """The (hierarchy, TrainConfig, LossConfig, ModelConfig) of one arm."""
    if arm not in ARMS:
        raise InputError(f"unknown benchmark arm {arm!r}; have {ARMS}")
    epochs = BENCHMARK_EPOCHS if epochs is None else epochs
    train_cfg = TrainConfig(
        epochs=epochs,
        batch_size=128,
        seed=seed,
        view_noise=0.1,
        use_cgc=arm in ("seal", "seal_shuffled_hierarchy"),
    )
    loss_cfg = LossConfig(
        soft_smoothness=0.0 if arm == "baseline" else BENCHMARK_SOFT_SMOOTHNESS,
    )
    model_cfg = ModelConfig(hidden=(64, 64), proj_dim=BENCHMARK_PROJ_DIM)
    if arm == "baseline":
        hierarchy = HierarchySpec(counts=(BENCHMARK_COUNTS[-1],))
    elif arm == "seal_shuffled_hierarchy":
        hierarchy = shuffled_hierarchy(BENCHMARK_COUNTS, SHUFFLED_HIERARCHY_SEED)
    else:
        hierarchy = balanced_hierarchy(BENCHMARK_COUNTS)
    return hierarchy, train_cfg, loss_cfg, model_cfg


def run_arm(arm: str, seed: int, epochs: int | None = None) -> tuple[dict, RunRecord]:
    """Train one arm at one seed on the frozen dataset; returns (final
    metrics, full record)."""
    _, dataset, split = benchmark_dataset()
    hierarchy, train_cfg, loss_cfg, model_cfg = arm_configs(arm, seed, epochs)
    _, record = train(dataset, split, hierarchy, seed, train_cfg, loss_cfg, model_cfg)
    return record.final, record


def coarse_consistency(final: dict) -> float:
    """Agreement rate between the finest head's predictions (walked up
    the taxonomy) and the coarsest head's predictions."""
    rates = final.get("consistency", {})
    return rates.get("1", 0.0)


def mean_consistency(final: dict) -> float:
    """Average consistency across all coarse levels (diagnostic)."""
    rates = final.get("consistency", {})
    if not rates:
        return 0.0
    return sum(rates.values()) / len(rates)
