"""Exact information-theoretic checks on small discrete distributions.

Verifies, by direct summation over dense probability tables, the three
facts motivating the hierarchical objective: the mutual-information
chain rule, the independence of the labelled and unlabelled blocks
under product sampling, and the bound pair showing that multi-level
labels tighten the single-level objective from both sides. Natural
logarithm throughout; 0 * log(0/q) is taken as 0. Tables are capped at
4**5 cells so exhaustive summation stays instant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import InputError

MASS_TOL = 1e-12
MAX_CELLS = 4 ** 5
# axis names the checks read: the representation Z of the supervised
# joint, the input X of the unsupervised one, and the labelled and
# unlabelled blocks of the independence lemma
Z_AXIS, X_AXIS = "Z", "X"
ZL_AXIS, YL_AXIS, ZU_AXIS, YU_AXIS = "Zl", "Yl", "Zu", "Yu"


@dataclass(frozen=True)
class DiscreteJoint:
    """A dense joint distribution over named finite axes."""

    axes: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "axes", tuple(self.axes))
        if table.ndim != len(self.axes):
            raise InputError(
                f"table has {table.ndim} dims but {len(self.axes)} axis names"
            )
        if len(set(self.axes)) != len(self.axes):
            raise InputError(f"duplicate axis names in {self.axes}")
        if table.size > MAX_CELLS:
            raise InputError(f"table with {table.size} cells exceeds the {MAX_CELLS} cap")
        if not np.isfinite(table).all():
            raise InputError("probability table has non-finite entries")
        if np.any(table < 0):
            raise InputError("probability table has negative entries")
        mass = table.sum()
        if abs(mass - 1.0) > MASS_TOL:
            raise InputError(f"probability table mass is {mass!r}, not 1")

    def axis_index(self, name: str) -> int:
        try:
            return self.axes.index(name)
        except ValueError:
            raise InputError(f"unknown axis {name!r}; have {self.axes}") from None

    def marginal(self, keep) -> np.ndarray:
        """Marginal table over the named axes, in the order given."""
        keep = tuple(keep)
        idx = [self.axis_index(a) for a in keep]
        drop = tuple(i for i in range(len(self.axes)) if i not in idx)
        out = self.table.sum(axis=drop) if drop else self.table
        # reorder remaining axes to the requested order
        remaining = [a for a in self.axes if a in keep]
        perm = [remaining.index(a) for a in keep]
        return np.transpose(out, perm)


def entropy(joint: DiscreteJoint, axes) -> float:
    """H of the marginal over the named axes (nats)."""
    p = joint.marginal(axes).ravel()
    return float(-xlogy(p, p).sum())


def mutual_information(joint: DiscreteJoint, a_axes, b_axes) -> float:
    """I(A;B): conditional_mi with nothing to condition on."""
    return conditional_mi(joint, a_axes, b_axes, ())


def conditional_mi(joint: DiscreteJoint, a_axes, b_axes, c_axes) -> float:
    """I(A;B | C) = sum p(a,b,c) log[p(a,b,c) p(c) / (p(a,c) p(b,c))].

    With C empty, p(c) is the mass of the whole table. Every reference
    mass sums cells that include p(a,b,c), so it is positive wherever
    p(a,b,c) is.
    """
    a_axes, b_axes, c_axes = tuple(a_axes), tuple(b_axes), tuple(c_axes)
    groups = [set(a_axes), set(b_axes), set(c_axes)]
    if groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2]:
        raise InputError("axis sets A, B, C must be pairwise disjoint")
    p = joint.marginal(a_axes + b_axes + c_axes)
    na = int(np.prod(p.shape[: len(a_axes)], initial=1))
    nb = int(np.prod(p.shape[len(a_axes) : len(a_axes) + len(b_axes)], initial=1))
    p = p.reshape(na, nb, -1)
    p_ac = p.sum(axis=1, keepdims=True)
    p_bc = p.sum(axis=0, keepdims=True)
    p_c = p.sum(axis=(0, 1), keepdims=True)
    value = xlogy(p, p).sum() + xlogy(p, p_c).sum() - xlogy(p, p_ac).sum() - xlogy(p, p_bc).sum()
    return float(value)


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality: lhs vs rhs with the direction verdict."""

    lhs: float
    rhs: float
    holds: bool

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs


def check_supervised_bound(joint: DiscreteJoint) -> BoundCheck:
    """Multi-level label information dominates the finest level alone:
    I(Z; Y_1..Y_H) >= I(Z; Y_H), the labels being every axis but Z in
    joint order. Returns both sides; holds is lhs >= rhs up to summation
    tolerance."""
    label_axes = tuple(a for a in joint.axes if a != Z_AXIS)
    if not label_axes:
        raise InputError("need at least one label axis")
    lhs = mutual_information(joint, (Z_AXIS,), label_axes)
    rhs = mutual_information(joint, (Z_AXIS,), (label_axes[-1],))
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs >= rhs - MASS_TOL)


def check_unsupervised_bound(joint: DiscreteJoint) -> BoundCheck:
    """Entropy-difference form of the same tightening on predictions:
    H(Yhat_1..H | X) - H(Yhat_1..H) <= -I(X; Yhat_H), the predictions
    being every axis but X in joint order."""
    pred_axes = tuple(a for a in joint.axes if a != X_AXIS)
    if not pred_axes:
        raise InputError("need at least one prediction axis")
    h_joint = entropy(joint, pred_axes)
    h_cond = entropy(joint, (X_AXIS,) + pred_axes) - entropy(joint, (X_AXIS,))
    lhs = h_cond - h_joint
    rhs = -mutual_information(joint, (X_AXIS,), (pred_axes[-1],))
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + MASS_TOL)


def check_combined_bound(
    sup_joint: DiscreteJoint,
    unsup_joint: DiscreteJoint,
    beta: float = 1.0,
) -> BoundCheck:
    """The assembled objective bound: the multi-level objective value is
    a lower (tighter) estimate than the single-level one,
    -I(Z;Y_1..H) + beta*[H(Yhat|X) - H(Yhat)] <= -I(Z;Y_H) + beta*[...H only].
    The two blocks may live on separate joints (labelled and unlabelled
    sampling are independent)."""
    if beta < 0:
        raise InputError(f"beta must be non-negative, got {beta}")
    sup = check_supervised_bound(sup_joint)
    unsup = check_unsupervised_bound(unsup_joint)
    lhs = -sup.lhs + beta * unsup.lhs
    rhs = -sup.rhs + beta * unsup.rhs
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + MASS_TOL)


def product_joint(block_a: DiscreteJoint, block_b: DiscreteJoint) -> DiscreteJoint:
    """The independent product p(a) * p(b) over the union of axes."""
    if set(block_a.axes) & set(block_b.axes):
        raise InputError("blocks share axis names; rename before taking the product")
    table = np.multiply.outer(block_a.table, block_b.table)
    return DiscreteJoint(axes=block_a.axes + block_b.axes, table=table)


@dataclass(frozen=True)
class IndependenceResiduals:
    """Conditional-MI residuals that vanish when the labelled and
    unlabelled blocks are sampled independently."""

    label_given_label: float  # I(Z_l ; Y_u | Y_l)
    feature_given_feature: float  # I(Y_l ; Z_u | Z_l)

    @property
    def max_residual(self) -> float:
        return max(abs(self.label_given_label), abs(self.feature_given_feature))


def check_independence_lemma(joint: DiscreteJoint) -> IndependenceResiduals:
    """Evaluate I(Z_l;Y_u|Y_l) and I(Y_l;Z_u|Z_l) on a joint with the
    axes Zl, Yl, Zu and Yu.

    Both are exactly 0 when the joint factors as p(z_l,y_l)*p(z_u,y_u);
    for coupled joints the residuals are reported, not asserted.
    """
    return IndependenceResiduals(
        label_given_label=conditional_mi(joint, (ZL_AXIS,), (YU_AXIS,), (YL_AXIS,)),
        feature_given_feature=conditional_mi(joint, (YL_AXIS,), (ZU_AXIS,), (ZL_AXIS,)),
    )


def random_joint(axes, cards, rng) -> DiscreteJoint:
    """A random dense joint: exponential draws normalized to mass 1."""
    cards = tuple(int(c) for c in cards)
    table = rng.exponential(size=cards)
    return DiscreteJoint(axes=tuple(axes), table=table / table.sum())


def chain_rule_residual(joint: DiscreteJoint, a_axes, rest_axes) -> float:
    """| I(A; B_1..B_n) - sum_i I(A; B_i | B_{i+1:}) | expanded fine to
    coarse, which is 0 by the chain rule."""
    rest_axes = tuple(rest_axes)
    total = mutual_information(joint, a_axes, rest_axes)
    acc = mutual_information(joint, a_axes, (rest_axes[-1],))
    for i in range(len(rest_axes) - 2, -1, -1):
        acc += conditional_mi(joint, a_axes, (rest_axes[i],), rest_axes[i + 1 :])
    return abs(total - acc)


def run_verification(trials: int = 1000, seed: int = 0) -> list[dict]:
    """Run every theory check on random joints; returns one record per
    check with name/passed/worst-residual fields (consumed by the CLI)."""
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for _ in range(trials):
        j = random_joint(("Z", "Y1", "Y2", "Y3"), (2, 2, 2, 2), rng)
        worst = max(worst, chain_rule_residual(j, ("Z",), ("Y1", "Y2", "Y3")))
    results.append(
        {"check": "chain-rule residual", "passed": worst < MASS_TOL, "worst": worst}
    )

    # a bound row's worst is its largest violation, 0.0 when there is none
    worst = 0.0
    ok = True
    for _ in range(trials):
        j = random_joint(("Z", "Y1", "Y2"), (3, 2, 3), rng)
        res = check_supervised_bound(j)
        ok &= res.holds
        worst = max(worst, res.rhs - res.lhs)
    results.append({"check": "supervised bound", "passed": ok, "worst": worst})

    worst = 0.0
    ok = True
    for _ in range(trials):
        j = random_joint(("X", "Y1", "Y2"), (3, 2, 3), rng)
        res = check_unsupervised_bound(j)
        ok &= res.holds
        worst = max(worst, res.lhs - res.rhs)
    results.append({"check": "unsupervised bound", "passed": ok, "worst": worst})

    worst = 0.0
    for _ in range(trials):
        block_l = random_joint(("Zl", "Yl"), (3, 2), rng)
        block_u = random_joint(("Zu", "Yu"), (2, 3), rng)
        res = check_independence_lemma(product_joint(block_l, block_u))
        worst = max(worst, res.max_residual)
    results.append(
        {"check": "independence lemma", "passed": worst < MASS_TOL, "worst": worst}
    )

    ok = True
    worst = 0.0
    strict_seen = False
    for _ in range(trials):
        sup = random_joint(("Z", "Y1", "Y2"), (2, 2, 2), rng)
        unsup = random_joint(("X", "Y1", "Y2"), (2, 2, 2), rng)
        res = check_combined_bound(sup, unsup, beta=float(rng.uniform(0.1, 2.0)))
        ok &= res.holds
        worst = max(worst, -res.gap)
        strict_seen |= res.gap > 1e-6
    results.append(
        {"check": "combined objective bound", "passed": ok and strict_seen, "worst": worst}
    )
    return results
