"""Tests for exact discrete information measures and the bound checks."""

import math

import numpy as np
import pytest

from seal.errors import InputError
from seal.theory import (
    DiscreteJoint,
    chain_rule_residual,
    check_combined_bound,
    check_independence_lemma,
    check_supervised_bound,
    check_unsupervised_bound,
    conditional_mi,
    entropy,
    mutual_information,
    product_joint,
    random_joint,
    run_verification,
)

TOL = 1e-12


def mi_by_loops(table, a_dims, b_dims):
    """Independent oracle: plain nested-loop summation of the MI formula
    over a table whose axes are ordered [A..., B...]."""
    table = np.asarray(table, dtype=np.float64)
    na = int(np.prod([table.shape[i] for i in a_dims]))
    flat = table.reshape(na, -1)
    pa = flat.sum(axis=1)
    pb = flat.sum(axis=0)
    total = 0.0
    for i in range(flat.shape[0]):
        for j in range(flat.shape[1]):
            p = flat[i, j]
            if p > 0:
                total += p * math.log(p / (pa[i] * pb[j]))
    return total


class TestDiscreteJoint:
    def test_rejects_negative_mass(self):
        with pytest.raises(InputError):
            DiscreteJoint(axes=("A",), table=np.array([1.5, -0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(InputError, match="non-finite"):
            DiscreteJoint(axes=("A", "B"), table=np.array([[bad, 0.5], [0.25, 0.25]]))

    def test_rejects_wrong_mass(self):
        with pytest.raises(InputError):
            DiscreteJoint(axes=("A",), table=np.array([0.4, 0.4]))

    def test_rejects_oversized_table(self):
        with pytest.raises(InputError):
            DiscreteJoint(axes=tuple("ABCDEF"), table=np.full((4,) * 6, 0.25 ** 6))

    def test_marginal_orders_axes(self):
        t = np.arange(8, dtype=float).reshape(2, 2, 2)
        j = DiscreteJoint(axes=("A", "B", "C"), table=t / t.sum())
        np.testing.assert_allclose(
            j.marginal(("C", "A")), j.marginal(("A", "C")).T
        )


class TestMutualInformation:
    def test_independent_is_zero(self):
        pa = np.array([0.2, 0.8])
        pb = np.array([0.1, 0.3, 0.6])
        j = DiscreteJoint(axes=("A", "B"), table=np.outer(pa, pb))
        assert abs(mutual_information(j, ("A",), ("B",))) < TOL

    def test_correlated_binary_is_ln2(self):
        j = DiscreteJoint(axes=("A", "B"), table=np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert abs(mutual_information(j, ("A",), ("B",)) - math.log(2)) < 1e-15

    def test_matches_loop_oracle_on_random_joints(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            j = random_joint(("A", "B"), (3, 4), rng)
            expected = mi_by_loops(j.table, (0,), (1,))
            assert abs(mutual_information(j, ("A",), ("B",)) - expected) < TOL

    def test_grouped_axes_match_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            j = random_joint(("A", "B", "C"), (2, 3, 2), rng)
            expected = mi_by_loops(j.table, (0,), (1, 2))
            got = mutual_information(j, ("A",), ("B", "C"))
            assert abs(got - expected) < TOL

    def test_rejects_overlapping_axes(self):
        rng = np.random.default_rng(0)
        j = random_joint(("A", "B"), (2, 2), rng)
        with pytest.raises(InputError):
            mutual_information(j, ("A",), ("A", "B"))

    def test_non_negative_on_random_joints(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            j = random_joint(("A", "B"), (4, 4), rng)
            assert mutual_information(j, ("A",), ("B",)) >= -TOL


class TestConditionalMI:
    def test_independent_conditioner_reduces_to_mi(self):
        rng = np.random.default_rng(6)
        ab = random_joint(("A", "B"), (2, 3), rng)
        pc = np.array([0.3, 0.7])
        j = DiscreteJoint(
            axes=("A", "B", "C"), table=np.multiply.outer(ab.table, pc)
        )
        got = conditional_mi(j, ("A",), ("B",), ("C",))
        want = mutual_information(ab, ("A",), ("B",))
        assert abs(got - want) < TOL

    def test_deterministic_b_of_c_is_zero(self):
        # B = C exactly: given C there is nothing left to learn about B
        rng = np.random.default_rng(7)
        table = np.zeros((2, 2, 2))
        for c in range(2):
            for a in range(2):
                table[a, c, c] = rng.random()
        j = DiscreteJoint(axes=("A", "B", "C"), table=table / table.sum())
        assert abs(conditional_mi(j, ("A",), ("B",), ("C",))) < TOL

    def test_chain_rule_residual_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            j = random_joint(("A", "B", "C"), (2, 2, 2), rng)
            lhs = mutual_information(j, ("A",), ("B", "C"))
            rhs = mutual_information(j, ("A",), ("C",)) + conditional_mi(
                j, ("A",), ("B",), ("C",)
            )
            assert abs(lhs - rhs) < TOL

    def test_chain_rule_all_orderings(self):
        # the residual vanishes no matter how the label axes are ordered
        import itertools

        rng = np.random.default_rng(9)
        j = random_joint(("Z", "Y1", "Y2", "Y3"), (2, 2, 2, 2), rng)
        for perm in itertools.permutations(("Y1", "Y2", "Y3")):
            assert chain_rule_residual(j, ("Z",), perm) < TOL

    def test_non_negative(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            j = random_joint(("A", "B", "C"), (2, 3, 2), rng)
            assert conditional_mi(j, ("A",), ("B",), ("C",)) >= -TOL


class TestSupervisedBound:
    def test_deterministic_coarse_gives_equality(self):
        # Y1 = Y2 // 2: the coarse label adds nothing beyond the fine one
        rng = np.random.default_rng(11)
        table = np.zeros((3, 2, 4))
        for z in range(3):
            for y2 in range(4):
                table[z, y2 // 2, y2] = rng.random()
        j = DiscreteJoint(axes=("Z", "Y1", "Y2"), table=table / table.sum())
        res = check_supervised_bound(j)
        assert res.holds
        assert abs(res.lhs - res.rhs) < TOL

    def test_informative_coarse_is_strict(self):
        # Z = Y1 XOR Y2 with independent uniform bits: the fine label alone
        # says nothing about Z, both labels pin it down exactly
        table = np.zeros((2, 2, 2))
        for y1 in range(2):
            for y2 in range(2):
                table[y1 ^ y2, y1, y2] = 0.25
        j = DiscreteJoint(axes=("Z", "Y1", "Y2"), table=table)
        res = check_supervised_bound(j)
        assert res.holds
        assert res.lhs > res.rhs + 0.5  # ln 2 vs 0

    def test_holds_on_random_three_level_joints(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            j = random_joint(("Z", "Y1", "Y2", "Y3"), (2, 2, 2, 2), rng)
            assert check_supervised_bound(j).holds


class TestUnsupervisedBound:
    def test_deterministic_levels_give_equality(self):
        rng = np.random.default_rng(13)
        table = np.zeros((3, 2, 4))
        for x in range(3):
            for yh in range(4):
                table[x, yh // 2, yh] = rng.random()
        j = DiscreteJoint(axes=("X", "Y1", "Y2"), table=table / table.sum())
        res = check_unsupervised_bound(j)
        assert res.holds
        assert abs(res.lhs - res.rhs) < TOL

    def test_holds_on_random_joints(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            j = random_joint(("X", "Y1", "Y2"), (2, 2, 2), rng)
            assert check_unsupervised_bound(j).holds

    def test_independent_predictions_give_zero_both_sides(self):
        px = np.array([0.4, 0.6])
        py = np.outer(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        j = DiscreteJoint(
            axes=("X", "Y1", "Y2"), table=np.multiply.outer(px, py)
        )
        res = check_unsupervised_bound(j)
        assert abs(res.lhs) < TOL and abs(res.rhs) < TOL


class TestIndependenceLemma:
    def test_product_joint_residuals_vanish(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            block_l = random_joint(("Zl", "Yl"), (3, 2), rng)
            block_u = random_joint(("Zu", "Yu"), (2, 3), rng)
            res = check_independence_lemma(product_joint(block_l, block_u))
            assert res.max_residual < TOL

    def test_coupled_blocks_report_positive_residual(self):
        # Yu copies Zl (and Yl is constant, so conditioning cannot hide it)
        table = np.zeros((2, 1, 1, 2))
        table[0, 0, 0, 0] = 0.5
        table[1, 0, 0, 1] = 0.5
        j = DiscreteJoint(axes=("Zl", "Yl", "Zu", "Yu"), table=table)
        res = check_independence_lemma(j)
        assert res.label_given_label > 0.5  # ln 2

    def test_degenerate_one_point_blocks(self):
        block_l = DiscreteJoint(axes=("Zl", "Yl"), table=np.ones((1, 1)))
        block_u = DiscreteJoint(axes=("Zu", "Yu"), table=np.ones((1, 1)))
        res = check_independence_lemma(product_joint(block_l, block_u))
        assert res.label_given_label == 0.0
        assert res.feature_given_feature == 0.0


class TestCombinedBound:
    def test_holds_with_strictness_somewhere(self):
        rng = np.random.default_rng(16)
        strict = False
        for _ in range(200):
            sup = random_joint(("Z", "Y1", "Y2"), (2, 2, 2), rng)
            unsup = random_joint(("X", "Y1", "Y2"), (2, 2, 2), rng)
            res = check_combined_bound(sup, unsup, beta=1.0)
            assert res.holds
            strict |= res.gap > 1e-6
        assert strict

    def test_beta_scales_unsupervised_part(self):
        rng = np.random.default_rng(17)
        sup = random_joint(("Z", "Y1", "Y2"), (2, 2, 2), rng)
        unsup = random_joint(("X", "Y1", "Y2"), (2, 2, 2), rng)
        r0 = check_combined_bound(sup, unsup, beta=0.0)
        r2 = check_combined_bound(sup, unsup, beta=2.0)
        assert r0.holds and r2.holds
        s = check_supervised_bound(sup)
        assert abs(r0.lhs + s.lhs) < TOL  # beta = 0 leaves only the supervised part


class TestEntropyHelpers:
    def test_uniform_entropy(self):
        j = DiscreteJoint(axes=("A",), table=np.full(8, 0.125))
        assert abs(entropy(j, ("A",)) - math.log(8)) < TOL

    def test_verification_harness_all_pass(self):
        for record in run_verification(trials=50, seed=123):
            assert record["passed"], record
