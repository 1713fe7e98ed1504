"""Tests for every training objective: frozen hand-computed values,
independent-implementation oracles, and central finite differences for
each analytic gradient."""

import math

import numpy as np
import pytest

from seal.errors import InputError, NumericError
from seal.hierarchy import TransitionMatrix, balanced_hierarchy, init_transition
from seal.losses import (
    LossConfig,
    cgc_loss,
    cls_loss,
    consistency_probs,
    fuse_hierarchy,
    hscl_loss,
    sharpen,
    similarity_matrix,
    soft_labels,
    supcon_loss,
    total_loss,
)
from seal.model import softmax


def unit_rows(x):
    """Rows scaled onto the unit sphere, the input contract of
    similarity_matrix and hscl_loss."""
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def tangent(grad, unit):
    """Each row of grad minus its component along the unit row: the
    gradient on the sphere."""
    return grad - (grad * unit).sum(axis=1, keepdims=True) * unit


def fd_wrt(fn, x, step=1e-6):
    """Central finite differences of a scalar function of one array."""
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        up = x.copy()
        up[idx] += step
        down = x.copy()
        down[idx] -= step
        grad[idx] = (fn(up) - fn(down)) / (2 * step)
    return grad


def unlabelled(batch):
    """Int labels and an all-False bool mask for a batch with no labelled
    row: the form cls_loss and supcon_loss take for an unsupervised batch."""
    return np.zeros(batch, dtype=np.int64), np.zeros(batch, dtype=bool)


class TestClsLoss:
    def test_uniform_ce_is_log_n(self):
        n = 5
        probs = np.full((3, n), 1.0 / n)
        pseudo = np.zeros((3, n))
        pseudo[:, 0] = 1.0
        cfg = LossConfig(balance=0.0, entropy_weight=0.0)
        loss, _ = cls_loss(probs, pseudo, *unlabelled(3), cfg)
        assert abs(loss - math.log(n)) < 1e-12

    def test_entropy_term_alone(self):
        # one-hot rows spread over all classes: zero CE against themselves,
        # uniform mean prediction, so the loss is -xi * ln(n)
        n = 4
        probs = np.eye(n)
        cfg = LossConfig(balance=0.0, entropy_weight=1.0)
        loss, _ = cls_loss(probs, probs, *unlabelled(n), cfg)
        assert abs(loss - (-math.log(n))) < 1e-12

    def test_supervised_mixing(self):
        rng = np.random.default_rng(0)
        probs = softmax(rng.standard_normal((4, 3)))
        pseudo = softmax(rng.standard_normal((4, 3)))
        labels = np.array([0, 2, 1, 1])
        mask = np.array([True, True, False, False])
        cfg = LossConfig(balance=1.0, entropy_weight=0.0)
        loss, _ = cls_loss(probs, pseudo, labels, mask, cfg)
        expected = -(math.log(probs[0, 0]) + math.log(probs[1, 2])) / 2
        assert abs(loss - expected) < 1e-12

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((5, 4))
        pseudo = softmax(rng.standard_normal((5, 4)))
        labels = rng.integers(0, 4, size=5)
        mask = np.array([True, False, True, False, True])
        cfg = LossConfig(balance=0.35, entropy_weight=2.0)
        _, analytic = cls_loss(softmax(logits), pseudo, labels, mask, cfg)
        fd = fd_wrt(lambda g: cls_loss(softmax(g), pseudo, labels, mask, cfg)[0], logits)
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)

    def test_empty_batch_rejected(self):
        cfg = LossConfig()
        with pytest.raises(InputError):
            cls_loss(np.zeros((0, 3)), np.zeros((0, 3)), *unlabelled(0), cfg)


class TestSimilarityMatrix:
    def test_orthonormal_rows_give_identity(self):
        np.testing.assert_allclose(similarity_matrix(np.eye(3)), np.eye(3))

    def test_identical_rows_give_one(self):
        z = unit_rows(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]]))
        sims = similarity_matrix(z)
        np.testing.assert_allclose(sims[0, 1], 1.0, atol=1e-12)
        assert sims[0, 0] == 1.0  # diagonal is pinned exactly

    def test_matches_direct_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        z = unit_rows(rng.standard_normal((3, 6)))
        sims = similarity_matrix(z)
        for i in range(3):
            for j in range(3):
                a = z[i] / np.linalg.norm(z[i])
                b = z[j] / np.linalg.norm(z[j])
                assert abs(sims[i, j] - a @ b) < 1e-12

    def test_zero_row_rejected(self):
        with pytest.raises(NumericError):
            similarity_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-8, 1.0 - 1e-8, np.nan])
    def test_non_unit_row_rejected(self, scale):
        z = unit_rows(np.random.default_rng(2).standard_normal((3, 4)))
        similarity_matrix(z * (1.0 + 1e-12))  # rounding-size drift passes
        z[1] *= scale
        with pytest.raises(NumericError, match="unit-norm rows"):
            similarity_matrix(z)


class TestFuseHierarchy:
    def test_single_level_is_identity_fuse(self):
        s = similarity_matrix(unit_rows(np.random.default_rng(3).standard_normal((4, 5))))
        np.testing.assert_array_equal(fuse_hierarchy([s]), s)

    def test_equal_matrices_fuse_to_themselves(self):
        s = similarity_matrix(unit_rows(np.random.default_rng(4).standard_normal((4, 5))))
        np.testing.assert_allclose(fuse_hierarchy([s, s]), s)

    def test_entrywise_mean(self):
        ones = np.ones((2, 2))
        eye = np.eye(2)
        np.testing.assert_allclose(
            fuse_hierarchy([ones, eye]), [[1.0, 0.5], [0.5, 1.0]]
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            fuse_hierarchy([np.ones((2, 2)), np.ones((3, 3))])


class TestSoftLabels:
    def test_zero_smoothness_is_identity(self):
        s = similarity_matrix(unit_rows(np.random.default_rng(5).standard_normal((4, 3))))
        np.testing.assert_array_equal(soft_labels(s, 0.0), np.eye(4))

    def test_full_smoothness_is_fused_matrix(self):
        s = similarity_matrix(unit_rows(np.random.default_rng(6).standard_normal((4, 3))))
        np.testing.assert_array_equal(soft_labels(s, 1.0), s)

    def test_hand_worked_affine_combination(self):
        s = np.array([[1.0, 0.4], [0.4, 1.0]])
        np.testing.assert_allclose(soft_labels(s, 0.5), [[1.0, 0.2], [0.2, 1.0]])

    def test_affine_in_smoothness(self):
        rng = np.random.default_rng(7)
        s = similarity_matrix(unit_rows(rng.standard_normal((5, 4))))
        for _ in range(20):
            l1, l2, alpha = rng.random(3)
            mid = soft_labels(s, alpha * l1 + (1 - alpha) * l2)
            combo = alpha * soft_labels(s, l1) + (1 - alpha) * soft_labels(s, l2)
            np.testing.assert_allclose(mid, combo, atol=1e-12)


def hybrid_sim(a, b, lam_c):
    """Oracle of the hybrid similarity hscl_loss builds from its Gram
    matrix: lam_c times the dot product minus (1 - lam_c) times the
    Euclidean distance of the normalized vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        raise NumericError("zero-norm input to hybrid similarity")
    return float(lam_c * (a @ b) - (1.0 - lam_c) * np.linalg.norm(a / na - b / nb))


class TestHybridSim:
    def test_identical_unit_vectors(self):
        v = np.array([0.6, 0.8])
        for lam in (0.0, 0.3, 1.0):
            assert abs(hybrid_sim(v, v, lam) - lam) < 1e-12

    def test_antipodal_at_zero_lambda(self):
        v = np.array([1.0, 0.0])
        assert abs(hybrid_sim(v, -v, 0.0) - (-2.0)) < 1e-12

    def test_orthogonal_at_half_lambda(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert abs(hybrid_sim(a, b, 0.5) - (-0.5 * math.sqrt(2))) < 1e-12

    def test_affine_in_lambda(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        s0, s1 = hybrid_sim(a, b, 0.0), hybrid_sim(a, b, 1.0)
        for lam in rng.random(10):
            expected = (1 - lam) * s0 + lam * s1
            assert abs(hybrid_sim(a, b, float(lam)) - expected) < 1e-12

    def test_zero_norm_rejected(self):
        with pytest.raises(NumericError):
            hybrid_sim(np.zeros(3), np.ones(3), 0.5)


def hscl_by_loops(z, zp, soft, lam_c):
    """Independent oracle: loop-built soft contrastive loss sharing no
    code with the implementation."""
    batch = z.shape[0]
    sims = np.empty((batch, batch))
    for i in range(batch):
        for j in range(batch):
            zi, zj = z[i], zp[j]
            dist = np.linalg.norm(zi / np.linalg.norm(zi) - zj / np.linalg.norm(zj))
            sims[i, j] = lam_c * float(zi @ zj) - (1 - lam_c) * dist
    loss = 0.0
    for i in range(batch):
        denom = sum(math.exp(sims[i, m]) for m in range(batch) if m != i)
        for j in range(batch):
            loss -= soft[i, j] * (sims[i, j] - math.log(denom))
    return loss / batch


class TestHsclLoss:
    def test_two_sample_hand_expansion(self):
        rng = np.random.default_rng(9)
        z = unit_rows(rng.standard_normal((2, 4)))
        zp = unit_rows(rng.standard_normal((2, 4)))
        lam = 0.7
        s = np.array([[hybrid_sim(z[i], zp[j], lam) for j in range(2)] for i in range(2)])
        expected = -0.5 * ((s[0, 0] - s[0, 1]) + (s[1, 1] - s[1, 0]))
        loss, _, _ = hscl_loss(z, zp, np.eye(2), lam)
        assert abs(loss - expected) < 1e-12

    def test_zero_targets_zero_loss_and_grads(self):
        rng = np.random.default_rng(10)
        z = unit_rows(rng.standard_normal((3, 4)))
        zp = unit_rows(rng.standard_normal((3, 4)))
        loss, dz, dzp = hscl_loss(z, zp, np.zeros((3, 3)), 0.5)
        assert loss == 0.0
        assert np.all(dz == 0.0) and np.all(dzp == 0.0)

    def test_identity_targets_match_loop_oracle(self):
        rng = np.random.default_rng(11)
        for batch in (2, 4, 8):
            z = unit_rows(rng.standard_normal((batch, 5)))
            zp = unit_rows(rng.standard_normal((batch, 5)))
            lam = float(rng.random())
            loss, _, _ = hscl_loss(z, zp, np.eye(batch), lam)
            assert abs(loss - hscl_by_loops(z, zp, np.eye(batch), lam)) < 1e-10

    def test_soft_targets_match_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            batch = int(rng.integers(2, 8))
            z = unit_rows(rng.standard_normal((batch, 6)))
            zp = unit_rows(rng.standard_normal((batch, 6)))
            soft = soft_labels(similarity_matrix(z), float(rng.random()))
            lam = float(rng.random())
            loss, _, _ = hscl_loss(z, zp, soft, lam)
            assert abs(loss - hscl_by_loops(z, zp, soft, lam)) < 1e-10

    # the loss is defined on the sphere, so it is differenced through
    # v -> v / |v| and compared with the analytic gradient's tangent part,
    # the part the encoder's slice-norm backward keeps
    def test_gradients_match_fd(self):
        rng = np.random.default_rng(13)
        z = unit_rows(rng.standard_normal((4, 5)))
        zp = unit_rows(rng.standard_normal((4, 5)))
        soft = soft_labels(similarity_matrix(z), 0.8)
        lam = 0.6
        _, dz, dzp = hscl_loss(z, zp, soft, lam)
        fd_z = fd_wrt(lambda v: hscl_loss(unit_rows(v), zp, soft, lam)[0], z)
        fd_zp = fd_wrt(lambda v: hscl_loss(z, unit_rows(v), soft, lam)[0], zp)
        np.testing.assert_allclose(tangent(dz, z), fd_z, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(tangent(dzp, zp), fd_zp, rtol=1e-5, atol=1e-8)

    def test_gradients_match_fd_at_lambda_extremes(self):
        rng = np.random.default_rng(14)
        z = unit_rows(rng.standard_normal((3, 4)))
        zp = unit_rows(rng.standard_normal((3, 4)))
        soft = np.eye(3)
        for lam in (0.0, 1.0):
            _, dz, dzp = hscl_loss(z, zp, soft, lam)
            np.testing.assert_allclose(
                tangent(dz, z), fd_wrt(lambda v: hscl_loss(unit_rows(v), zp, soft, lam)[0], z),
                rtol=1e-5, atol=1e-8,
            )
            np.testing.assert_allclose(
                tangent(dzp, zp), fd_wrt(lambda v: hscl_loss(z, unit_rows(v), soft, lam)[0], zp),
                rtol=1e-5, atol=1e-8,
            )

    @pytest.mark.parametrize("view", [0, 1])
    @pytest.mark.parametrize("scale", [0.0, 2.0, 1.0 + 1e-8, np.nan])
    def test_non_unit_row_rejected(self, view, scale):
        rng = np.random.default_rng(16)
        views = [unit_rows(rng.standard_normal((3, 4))) for _ in range(2)]
        hscl_loss(*views, np.eye(3), 0.5)
        views[view][2] *= scale
        with pytest.raises(NumericError, match="unit-norm rows"):
            hscl_loss(*views, np.eye(3), 0.5)

    def test_single_sample_rejected(self):
        with pytest.raises(InputError):
            hscl_loss(np.ones((1, 3)), np.ones((1, 3)), np.ones((1, 1)), 0.5)


class TestSupconLoss:
    def test_no_labelled_rows_is_zero(self):
        rng = np.random.default_rng(15)
        z = rng.standard_normal((4, 3))
        loss, dz, dzp = supcon_loss(z, z, *unlabelled(4), tau=0.1)
        assert loss == 0.0 and np.all(dz == 0.0) and np.all(dzp == 0.0)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(16)
        z = rng.standard_normal((5, 4))
        zp = rng.standard_normal((5, 4))
        labels = np.array([0, 1, 0, 2, 1])
        mask = np.array([True, True, True, False, True])
        _, dz, dzp = supcon_loss(z, zp, labels, mask, tau=0.2)
        fd_z = fd_wrt(lambda v: supcon_loss(v, zp, labels, mask, 0.2)[0], z)
        fd_zp = fd_wrt(lambda v: supcon_loss(z, v, labels, mask, 0.2)[0], zp)
        np.testing.assert_allclose(dz, fd_z, rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(dzp, fd_zp, rtol=1e-5, atol=1e-8)

    def test_unlabelled_rows_get_zero_gradient(self):
        rng = np.random.default_rng(17)
        z = rng.standard_normal((4, 3))
        zp = rng.standard_normal((4, 3))
        labels = np.array([0, 0, 1, 1])
        mask = np.array([True, True, False, True])
        _, dz, dzp = supcon_loss(z, zp, labels, mask, tau=0.1)
        assert np.all(dz[2] == 0.0) and np.all(dzp[2] == 0.0)


class TestCgcLoss:
    def test_zero_when_posterior_matches_target(self):
        spec = balanced_hierarchy([2, 4])
        tm = init_transition(spec, set(range(4)), 1)
        rng = np.random.default_rng(18)
        fine = rng.dirichlet(np.ones(4), size=6)
        target = fine @ tm.entries
        loss, d_levels, _ = cgc_loss([target], fine, [tm])
        assert abs(loss) < 1e-12
        np.testing.assert_allclose(d_levels[0], 0.0, atol=1e-12)

    def test_hand_worked_kl(self):
        tm = TransitionMatrix(level=1, entries=np.eye(2))
        loss, _, _ = cgc_loss([np.array([[1.0, 0.0]])], np.array([[0.5, 0.5]]), [tm])
        assert abs(loss - math.log(2)) < 1e-12

    def test_non_negative_on_random_inputs(self):
        rng = np.random.default_rng(19)
        spec = balanced_hierarchy([3, 9])
        tm = init_transition(spec, {0, 1}, 1)
        for _ in range(100):
            coarse = rng.dirichlet(np.ones(3), size=8)
            fine = rng.dirichlet(np.ones(9), size=8)
            loss, _, _ = cgc_loss([coarse], fine, [tm])
            assert loss >= 0.0

    def test_zero_iff_matching(self):
        rng = np.random.default_rng(20)
        spec = balanced_hierarchy([3, 9])
        tm = init_transition(spec, set(), 1)
        for _ in range(50):
            fine = rng.dirichlet(np.ones(9), size=4)
            coarse = rng.dirichlet(np.ones(3), size=4)
            target = fine @ tm.entries
            mismatch = float(np.abs(coarse - target).max())
            loss, _, _ = cgc_loss([coarse], fine, [tm])
            if mismatch > 1e-6:
                assert loss > 0.0
            loss_eq, _, _ = cgc_loss([target], fine, [tm])
            assert abs(loss_eq) < 1e-12

    def test_level_gradients_match_fd(self):
        rng = np.random.default_rng(21)
        spec = balanced_hierarchy([2, 4])
        tm = init_transition(spec, {0}, 1)
        coarse_logits = rng.standard_normal((3, 2))
        fine = rng.dirichlet(np.ones(4), size=3)
        _, d_levels, _ = cgc_loss([softmax(coarse_logits)], fine, [tm])
        fd = fd_wrt(lambda g: cgc_loss([softmax(g)], fine, [tm])[0], coarse_logits)
        np.testing.assert_allclose(d_levels[0], fd, rtol=1e-5, atol=1e-8)

    def test_fine_gradients_match_fd_when_not_detached(self):
        rng = np.random.default_rng(22)
        spec = balanced_hierarchy([2, 4])
        tm = init_transition(spec, {0}, 1)
        coarse = rng.dirichlet(np.ones(2), size=3)
        fine_logits = rng.standard_normal((3, 4))
        _, _, d_fine = cgc_loss([coarse], softmax(fine_logits), [tm])
        fd = fd_wrt(lambda g: cgc_loss([coarse], softmax(g), [tm])[0], fine_logits)
        np.testing.assert_allclose(d_fine, fd, rtol=1e-5, atol=1e-8)

    def test_shape_mismatch_rejected(self):
        spec = balanced_hierarchy([2, 4])
        tm = init_transition(spec, set(), 1)
        with pytest.raises(InputError):
            cgc_loss([np.full((1, 3), 1 / 3)], np.full((1, 4), 0.25), [tm])


class TestTotalLoss:
    def test_sums_components(self):
        components = {
            "rep_1": 0.5, "cls_1": 0.25, "rep_2": 0.25, "cls_2": 0.125, "cgc": 0.1,
        }
        assert abs(total_loss(components) - 1.225) < 1e-12

    def test_all_zero(self):
        assert total_loss({"a": 0.0, "b": 0.0}) == 0.0

    def test_non_finite_names_component(self):
        with pytest.raises(NumericError, match="cgc"):
            total_loss({"cls": 1.0, "cgc": float("nan")})


class TestHelpers:
    def test_sharpen_is_low_temperature_softmax(self):
        rng = np.random.default_rng(23)
        scores = rng.standard_normal((3, 4))
        out = sharpen(scores, 0.07)
        np.testing.assert_allclose(out, softmax(scores / 0.07), atol=1e-12)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_consistency_probs_temperature(self):
        rng = np.random.default_rng(24)
        scores = rng.standard_normal((2, 5))
        np.testing.assert_allclose(
            consistency_probs(scores, 0.75), softmax(scores / 0.75), atol=1e-12
        )
        with pytest.raises(InputError):
            consistency_probs(scores, 0.0)

    def test_loss_config_validation(self):
        with pytest.raises(InputError):
            LossConfig(tau=0.0)
        with pytest.raises(InputError):
            LossConfig(balance=1.5)
