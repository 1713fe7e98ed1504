"""Tests for schedules, view generation, batch plumbing, and the
training loop, including the independently-coded single-level oracle
that the H=1 configuration must reproduce step for step."""

import math

import numpy as np
import pytest
from scipy.special import erf

from seal.datagen import generate_synthetic, make_gcd_split
from seal.errors import InputError, NumericError
from seal.hierarchy import HierarchySpec, balanced_hierarchy
from seal.losses import LossConfig
from seal.trainer import (
    CyclingSampler,
    ModelConfig,
    TrainConfig,
    cosine_lr,
    curriculum_lambda,
    make_views,
    train,
    validation_split,
)


def tiny_dataset(counts=(2, 6), per_class=12, dim=8, seed=3):
    spec = balanced_hierarchy(counts)
    spreads = list(6.0 * 0.5 ** np.arange(len(counts))) + [0.3]
    ds = generate_synthetic(spec, per_class=per_class, dim=dim, spreads=spreads, seed=seed)
    split = make_gcd_split(ds, old_fraction=0.5, labelled_fraction=0.5, seed=seed)
    return spec, ds, split


def spy_on(monkeypatch, module, name):
    """Record what each call of module.name returns."""
    original = getattr(module, name)
    calls = []

    def spy(*args):
        out = original(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


def spy_refreshes(monkeypatch):
    """Record the transition matrices each refresh returns."""
    import seal.trainer as trainer_mod

    return spy_on(monkeypatch, trainer_mod, "_refresh_transitions")


class TestSchedules:
    def test_cosine_endpoints(self):
        assert cosine_lr(0, 100, 0.1, 1e-4) == pytest.approx(0.1)
        assert cosine_lr(100, 100, 0.1, 1e-4) == pytest.approx(1e-4)

    def test_cosine_midpoint(self):
        mid = cosine_lr(50, 100, 0.1, 1e-4)
        assert mid == pytest.approx((0.1 + 1e-4) / 2)

    def test_cosine_monotone_non_increasing(self):
        values = [cosine_lr(t, 200, 0.1, 1e-4) for t in range(201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_cosine_rejects_zero_total(self):
        with pytest.raises(InputError):
            cosine_lr(0, 0, 0.1, 1e-4)

    def test_curriculum_endpoints_and_linearity(self):
        assert curriculum_lambda(0, 100) == 1.0
        assert curriculum_lambda(100, 100) == 0.0
        assert curriculum_lambda(25, 100) == pytest.approx(0.75)

    def test_curriculum_horizon_clamps(self):
        assert curriculum_lambda(80, 100, horizon=50) == 0.0
        assert curriculum_lambda(25, 100, horizon=50) == pytest.approx(0.5)


class TestMakeViews:
    def test_zero_scale_copies_input(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6))
        va, vb = make_views(x, 0.0, rng)
        np.testing.assert_array_equal(va, x)
        np.testing.assert_array_equal(vb, x)
        assert va is not x  # copies, not aliases

    def test_reproducible_for_fixed_seed(self):
        x = np.random.default_rng(1).standard_normal((4, 6))
        va1, vb1 = make_views(x, 0.2, np.random.default_rng(7))
        va2, vb2 = make_views(x, 0.2, np.random.default_rng(7))
        np.testing.assert_array_equal(va1, va2)
        np.testing.assert_array_equal(vb1, vb2)

    def test_views_differ_from_each_other(self):
        x = np.random.default_rng(2).standard_normal((4, 6))
        va, vb = make_views(x, 0.2, np.random.default_rng(8))
        assert np.abs(va - vb).max() > 0

    def test_norms_preserved(self):
        x = np.random.default_rng(3).standard_normal((10, 16))
        va, _ = make_views(x, 0.5, np.random.default_rng(9))
        np.testing.assert_allclose(
            np.linalg.norm(va, axis=1), np.linalg.norm(x, axis=1), rtol=1e-12
        )

    def test_noise_scale_statistics(self):
        # per-feature deviation std ~ 0.1 before renormalization; a huge base
        # norm makes the renormalization factor negligible
        x = np.full((10000, 16), 1000.0)
        va, _ = make_views(x, 0.1, np.random.default_rng(10))
        assert abs((va - x).std() - 0.1) < 0.005

    def test_negative_scale_rejected(self):
        with pytest.raises(InputError):
            make_views(np.ones((2, 2)), -0.1, np.random.default_rng(0))


class TestSamplers:
    def test_cycling_covers_pool(self):
        pool = np.arange(10, 20)
        sampler = CyclingSampler(pool, np.random.default_rng(0))
        drawn = sampler.draw(10)
        assert sorted(drawn.tolist()) == pool.tolist()

    def test_cycling_reshuffles_on_exhaustion(self):
        pool = np.arange(5)
        sampler = CyclingSampler(pool, np.random.default_rng(1))
        drawn = sampler.draw(12)
        counts = np.bincount(drawn, minlength=5)
        assert counts.min() >= 2 and counts.sum() == 12

    def test_validation_split_deterministic_partition(self):
        labelled = np.arange(40)
        t1, v1 = validation_split(labelled, 0.2, seed=5)
        t2, v2 = validation_split(labelled, 0.2, seed=5)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(v1, v2)
        assert v1.size == 8
        assert np.intersect1d(t1, v1).size == 0
        np.testing.assert_array_equal(np.sort(np.concatenate([t1, v1])), labelled)


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_unchanged(self):
        spec, ds, split = tiny_dataset()
        tc = TrainConfig(
            epochs=2, batch_size=8, lr_initial=0.0, lr_final=0.0, seed=0,
            weight_decay=0.0, val_fraction=0.0,
        )
        lc = LossConfig()
        from seal.model import init_model

        reference = init_model(
            spec, ds.dim, hidden=(6,), proj_dim=6, tau=lc.tau, tau_sharp=lc.tau_sharp, seed=4
        )
        state, _ = train(ds, split, spec, 4, tc, lc, ModelConfig(hidden=(6,), proj_dim=6))
        for a, b in zip(state.weights, reference.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(state.prototypes, reference.prototypes):
            # per-step renormalization of already-unit rows may wiggle the
            # last bit even at zero learning rate
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_bitwise_reproducibility(self):
        spec, ds, split = tiny_dataset()
        tc = TrainConfig(epochs=3, batch_size=8, seed=11)
        lc = LossConfig()
        mc = ModelConfig(hidden=(6,), proj_dim=6)
        state1, rec1 = train(ds, split, spec, 1, tc, lc, mc)
        state2, rec2 = train(ds, split, spec, 1, tc, lc, mc)
        assert rec1.epochs == rec2.epochs
        assert rec1.final == rec2.final
        for a, b in zip(state1.weights, state2.weights):
            np.testing.assert_array_equal(a, b)

    def test_loss_decreases_over_first_epochs(self):
        # smoke property, averaged over 3 seeds
        spec, ds, split = tiny_dataset(per_class=20)
        firsts, lasts = [], []
        for seed in (0, 1, 2):
            tc = TrainConfig(epochs=10, batch_size=16, seed=seed)
            _, rec = train(ds, split, spec, seed, tc, LossConfig(),
                           ModelConfig(hidden=(12,), proj_dim=8))
            firsts.append(rec.epochs[0]["loss_total"])
            lasts.append(rec.epochs[-1]["loss_total"])
        assert np.mean(lasts) < np.mean(firsts)

    def test_known_transition_rows_stay_one_hot(self, monkeypatch):
        spec, ds, split = tiny_dataset()
        tc = TrainConfig(epochs=3, batch_size=8, seed=2)
        refreshes = spy_refreshes(monkeypatch)
        train(ds, split, spec, 2, tc, LossConfig(), ModelConfig(hidden=(6,), proj_dim=6))
        assert len(refreshes) == tc.epochs  # once per epoch with CGC on
        tm = refreshes[-1][0]
        for k in sorted(split.old_classes):
            row = tm.entries[k]
            assert row.max() == 1.0 and row.min() == 0.0

    def test_no_refresh_when_nothing_reads_transitions(self, monkeypatch):
        spec, ds, split = tiny_dataset()
        flat = HierarchySpec(counts=(spec.num_fine,))
        mc = ModelConfig(hidden=(6,), proj_dim=6)
        refreshes = spy_refreshes(monkeypatch)
        _, rec = train(ds, split, flat, 2, TrainConfig(epochs=2, batch_size=8, seed=2),
                       LossConfig(), mc)
        assert rec.final["transition_row_sums_ok"]
        _, rec = train(ds, split, spec, 2,
                       TrainConfig(epochs=2, batch_size=8, seed=2, use_cgc=False),
                       LossConfig(), mc)
        assert rec.final["transition_row_sums_ok"]
        assert refreshes == []

    def test_similarities_only_when_soft_targets_use_them(self, monkeypatch):
        import seal.losses as losses_mod

        spec, ds, split = tiny_dataset()
        tc = TrainConfig(epochs=2, batch_size=8, seed=2)
        mc = ModelConfig(hidden=(6,), proj_dim=6)
        sims = spy_on(monkeypatch, losses_mod, "similarity_matrix")
        train(ds, split, spec, 2, tc, LossConfig(soft_smoothness=0.0), mc)
        assert sims == []  # the targets are the identity
        train(ds, split, spec, 2, tc, LossConfig(soft_smoothness=0.01), mc)
        train_lab, _ = validation_split(split.labelled, tc.val_fraction, tc.seed)
        steps = tc.epochs * math.ceil((train_lab.size + split.unlabelled.size) / tc.batch_size)
        assert len(sims) == spec.levels * steps  # one per level per step

    def test_single_level_runs_without_cgc(self):
        spec, ds, split = tiny_dataset()
        flat = HierarchySpec(counts=(spec.num_fine,))
        tc = TrainConfig(epochs=2, batch_size=8, seed=0)
        _, rec = train(ds, split, flat, 0, tc, LossConfig(),
                       ModelConfig(hidden=(6,), proj_dim=6))
        assert all(e["loss_cgc"] == 0.0 for e in rec.epochs)
        assert rec.final["consistency"] == {}

    def test_divergence_reports_epoch_and_step(self):
        spec, ds, split = tiny_dataset()
        tc = TrainConfig(epochs=3, batch_size=8, lr_initial=1e9, lr_final=1e3, seed=0)
        with pytest.raises(NumericError, match="epoch"):
            train(ds, split, spec, 0, tc, LossConfig(), ModelConfig(hidden=(6,), proj_dim=6))

    def test_mismatched_fine_counts_rejected(self):
        spec, ds, split = tiny_dataset()
        other = HierarchySpec(counts=(5,))
        with pytest.raises(InputError):
            train(ds, split, other, 0, TrainConfig(epochs=1, batch_size=8), LossConfig())

    def test_prototype_norms_survive_training(self):
        spec, ds, split = tiny_dataset()
        tc = TrainConfig(epochs=3, batch_size=8, seed=5)
        state, _ = train(ds, split, spec, 5, tc, LossConfig(), ModelConfig(hidden=(6,), proj_dim=6))
        for protos in state.prototypes:
            np.testing.assert_allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-9)


# ----------------------------------------------------------------------
# Independent single-level oracle: a from-scratch reimplementation of the
# H=1 / identity-soft-target / no-CGC configuration. It shares only the
# seed plumbing (samplers, views, validation carve-out) with the package;
# model math, losses, and the optimizer are re-coded below.
# ----------------------------------------------------------------------


class SingleLevelOracle:
    def __init__(self, in_dim, hidden, proj, n_classes, tau, tau_sharp, seed):
        rng = np.random.default_rng(seed)
        dims = [in_dim] + list(hidden) + [proj]
        self.ws = [rng.standard_normal((a, b)) / math.sqrt(a) for a, b in zip(dims, dims[1:])]
        self.bs = [np.zeros(b) for b in dims[1:]]
        protos = rng.standard_normal((n_classes, proj))
        self.protos = protos / np.linalg.norm(protos, axis=1, keepdims=True)
        self.tau, self.tau_sharp = tau, tau_sharp
        self.vel_w = [np.zeros_like(w) for w in self.ws]
        self.vel_b = [np.zeros_like(b) for b in self.bs]
        self.vel_p = np.zeros_like(self.protos)

    @staticmethod
    def _gelu(x):
        return 0.5 * x * (1.0 + erf(x / math.sqrt(2)))

    @staticmethod
    def _gelu_grad(x):
        return 0.5 * (1.0 + erf(x / math.sqrt(2))) + x * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    def forward(self, x):
        acts = [x]
        pres = []
        h = x
        for w, b in zip(self.ws[:-1], self.bs[:-1]):
            a = np.einsum("bi,ij->bj", h, w) + b
            pres.append(a)
            h = self._gelu(a)
            acts.append(h)
        raw = np.einsum("bi,ij->bj", h, self.ws[-1]) + self.bs[-1]
        norm = np.sqrt((raw ** 2).sum(axis=1, keepdims=True))
        z = raw / norm
        scores = np.einsum("bd,kd->bk", z, self.protos)
        return {"acts": acts, "pres": pres, "raw": raw, "norm": norm, "z": z, "scores": scores}

    @staticmethod
    def _softmax(v):
        e = np.exp(v - v.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def cls_pair(self, fa, fb, labels, mask, cfg):
        """Symmetric classification loss and score gradients for two views."""
        out = []
        total = 0.0
        for me, other in ((fa, fb), (fb, fa)):
            p = self._softmax(me["scores"] / self.tau)
            q = self._softmax(other["scores"] / self.tau_sharp)
            batch = p.shape[0]
            logp = np.log(p)
            unsup = -(q * logp).sum() / batch
            pbar = p.mean(axis=0)
            unsup -= cfg.entropy_weight * float(-(pbar * np.log(pbar)).sum())
            d = (p - q) / batch
            w = p * np.log(pbar)
            d += cfg.entropy_weight / batch * (w - p * w.sum(axis=1, keepdims=True))
            rows = np.flatnonzero(mask)
            sup = 0.0
            if rows.size:
                sup = -logp[rows, labels[rows]].sum() / rows.size
                d_sup = np.zeros_like(p)
                d_sup[rows] = p[rows] / rows.size
                d_sup[rows, labels[rows]] -= 1.0 / rows.size
                d = (1 - cfg.balance) * d + cfg.balance * d_sup
            else:
                d = (1 - cfg.balance) * d
            total += 0.5 * ((1 - cfg.balance) * unsup + cfg.balance * sup)
            out.append(d / (2 * self.tau))
        return total, out[0], out[1]

    def contrastive_pair(self, fa, fb, labels, mask, cfg, lam_c):
        """Identity-target hybrid contrastive plus supervised contrastive;
        returns the loss pieces and slice-feature gradients."""
        za, zb = fa["z"], fb["z"]
        batch = za.shape[0]
        sims = lam_c * (za @ zb.T)
        diff2 = np.maximum(2.0 - 2.0 * (za @ zb.T), 0.0)
        dist = np.sqrt(diff2)
        sims = sims - (1 - lam_c) * dist
        off = ~np.eye(batch, dtype=bool)
        masked = np.where(off, sims, -np.inf)
        mx = masked.max(axis=1, keepdims=True)
        es = np.exp(masked - mx)
        lse = mx[:, 0] + np.log(es.sum(axis=1))
        hscl = -(np.diag(sims).sum() - lse.sum()) / batch
        soft = np.eye(batch)
        dsim = -(soft - es / es.sum(axis=1, keepdims=True)) / batch
        dza = lam_c * (dsim @ zb)
        dzb = lam_c * (dsim.T @ za)
        w = np.where(dist > 1e-12, (1 - lam_c) * dsim / np.where(dist > 0, dist, 1.0), 0.0)
        d_ua = w @ zb - w.sum(axis=1, keepdims=True) * za
        d_ub = w.T @ za - w.sum(axis=0)[:, None] * zb
        dza += d_ua - (d_ua * za).sum(axis=1, keepdims=True) * za
        dzb += d_ub - (d_ub * zb).sum(axis=1, keepdims=True) * zb

        rows = np.flatnonzero(mask)
        sup = 0.0
        dza_s = np.zeros_like(za)
        dzb_s = np.zeros_like(zb)
        if rows.size >= 2:
            zs, zps, y = za[rows], zb[rows], labels[rows]
            sc = zs @ zps.T / cfg.tau
            n = rows.size
            offn = ~np.eye(n, dtype=bool)
            pos = (y[:, None] == y[None, :]).astype(float)
            pos /= pos.sum(axis=1, keepdims=True)
            mk = np.where(offn, sc, -np.inf)
            m2 = mk.max(axis=1, keepdims=True)
            e2 = np.exp(mk - m2)
            l2 = m2[:, 0] + np.log(e2.sum(axis=1))
            sup = -((pos * sc).sum() - l2.sum()) / n
            dsc = -(pos - e2 / e2.sum(axis=1, keepdims=True)) / n
            dza_s[rows] = dsc @ zps / cfg.tau
            dzb_s[rows] = dsc.T @ zs / cfg.tau
        rep = (1 - cfg.balance) * hscl + cfg.balance * sup
        dza_total = (1 - cfg.balance) * dza + cfg.balance * dza_s
        dzb_total = (1 - cfg.balance) * dzb + cfg.balance * dzb_s
        return rep, hscl, sup, dza_total, dzb_total

    def backward(self, f, d_scores, d_z):
        d_z = d_z + d_scores @ self.protos
        d_protos = d_scores.T @ f["z"]
        # z = raw/||raw|| twice-normalized in the package collapses to once
        d_raw = (d_z - (d_z * f["z"]).sum(axis=1, keepdims=True) * f["z"]) / f["norm"]
        gw = [None] * len(self.ws)
        gb = [None] * len(self.bs)
        gw[-1] = f["acts"][-1].T @ d_raw
        gb[-1] = d_raw.sum(axis=0)
        dh = d_raw @ self.ws[-1].T
        for i in range(len(self.ws) - 2, -1, -1):
            da = dh * self._gelu_grad(f["pres"][i])
            gw[i] = f["acts"][i].T @ da
            gb[i] = da.sum(axis=0)
            dh = da @ self.ws[i].T
        return gw, gb, d_protos

    def step(self, gw, gb, gp, lr, momentum, wd):
        for w, g, v in zip(self.ws, gw, self.vel_w):
            v *= momentum
            v += g + wd * w
            w -= lr * v
        for b, g, v in zip(self.bs, gb, self.vel_b):
            v *= momentum
            v += g
            b -= lr * v
        self.vel_p *= momentum
        self.vel_p += gp
        self.protos -= lr * self.vel_p
        self.protos /= np.linalg.norm(self.protos, axis=1, keepdims=True)


def oracle_run(ds, split, n_classes, tc, lc, model_seed, hidden, proj):
    oracle = SingleLevelOracle(ds.dim, hidden, proj, n_classes, lc.tau, lc.tau_sharp, model_seed)
    train_lab, _ = validation_split(split.labelled, tc.val_fraction, tc.seed)
    data_rng = np.random.default_rng([tc.seed, 1])
    view_rng = np.random.default_rng([tc.seed, 2])
    lab = CyclingSampler(train_lab, data_rng)
    unlab = CyclingSampler(split.unlabelled, data_rng)
    fine = ds.fine_labels()
    steps_per_epoch = math.ceil((train_lab.size + split.unlabelled.size) / tc.batch_size)
    total = steps_per_epoch * tc.epochs
    curve = []
    step = 0
    for _epoch in range(tc.epochs):
        epoch_loss = 0.0
        for _ in range(steps_per_epoch):
            lr = 1e-4 + 0.5 * (tc.lr_initial - 1e-4) * (1 + math.cos(math.pi * step / total))
            lam_c = 1 - step / total
            n_lab = tc.batch_size // 2
            idx = np.concatenate([lab.draw(n_lab), unlab.draw(tc.batch_size - n_lab)])
            mask = np.zeros(tc.batch_size, dtype=bool)
            mask[:n_lab] = True
            va, vb = make_views(ds.features[idx], tc.view_noise, view_rng)
            fa, fb = oracle.forward(va), oracle.forward(vb)
            labels = fine[idx]
            cls, da_sc, db_sc = oracle.cls_pair(fa, fb, labels, mask, lc)
            rep, _, _, da_z, db_z = oracle.contrastive_pair(fa, fb, labels, mask, lc, lam_c)
            gwa, gba, gpa = oracle.backward(fa, da_sc, da_z)
            gwb, gbb, gpb = oracle.backward(fb, db_sc, db_z)
            gw = [a + b for a, b in zip(gwa, gwb)]
            gb = [a + b for a, b in zip(gba, gbb)]
            oracle.step(gw, gb, gpa + gpb, lr, tc.momentum, tc.weight_decay)
            epoch_loss += rep + cls
            step += 1
        curve.append(epoch_loss / steps_per_epoch)
    return oracle, curve


class TestBaselineEquivalence:
    def test_h1_training_matches_independent_oracle(self):
        spec, ds, split = tiny_dataset(counts=(2, 6), per_class=10, dim=8, seed=9)
        flat = HierarchySpec(counts=(6,))
        tc = TrainConfig(
            epochs=3, batch_size=8, seed=13, lr_initial=0.05, lr_final=1e-4,
            view_noise=0.1, use_cgc=False,
        )
        lc = LossConfig(soft_smoothness=0.0)
        state, rec = train(ds, split, flat, 7, tc, lc, ModelConfig(hidden=(6,), proj_dim=6))
        oracle, curve = oracle_run(ds, split, 6, tc, lc, model_seed=7, hidden=(6,), proj=6)

        package_curve = [e["loss_total"] for e in rec.epochs]
        np.testing.assert_allclose(package_curve, curve, rtol=1e-9)
        for a, b in zip(state.weights, oracle.ws):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(state.prototypes[0], oracle.protos, rtol=1e-9, atol=1e-12)
