"""Acceptance criteria, one test per criterion, each printing a
[ACCEPTANCE] pass/fail line. Criteria 5-7 train real models and carry
the `experiment` marker (deselect with -m "not experiment" while
iterating). Their 18 arms train on a process pool, one worker per CPU:
3 to 5.3 minutes on two."""

import itertools
import json
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from seal.benchmark import coarse_consistency, mean_consistency, run_arm
from seal.errors import InputError
from seal.evaluation import hungarian_acc
from seal.hierarchy import balanced_hierarchy, init_transition, update_transition
from seal.losses import (
    LossConfig,
    cgc_loss,
    cls_loss,
    consistency_probs,
    hscl_loss,
    similarity_matrix,
    soft_labels,
    supcon_loss,
)
from seal.model import backward, forward, init_model, softmax
from seal.theory import (
    chain_rule_residual,
    check_independence_lemma,
    check_supervised_bound,
    check_unsupervised_bound,
    product_joint,
    random_joint,
)
from seal.trainer import objective

from objective_reference import (
    FD_STEP,
    GRAD_RTOL,
    assign,
    flatten,
    frozen_scores,
    grads_vector,
    objective_reference,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def report(criterion, name, ok, detail):
    print(f"\n[ACCEPTANCE] criterion {criterion} ({name}): "
          f"{'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ------------------------------------------------------------------
# criterion 1: gradient correctness on a <= 200 parameter model
# ------------------------------------------------------------------


def _fd(value_fn, state):
    base = flatten(state)
    out = np.zeros_like(base)
    work = state.copy()
    for i in range(base.size):
        probe = base.copy()
        probe[i] = base[i] + FD_STEP
        assign(work, probe)
        hi = value_fn(work)
        probe[i] = base[i] - FD_STEP
        assign(work, probe)
        lo = value_fn(work)
        out[i] = (hi - lo) / (2 * FD_STEP)
    return out


def _rel_err(analytic, fd):
    return float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12))


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    spec = balanced_hierarchy([2, 3, 4])
    state = init_model(spec, in_dim=4, hidden=(6,), proj_dim=6, seed=5)
    assert state.num_params() <= 200, state.num_params()
    rng = np.random.default_rng(0)
    xa = rng.standard_normal((5, 4))
    xb = rng.standard_normal((5, 4))
    cfg = LossConfig(soft_smoothness=0.4)
    base_a = forward(state, xa)
    base_b = forward(state, xb)
    labels = rng.integers(0, 4, size=5)
    label_cols = [np.minimum(labels, spec.counts[h] - 1) for h in range(3)]
    mask = np.array([True, True, False, True, False])
    worst = {}

    # classification head at the finest level (all-pass mask)
    pseudo = softmax(base_b.scores[2] / state.tau)

    def cls_value(s):
        p = softmax(forward(s, xa).scores[2] / s.tau)
        return cls_loss(p, pseudo, label_cols[2], mask, cfg)[0]

    probs_a = [softmax(sc / state.tau) for sc in base_a.scores]
    _, d_logits = cls_loss(probs_a[2], pseudo, label_cols[2], mask, cfg)
    analytic = grads_vector(
        backward(state, base_a, d_scores=[None, None, d_logits / state.tau])
    )
    worst["cls"] = _rel_err(analytic, _fd(cls_value, state))

    # classification head at level 1: finite differences against the
    # frozen-finer-slice function, plus exact zero on blocked paths
    frozen = [z.copy() for z in base_a.z_slices]
    pseudo1 = softmax(base_b.scores[0] / state.tau)

    def cls1_value(s):
        p = softmax(frozen_scores(s, xa, 1, frozen) / s.tau)
        return cls_loss(p, pseudo1, label_cols[0], mask, cfg)[0]

    _, d_logits1 = cls_loss(probs_a[0], pseudo1, label_cols[0], mask, cfg)
    grads1 = backward(state, base_a, d_scores=[d_logits1 / state.tau, None, None])
    worst["cls_blocked"] = _rel_err(grads_vector(grads1), _fd(cls1_value, state))
    bounds = state.slice_bounds
    n_weights = len(state.weights)
    d_protos1 = grads1[2 * n_weights :]
    blocked_zero = (
        np.all(grads1[n_weights - 1][:, bounds[1] :] == 0.0)
        and np.all(d_protos1[1] == 0.0)
        and np.all(d_protos1[2] == 0.0)
    )

    # soft contrastive at level 2 across two views, frozen soft targets
    soft = soft_labels(similarity_matrix(base_a.z_slices[1]), cfg.soft_smoothness)
    lam_c = 0.6

    def hscl_value(s):
        za = forward(s, xa).z_slices[1]
        zb = forward(s, xb).z_slices[1]
        return hscl_loss(za, zb, soft, lam_c)[0]

    _, dza, dzb = hscl_loss(base_a.z_slices[1], base_b.z_slices[1], soft, lam_c)
    g = [
        ga + gb
        for ga, gb in zip(
            backward(state, base_a, d_slices=[None, dza, None]),
            backward(state, base_b, d_slices=[None, dzb, None]),
        )
    ]
    worst["hscl"] = _rel_err(grads_vector(g), _fd(hscl_value, state))

    # supervised contrastive at the finest level
    def supcon_value(s):
        za = forward(s, xa).z_slices[2]
        zb = forward(s, xb).z_slices[2]
        return supcon_loss(za, zb, label_cols[2], mask, cfg.tau)[0]

    _, dza, dzb = supcon_loss(
        base_a.z_slices[2], base_b.z_slices[2], label_cols[2], mask, cfg.tau
    )
    g = [
        ga + gb
        for ga, gb in zip(
            backward(state, base_a, d_slices=[None, None, dza]),
            backward(state, base_b, d_slices=[None, None, dzb]),
        )
    ]
    worst["supcon"] = _rel_err(grads_vector(g), _fd(supcon_value, state))

    # consistency distillation, detached target (frozen fine posterior);
    # coarse heads carry the stop-gradient mask, so their finite-difference
    # functions hold the finer slices at the base values
    transitions = [init_transition(spec, {0, 1}, h) for h in (1, 2)]
    tau_eff = state.tau * cfg.tau_consistency
    fine_frozen = consistency_probs(base_a.scores[2], tau_eff)

    def coarse_probs(s, level):
        return consistency_probs(frozen_scores(s, xa, level, frozen), tau_eff)

    def cgc_value(s):
        return cgc_loss([coarse_probs(s, 1), coarse_probs(s, 2)], fine_frozen, transitions)[0]

    levels = [consistency_probs(base_a.scores[h], tau_eff) for h in (0, 1)]
    _, d_levels, _ = cgc_loss(levels, fine_frozen, transitions)
    g = backward(
        state, base_a, d_scores=[d_levels[0] / tau_eff, d_levels[1] / tau_eff, None]
    )
    worst["cgc"] = _rel_err(grads_vector(g), _fd(cgc_value, state))

    # consistency distillation with full backpropagation into the target
    # (the fine head has an all-pass mask, so only it runs live there)
    def cgc_full_value(s):
        fine_live = consistency_probs(forward(s, xa).scores[2], tau_eff)
        return cgc_loss([coarse_probs(s, 1), coarse_probs(s, 2)], fine_live, transitions)[0]

    probs = [consistency_probs(base_a.scores[h], tau_eff) for h in range(3)]
    _, d_levels, d_fine = cgc_loss(probs[:2], probs[2], transitions)
    g = backward(
        state,
        base_a,
        d_scores=[d_levels[0] / tau_eff, d_levels[1] / tau_eff, d_fine / tau_eff],
    )
    worst["cgc_full"] = _rel_err(grads_vector(g), _fd(cgc_full_value, state))

    # the whole training objective: the summed loss_total against the
    # gradient objective returns, through non-uniform transition rows and
    # the consistency term's live fine target. The stop-gradients are
    # constants: the sharpened pseudo-labels, the soft targets and the
    # coarse heads' finer slices (of either view)
    drift = np.random.default_rng(3)
    moved = [
        update_transition(
            tm, drift.dirichlet(np.ones(tm.n_coarse), 12), drift.dirichlet(np.ones(4), 12), 0.3
        )
        for tm in transitions
    ]
    assert all(np.ptp(tm.entries[2:]) > 0.01 for tm in moved)
    components, grads = objective(state, xa, xb, mask, label_cols, moved, cfg, lam_c)
    objective_value = objective_reference(state, xa, xb, mask, label_cols, moved, cfg, lam_c)

    assert abs(objective_value(state) - components["loss_total"]) <= 1e-12 * abs(
        components["loss_total"]
    )
    worst["objective"] = _rel_err(grads_vector(grads), _fd(objective_value, state))

    elapsed = time.perf_counter() - started
    ok = all(err < GRAD_RTOL for err in worst.values()) and blocked_zero and elapsed < 30
    detail = (
        "rel err "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f"; blocked paths zero={blocked_zero}; {elapsed:.1f}s"
    )
    report(1, "gradient correctness", ok, detail)


# ------------------------------------------------------------------
# criterion 2: transition-matrix invariants under 1,000 random updates
# ------------------------------------------------------------------


def test_criterion_2_transition_invariants():
    started = time.perf_counter()
    spec = balanced_hierarchy([3, 6, 12])
    rng = np.random.default_rng(7)
    known = {0, 2, 5, 7, 11}
    matrices = [init_transition(spec, known, h) for h in (1, 2)]
    known_rows = [
        {k: tm.entries[k].copy() for k in known} for tm in matrices
    ]
    ok = True
    for _ in range(1000):
        which = int(rng.integers(len(matrices)))
        tm = matrices[which]
        n = int(rng.integers(1, 24))
        coarse = rng.dirichlet(np.ones(tm.n_coarse), size=n)
        fine = rng.dirichlet(np.ones(tm.n_fine), size=n)
        tm = update_transition(tm, coarse, fine, float(rng.random()))
        matrices[which] = tm
        ok &= bool(np.all(tm.entries >= 0))
        ok &= bool(np.all(np.abs(tm.entries.sum(axis=1) - 1.0) <= 1e-9))
    for tm, frozen in zip(matrices, known_rows):
        for k, row in frozen.items():
            ok &= bool(np.array_equal(tm.entries[k], row))
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5
    report(2, "transition-matrix invariants", ok,
           f"1000 random updates, rows stochastic, known rows bitwise fixed; {elapsed:.1f}s")


# ------------------------------------------------------------------
# criterion 3: Hungarian accuracy equals brute force on 500 instances
# ------------------------------------------------------------------


def test_criterion_3_hungarian_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    perms_cache = {}
    mismatches = 0
    for _ in range(500):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(4, 80))
        y_true = rng.integers(0, k, size=n)
        y_pred = rng.integers(0, k, size=n)
        acc, _ = hungarian_acc(y_true, y_pred, k)
        if k not in perms_cache:
            perms_cache[k] = np.array(list(itertools.permutations(range(k))))
        perms = perms_cache[k]
        w = np.zeros((k, k), dtype=np.int64)
        np.add.at(w, (y_pred, y_true), 1)
        best = w[perms, np.arange(k)].sum(axis=1).max()
        if acc != best / n:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10
    report(3, "Hungarian oracle equivalence", ok,
           f"500 instances K<=7, {mismatches} mismatches; {elapsed:.1f}s")


# ------------------------------------------------------------------
# criterion 4: theory suite at full trial counts
# ------------------------------------------------------------------


def test_criterion_4_theory_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(13)
    tol = 1e-12

    worst_chain = 0.0
    for _ in range(2000):
        j = random_joint(("Z", "Y1", "Y2", "Y3"), (2, 2, 2, 2), rng)
        worst_chain = max(worst_chain, chain_rule_residual(j, ("Z",), ("Y1", "Y2", "Y3")))

    sup_ok = True
    min_mi = np.inf
    for _ in range(10000):
        j = random_joint(("Z", "Y1", "Y2"), (2, 2, 2), rng)
        res = check_supervised_bound(j)
        sup_ok &= res.holds
        min_mi = min(min_mi, res.lhs, res.rhs)  # both sides are MIs

    unsup_ok = True
    from seal.theory import conditional_mi

    for _ in range(10000):
        j = random_joint(("X", "Y1", "Y2"), (2, 2, 2), rng)
        unsup_ok &= check_unsupervised_bound(j).holds
        min_mi = min(min_mi, conditional_mi(j, ("X",), ("Y1",), ("Y2",)))

    worst_ind = 0.0
    for _ in range(2000):
        block_l = random_joint(("Zl", "Yl"), (3, 2), rng)
        block_u = random_joint(("Zu", "Yu"), (2, 3), rng)
        worst_ind = max(
            worst_ind, check_independence_lemma(product_joint(block_l, block_u)).max_residual
        )

    elapsed = time.perf_counter() - started
    ok = (
        worst_chain < tol and sup_ok and unsup_ok and worst_ind < tol
        and min_mi >= -tol and elapsed < 60
    )
    report(4, "theory suite", ok,
           f"chain residual {worst_chain:.1e}, bounds hold on 10000+10000 joints, "
           f"min MI {min_mi:.1e}, independence residual {worst_ind:.1e}; {elapsed:.1f}s")


# ------------------------------------------------------------------
# criteria 5-7: the frozen training experiments
# ------------------------------------------------------------------


# the arms and seeds each experiment reads; the fixture trains them all
# up front, the three-level arms first because they take longest
SEEDS = (0, 1, 2, 3, 4)
CGC_SEEDS = (0, 1, 2)
EXPERIMENT_ARMS = {
    "test_criterion_5_hierarchy_beats_baseline": (("seal", "baseline"), SEEDS),
    "test_criterion_6_shuffled_hierarchy_hurts": (("seal", "seal_shuffled_hierarchy"), SEEDS),
    "test_criterion_7_consistency_effect": (("seal", "seal_no_cgc"), CGC_SEEDS),
}
_ARM_ORDER = ("seal", "seal_shuffled_hierarchy", "seal_no_cgc", "baseline")
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _final_metrics(arm, seed):
    return run_arm(arm, seed)[0]


@pytest.fixture(scope="module")
def arm_runner(request):
    """Trains every (arm, seed) pair the selected experiments read, at
    once on a spawned process pool with one BLAS thread per worker, then
    serves their final metrics. Each arm seeds itself, so the numbers are
    the ones a sequential run gives."""
    selected = {item.name for item in request.session.items}
    pairs = sorted(
        {(arm, seed)
         for name, (arms, seeds) in EXPERIMENT_ARMS.items() if name in selected
         for arm in arms for seed in seeds},
        key=lambda pair: (_ARM_ORDER.index(pair[0]), pair[1]),
    )
    started = time.perf_counter()
    workers = min(os.cpu_count() or 1, len(pairs))
    with pytest.MonkeyPatch.context() as env:
        for var in _BLAS_THREAD_VARS:  # read by each worker's numpy at import
            env.setenv(var, "1")
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            finals = list(pool.map(_final_metrics, *zip(*pairs)))
    print(f"\n[ACCEPTANCE] trained {len(pairs)} arms on {workers} worker(s) in "
          f"{(time.perf_counter() - started) / 60:.1f} min")
    cache = dict(zip(pairs, finals))
    return lambda arm, seed: cache[(arm, seed)]


@pytest.mark.experiment
def test_criterion_5_hierarchy_beats_baseline(arm_runner):
    seal = [arm_runner("seal", s)["all"] for s in SEEDS]
    base = [arm_runner("baseline", s)["all"] for s in SEEDS]
    seal_mean, base_mean = float(np.mean(seal)), float(np.mean(base))
    ok = seal_mean >= 0.90 and (seal_mean - base_mean) >= 0.03
    report(5, "hierarchy vs baseline", ok,
           f"full objective {seal_mean:.3f} vs baseline {base_mean:.3f} "
           f"(gap {seal_mean - base_mean:+.3f}, need >= +0.030 and >= 0.900)")


@pytest.mark.experiment
def test_criterion_6_shuffled_hierarchy_hurts(arm_runner):
    true_h = [arm_runner("seal", s)["all"] for s in SEEDS]
    shuffled = [arm_runner("seal_shuffled_hierarchy", s)["all"] for s in SEEDS]
    drop = float(np.mean(true_h) - np.mean(shuffled))
    ok = drop >= 0.02
    report(6, "shuffled-hierarchy ablation", ok,
           f"true hierarchy {np.mean(true_h):.3f} vs shuffled {np.mean(shuffled):.3f} "
           f"(drop {drop:+.3f}, need >= 0.020)")


@pytest.mark.experiment
def test_criterion_7_consistency_effect(arm_runner):
    # "fine-coarse consistency" is read literally: the finest head's
    # predictions walked up the taxonomy against the coarsest head's;
    # the across-level mean is reported alongside as a diagnostic
    with_cgc = [coarse_consistency(arm_runner("seal", s)) for s in CGC_SEEDS]
    without = [coarse_consistency(arm_runner("seal_no_cgc", s)) for s in CGC_SEEDS]
    mean_with = [mean_consistency(arm_runner("seal", s)) for s in CGC_SEEDS]
    mean_without = [mean_consistency(arm_runner("seal_no_cgc", s)) for s in CGC_SEEDS]
    gain = float(np.mean(with_cgc) - np.mean(without))
    ok = gain >= 0.10
    report(7, "consistency distillation effect", ok,
           f"fine-coarse consistency {np.mean(with_cgc):.3f} with distillation vs "
           f"{np.mean(without):.3f} without (gain {gain:+.3f}, need >= 0.100; "
           f"all-level means {np.mean(mean_with):.3f} vs {np.mean(mean_without):.3f})")


# ------------------------------------------------------------------
# criterion 8: byte-identical CLI runs in deterministic mode
# ------------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    started = time.perf_counter()
    config = {
        "seed": 9,
        "data": {
            "synthetic": {"counts": [2, 6], "per_class": 12, "dim": 8,
                          "spreads": [6, 2, 0.5], "seed": 2},
            "old_fraction": 0.5,
            "labelled_fraction": 0.5,
            "split_seed": 2,
        },
        "train": {"epochs": 4, "batch_size": 8},
        "loss": {},
        "model": {"hidden": [8], "proj_dim": 8},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "seal.cli", "--deterministic",
             "train", "--config", str(cfg), "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "metrics.jsonl").read_bytes())
    elapsed = time.perf_counter() - started
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    report(8, "deterministic CLI runs", ok,
           f"metrics.jsonl byte-identical across two runs ({len(blobs[0])} bytes); "
           f"{elapsed:.1f}s")
