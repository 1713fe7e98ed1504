"""A term-by-term reference of ``trainer.objective`` for gradient checks.

``objective_reference`` returns the summed training loss of one two-view
batch as a plain function of a model, with every stop-gradient of the
objective held at the values of the model it was built from: the
sharpened pseudo-labels, the soft targets and the coarse heads' finer
slices (of either view). Central differences of that function check the
gradient ``objective`` applies, for any arm's configs.
"""

import numpy as np

from seal.losses import (
    cgc_loss,
    cls_loss,
    consistency_probs,
    fuse_hierarchy,
    hscl_loss,
    sharpen,
    similarity_matrix,
    soft_labels,
    supcon_loss,
)
from seal.model import forward, softmax

FD_STEP = 1e-6
GRAD_RTOL = 1e-5


def flatten(state):
    return np.concatenate(
        [t.ravel() for t in state.weights + state.biases + state.prototypes]
    )


def assign(state, vec):
    offset = 0
    for t in state.weights + state.biases + state.prototypes:
        t[...] = vec[offset : offset + t.size].reshape(t.shape)
        offset += t.size


def grads_vector(grads):
    return np.concatenate([g.ravel() for g in grads])


def frozen_scores(state, x, level, frozen_slices):
    """Level head value with finer slices constant (the stop-gradient's
    value semantics, expressed as a plain function for differencing)."""
    trace = forward(state, x)
    slices = [
        trace.z_slices[k] if k < level else frozen_slices[k]
        for k in range(state.levels)
    ]
    cat = np.concatenate(slices, axis=1)
    z_hat = cat / np.linalg.norm(cat, axis=1, keepdims=True)
    return z_hat @ state.prototypes[level - 1].T


def objective_reference(state, xa, xb, mask, label_cols, transitions, cfg, lam_c):
    """f(s): what ``objective(state, xa, xb, mask, label_cols, transitions,
    cfg, lam_c)`` sums into ``loss_total``, at model s, with the
    stop-gradients frozen at ``state``."""
    base_a, base_b = forward(state, xa), forward(state, xb)
    frozen_a = [z.copy() for z in base_a.z_slices]
    frozen_b = [z.copy() for z in base_b.z_slices]
    targets_a = [sharpen(s, state.tau_sharp) for s in base_b.scores]
    targets_b = [sharpen(s, state.tau_sharp) for s in base_a.scores]
    sims = [similarity_matrix(z) for z in base_a.z_slices]
    softs = [
        soft_labels(fuse_hierarchy(sims[: h + 1]), cfg.soft_smoothness)
        for h in range(state.levels)
    ]
    heads = range(1, state.levels + 1)

    def value(s):
        za, zb = forward(s, xa).z_slices, forward(s, xb).z_slices
        sa = [frozen_scores(s, xa, h, frozen_a) for h in heads]
        sb = [frozen_scores(s, xb, h, frozen_b) for h in heads]
        cls = hscl = sup = 0.0
        for h in range(s.levels):
            pa, pb = softmax(sa[h] / s.tau), softmax(sb[h] / s.tau)
            cls += 0.5 * (cls_loss(pa, targets_a[h], label_cols[h], mask, cfg)[0]
                          + cls_loss(pb, targets_b[h], label_cols[h], mask, cfg)[0])
            hscl += hscl_loss(za[h], zb[h], softs[h], lam_c)[0]
            sup += supcon_loss(za[h], zb[h], label_cols[h], mask, cfg.tau)[0]
        cgc = 0.0
        if transitions:
            probs_c = [consistency_probs(sc, s.tau * cfg.tau_consistency) for sc in sa]
            cgc = cgc_loss(probs_c[:-1], probs_c[-1], transitions)[0]
        return (1 - cfg.balance) * hscl + cfg.balance * sup + cls + cgc

    return value
