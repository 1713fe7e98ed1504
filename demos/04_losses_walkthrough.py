"""From batch similarities to soft contrastive targets and the
consistency distillation loss, on a batch small enough to read.
"""

import numpy as np

from seal.hierarchy import balanced_hierarchy, init_transition
from seal.losses import (
    cgc_loss,
    fuse_hierarchy,
    hscl_loss,
    similarity_matrix,
    soft_labels,
)

rng = np.random.default_rng(0)

# four samples: two aligned pairs; the losses take unit-norm rows, as the
# encoder's level slices are
z_coarse = np.array([[1, 0.1], [1, -0.1], [-1, 0.1], [-1, -0.1]], dtype=float)
z_fine = rng.standard_normal((4, 3))
z_coarse /= np.linalg.norm(z_coarse, axis=1, keepdims=True)
z_fine /= np.linalg.norm(z_fine, axis=1, keepdims=True)
s1 = similarity_matrix(z_coarse)
s2 = similarity_matrix(z_fine)
print("coarse-level similarities:\n", np.round(s1, 2))
print("fine-level similarities:\n", np.round(s2, 2))

fused = fuse_hierarchy([s1, s2])
print("\nfused (cumulative mean):\n", np.round(fused, 2))
for smooth in (0.0, 0.5, 1.0):
    soft = soft_labels(fused, smooth)
    print(f"soft labels at smoothness {smooth}: off-diagonal range "
          f"[{soft[~np.eye(4, dtype=bool)].min():+.2f}, {soft[~np.eye(4, dtype=bool)].max():+.2f}]")

# hscl_loss's similarity: lam * cosine - (1 - lam) * distance of unit rows
a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
print("\nhybrid similarity of orthogonal unit vectors:")
for lam in (1.0, 0.5, 0.0):
    print(f"  curriculum weight {lam}: {lam * (a @ b) - (1 - lam) * np.linalg.norm(a - b):+.4f}")

za = rng.standard_normal((4, 3))
zb = rng.standard_normal((4, 3))
za /= np.linalg.norm(za, axis=1, keepdims=True)
zb /= np.linalg.norm(zb, axis=1, keepdims=True)
soft = soft_labels(similarity_matrix(za), 0.005)
loss, dza, dzb = hscl_loss(za, zb, soft, lam_c=0.8)
print(f"\nsoft contrastive loss on the toy batch: {loss:.4f} "
      f"(gradient norms {np.linalg.norm(dza):.4f}, {np.linalg.norm(dzb):.4f})")

spec = balanced_hierarchy([2, 4])
tm = init_transition(spec, {0, 1}, 1)
fine_probs = np.array([[0.7, 0.1, 0.1, 0.1], [0.05, 0.8, 0.1, 0.05]])
target = fine_probs @ tm.entries
print("\nconsistency targets (fine posterior through the transition matrix):")
print(np.round(target, 3))
matched, _, _ = cgc_loss([target], fine_probs, [tm])
off = np.array([[0.5, 0.5], [0.5, 0.5]])
mismatched, _, _ = cgc_loss([off], fine_probs, [tm])
print(f"consistency loss when coarse matches the target: {matched:.6f}")
print(f"consistency loss for a uniform coarse posterior: {mismatched:.6f}")
