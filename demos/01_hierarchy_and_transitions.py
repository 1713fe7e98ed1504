"""Taxonomies and dynamic fine-to-coarse transition matrices.

Builds a three-level hierarchy, reads each fine class's ancestors from
its ``ancestors`` table, and shows how a transition matrix row for a
novel class drifts from uniform toward the coarse posterior of the
samples predicted as that class while known rows stay frozen.
"""

import numpy as np

from seal.hierarchy import balanced_hierarchy, init_transition, update_transition

spec = balanced_hierarchy([2, 4, 8])
print("counts per level:", spec.counts)
print("parent maps:", [m.tolist() for m in spec.parent_maps])

for fine in (0, 3, 5, 7):
    chain = spec.ancestors[fine].tolist()
    print(f"fine class {fine}: ancestors coarse->fine = {chain}")

# classes 0..3 are known, 4..7 are novel
known = {0, 1, 2, 3}
tm = init_transition(spec, known, level=1)
print("\ninitial transition matrix (level 1):")
print(np.round(tm.entries, 3))

rng = np.random.default_rng(0)
print("\nupdating with synthetic posteriors where novel class 6 is always")
print("predicted and its samples' coarse posterior concentrates on class 1:")
for step in range(1, 6):
    coarse = np.tile([0.1, 0.9], (32, 1)) + rng.normal(0, 0.02, (32, 2))
    coarse = np.abs(coarse)
    coarse /= coarse.sum(axis=1, keepdims=True)
    fine_probs = np.zeros((32, 8))
    fine_probs[:, 6] = 1.0
    tm = update_transition(tm, coarse, fine_probs, momentum=0.5)
    print(f"  after update {step}: row 6 = {np.round(tm.entries[6], 3)}")

print("\nknown row 0 is untouched:", tm.entries[0])
print("all row sums:", np.round(tm.entries.sum(axis=1), 12))
