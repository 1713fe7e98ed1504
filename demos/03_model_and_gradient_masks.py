"""The sliced encoder and its per-level gradient masks.

Runs a forward pass, shows that every level reads the same concatenated
feature while backward passes a coarse head's gradient to no
projection column of a finer slice, and validates one analytic gradient
against central finite differences.
"""

import numpy as np

from seal.hierarchy import balanced_hierarchy
from seal.model import backward, forward, init_model, softmax

spec = balanced_hierarchy([2, 3, 6])
state = init_model(spec, in_dim=8, hidden=(10,), proj_dim=9, seed=0)
x = np.random.default_rng(1).standard_normal((4, 8))
trace = forward(state, x)

print("per-level class counts:", spec.counts)
print("slice widths:", np.diff(state.slice_bounds).tolist())
print("every head reads one feature of norm",
      f"{np.linalg.norm(trace.z_hat[0]):.4f} over all {state.proj_dim} columns")

# the heads end at cosine scores; the classifier reads softmax(scores / tau)
print("\nclassifier probability row sums per level:",
      [float(softmax(s / state.tau).sum(axis=1).mean()) for s in trace.scores])

# gradient from one head at a time: backward forms each head's gradient
# over its own and coarser slices only, so finer slices' columns get none.
# backward returns one gradient per tensor of parameters(state), in its
# order: weight matrices (the projection last), biases, prototypes
bounds = state.slice_bounds
d_projection = len(state.weights) - 1
rng = np.random.default_rng(2)
print("\nmax |grad| into each slice's projection columns, per head:")
for level in (1, 2, 3):
    d_scores = [None, None, None]
    d_scores[level - 1] = rng.standard_normal(trace.scores[level - 1].shape)
    grads = backward(state, trace, d_scores=d_scores)
    per_slice = [
        float(np.abs(grads[d_projection][:, bounds[k] : bounds[k + 1]]).max())
        for k in range(state.levels)
    ]
    print(f"  level-{level} head: " + ", ".join(f"slice {k + 1} {g:.2e}" for k, g in enumerate(per_slice)))

# finite-difference check of the finest head (it blocks no slice)
upstream = np.random.default_rng(3).standard_normal(trace.scores[2].shape)
grads = backward(state, trace, d_scores=[None, None, upstream])
w = state.weights[0]
i, j = 2, 3
step = 1e-6
w[i, j] += step
up = float((forward(state, x).scores[2] * upstream).sum())
w[i, j] -= 2 * step
down = float((forward(state, x).scores[2] * upstream).sum())
w[i, j] += step
fd = (up - down) / (2 * step)
print(f"\nfinite-difference check on one encoder weight: "
      f"analytic {grads[0][i, j]:.10f} vs fd {fd:.10f}")
