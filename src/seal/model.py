"""Sliced-projection MLP encoder with per-level cosine classifiers.

The encoder is a small fully-connected net with a smooth erf-based
activation, followed by one linear projection whose output is split
into H per-level slices. Each slice is L2-normalized; every level
classifies the renormalized concatenation of all slices against its own
set of unit-norm prototypes, but gradients from a level-h head are
blocked from flowing into slices finer than h (the pass-through
controller). Differentiation is manual reverse mode over a recorded
forward trace, in float64 so finite-difference checks are meaningful;
the trace keeps each hidden layer's erf so that backward reuses it
instead of evaluating it again. An inference loop hands forward a trace
made once (``empty_trace``) to overwrite batch after batch, so that a
pass allocates no batch-sized array.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy.special import erf

from .errors import DataFormatError, InputError, NumericError, read_json
from .hierarchy import HierarchySpec

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(x: np.ndarray, erf_x: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """gelu at x, given erf_x = erf(x / sqrt(2)), which the forward pass
    keeps for gelu_grad. The result goes to ``out`` and the term
    1 + erf_x to ``work``, arrays shaped like x."""
    half_x = np.multiply(0.5, x, out=out)
    return np.multiply(half_x, np.add(1.0, erf_x, out=work), out=half_x)


def gelu_grad(x: np.ndarray, erf_x: np.ndarray) -> np.ndarray:
    """Derivative of gelu at x, given erf_x = erf(x / sqrt(2)) from the
    forward pass."""
    return 0.5 * (1.0 + erf_x) + x * _INV_SQRT2PI * np.exp(-0.5 * x * x)


def parameters(state: ModelState) -> list[np.ndarray]:
    """The parameter tensors of a model in the one order every walk over
    them uses: weight matrices, biases, prototypes. ``backward`` returns
    its gradients, and the optimizer keeps its velocity, as lists in this
    order."""
    return [*state.weights, *state.biases, *state.prototypes]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, e.sum(axis=-1, keepdims=True), out=e)


@dataclass(eq=False)
class ModelState:
    """All trainable parameters plus the slice layout and temperatures.

    weights/biases hold the hidden layers followed by the projection
    layer; prototypes[h-1] is the (n_h, d_proj) unit-row matrix for
    level h.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    slice_bounds: np.ndarray
    prototypes: list[np.ndarray]
    tau: float = 0.1
    tau_sharp: float = 0.07

    @property
    def levels(self) -> int:
        return len(self.prototypes)

    @property
    def proj_dim(self) -> int:
        return int(self.slice_bounds[-1])

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    def num_params(self) -> int:
        return int(sum(t.size for t in parameters(self)))

    def copy(self) -> "ModelState":
        return ModelState(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            slice_bounds=self.slice_bounds.copy(),
            prototypes=[p.copy() for p in self.prototypes],
            tau=self.tau,
            tau_sharp=self.tau_sharp,
        )


def slice_widths(proj_dim: int, levels: int) -> list[int]:
    """Equal split of the projection across levels, remainder to the
    finest level."""
    if proj_dim < levels:
        raise InputError(f"projection dim {proj_dim} smaller than level count {levels}")
    widths = [proj_dim // levels] * levels
    widths[-1] += proj_dim % levels
    return widths


def init_model(
    spec: HierarchySpec,
    in_dim: int,
    hidden=(64, 64),
    proj_dim: int | None = None,
    tau: float = 0.1,
    tau_sharp: float = 0.07,
    seed: int = 0,
) -> ModelState:
    """Seeded parameter initialization: 1/sqrt(fan_in)-scaled Gaussian
    layers and unit prototypes. The default projection gives each level
    a 64-wide slice; narrower slices cannot hold many near-orthogonal
    class directions and destabilize the soft contrastive term.
    """
    if tau <= 0 or tau_sharp <= 0:
        raise InputError("temperatures must be positive")
    if proj_dim is None:
        proj_dim = 64 * spec.levels
    # checked before any weight is drawn
    widths = slice_widths(proj_dim, spec.levels)
    rng = np.random.default_rng(seed)
    dims = [in_dim] + list(hidden) + [proj_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    bounds = np.concatenate([[0], np.cumsum(widths)])
    prototypes = []
    for n_h in spec.counts:
        protos = rng.standard_normal((n_h, proj_dim))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        prototypes.append(protos)
    return ModelState(
        weights=weights,
        biases=biases,
        slice_bounds=bounds.astype(np.int64),
        prototypes=prototypes,
        tau=tau,
        tau_sharp=tau_sharp,
    )


@dataclass(eq=False)
class ForwardTrace:
    """Everything the backward pass and the training objective read:
    layer pre-activations, the erf(a / sqrt(2)) of each (which backward
    reuses for the activation derivative) and activations, per-slice
    norms and normalized slices, the renormalized aggregate, and the
    per-level cosine scores (the training objective applies temperatures).
    ``work`` is the pass's scratch memory and holds no result."""

    x: np.ndarray
    pre_activations: list[np.ndarray]
    erfs: list[np.ndarray]
    activations: list[np.ndarray]
    slice_norms: list[np.ndarray]
    z_slices: list[np.ndarray]
    cat_norm: np.ndarray
    z_hat: np.ndarray
    scores: list[np.ndarray]
    work: np.ndarray = field(repr=False)

    @property
    def batch_size(self) -> int:
        return self.x.shape[0]

    def scratch(self, shape: tuple[int, int]) -> np.ndarray:
        """A contiguous view of ``work`` with the given shape."""
        return self.work[: shape[0] * shape[1]].reshape(shape)

    def head(self, rows: int) -> "ForwardTrace":
        """A trace of ``rows`` rows whose arrays are the leading rows of
        this one's (contiguous views), for a shorter last batch."""
        parts = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "work":
                parts[f.name] = value
            elif isinstance(value, list):
                parts[f.name] = [a[:rows] for a in value]
            else:
                parts[f.name] = value[:rows]
        return ForwardTrace(**parts)


def empty_trace(state: ModelState, x: np.ndarray) -> ForwardTrace:
    """A trace for batch x with every array allocated and unfilled, for
    ``forward(..., out=)`` to fill with this batch or another of its
    size."""
    n = x.shape[0]
    hidden = [w.shape[1] for w in state.weights[:-1]]
    widths = np.diff(state.slice_bounds).tolist()
    classes = [p.shape[0] for p in state.prototypes]
    return ForwardTrace(
        x=x,
        pre_activations=[np.empty((n, w)) for w in hidden],
        erfs=[np.empty((n, w)) for w in hidden],
        activations=[np.empty((n, w)) for w in hidden],
        slice_norms=[np.empty((n, 1)) for _ in widths],
        z_slices=[np.empty((n, w)) for w in widths],
        cat_norm=np.empty((n, 1)),
        z_hat=np.empty((n, state.proj_dim)),
        scores=[np.empty((n, c)) for c in classes],
        work=np.empty(n * max(hidden + [state.proj_dim])),
    )


def _all_finite(a: np.ndarray) -> bool:
    # min and max propagate NaN, so both are finite exactly when every
    # entry is; unlike np.isfinite(a).all() this makes no temporary
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def _row_norms(rows: np.ndarray, out: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """np.linalg.norm(rows, axis=1, keepdims=True) with the same
    operations, written to out; ``squares`` is a contiguous scratch
    array shaped like rows."""
    np.multiply(rows, rows, out=squares)
    np.add.reduce(squares, axis=1, keepdims=True, out=out)
    return np.sqrt(out, out=out)


def forward(state: ModelState, x: np.ndarray, out: ForwardTrace | None = None) -> ForwardTrace:
    """Run the encoder and every per-level head up to its cosine scores.

    ``out`` may be the trace of an earlier call on this model with the
    same batch size: its arrays are overwritten in place and it is
    returned, so the pass allocates no batch-sized array. The caller must
    hold no references into ``out`` that it still needs. Without ``out``
    a new trace is made; the bits are the same either way.

    Raises NumericError naming the layer if activations go non-finite,
    or if any slice collapses to zero norm.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InputError("input must be a non-empty (batch, features) matrix")
    if x.shape[1] != state.in_dim:
        raise InputError(f"input dim {x.shape[1]} does not match encoder dim {state.in_dim}")
    if out is None:
        trace = empty_trace(state, x)
    elif out.batch_size != x.shape[0]:
        raise InputError(
            f"the trace to reuse holds {out.batch_size} rows, the batch has {x.shape[0]}"
        )
    else:
        trace = out
        trace.x = x
    h = x
    for layer in range(len(state.weights) - 1):
        a, e = trace.pre_activations[layer], trace.erfs[layer]
        np.matmul(h, state.weights[layer], out=a)
        a += state.biases[layer]
        if not _all_finite(a):
            raise NumericError(f"non-finite activations in hidden layer {layer}")
        erf(np.multiply(a, _INV_SQRT2, out=e), out=e)
        h = gelu(a, e, out=trace.activations[layer], work=trace.scratch(a.shape))
    # the projection goes into z_hat's buffer: each slice is copied out
    # before it is normalized and written back into its own columns
    z_hat = np.matmul(h, state.weights[-1], out=trace.z_hat)
    z_hat += state.biases[-1]
    if not _all_finite(z_hat):
        raise NumericError("non-finite activations in projection layer")

    # every head reads the full concatenation of the normalized slices;
    # backward blocks finer slices
    bounds = state.slice_bounds
    for lvl in range(state.levels):
        cols = slice(bounds[lvl], bounds[lvl + 1])
        # copied out first: a ufunc on the strided view would allocate an
        # iteration buffer
        s, n = trace.z_slices[lvl], trace.slice_norms[lvl]
        s[...] = z_hat[:, cols]
        with np.errstate(over="ignore"):  # finiteness is checked explicitly below
            _row_norms(s, n, trace.scratch(s.shape))
        if np.any(n == 0) or not np.all(np.isfinite(n)):
            raise NumericError(f"degenerate norm in slice normalization at level {lvl + 1}")
        s /= n
        z_hat[:, cols] = s
    _row_norms(z_hat, trace.cat_norm, trace.scratch(z_hat.shape))
    z_hat /= trace.cat_norm

    for lvl, protos in enumerate(state.prototypes):
        np.matmul(z_hat, protos.T, out=trace.scores[lvl])
    return trace


def _norm_backward(d_out: np.ndarray, normalized: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Backprop through v -> v / ||v|| given the normalized rows."""
    radial = (d_out * normalized).sum(axis=1, keepdims=True)
    return (d_out - radial * normalized) / norms


def backward(
    state: ModelState,
    trace: ForwardTrace,
    d_scores: list[np.ndarray],
    d_slices: list[np.ndarray],
) -> list[np.ndarray]:
    """Reverse-mode accumulation honoring the per-level gradient masks;
    returns one gradient per tensor of ``parameters(state)``, in its order.

    d_scores[h-1] is the upstream gradient w.r.t. the level-h cosine
    scores (pre-temperature); d_slices[h-1] is w.r.t. the normalized
    level-h slice (representation losses attach here and bypass the
    per-head gradient block). Each list holds one array per level; a
    silent head or slice takes a zero array, which gives a zero prototype
    gradient through the same product. No gradient is formed for the
    input.
    """
    levels = state.levels
    if len(d_scores) != levels or len(d_slices) != levels:
        raise InputError(f"expected {levels} upstream entries per list")
    bounds = state.slice_bounds

    d_protos = []
    d_cat_total = np.zeros_like(trace.z_hat)
    for lvl, d_sc in enumerate(d_scores):
        if d_sc.shape != trace.scores[lvl].shape:
            raise InputError(
                f"level {lvl + 1} score gradient shape {d_sc.shape} does not match "
                f"{trace.scores[lvl].shape}"
            )
        d_protos.append(d_sc.T @ trace.z_hat)
        d_hat = d_sc @ state.prototypes[lvl]
        # backward through the aggregate's normalization; the radial term
        # reads the full width, but the gradient controller lets this head
        # reach slices 1..lvl+1 only, so only that prefix is formed
        radial = (d_hat * trace.z_hat).sum(axis=1, keepdims=True)
        live = bounds[lvl + 1]
        d_cat_total[:, :live] += (
            d_hat[:, :live] - radial * trace.z_hat[:, :live]
        ) / trace.cat_norm

    d_raw = np.empty_like(trace.z_hat)
    for lvl, d_extra in enumerate(d_slices):
        # a view: d_cat_total is not read again
        d_z = d_cat_total[:, bounds[lvl] : bounds[lvl + 1]]
        if d_extra.shape != trace.z_slices[lvl].shape:
            raise InputError(
                f"level {lvl + 1} slice gradient shape {d_extra.shape} does not "
                f"match {trace.z_slices[lvl].shape}"
            )
        d_z += d_extra
        d_raw[:, bounds[lvl] : bounds[lvl + 1]] = _norm_backward(
            d_z, trace.z_slices[lvl], trace.slice_norms[lvl]
        )

    # projection layer, then hidden layers, last to first; d_a is the
    # gradient of the layer's pre-activation
    n_layers = len(state.weights)
    d_weights, d_biases = [None] * n_layers, [None] * n_layers
    d_a = d_raw
    for layer in range(n_layers - 1, -1, -1):
        h_prev = trace.activations[layer - 1] if layer > 0 else trace.x
        d_weights[layer] = h_prev.T @ d_a
        d_biases[layer] = d_a.sum(axis=0)
        if layer > 0:
            d_h = d_a @ state.weights[layer].T
            d_a = d_h * gelu_grad(trace.pre_activations[layer - 1], trace.erfs[layer - 1])
    return [*d_weights, *d_biases, *d_protos]


def renormalize_prototypes(state: ModelState) -> None:
    """Project prototype rows back to unit norm (call after each
    optimizer step)."""
    for protos in state.prototypes:
        norms = np.linalg.norm(protos, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise NumericError("prototype row collapsed to zero norm")
        protos /= norms


_FORMAT_VERSION = 2


def _ints(value, low: int) -> bool:
    # a list of integers (bools are not), each at least low
    return type(value) is list and all(type(v) is int and v >= low for v in value)


# each sidecar field the loader reads: its test, and what the test asks for
_POSITIVE = (lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max, "a positive number")
_WIDTHS = (lambda v: _ints(v, 1), "a list of integers of at least 1")
_SIDECAR_FIELDS = {
    "format_version": (lambda v: type(v) is int and v == _FORMAT_VERSION, str(_FORMAT_VERSION)),
    "in_dim": (lambda v: _ints([v], 1), "an integer of at least 1"),
    "hidden": _WIDTHS,
    "slice_bounds": (
        lambda v: _ints(v, 0) and len(v) > 1 and v[0] == 0 and v == sorted(set(v)),
        "a list of integers rising strictly from 0",
    ),
    "counts": _WIDTHS,
    "tau": _POSITIVE,
    "tau_sharp": _POSITIVE,
}


def save_checkpoint(path, state: ModelState, meta: dict | None = None) -> None:
    """Write the tensors of ``parameters(state)`` to ``path`` in that
    order, as one run of little-endian float64 with no header, and the
    one record of their shapes to the JSON sidecar <path>.meta.json:
    format_version, in_dim, hidden, slice_bounds, counts (classes per
    level), tau, tau_sharp, and payload_sha256 (the hex SHA-256 of the
    payload). The caller's ``meta`` goes into the sidecar too; where it
    names one of these fields, the writer's value wins."""
    path = Path(path)
    payload = b"".join(np.ascontiguousarray(t, dtype="<f8").tobytes() for t in parameters(state))
    path.write_bytes(payload)
    sidecar = {
        **(meta or {}),
        "format_version": _FORMAT_VERSION,
        "in_dim": state.in_dim,
        "hidden": [w.shape[1] for w in state.weights[:-1]],
        "slice_bounds": state.slice_bounds.tolist(),
        "counts": [p.shape[0] for p in state.prototypes],
        "tau": state.tau,
        "tau_sharp": state.tau_sharp,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path) -> tuple[ModelState, dict]:
    """Read a checkpoint written by save_checkpoint; returns (state,
    sidecar fields). The shapes are built from the sidecar, so they
    chain. A missing or malformed sidecar field is a DataFormatError
    naming the sidecar and the field; a payload of another size than
    the shapes need is one naming both files, raised before anything is
    allocated. Neither the payload's digest nor its finiteness is
    checked: a caller that compares the loaded tensors itself must be
    able to load a payload that changed, so the digest check is
    ``seal eval --checkpoint``'s."""
    path = Path(path)
    sidecar_path = Path(str(path) + ".meta.json")
    if not path.exists():
        raise DataFormatError(f"{path}: no such checkpoint")
    if not sidecar_path.exists():
        raise DataFormatError(f"{sidecar_path}: missing metadata sidecar")
    meta = read_json(sidecar_path)
    if not isinstance(meta, dict):
        raise DataFormatError(f"{sidecar_path}: expected a JSON object")
    for name, (valid, expected) in _SIDECAR_FIELDS.items():
        if name not in meta:
            raise DataFormatError(f"{sidecar_path}: missing metadata field {name!r}")
        if not valid(meta[name]):
            raise DataFormatError(f"{sidecar_path}: {name} is {meta[name]!r}, expected {expected}")
    bounds, counts = meta["slice_bounds"], meta["counts"]
    if len(counts) != len(bounds) - 1:
        raise DataFormatError(
            f"{sidecar_path}: counts has {len(counts)} entries for {len(bounds) - 1} slices"
        )
    dims = [meta["in_dim"], *meta["hidden"], bounds[-1]]
    shapes = [*zip(dims, dims[1:]), *((d,) for d in dims[1:]), *((n, dims[-1]) for n in counts)]
    sizes = [math.prod(shape) for shape in shapes]
    need, size = 8 * sum(sizes), path.stat().st_size
    if size != need:
        raise DataFormatError(f"{path}: {size} bytes, the shapes in {sidecar_path} need {need}")
    parts = np.split(np.fromfile(path, dtype="<f8"), np.cumsum(sizes)[:-1])
    tensors = [part.reshape(shape) for part, shape in zip(parts, shapes)]
    n = len(dims) - 1
    weights, biases, prototypes = tensors[:n], tensors[n : 2 * n], tensors[2 * n :]
    state = ModelState(weights, biases, np.array(bounds, dtype=np.int64), prototypes,
                       float(meta["tau"]), float(meta["tau_sharp"]))
    return state, meta
