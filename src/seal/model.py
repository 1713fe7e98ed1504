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
instead of evaluating it again.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import erf

from .errors import DataFormatError, InputError, NumericError
from .hierarchy import HierarchySpec

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
PROTO_NORM_TOL = 1e-9


def gelu(x: np.ndarray, erf_x: np.ndarray) -> np.ndarray:
    """gelu at x, given erf_x = erf(x / sqrt(2)), which the forward pass
    keeps for gelu_grad."""
    return 0.5 * x * (1.0 + erf_x)


def gelu_grad(x: np.ndarray, erf_x: np.ndarray) -> np.ndarray:
    """Derivative of gelu at x, given erf_x = erf(x / sqrt(2)) from the
    forward pass."""
    return 0.5 * (1.0 + erf_x) + x * _INV_SQRT2PI * np.exp(-0.5 * x * x)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
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
        tensors = self.weights + self.biases + self.prototypes
        return int(sum(t.size for t in tensors))

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
    rng = np.random.default_rng(seed)
    dims = [in_dim] + list(hidden) + [proj_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    bounds = np.concatenate([[0], np.cumsum(slice_widths(proj_dim, spec.levels))])
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


@dataclass
class ForwardTrace:
    """Everything the backward pass needs: layer pre-activations, the
    erf(a / sqrt(2)) of each (which backward reuses for the activation
    derivative) and activations, per-slice norms and normalized slices,
    the renormalized aggregate, and per-level scores/logits/probabilities."""

    x: np.ndarray
    pre_activations: list[np.ndarray]
    erfs: list[np.ndarray]
    activations: list[np.ndarray]
    z_raw: np.ndarray
    slice_norms: list[np.ndarray]
    z_slices: list[np.ndarray]
    cat_norm: np.ndarray
    z_hat: np.ndarray
    scores: list[np.ndarray]
    logits: list[np.ndarray]
    probs: list[np.ndarray]

    @property
    def batch_size(self) -> int:
        return self.x.shape[0]


def forward(state: ModelState, x: np.ndarray) -> ForwardTrace:
    """Run the encoder and every per-level head on a batch.

    Raises NumericError naming the layer if activations go non-finite,
    or if any slice collapses to zero norm.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InputError("input must be a non-empty (batch, features) matrix")
    if x.shape[1] != state.in_dim:
        raise InputError(f"input dim {x.shape[1]} does not match encoder dim {state.in_dim}")
    pre_acts, erfs, acts = [], [], []
    h = x
    n_hidden = len(state.weights) - 1
    for layer in range(n_hidden):
        a = h @ state.weights[layer] + state.biases[layer]
        if not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite activations in hidden layer {layer}")
        pre_acts.append(a)
        e = erf(a * _INV_SQRT2)
        erfs.append(e)
        h = gelu(a, e)
        acts.append(h)
    z_raw = h @ state.weights[-1] + state.biases[-1]
    if not np.all(np.isfinite(z_raw)):
        raise NumericError("non-finite activations in projection layer")

    bounds = state.slice_bounds
    z_slices, slice_norms = [], []
    for lvl in range(state.levels):
        s = z_raw[:, bounds[lvl] : bounds[lvl + 1]]
        with np.errstate(over="ignore"):  # finiteness is checked explicitly below
            n = np.linalg.norm(s, axis=1, keepdims=True)
        if np.any(n == 0) or not np.all(np.isfinite(n)):
            raise NumericError(f"degenerate norm in slice normalization at level {lvl + 1}")
        slice_norms.append(n)
        z_slices.append(s / n)
    # every head reads the full concatenation; backward blocks finer slices
    z_cat = np.concatenate(z_slices, axis=1)
    cat_norm = np.linalg.norm(z_cat, axis=1, keepdims=True)
    z_hat = z_cat / cat_norm

    scores, logits, probs = [], [], []
    for protos in state.prototypes:
        sc = z_hat @ protos.T
        scores.append(sc)
        logits.append(sc / state.tau)
        probs.append(softmax(logits[-1]))
    return ForwardTrace(
        x=x,
        pre_activations=pre_acts,
        erfs=erfs,
        activations=acts,
        z_raw=z_raw,
        slice_norms=slice_norms,
        z_slices=z_slices,
        cat_norm=cat_norm,
        z_hat=z_hat,
        scores=scores,
        logits=logits,
        probs=probs,
    )


@dataclass
class ParamGrads:
    """Gradients shaped exactly like the corresponding ModelState lists."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    prototypes: list[np.ndarray]

    @staticmethod
    def zeros_like(state: ModelState) -> "ParamGrads":
        return ParamGrads(
            weights=[np.zeros_like(w) for w in state.weights],
            biases=[np.zeros_like(b) for b in state.biases],
            prototypes=[np.zeros_like(p) for p in state.prototypes],
        )

    def add_(self, other: "ParamGrads") -> "ParamGrads":
        for mine, theirs in zip(self.weights, other.weights):
            mine += theirs
        for mine, theirs in zip(self.biases, other.biases):
            mine += theirs
        for mine, theirs in zip(self.prototypes, other.prototypes):
            mine += theirs
        return self


def _norm_backward(d_out: np.ndarray, normalized: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Backprop through v -> v / ||v|| given the normalized rows."""
    radial = (d_out * normalized).sum(axis=1, keepdims=True)
    return (d_out - radial * normalized) / norms


def backward(
    state: ModelState,
    trace: ForwardTrace,
    d_scores: list[np.ndarray | None] | None = None,
    d_slices: list[np.ndarray | None] | None = None,
) -> ParamGrads:
    """Reverse-mode accumulation honoring the per-level gradient masks.

    d_scores[h-1] is the upstream gradient w.r.t. the level-h cosine
    scores (pre-temperature); d_slices[h-1] is w.r.t. the normalized
    level-h slice (representation losses attach here and bypass the
    per-head gradient block). Either list may be None or contain Nones.
    """
    levels = state.levels
    d_scores = d_scores if d_scores is not None else [None] * levels
    d_slices = d_slices if d_slices is not None else [None] * levels
    if len(d_scores) != levels or len(d_slices) != levels:
        raise InputError(f"expected {levels} upstream entries per list")
    grads = ParamGrads.zeros_like(state)
    bounds = state.slice_bounds

    d_cat_total = np.zeros_like(trace.z_hat)
    for lvl, d_sc in enumerate(d_scores):
        if d_sc is None:
            continue
        d_sc = np.asarray(d_sc, dtype=np.float64)
        if d_sc.shape != trace.scores[lvl].shape:
            raise InputError(
                f"level {lvl + 1} score gradient shape {d_sc.shape} does not match "
                f"{trace.scores[lvl].shape}"
            )
        grads.prototypes[lvl] += d_sc.T @ trace.z_hat
        d_hat = d_sc @ state.prototypes[lvl]
        # backward through the aggregate's normalization; the radial term
        # reads the full width, but the gradient controller lets this head
        # reach slices 1..lvl+1 only, so only that prefix is formed
        radial = (d_hat * trace.z_hat).sum(axis=1, keepdims=True)
        live = bounds[lvl + 1]
        d_cat_total[:, :live] += (
            d_hat[:, :live] - radial * trace.z_hat[:, :live]
        ) / trace.cat_norm

    d_raw = np.empty_like(trace.z_raw)
    for lvl in range(levels):
        # a view: d_cat_total is not read again
        d_z = d_cat_total[:, bounds[lvl] : bounds[lvl + 1]]
        if d_slices[lvl] is not None:
            d_extra = np.asarray(d_slices[lvl], dtype=np.float64)
            if d_extra.shape != trace.z_slices[lvl].shape:
                raise InputError(
                    f"level {lvl + 1} slice gradient shape {d_extra.shape} does not "
                    f"match {trace.z_slices[lvl].shape}"
                )
            d_z += d_extra
        d_raw[:, bounds[lvl] : bounds[lvl + 1]] = _norm_backward(
            d_z, trace.z_slices[lvl], trace.slice_norms[lvl]
        )

    # projection layer
    h_last = trace.activations[-1] if trace.activations else trace.x
    grads.weights[-1] += h_last.T @ d_raw
    grads.biases[-1] += d_raw.sum(axis=0)
    d_h = d_raw @ state.weights[-1].T
    # hidden layers, last to first
    for layer in range(len(state.weights) - 2, -1, -1):
        d_a = d_h * gelu_grad(trace.pre_activations[layer], trace.erfs[layer])
        h_prev = trace.activations[layer - 1] if layer > 0 else trace.x
        grads.weights[layer] += h_prev.T @ d_a
        grads.biases[layer] += d_a.sum(axis=0)
        d_h = d_a @ state.weights[layer].T
    return grads


def renormalize_prototypes(state: ModelState) -> None:
    """Project prototype rows back to unit norm (call after each
    optimizer step)."""
    for protos in state.prototypes:
        norms = np.linalg.norm(protos, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise NumericError("prototype row collapsed to zero norm")
        protos /= norms


_MAGIC = b"SEAL"
_VERSION = 1


def save_checkpoint(path, state: ModelState, meta: dict | None = None) -> None:
    """Write the versioned binary container plus its JSON sidecar.

    Layout: magic "SEAL", u32 version, u32 tensor count, then per tensor
    a u16 name length, utf-8 name, u8 ndim, u64 dims, and little-endian
    float64 data. Structural metadata (dims, level count, temperatures,
    seeds) goes to <path>.meta.json.
    """
    path = Path(path)
    tensors: list[tuple[str, np.ndarray]] = []
    for i, (w, b) in enumerate(zip(state.weights, state.biases)):
        tensors.append((f"layer{i}.weight", w))
        tensors.append((f"layer{i}.bias", b))
    tensors.append(("slice_bounds", state.slice_bounds.astype(np.float64)))
    for lvl, protos in enumerate(state.prototypes, start=1):
        tensors.append((f"prototypes.{lvl}", protos))
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(tensors)))
        for name, tensor in tensors:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}Q", *tensor.shape))
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())
    sidecar = {
        "format_version": _VERSION,
        "levels": state.levels,
        "in_dim": state.in_dim,
        "proj_dim": state.proj_dim,
        "tau": state.tau,
        "tau_sharp": state.tau_sharp,
    }
    sidecar.update(meta or {})
    Path(str(path) + ".meta.json").write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def load_checkpoint(path) -> tuple[ModelState, dict]:
    """Read a checkpoint written by save_checkpoint; returns
    (state, sidecar metadata). A truncated container or a sidecar that
    is not JSON is a DataFormatError naming the file."""
    path = Path(path)
    sidecar_path = Path(str(path) + ".meta.json")
    if not path.exists():
        raise DataFormatError(f"{path}: no such checkpoint")
    if not sidecar_path.exists():
        raise DataFormatError(f"{sidecar_path}: missing metadata sidecar")
    try:
        meta = json.loads(sidecar_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{sidecar_path}: invalid JSON ({exc})") from exc
    blob = memoryview(path.read_bytes())
    if blob[:4] != _MAGIC:
        raise DataFormatError(f"{path}: bad magic bytes")
    pos = 4

    def take(size: int, what: str) -> memoryview:
        nonlocal pos
        chunk = blob[pos : pos + size]
        if len(chunk) != size:
            raise DataFormatError(f"{path}: truncated {what} at byte {pos}")
        pos += size
        return chunk

    version, count = struct.unpack("<II", take(8, "header"))
    if version != _VERSION:
        raise DataFormatError(f"{path}: unsupported format version {version}")
    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"tensor {i} name length"))
        try:
            name = bytes(take(name_len, f"tensor {i} name")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: tensor {i} name is not utf-8") from exc
        (ndim,) = struct.unpack("<B", take(1, f"{name} rank"))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim, f"{name} shape"))
        data = take(8 * math.prod(shape), f"{name} data")
        tensors[name] = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
    try:
        n_layers = 1 + max(
            int(k.split(".")[0][5:]) for k in tensors if k.startswith("layer")
        )
        weights = [tensors[f"layer{i}.weight"] for i in range(n_layers)]
        biases = [tensors[f"layer{i}.bias"] for i in range(n_layers)]
        bounds = tensors["slice_bounds"].astype(np.int64)
        levels = int(meta["levels"])
        prototypes = [tensors[f"prototypes.{lvl}"] for lvl in range(1, levels + 1)]
        tau, tau_sharp = float(meta["tau"]), float(meta["tau_sharp"])
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing tensor or metadata field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed tensors or metadata ({exc})") from exc
    return (
        ModelState(
            weights=weights,
            biases=biases,
            slice_bounds=bounds,
            prototypes=prototypes,
            tau=tau,
            tau_sharp=tau_sharp,
        ),
        meta,
    )
