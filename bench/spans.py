"""In-memory span tracing of the program's public functions.

``Tracer.installed()`` replaces each listed function, in every loaded
``seal`` module that holds a reference to it, with a wrapper that
records one span per call: name, operation, start, end and the span
that was open when it was called. Leaving the block puts the original
functions back, so untraced work pays nothing. A listed name the
program no longer defines is reported as absent; its metrics read 0.

Per-layer metrics (see ``per_layer``): ``<layer>.<fn>_ms`` is the
median duration of one call, ``<layer>.<fn>_calls`` the number of calls
in one operation, and ``<layer>.self_s`` the median over operations of
the time spent in the layer's own code, that is its spans' durations
minus the parts their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

import numpy as np

# the public functions the trainer, the scorer and the benchmark call,
# grouped by the module (layer) that defines them
TARGETS = {
    "seal.model": (
        "forward", "backward", "gelu", "gelu_grad", "init_model",
        "renormalize_prototypes", "save_checkpoint", "load_checkpoint",
    ),
    "seal.losses": (
        "cls_loss", "hscl_loss", "supcon_loss", "cgc_loss", "similarity_matrix",
        "fuse_hierarchy", "soft_labels", "sharpen", "consistency_probs", "total_loss",
    ),
    "seal.trainer": ("train", "make_views", "sgd_step", "predict_levels"),
    "seal.hierarchy": ("init_transition", "update_transition", "level_map", "load_hierarchy"),
    "seal.evaluation": ("evaluate_predictions", "hungarian_acc", "split_acc", "consistency_rate"),
    "seal.datagen": ("load_embeddings",),
}

OP_SPAN = "bench.operation"
# the three calls that build the soft targets of one training step
SIMILARITY = ("seal.losses.similarity_matrix", "seal.losses.fuse_hierarchy", "seal.losses.soft_labels")

# (metric, unit, kind, span name or layer)
PER_LAYER = (
    ("model.forward_ms", "ms", "median_ms", "seal.model.forward"),
    ("model.backward_ms", "ms", "median_ms", "seal.model.backward"),
    ("model.gelu_ms", "ms", "median_ms", "seal.model.gelu"),
    ("model.gelu_grad_ms", "ms", "median_ms", "seal.model.gelu_grad"),
    ("model.load_checkpoint_ms", "ms", "median_ms", "seal.model.load_checkpoint"),
    ("model.forward_calls", "count", "calls", "seal.model.forward"),
    ("model.self_s", "s", "self_s", "seal.model"),
    ("losses.cls_ms", "ms", "median_ms", "seal.losses.cls_loss"),
    ("losses.hscl_ms", "ms", "median_ms", "seal.losses.hscl_loss"),
    ("losses.supcon_ms", "ms", "median_ms", "seal.losses.supcon_loss"),
    ("losses.cgc_ms", "ms", "median_ms", "seal.losses.cgc_loss"),
    ("losses.similarity_ms", "ms", "similarity_ms", None),
    ("losses.sharpen_ms", "ms", "median_ms", "seal.losses.sharpen"),
    ("losses.consistency_probs_ms", "ms", "median_ms", "seal.losses.consistency_probs"),
    ("losses.hscl_calls", "count", "calls", "seal.losses.hscl_loss"),
    ("losses.self_s", "s", "self_s", "seal.losses"),
    ("trainer.step_ms", "ms", "step_ms", None),
    ("trainer.make_views_ms", "ms", "median_ms", "seal.trainer.make_views"),
    ("trainer.sgd_step_ms", "ms", "median_ms", "seal.trainer.sgd_step"),
    ("trainer.predict_levels_ms", "ms", "median_ms", "seal.trainer.predict_levels"),
    ("trainer.predict_levels_calls", "count", "calls", "seal.trainer.predict_levels"),
    ("trainer.self_s", "s", "self_s", "seal.trainer"),
    ("hierarchy.update_transition_ms", "ms", "median_ms", "seal.hierarchy.update_transition"),
    ("hierarchy.update_transition_calls", "count", "calls", "seal.hierarchy.update_transition"),
    ("hierarchy.self_s", "s", "self_s", "seal.hierarchy"),
    ("evaluation.evaluate_predictions_ms", "ms", "median_ms", "seal.evaluation.evaluate_predictions"),
    ("evaluation.hungarian_acc_ms", "ms", "median_ms", "seal.evaluation.hungarian_acc"),
    ("evaluation.self_s", "s", "self_s", "seal.evaluation"),
    ("datagen.load_embeddings_s", "s", "median_s", "seal.datagen.load_embeddings"),
    ("datagen.self_s", "s", "self_s", "seal.datagen"),
)


class Tracer:
    """Collects spans as rows of (name id, operation, start, end, parent
    row) while installed; ``operation()`` opens the root span of one
    benchmark operation."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self.operations = 0
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        row = len(self.spans)
        self.spans.append([name_id, self.operations, 0.0, 0.0, self._stack[-1]])
        self._stack.append(row)
        self.spans[row][2] = time.perf_counter()
        return row

    def _close(self, row: int) -> None:
        self.spans[row][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(row)

        return traced

    @contextlib.contextmanager
    def operation(self):
        row = self._open(self._name_id(OP_SPAN))
        try:
            yield
        finally:
            self._close(row)
            self.operations += 1

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its traced wrapper in each ``seal``
        module that refers to it; restore the originals on exit."""
        modules = [m for n, m in list(sys.modules.items()) if n == "seal" or n.startswith("seal.")]
        patched = []
        try:
            for mod_name, fn_names in self.targets.items():
                try:
                    home = importlib.import_module(mod_name)
                except ModuleNotFoundError:
                    home = None
                for fn_name in fn_names:
                    original = getattr(home, fn_name, None)
                    if not callable(original):
                        self.absent.add(f"{mod_name}.{fn_name}")
                        continue
                    wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def table(self) -> dict:
        """Spans as plain lists, for writing out when the run ends."""
        return {
            "columns": ["name", "operation", "start_s", "end_s", "parent"],
            "names": self.names,
            "spans": self.spans,
            "absent": sorted(self.absent),
        }


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every metric of PER_LAYER from the recorded spans, as
    {metric: (value, unit)}. Metrics of absent or uncalled functions
    read 0."""
    if not tracer.spans or tracer.operations == 0:
        raise ValueError("no traced operation to report on")
    rows = np.array([[s[0], s[1], s[4]] for s in tracer.spans], dtype=np.int64)
    times = np.array([[s[2], s[3]] for s in tracer.spans], dtype=np.float64)
    name_of, op_of, parent = rows[:, 0], rows[:, 1], rows[:, 2]
    start, end = times[:, 0], times[:, 1]
    duration = end - start
    child_time = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    self_time = duration - child_time
    n_ops = tracer.operations
    ids = {name: i for i, name in enumerate(tracer.names)}

    def of(name):
        return name_of == ids[name] if name in ids else np.zeros(len(rows), bool)

    def step_windows():
        views = np.flatnonzero(of("seal.trainer.make_views"))
        steps = np.flatnonzero(of("seal.trainer.sgd_step"))
        if views.size == 0 or views.size != steps.size:
            return None
        return start[views], end[steps]

    def similarity_per_step():
        windows = step_windows()
        if windows is None:
            return 0.0
        lo, hi = windows
        sim = np.zeros(len(rows), bool)
        for name in SIMILARITY:
            sim |= of(name)
        order = np.argsort(start[sim])
        sim_start, sim_dur = start[sim][order], duration[sim][order]
        cum = np.concatenate([[0.0], np.cumsum(sim_dur)])
        first = np.searchsorted(sim_start, lo, side="left")
        last = np.searchsorted(sim_start, hi, side="right")
        return float(np.median(cum[last] - cum[first])) * 1e3

    def layer_self(layer):
        in_layer = np.array([n.startswith(layer + ".") for n in tracer.names], bool)
        mask = in_layer[name_of] if in_layer.size else np.zeros(len(rows), bool)
        per_op = np.bincount(op_of[mask], weights=self_time[mask], minlength=n_ops)
        return float(np.median(per_op))

    out = {}
    for metric, unit, kind, target in PER_LAYER:
        if kind in ("median_ms", "median_s"):
            d = duration[of(target)]
            scale = 1e3 if kind == "median_ms" else 1.0
            value = float(np.median(d)) * scale if d.size else 0.0
        elif kind == "calls":
            value = int(of(target).sum()) / n_ops
        elif kind == "self_s":
            value = layer_self(target)
        elif kind == "step_ms":
            windows = step_windows()
            value = float(np.median(windows[1] - windows[0])) * 1e3 if windows else 0.0
        else:
            value = similarity_per_step()
        out[metric] = (value, unit)
    return out
