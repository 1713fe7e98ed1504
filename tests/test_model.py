"""Tests for the sliced encoder: forward semantics, manual backprop
against central finite differences, gradient-mask behaviour, and the
checkpoint file and its sidecar."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from seal.errors import DataFormatError, InputError, NumericError
from seal.hierarchy import balanced_hierarchy
from seal.model import (
    ModelState,
    backward,
    forward,
    gelu,
    init_model,
    load_checkpoint,
    parameters,
    renormalize_prototypes,
    save_checkpoint,
    slice_widths,
    softmax,
)

from objective_reference import frozen_scores, grads_vector

# the fields of a checkpoint sidecar that the loader reads
SIDECAR_FIELDS = ["format_version", "in_dim", "hidden", "slice_bounds", "counts", "tau", "tau_sharp"]

FD_STEP = 1e-6
FD_RTOL = 1e-5
INV_SQRT2 = 1.0 / np.sqrt(2.0)
INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def tiny_state(seed=0):
    spec = balanced_hierarchy([2, 3, 6])
    return init_model(spec, in_dim=4, hidden=(5,), proj_dim=6, seed=seed), spec


def flatten_params(state):
    parts = (
        [w.ravel() for w in state.weights]
        + [b.ravel() for b in state.biases]
        + [p.ravel() for p in state.prototypes]
    )
    return np.concatenate(parts)


def assign_params(state, vec):
    tensors = state.weights + state.biases + state.prototypes
    offset = 0
    for t in tensors:
        t[...] = vec[offset : offset + t.size].reshape(t.shape)
        offset += t.size


def fd_gradient(value_fn, state, step=FD_STEP):
    """Central finite differences of value_fn(state) over every parameter."""
    base = flatten_params(state)
    grad = np.zeros_like(base)
    work = state.copy()
    for i in range(base.size):
        probe = base.copy()
        probe[i] = base[i] + step
        assign_params(work, probe)
        up = value_fn(work)
        probe[i] = base[i] - step
        assign_params(work, probe)
        down = value_fn(work)
        grad[i] = (up - down) / (2 * step)
    return grad


def silent_upstream(trace):
    """Zero score and slice gradients, one array per level: the form
    backward takes for a head or slice that sends no gradient."""
    return [np.zeros_like(s) for s in trace.scores], [np.zeros_like(z) for z in trace.z_slices]


def classifier_probs(state, trace):
    """The classifier's probabilities softmax(scores / tau), per level."""
    return [softmax(s / state.tau) for s in trace.scores]


class TestForward:
    def test_probabilities_sum_to_one(self):
        state, _ = tiny_state()
        rng = np.random.default_rng(0)
        trace = forward(state, rng.standard_normal((7, 4)))
        for p in classifier_probs(state, trace):
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_deterministic(self):
        state, _ = tiny_state()
        x = np.random.default_rng(1).standard_normal((5, 4))
        t1, t2 = forward(state, x), forward(state, x)
        np.testing.assert_array_equal(t1.z_hat, t2.z_hat)
        for a, b in zip(classifier_probs(state, t1), classifier_probs(state, t2)):
            np.testing.assert_array_equal(a, b)

    def test_duplicate_rows_identical_outputs(self):
        state, _ = tiny_state()
        rng = np.random.default_rng(2)
        row = rng.standard_normal(4)
        trace = forward(state, np.stack([row, rng.standard_normal(4), row]))
        for p in classifier_probs(state, trace):
            np.testing.assert_array_equal(p[0], p[2])
        for z in trace.z_slices:
            np.testing.assert_array_equal(z[0], z[2])

    def test_matched_prototype_probability(self):
        # identity encoder, one level, prototype aligned with the sample:
        # softmax([1, 0]) puts e/(e+1) on the aligned class at tau = 1
        spec = balanced_hierarchy([2])
        state = init_model(spec, in_dim=2, hidden=(), proj_dim=2, tau=1.0, seed=0)
        state.weights[-1][...] = np.eye(2)
        state.biases[-1][...] = 0.0
        state.prototypes[0][...] = np.eye(2)
        trace = forward(state, np.array([[3.0, 0.0]]))
        expected = np.e / (np.e + 1.0)
        np.testing.assert_allclose(classifier_probs(state, trace)[0][0, 0], expected, atol=1e-12)

    def test_trace_keeps_erf_of_each_hidden_layer(self):
        spec = balanced_hierarchy([2, 3, 6])
        state = init_model(spec, in_dim=4, hidden=(5, 7), proj_dim=6, seed=2)
        trace = forward(state, np.random.default_rng(3).standard_normal((4, 4)))
        assert len(trace.erfs) == len(trace.pre_activations) == 2
        for pre, e, act in zip(trace.pre_activations, trace.erfs, trace.activations):
            assert np.array_equal(e, erf(pre * INV_SQRT2))
            out, work = np.empty_like(pre), np.empty_like(pre)
            assert np.array_equal(act, gelu(pre, erf(pre * INV_SQRT2), out, work))

    def test_slice_widths_split(self):
        assert slice_widths(6, 3) == [2, 2, 2]
        assert slice_widths(7, 3) == [2, 2, 3]
        with pytest.raises(InputError):
            slice_widths(2, 3)

    @pytest.mark.parametrize("proj_dim", [-3, 0, 2])
    def test_projection_narrower_than_the_levels_is_an_input_error(self, proj_dim):
        with pytest.raises(InputError, match=f"projection dim {proj_dim} smaller than level"):
            init_model(balanced_hierarchy([2, 3, 6]), in_dim=4, proj_dim=proj_dim)

    def test_overflow_raises_numeric_error(self):
        state, _ = tiny_state()
        x = np.full((2, 4), 1e308)
        with pytest.raises(NumericError):
            forward(state, x)

    def test_empty_batch_rejected(self):
        state, _ = tiny_state()
        with pytest.raises(InputError):
            forward(state, np.zeros((0, 4)))


def trace_arrays(trace):
    """Every result array of a trace, by field name and list index."""
    out = {}
    for f in dataclasses.fields(trace):
        if f.name == "work":  # the scratch memory holds no result
            continue
        value = getattr(trace, f.name)
        for i, a in enumerate(value if isinstance(value, list) else [value]):
            out[f"{f.name}[{i}]"] = a
    return out


class TestTraceReuse:
    """forward(state, x, out=trace) overwrites the trace of an earlier
    call and gives the bits of a fresh pass."""

    @pytest.mark.parametrize("counts, hidden", [([2, 3, 6], (5, 7)), ([6], (5,))],
                             ids=["three levels", "one level"])
    def test_reused_trace_matches_a_fresh_one_bitwise(self, counts, hidden):
        state = init_model(balanced_hierarchy(counts), in_dim=4, hidden=hidden, proj_dim=7, seed=4)
        rng = np.random.default_rng(5)
        x_old, x_new = rng.standard_normal((9, 4)), rng.standard_normal((9, 4))
        reused = forward(state, x_old)
        assert forward(state, x_new, out=reused) is reused
        fresh = trace_arrays(forward(state, x_new))
        got = trace_arrays(reused)
        assert list(got) == list(fresh)
        for name, a in fresh.items():
            assert got[name].dtype == a.dtype and got[name].shape == a.shape, name
            assert got[name].tobytes() == a.tobytes(), name

    def test_head_of_a_trace_gives_a_shorter_batch_the_same_bits(self):
        state, _ = tiny_state(seed=6)
        rng = np.random.default_rng(6)
        trace = forward(state, rng.standard_normal((9, 4)))
        x = rng.standard_normal((4, 4))
        head = forward(state, x, out=trace.head(4))
        fresh = trace_arrays(forward(state, x))
        for name, a in trace_arrays(head).items():
            assert a.tobytes() == fresh[name].tobytes(), name
        assert np.shares_memory(head.z_hat, trace.z_hat)

    def test_other_batch_size_rejected(self):
        state, _ = tiny_state()
        trace = forward(state, np.ones((3, 4)))
        with pytest.raises(InputError, match="holds 3 rows, the batch has 4"):
            forward(state, np.ones((4, 4)), out=trace)

    def test_reused_pass_allocates_no_batch_sized_array(self):
        state = init_model(
            balanced_hierarchy([4, 12, 24]), in_dim=32, hidden=(64, 64), proj_dim=192, seed=0
        )
        x = np.random.default_rng(0).standard_normal((512, 32))
        trace = forward(state, x)
        forward(state, x, out=trace)  # warm up caches of numpy and scipy
        tracemalloc.start()
        try:
            forward(state, x, out=trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a fresh pass peaks at about 5 MiB; a 512-row by 64-wide array is 256 KiB
        assert peak < 256 * 1024, peak

    def test_trace_of_the_benchmark_model_holds_only_what_is_read(self):
        state = init_model(
            balanced_hierarchy([4, 12, 24]), in_dim=32, hidden=(64, 64), proj_dim=192, seed=0
        )
        trace = forward(state, np.random.default_rng(0).standard_normal((512, 32)))
        names = [f.name for f in dataclasses.fields(trace)]
        assert not {"z_raw", "logits", "probs"} & set(names)
        # every array the pass allocates; the caller's batch x is not counted
        owned = [getattr(trace, name) for name in names if name != "x"]
        total = sum(a.nbytes for v in owned for a in (v if isinstance(v, list) else [v]))
        assert total == 4_112_384


def reference_backward(state, trace, d_scores, d_slices):
    """The plain form of backward: every head's norm backward runs over the
    full width and then has the blocked suffix zeroed, and the activation
    derivative evaluates erf afresh. Returns the gradients as (weights,
    biases, prototypes) lists."""

    def norm_back(d, unit, norms):
        return (d - (d * unit).sum(axis=1, keepdims=True) * unit) / norms

    bounds = state.slice_bounds
    d_cat_total = np.zeros_like(trace.z_hat)
    protos = []
    for lvl, d_sc in enumerate(d_scores):
        protos.append(d_sc.T @ trace.z_hat)
        d_cat = norm_back(d_sc @ state.prototypes[lvl], trace.z_hat, trace.cat_norm)
        d_cat[:, bounds[lvl + 1] :] = 0.0
        d_cat_total += d_cat
    d_raw = np.empty_like(trace.z_hat)
    for lvl in range(state.levels):
        lo, hi = bounds[lvl], bounds[lvl + 1]
        d_z = d_cat_total[:, lo:hi].copy() + d_slices[lvl]
        d_raw[:, lo:hi] = norm_back(d_z, trace.z_slices[lvl], trace.slice_norms[lvl])
    weights = [None] * len(state.weights)
    biases = [None] * len(state.biases)
    weights[-1] = trace.activations[-1].T @ d_raw
    biases[-1] = d_raw.sum(axis=0)
    d_h = d_raw @ state.weights[-1].T
    for layer in range(len(state.weights) - 2, -1, -1):
        a = trace.pre_activations[layer]
        grad = 0.5 * (1.0 + erf(a * INV_SQRT2)) + a * INV_SQRT2PI * np.exp(-0.5 * a * a)
        d_a = d_h * grad
        h_prev = trace.activations[layer - 1] if layer > 0 else trace.x
        weights[layer] = h_prev.T @ d_a
        biases[layer] = d_a.sum(axis=0)
        d_h = d_a @ state.weights[layer].T
    return weights, biases, protos


class TestBackward:
    def test_matches_full_width_reference_bitwise(self):
        spec = balanced_hierarchy([2, 3, 6])
        state = init_model(spec, in_dim=4, hidden=(5, 7), proj_dim=10, seed=11)
        rng = np.random.default_rng(12)
        trace = forward(state, rng.standard_normal((6, 4)))
        d_scores = [rng.standard_normal(s.shape) for s in trace.scores]
        d_slices = [rng.standard_normal(z.shape) for z in trace.z_slices]
        grads = backward(state, trace, d_scores=d_scores, d_slices=d_slices)
        weights, biases, protos = reference_backward(state, trace, d_scores, d_slices)
        assert len(grads) == len(weights + biases + protos)
        for mine, ref in zip(grads, weights + biases + protos):
            assert np.array_equal(mine, ref)

    def test_gradients_come_in_parameter_order(self):
        # one gradient per tensor of parameters(state), shaped like it, so
        # the optimizer can zip the two lists
        spec = balanced_hierarchy([2, 3, 6])
        state = init_model(spec, in_dim=4, hidden=(5, 7), proj_dim=10, seed=11)
        trace = forward(state, np.random.default_rng(14).standard_normal((6, 4)))
        d_scores, d_slices = silent_upstream(trace)
        grads_silent = backward(state, trace, d_scores, d_slices)
        d_scores[1] = np.ones_like(trace.scores[1])
        for grads in (grads_silent, backward(state, trace, d_scores, d_slices)):
            assert [g.shape for g in grads] == [p.shape for p in parameters(state)]

    def test_without_hidden_layers_matches_fd(self):
        # the projection is the only layer, so it reads the input itself
        spec = balanced_hierarchy([2, 3, 6])
        state = init_model(spec, in_dim=4, hidden=(), proj_dim=6, seed=2)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4))
        trace = forward(state, x)
        d_scores, d_slices = silent_upstream(trace)
        d_scores[2] = rng.standard_normal(trace.scores[2].shape)
        grads = backward(state, trace, d_scores, d_slices)
        assert [g.shape for g in grads[: len(state.weights)]] == [(4, 6)]
        fd = fd_gradient(lambda s: float((forward(s, x).scores[2] * d_scores[2]).sum()), state)
        np.testing.assert_allclose(
            grads_vector(grads), fd, rtol=0, atol=FD_RTOL * max(1.0, np.abs(fd).max())
        )

    def test_zero_upstream_gives_zero_grads(self):
        state, _ = tiny_state()
        trace = forward(state, np.random.default_rng(6).standard_normal((3, 4)))
        grads = backward(state, trace, *silent_upstream(trace))
        assert np.all(grads_vector(grads) == 0.0)

    def test_score_gradients_match_fd_at_finest_level(self):
        # finest head has an all-pass mask, so plain finite differences apply
        state, _ = tiny_state(seed=3)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 4))
        upstream = rng.standard_normal((3, 6))
        trace = forward(state, x)
        d_scores, d_slices = silent_upstream(trace)
        d_scores[2] = upstream
        analytic = grads_vector(backward(state, trace, d_scores, d_slices))
        fd = fd_gradient(lambda s: float((forward(s, x).scores[2] * upstream).sum()), state)
        np.testing.assert_allclose(analytic, fd, rtol=0, atol=FD_RTOL * max(1.0, np.abs(fd).max()))

    def test_slice_gradients_match_fd(self):
        state, _ = tiny_state(seed=4)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 4))
        upstream = [rng.standard_normal(z.shape) for z in forward(state, x).z_slices]
        trace = forward(state, x)
        d_scores, _ = silent_upstream(trace)
        analytic = grads_vector(backward(state, trace, d_scores, upstream))

        def value(s):
            t = forward(s, x)
            return float(sum((z * u).sum() for z, u in zip(t.z_slices, upstream)))

        fd = fd_gradient(value, state)
        np.testing.assert_allclose(analytic, fd, rtol=0, atol=FD_RTOL * max(1.0, np.abs(fd).max()))

    def test_coarse_head_gradients_match_fd_with_frozen_finer_slices(self):
        # for a level-1 head the stop-gradient controller freezes slices 2..H;
        # finite differences of the frozen-slice function must agree
        state, _ = tiny_state(seed=5)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4))
        base_trace = forward(state, x)
        frozen = [z.copy() for z in base_trace.z_slices]
        upstream = rng.standard_normal(base_trace.scores[0].shape)
        d_scores, d_slices = silent_upstream(base_trace)
        d_scores[0] = upstream
        analytic = grads_vector(backward(state, base_trace, d_scores, d_slices))
        fd = fd_gradient(
            lambda s: float((frozen_scores(s, x, 1, frozen) * upstream).sum()), state
        )
        np.testing.assert_allclose(analytic, fd, rtol=0, atol=FD_RTOL * max(1.0, np.abs(fd).max()))

    def test_blocked_paths_have_exactly_zero_sensitivity(self):
        # parameters feeding only slices 2..3 get exactly zero gradient from a
        # level-1 head, analytically and under frozen finite differences
        state, _ = tiny_state(seed=6)
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4))
        trace = forward(state, x)
        upstream = rng.standard_normal(trace.scores[0].shape)
        d_scores, d_slices = silent_upstream(trace)
        d_scores[0] = upstream
        grads = backward(state, trace, d_scores, d_slices)
        n = len(state.weights)
        d_weights, d_biases, d_protos = grads[:n], grads[n : 2 * n], grads[2 * n :]
        bounds = state.slice_bounds
        assert np.all(d_weights[-1][:, bounds[1] :] == 0.0)
        assert np.all(d_biases[-1][bounds[1] :] == 0.0)
        assert np.all(d_protos[1] == 0.0)
        assert np.all(d_protos[2] == 0.0)
        frozen = [z.copy() for z in trace.z_slices]
        base = float((frozen_scores(state, x, 1, frozen) * upstream).sum())
        probe = state.copy()
        probe.weights[-1][:, bounds[1] :] += 1e-3  # blocked projection columns
        moved = float((frozen_scores(probe, x, 1, frozen) * upstream).sum())
        assert moved == base


class TestPrototypeNorms:
    def test_renormalize_restores_unit_rows(self):
        state, _ = tiny_state()
        state.prototypes[0] *= 3.7
        renormalize_prototypes(state)
        for protos in state.prototypes:
            np.testing.assert_allclose(
                np.linalg.norm(protos, axis=1), 1.0, atol=1e-9
            )

    def test_initial_prototypes_unit(self):
        state, _ = tiny_state(seed=12)
        for protos in state.prototypes:
            np.testing.assert_allclose(np.linalg.norm(protos, axis=1), 1.0, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        state, _ = tiny_state(seed=13)
        path = tmp_path / "model.seal"
        save_checkpoint(path, state, meta={"seed": 13})
        loaded, meta = load_checkpoint(path)
        assert meta["seed"] == 13
        assert meta["counts"] == [2, 3, 6]
        for a, b in zip(parameters(state), parameters(loaded), strict=True):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state.slice_bounds, loaded.slice_bounds)
        assert loaded.tau == state.tau and loaded.tau_sharp == state.tau_sharp

    def test_file_is_the_parameters_as_little_endian_float64(self, tmp_path):
        state, _ = tiny_state(seed=13)
        path = tmp_path / "model.seal"
        save_checkpoint(path, state)
        payload = b"".join(t.astype("<f8").tobytes() for t in parameters(state))
        assert path.read_bytes() == payload
        meta = json.loads((tmp_path / "model.seal.meta.json").read_text())
        assert meta == {
            "format_version": 2, "in_dim": 4, "hidden": [5], "slice_bounds": [0, 2, 4, 6],
            "counts": [2, 3, 6], "tau": state.tau, "tau_sharp": state.tau_sharp,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }

    def test_writer_fields_win_over_the_callers_meta(self, tmp_path):
        state, _ = tiny_state()
        path = tmp_path / "model.seal"
        save_checkpoint(path, state, meta={"in_dim": 99, "payload_sha256": "stale", "seed": 5})
        loaded, meta = load_checkpoint(path)
        assert meta["in_dim"] == loaded.in_dim == 4 and meta["seed"] == 5
        assert meta["payload_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_every_truncation_is_a_format_error(self, tmp_path):
        state, _ = tiny_state()
        path = tmp_path / "model.seal"
        save_checkpoint(path, state)
        full = path.read_bytes()
        for cut in range(len(full)):
            path.write_bytes(full[:cut])
            with pytest.raises(DataFormatError) as info:
                load_checkpoint(path)
            assert str(path) in str(info.value), cut

    @pytest.mark.parametrize("content", [
        '{"levels": ', "[]", '{"levels": 3}', '{"levels": 1e400}', '{"levels": -1e400}',
    ])
    def test_unreadable_sidecar_rejected(self, tmp_path, content):
        state, _ = tiny_state()
        path = tmp_path / "model.seal"
        save_checkpoint(path, state)
        sidecar = tmp_path / "model.seal.meta.json"
        sidecar.write_text(content)
        with pytest.raises(DataFormatError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{sidecar}: ")

    @pytest.mark.parametrize("content, reason", [
        ('{"levels": ' + "3" * 5001 + "}", "Exceeds the limit (4300 digits)"),
        ("[" * 100_000, "nested too deeply"),
    ], ids=["too-long integer", "too-deep nesting"])
    def test_sidecar_beyond_the_parser_rejected(self, tmp_path, content, reason):
        state, _ = tiny_state()
        path = tmp_path / "model.seal"
        save_checkpoint(path, state)
        sidecar = tmp_path / "model.seal.meta.json"
        sidecar.write_text(content)
        with pytest.raises(DataFormatError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{sidecar}: invalid JSON (")
        assert reason in str(info.value)

    def test_missing_sidecar_rejected(self, tmp_path):
        state, _ = tiny_state()
        path = tmp_path / "model.seal"
        save_checkpoint(path, state)
        (tmp_path / "model.seal.meta.json").unlink()
        with pytest.raises(DataFormatError, match="sidecar"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "problem,tamper",
        [
            ("weights[1] has shape (4, 6), expected (5, 6)",
             lambda st: st.weights.__setitem__(1, st.weights[1][:-1])),
            ("biases[0] has shape (4,), expected (5,)",
             lambda st: st.biases.__setitem__(0, st.biases[0][:-1])),
            ("slice_bounds is [1, 2, 4, 6], expected a list of integers rising strictly from 0",
             lambda st: setattr(st, "slice_bounds", np.array([1, 2, 4, 6]))),
            ("slice_bounds is [0, 4, 2, 6], expected a list of integers rising strictly from 0",
             lambda st: setattr(st, "slice_bounds", np.array([0, 4, 2, 6]))),
            ("weights[1] has shape (5, 6), expected (5, 5)",
             lambda st: setattr(st, "slice_bounds", np.array([0, 2, 4, 5]))),
            ("prototypes[1] has shape (3, 5), expected (3, 6)",
             lambda st: st.prototypes.__setitem__(1, st.prototypes[1][:, :5])),
            ("counts has 2 entries for 3 slices", lambda st: st.prototypes.pop()),
            ("prototypes[0] has shape (2, 6), expected (6,)", lambda st: st.biases.pop()),
        ],
        ids=["weight rows", "bias width", "bounds start", "bounds rise", "bounds end",
             "prototype width", "prototype count", "bias count"],
    )
    def test_tensors_that_do_not_chain_rejected(self, tmp_path, problem, tamper):
        # the writer refuses a state whose tensors do not have the shapes
        # its own widths, slice bounds and prototype counts give, naming
        # the tensor, and leaves no file behind
        state, _ = tiny_state()
        tamper(state)
        path = tmp_path / "model.seal"
        with pytest.raises(InputError) as info:
            save_checkpoint(path, state)
        assert str(info.value) == f"the state to save in {path}: {problem}"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("edit,need", [
        ({"counts": [2, 3], "slice_bounds": [0, 3, 6]}, 728),
        ({"in_dim": 5}, 1056),
        ({"slice_bounds": [0, 2, 4, 8]}, 1288),
    ], ids=["levels-2", "in_dim-5", "proj_dim-8"])
    def test_sidecar_disagreeing_with_tensors_rejected(self, tmp_path, edit, need):
        # shapes that need another byte count than the payload holds name both files
        state, _ = tiny_state()
        path = tmp_path / "model.seal"
        save_checkpoint(path, state)
        sidecar = tmp_path / "model.seal.meta.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **edit}))
        with pytest.raises(DataFormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: 1016 bytes, the shapes in {sidecar} need {need}"

    @pytest.mark.parametrize("field,value,message", [
        *[(f, None, f"missing metadata field {f!r}") for f in SIDECAR_FIELDS],
        ("format_version", 1, "format_version is 1, expected 2"),
        ("in_dim", True, "in_dim is True, expected an integer of at least 1"),
        ("in_dim", 4.0, "in_dim is 4.0, expected an integer of at least 1"),
        ("in_dim", 0, "in_dim is 0, expected an integer of at least 1"),
        ("hidden", [-5], "hidden is [-5], expected a list of integers of at least 1"),
        ("hidden", 5, "hidden is 5, expected a list of integers of at least 1"),
        ("counts", [2, 3.0, 6], "counts is [2, 3.0, 6], expected a list of integers of at"),
        ("counts", [2, 3], "counts has 2 entries for 3 slices"),
        ("slice_bounds", [1, 2, 4, 6], "slice_bounds is [1, 2, 4, 6], expected a list of "
                                       "integers rising strictly from 0"),
        ("slice_bounds", [0, 4, 2, 6], "slice_bounds is [0, 4, 2, 6], expected"),
        ("slice_bounds", [0, 2, 2, 6], "slice_bounds is [0, 2, 2, 6], expected"),
        ("slice_bounds", [0], "slice_bounds is [0], expected"),
        ("slice_bounds", [False, 2, 4, 6], "slice_bounds is [False, 2, 4, 6], expected"),
        ("tau", -0.1, "tau is -0.1, expected a positive number"),
        ("tau_sharp", "0.07", "tau_sharp is '0.07', expected a positive number"),
        ("tau", True, "tau is True, expected a positive number"),
    ])
    def test_malformed_sidecar_field_names_the_sidecar_and_field(self, tmp_path, field, value,
                                                                 message):
        state, _ = tiny_state()
        path = tmp_path / "model.seal"
        save_checkpoint(path, state)
        sidecar = tmp_path / "model.seal.meta.json"
        meta = json.loads(sidecar.read_text())
        if value is None:
            del meta[field]
        else:
            meta[field] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(DataFormatError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{sidecar}: {message}")

    def test_non_utf8_sidecar_rejected(self, tmp_path):
        state, _ = tiny_state()
        path = tmp_path / "model.seal"
        save_checkpoint(path, state)
        (tmp_path / "model.seal.meta.json").write_bytes(b'{"levels": "\xff"}')
        with pytest.raises(DataFormatError, match="meta.json"):
            load_checkpoint(path)

