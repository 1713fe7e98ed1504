"""Tests for taxonomy specs and dynamic transition matrices."""

import copy
import json
import pickle

import numpy as np
import pytest

from seal.datagen import GcdSplit
from seal.errors import DataFormatError, InputError
from seal.hierarchy import (
    HierarchySpec,
    TransitionMatrix,
    balanced_hierarchy,
    init_transition,
    level_map,
    load_hierarchy,
    save_hierarchy,
    shuffled_hierarchy,
    update_transition,
)
from seal.model import forward, init_model
from seal.theory import DiscreteJoint


def random_spec(rng, max_levels=4, max_fine=12):
    """A random valid spec: each level splits every parent at least once."""
    levels = int(rng.integers(1, max_levels + 1))
    counts = [int(rng.integers(1, 4))]
    for _ in range(levels - 1):
        counts.append(int(rng.integers(counts[-1], max(counts[-1] + 1, max_fine))))
    maps = []
    for parent_count, child_count in zip(counts, counts[1:]):
        m = np.concatenate(
            [np.arange(parent_count), rng.integers(0, parent_count, child_count - parent_count)]
        )
        rng.shuffle(m)
        maps.append(m)
    return HierarchySpec(counts=tuple(counts), parent_maps=tuple(maps))


class TestHierarchySpec:
    def test_validates_counts_monotone(self):
        with pytest.raises(InputError):
            HierarchySpec(counts=(4, 2), parent_maps=(np.zeros(2, dtype=int),))

    def test_validates_parent_range(self):
        with pytest.raises(InputError):
            HierarchySpec(counts=(2, 4), parent_maps=(np.array([0, 0, 1, 2]),))

    def test_validates_surjective(self):
        # parent 1 has no children
        with pytest.raises(InputError):
            HierarchySpec(counts=(2, 4), parent_maps=(np.array([0, 0, 0, 0]),))

    def test_single_level_ok(self):
        spec = HierarchySpec(counts=(5,))
        assert spec.levels == 1 and spec.num_fine == 5

    def test_balanced_hierarchy_shapes(self):
        spec = balanced_hierarchy([4, 12, 24])
        assert spec.levels == 3
        assert [m.size for m in spec.parent_maps] == [12, 24]
        # every parent gets exactly children_count / parent_count children
        assert np.bincount(spec.parent_maps[0]).tolist() == [3, 3, 3, 3]
        assert np.bincount(spec.parent_maps[1]).tolist() == [2] * 12


class TestFineToLevel:
    """A fine class's ancestor at each level: the spec's ``ancestors``
    table, column h - 1 for level h, and level_map's column of it."""

    @staticmethod
    def stepwise(spec, level):
        # hop up one parent map at a time from the fine classes
        out = np.arange(spec.num_fine)
        for h in range(spec.levels - 1, level - 1, -1):
            out = spec.parent_maps[h - 1][out]
        return out

    def test_direct_lookup(self):
        spec = HierarchySpec(counts=(2, 4), parent_maps=(np.array([0, 0, 1, 1]),))
        assert spec.ancestors[3].tolist() == [1, 3]

    def test_identity_at_target_level(self):
        spec = balanced_hierarchy([2, 4, 8])
        assert spec.ancestors[:, -1].tolist() == list(range(8))

    def test_two_hop_composition(self):
        spec = HierarchySpec(
            counts=(2, 4, 8),
            parent_maps=(np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1, 2, 2, 3, 3])),
        )
        assert spec.ancestors[5].tolist() == [1, 2, 5]

    def test_rejects_bad_inputs(self):
        spec = balanced_hierarchy([2, 4])
        for level in (0, spec.levels + 1):
            with pytest.raises(InputError, match=f"level {level} outside \\[1, 2\\]"):
                level_map(spec, level)

    def test_array_input(self):
        spec = balanced_hierarchy([2, 4, 8])
        assert level_map(spec, 1).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert spec.ancestors[[7, 0, 4], 0].tolist() == [1, 0, 1]

    def test_path_independence(self):
        # the table equals the stepwise parent walk at every level, and
        # level_map is its column
        rng = np.random.default_rng(7)
        specs = [
            balanced_hierarchy([2, 4, 8]),
            balanced_hierarchy([3, 12, 24]),
            shuffled_hierarchy([3, 12, 24], seed=5),
            HierarchySpec(
                counts=(2, 3, 5),
                parent_maps=(np.array([1, 0, 1]), np.array([2, 0, 1, 2, 0])),
            ),
            HierarchySpec(counts=(4,)),
        ] + [random_spec(rng) for _ in range(50)]
        for spec in specs:
            table = spec.ancestors
            assert table.shape == (spec.num_fine, spec.levels) and table.dtype == np.int64
            for level in range(1, spec.levels + 1):
                np.testing.assert_array_equal(table[:, level - 1], self.stepwise(spec, level))
                np.testing.assert_array_equal(level_map(spec, level), table[:, level - 1])

    def test_table_is_read_only(self):
        parents = np.array([0, 0, 1, 1])
        spec = HierarchySpec(counts=(2, 4), parent_maps=(parents,))
        for table in (spec.ancestors, level_map(spec, 1), spec.parent_maps[0]):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1
        parents[0] = 1  # the caller's array is copied, so the table stays true to the spec
        assert spec.parent_maps[0].tolist() == [0, 0, 1, 1]
        assert spec.ancestors.tolist() == [[0, 0], [0, 1], [1, 2], [1, 3]]

    @pytest.mark.parametrize("clone", [
        lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_copies_are_rebuilt_read_only(self, clone):
        # numpy drops the read-only flag in a pickle or deepcopy of an array,
        # so the spec is rebuilt from counts, parent maps and names
        spec = HierarchySpec(
            counts=(2, 3, 4), parent_maps=(np.array([0, 1, 1]), np.array([0, 1, 2, 2])),
            names=(("a", "b"), ("c", "d", "e"), ("f", "g", "h", "i")),
        )
        twin = clone(spec)
        assert twin.counts == spec.counts and twin.names == spec.names
        np.testing.assert_array_equal(twin.ancestors, spec.ancestors)
        for mine, theirs in zip(twin.parent_maps, spec.parent_maps):
            np.testing.assert_array_equal(mine, theirs)
        for table in (twin.ancestors, *twin.parent_maps):
            assert not table.flags.writeable


@pytest.mark.parametrize("name", [
    "HierarchySpec", "TransitionMatrix", "GcdSplit", "DiscreteJoint", "ModelState", "ForwardTrace",
])
def test_array_holders_compare_and_hash_by_identity(name):
    state = init_model(balanced_hierarchy([2, 4]), in_dim=3, hidden=(4,), proj_dim=4, seed=0)
    make = {  # two calls give equal-valued instances
        "HierarchySpec": lambda: balanced_hierarchy([2, 4]),
        "TransitionMatrix": lambda: TransitionMatrix(level=1, entries=np.eye(2)),
        "GcdSplit": lambda: GcdSplit(np.array([0]), np.array([1]), {0}, {0, 1}),
        "DiscreteJoint": lambda: DiscreteJoint(("a",), np.array([0.5, 0.5])),
        "ModelState": state.copy,
        "ForwardTrace": lambda: forward(state, np.ones((2, 3))),
    }[name]
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


class TestInitTransition:
    def test_known_one_hot_novel_uniform(self):
        spec = HierarchySpec(counts=(2, 2), parent_maps=(np.array([0, 1]),))
        tm = init_transition(spec, {0}, 1)
        np.testing.assert_allclose(tm.entries, [[1.0, 0.0], [0.5, 0.5]])

    def test_all_known_is_one_hot(self):
        spec = balanced_hierarchy([3, 6])
        tm = init_transition(spec, set(range(6)), 1)
        assert np.all(np.isin(tm.entries, [0.0, 1.0]))
        np.testing.assert_allclose(tm.entries.sum(axis=1), 1.0)

    def test_no_known_all_uniform(self):
        spec = balanced_hierarchy([3, 6])
        tm = init_transition(spec, set(), 1)
        np.testing.assert_allclose(tm.entries, 1.0 / 3.0)

    def test_rejects_level_h(self):
        spec = balanced_hierarchy([3, 6])
        with pytest.raises(InputError):
            init_transition(spec, set(), 2)


class TestUpdateTransition:
    def setup_method(self):
        self.spec = HierarchySpec(counts=(2, 4), parent_maps=(np.array([0, 0, 1, 1]),))
        self.tm = init_transition(self.spec, {0, 1}, 1)

    def test_momentum_one_freezes(self):
        rng = np.random.default_rng(0)
        coarse = rng.dirichlet(np.ones(2), size=10)
        fine = rng.dirichlet(np.ones(4), size=10)
        out = update_transition(self.tm, coarse, fine, momentum=1.0)
        np.testing.assert_array_equal(out.entries, self.tm.entries)

    def test_momentum_zero_takes_batch_mean(self):
        coarse = np.array([[0.8, 0.2], [0.6, 0.4]])
        fine = np.tile([0.0, 0.0, 1.0, 0.0], (2, 1))  # all predicted as novel class 2
        out = update_transition(self.tm, coarse, fine, momentum=0.0)
        np.testing.assert_allclose(out.entries[2], [0.7, 0.3])

    def test_momentum_blend(self):
        coarse = np.array([[0.8, 0.2]])
        fine = np.array([[0.0, 0.0, 1.0, 0.0]])
        out = update_transition(self.tm, coarse, fine, momentum=0.9)
        np.testing.assert_allclose(out.entries[2], [0.53, 0.47])

    def test_known_rows_never_change(self):
        rng = np.random.default_rng(1)
        coarse = rng.dirichlet(np.ones(2), size=32)
        fine = rng.dirichlet(np.ones(4), size=32)
        out = update_transition(self.tm, coarse, fine, momentum=0.5)
        np.testing.assert_array_equal(out.entries[0], [1.0, 0.0])
        np.testing.assert_array_equal(out.entries[1], [1.0, 0.0])

    def test_unpredicted_novel_row_unchanged(self):
        coarse = np.array([[0.8, 0.2]])
        fine = np.array([[0.0, 0.0, 1.0, 0.0]])  # novel class 3 receives nothing
        out = update_transition(self.tm, coarse, fine, momentum=0.5)
        np.testing.assert_array_equal(out.entries[3], self.tm.entries[3])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            update_transition(self.tm, np.ones((2, 3)) / 3, np.ones((2, 4)) / 4, 0.5)
        with pytest.raises(InputError):
            update_transition(self.tm, np.ones((2, 2)) / 2, np.ones((3, 4)) / 4, 0.5)

    def test_rows_stay_stochastic_under_random_updates(self):
        # invariant: after any update sequence rows are non-negative and sum to 1
        rng = np.random.default_rng(42)
        for _ in range(30):
            spec = random_spec(rng)
            if spec.levels < 2:
                continue
            level = int(rng.integers(1, spec.levels))
            known = set(
                rng.choice(spec.num_fine, size=int(rng.integers(0, spec.num_fine)), replace=False)
            )
            tm = init_transition(spec, known, level)
            for _ in range(10):
                n = int(rng.integers(1, 20))
                coarse = rng.dirichlet(np.ones(tm.n_coarse), size=n)
                fine = rng.dirichlet(np.ones(tm.n_fine), size=n)
                lam = float(rng.random())
                tm = update_transition(tm, coarse, fine, lam)
                assert np.all(tm.entries >= 0)
                np.testing.assert_allclose(tm.entries.sum(axis=1), 1.0, atol=1e-9)

    def test_argmax_tie_breaks_to_lowest_index(self):
        tm = init_transition(self.spec, set(), 1)
        coarse = np.array([[1.0, 0.0]])
        fine = np.array([[0.25, 0.25, 0.25, 0.25]])  # tie: goes to class 0
        out = update_transition(tm, coarse, fine, momentum=0.0)
        np.testing.assert_allclose(out.entries[0], [1.0, 0.0])
        np.testing.assert_allclose(out.entries[1], tm.entries[1])


class TestTransitionMatrixInvariants:
    def test_rejects_negative(self):
        with pytest.raises(InputError):
            TransitionMatrix(level=1, entries=np.array([[1.2, -0.2]]))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(InputError):
            TransitionMatrix(level=1, entries=np.array([[0.5, 0.4]]))


class TestHierarchyFile:
    def test_round_trip(self, tmp_path):
        spec = balanced_hierarchy([2, 4, 8])
        path = tmp_path / "taxonomy.json"
        save_hierarchy(path, spec, known={0, 3})
        loaded, known = load_hierarchy(path)
        assert loaded.counts == spec.counts
        for a, b in zip(loaded.parent_maps, spec.parent_maps):
            np.testing.assert_array_equal(a, b)
        assert known == {0, 3}

    def test_names_round_trip(self, tmp_path):
        spec = HierarchySpec(
            counts=(2, 4),
            parent_maps=(np.array([0, 0, 1, 1]),),
            names=(("animal", "vehicle"), ("cat", "dog", "car", "van")),
        )
        path = tmp_path / "taxonomy.json"
        save_hierarchy(path, spec)
        loaded, _ = load_hierarchy(path)
        assert loaded.names == spec.names

    def test_bad_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError, match="broken.json"):
            load_hierarchy(path)

    def test_non_utf8_reports_path(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"counts": [2], "names": [["caf\u00e9", "b"]]}'.encode("latin-1"))
        with pytest.raises(DataFormatError, match="latin1.json"):
            load_hierarchy(path)

    @pytest.mark.parametrize("text, reason", [
        ('{"counts": [' + "1" * 5001 + "]}", "Exceeds the limit (4300 digits)"),
        ("[" * 100_000, "nested too deeply"),
    ], ids=["too-long integer", "too-deep nesting"])
    def test_json_beyond_the_parser_reports_path(self, tmp_path, text, reason):
        path = tmp_path / "huge.json"
        path.write_text(text)
        with pytest.raises(DataFormatError) as info:
            load_hierarchy(path)
        assert str(info.value).startswith(f"{path}: invalid JSON (")
        assert reason in str(info.value)

    def test_known_out_of_range(self, tmp_path):
        path = tmp_path / "taxonomy.json"
        path.write_text('{"counts": [2, 4], "parents": [[0, 0, 1, 1]], "known": [9]}')
        with pytest.raises(DataFormatError):
            load_hierarchy(path)


HIERARCHY_JSON = (
    '{"counts": [2, 4], "parents": [[0, 0, 1, 1]], "known": [0, 2],\n'
    ' "names": [["animal", "vehicle"], ["cat", "dog", "car", "van"]]}\n'
)


def reference_hierarchy(data: bytes):
    """What a hierarchy file says, read field by field with plain Python:
    (counts, parent maps, known, names), or None when it breaks the schema."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError:
        return None

    def ints(v):
        return isinstance(v, list) and all(type(x) is int for x in v)

    if not isinstance(doc, dict) or "counts" not in doc:
        return None
    counts, parents = doc["counts"], doc.get("parents", [])
    known, names = doc.get("known", []), doc.get("names")
    if not (ints(counts) and isinstance(parents, list) and all(map(ints, parents)) and ints(known)):
        return None
    if names is not None and not (
        isinstance(names, list)
        and all(isinstance(lvl, list) and all(isinstance(n, str) for n in lvl) for lvl in names)
        and [len(lvl) for lvl in names] == counts
    ):
        return None
    if not counts or counts[0] < 1 or counts != sorted(counts) or len(parents) != len(counts) - 1:
        return None
    for parent_count, child_count, m in zip(counts, counts[1:], parents):
        if len(m) != child_count or set(m) != set(range(parent_count)):
            return None
    if any(not 0 <= k < counts[-1] for k in known):
        return None
    return counts, parents, set(known), names


def with_field(key: str, value: str) -> bytes:
    doc = json.loads(HIERARCHY_JSON)
    doc[key] = json.loads(value)
    return json.dumps(doc).encode()


# (case, file bytes, the key a wrong type names)
WRONG_TYPES = [
    ("counts text", with_field("counts", '"ab"'), "counts"),
    ("counts number", with_field("counts", "4"), "counts"),
    ("counts fraction", with_field("counts", "[2.5, 4]"), "counts"),
    ("counts integral float", with_field("counts", "[2, 4.0]"), "counts"),
    ("counts bool", with_field("counts", "[true, 4]"), "counts"),
    ("parents number", with_field("parents", "5"), "parents"),
    ("parents flat", with_field("parents", "[0, 0, 1, 1]"), "parents"),
    ("parents text entry", with_field("parents", '[[0, 0, 1, "x"]]'), "parents"),
    ("parents fraction", with_field("parents", "[[0, 0, 1, 1.5]]"), "parents"),
    ("parents null entry", with_field("parents", "[[0, 0, 1, null]]"), "parents"),
    ("known text", with_field("known", '["a"]'), "known"),
    ("known number", with_field("known", "3"), "known"),
    ("known fraction", with_field("known", "[1.7]"), "known"),
    ("known bool", with_field("known", "[true]"), "known"),
    ("names number", with_field("names", "3"), "names"),
    ("names flat", with_field("names", '["a", "b"]'), "names"),
    ("names number entry", with_field("names", '[["a", 1], ["c", "d", "e", "f"]]'), "names"),
]


class TestHierarchyCorruption:
    """Every hierarchy file either loads to exactly what the plain-Python
    reference reads or is a DataFormatError naming the file."""

    @staticmethod
    def check(tmp_path, data: bytes):
        path = tmp_path / "hierarchy.json"
        path.write_bytes(data)
        expected = reference_hierarchy(data)
        if expected is None:
            with pytest.raises(DataFormatError) as info:
                load_hierarchy(path)
            message = str(info.value)
            assert message.startswith(f"{path}: "), message
            return message
        spec, known = load_hierarchy(path)
        counts, parents, known_ref, names = expected
        assert spec.counts == tuple(counts)
        assert [m.tolist() for m in spec.parent_maps] == parents
        assert known == known_ref
        assert spec.names == (None if names is None else tuple(map(tuple, names)))
        return None

    def test_reference_file_loads(self, tmp_path):
        assert self.check(tmp_path, HIERARCHY_JSON.encode()) is None
        assert load_hierarchy(tmp_path / "hierarchy.json")[1] == {0, 2}

    @pytest.mark.parametrize("case,data,key", WRONG_TYPES, ids=[c[0] for c in WRONG_TYPES])
    def test_wrong_type_names_the_key(self, tmp_path, case, data, key):
        message = self.check(tmp_path, data)
        assert message == f"{tmp_path / 'hierarchy.json'}: {key!r} must be " + (
            "a list of integer lists" if key == "parents"
            else "a list of string lists" if key == "names" else "a list of integers"
        )

    def test_every_truncation(self, tmp_path):
        full = HIERARCHY_JSON.encode()
        messages = [self.check(tmp_path, full[:cut]) for cut in range(len(full) + 1)]
        assert messages[-1] is None and messages[-2] is None
        assert all(m is not None for m in messages[:-2])

    def test_random_byte_edits(self, tmp_path):
        # seeded byte edits anywhere in the file: overwrite, insert or delete
        rng = np.random.default_rng(8)
        full = HIERARCHY_JSON.encode()
        alphabet = b'0123456789.-+e"[],: \ntruefalsnl\xff\x00'
        outcomes = set()
        for _ in range(300):
            data = bytearray(full)
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(len(data)))
                byte = alphabet[int(rng.integers(len(alphabet)))]
                edit = rng.integers(3)
                if edit == 0:
                    data[pos] = byte
                elif edit == 1:
                    data.insert(pos, byte)
                else:
                    del data[pos]
            outcomes.add(self.check(tmp_path, bytes(data)) is None)
        assert outcomes == {True, False}

    def test_seal_eval_exits_one(self, tmp_path, capsys):
        from seal.cli import main

        path = tmp_path / "h.json"
        path.write_bytes(with_field("parents", "[[0, 0, 1, 1.5]]"))
        (tmp_path / "labels.csv").write_text("id,level_1,level_2\n0,0,0\n1,1,2\n")
        code = main([
            "eval", "--pred", str(tmp_path / "labels.csv"),
            "--truth", str(tmp_path / "labels.csv"), "--hierarchy", str(path),
        ])
        assert code == 1
        assert f"seal: error: {path}: 'parents' must be" in capsys.readouterr().err
