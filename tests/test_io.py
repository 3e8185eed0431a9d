import errno
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from retarget_kit import (
    Codebook,
    CorrespondencePair,
    CorrespondenceSet,
    FeatureMatrix,
    JointTrajectory,
    Pose,
    Rotation,
    TokenSequence,
    keypoint_motion,
    load_codebook,
    load_correspondence,
    load_example_correspondence,
    load_example_skeleton,
    load_feature_matrix,
    load_motion,
    load_skeleton,
    load_tokens,
    save_codebook,
    save_correspondence,
    save_feature_matrix,
    save_motion,
    save_skeleton,
    save_tokens,
    trajectory_motion,
)
from retarget_kit import asset_path, io
from retarget_kit.cli import main
from retarget_kit.errors import ParseError, ValidationError
from retarget_kit.io import _render, save_report
from retarget_kit.rotations import _quat_stack
from retarget_kit.skeleton import Joint, Marker, Skeleton

from conftest import (
    make_humanlike,
    random_rotation,
    scalar_from_quat,
    twist_free_pose,
    zero_pose,
)


def rewrite(path, mutate):
    obj = json.loads(path.read_text())
    mutate(obj)
    path.write_text(json.dumps(obj))


def as_lists(node):
    """The tree json.dumps can take: every ndarray replaced by its tolist()."""
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {k: as_lists(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return type(node)(as_lists(v) for v in node)
    return node


def assert_matches_json(obj):
    assert "".join(_render(obj, 0)) == json.dumps(as_lists(obj), indent=1)


def no_tmp_files(directory):
    return not list(directory.rglob("*.tmp"))


def motion_holding(frames, labels):
    """A keypoint motion given `frames` after it is made, past its own check, so
    that the writer is the one to see them."""
    motion = keypoint_motion(np.zeros(frames.shape), labels, 30.0)
    motion.keypoints = frames  # a Motion's fields can be set after it is made
    return motion


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e-7, 1e-5, 1e-4, 0.1, 1.0, -3.0, 2.0**53, 1e16, 1e22, 123456789012345678.0,
    1.7976931348623157e308, -1.7976931348623157e308,
]
SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ARRAYS = st.one_of(
    hnp.arrays(np.float64, SHAPES, elements=FINITE | st.sampled_from(EDGE_FLOATS)),
    hnp.arrays(np.int64, SHAPES),
)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(), ARRAYS
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=16,
)


# Row counts around a block's: 1, B - 1, B, B + 1 and 2B + 1 for B rows a block.
BLOCK_EDGES = [lambda b: 1, lambda b: b - 1, lambda b: b, lambda b: b + 1, lambda b: 2 * b + 1]
BLOCK_EDGE_IDS = ["1", "B-1", "B", "B+1", "2B+1"]


def blocks(rows, width):
    """How many blocks `_render` writes `rows` rows of `width` values in."""
    return math.ceil(rows / (io._BLOCK_VALUES // width))


class TestArrayWriter:
    """The one renderer's pieces join to json.dumps(indent=1), byte for byte."""

    @given(TREES)
    @settings(max_examples=300, deadline=None)
    def test_random_trees(self, obj):
        assert_matches_json(obj)

    @given(ARRAYS)
    @settings(max_examples=200, deadline=None)
    def test_arrays_at_depth(self, arr):
        assert_matches_json({"a": [arr, {"b": arr}], "c": (arr,)})

    @pytest.mark.parametrize("value", EDGE_FLOATS)
    def test_float_edge_values(self, value):
        arr = np.full((2, 3), value)
        arr[0, 1] = -value
        assert_matches_json({"leaf": value, "row": arr[0], "matrix": arr, "cube": arr[None]})

    def test_streamed_rows_nested_at_depth(self):
        # 2-D and 3-D arrays of 0, 1 and many rows, one and two levels down
        arrays = [np.arange(n * 3.0).reshape(n, 3) - 1.5 for n in (0, 1, 5)]
        arrays += [np.arange(n * 6).reshape(n, 2, 3) for n in (0, 1, 4)]
        arrays += [np.zeros((3, 0)), np.zeros((2, 0, 2))]
        assert_matches_json({"a": arrays, "b": {"c": arrays, "d": [arrays[2]]}})

    @pytest.mark.parametrize("shape", [(None, 5), (None, 4, 3)], ids=["2d", "3d"])
    @pytest.mark.parametrize("edge", BLOCK_EDGES, ids=BLOCK_EDGE_IDS)
    def test_block_boundaries(self, rng, shape, edge):
        # A piece per block of at most _BLOCK_VALUES values' rows, never per row.
        width = math.prod(shape[1:])
        rows = edge(io._BLOCK_VALUES // width)
        arr = rng.normal(size=(rows, *shape[1:]))
        arr.flat[::3], arr.flat[1::5], arr.flat[-1] = -0.0, 1e22, 5e-324
        assert_matches_json({"m": arr, "n": [arr, {"o": arr}]})
        assert len(list(_render(arr, 0))) == blocks(rows, width) + 1  # and "]"

    def test_int_extremes_and_zero_size(self):
        big = np.array([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max])
        assert_matches_json([big, np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((2, 0, 1), int)])

    def test_nested_plain_lists(self):
        # Lists holding lists or objects are rendered an item at a time, lists of
        # scalars (empty ones too) in one encoder pass, at every depth.
        rows = [[1, 2.5, None], [], [[True, "a"], [[]]], ({"k": [1, [2]]}, {}), [{"x": []}]]
        assert_matches_json(rows)
        assert_matches_json({"a": rows, "b": [{"c": rows}], "d": [[], [[]], [[[], [0]]]]})
        assert_matches_json({"array": np.eye(2), "e": [rows, (rows,)], "f": [[-0.0, 1e22]]})
        assert len(list(_render([[1], [2]], 0))) > 1 and len(list(_render([1, 2], 0))) == 1

    def test_non_finite_leaves(self):
        # json's NaN and Infinity, in a flat container, in a mixed one and alone
        special = [float("nan"), float("inf"), -float("inf")]
        assert_matches_json(special)
        assert_matches_json({"flat": {"a": special[0], "b": special[2]}, "leaves": special[1]})
        assert_matches_json([special[0], [special[1]], {"c": special[2]}, special[2]])
        for value in special:
            assert_matches_json(value)

    def test_numpy_scalar_leaves(self):
        # A float64 is a float subclass, written as json writes it; an int64 is
        # refused with the TypeError json raises for it, wherever it sits.
        floats = [np.float64(0.1), np.float64(-0.0), np.float64(1e22), np.float64(np.nan)]
        assert_matches_json(floats)
        assert_matches_json({"a": floats[0], "b": [1.5, floats[1]], "c": {"d": floats[2]}})
        assert_matches_json([floats[3], [floats[3]], np.eye(2)])
        with pytest.raises(TypeError) as expected:
            json.dumps(np.int64(3))
        for tree in ([np.int64(3)], {"a": np.int64(3)}, {"a": [1], "b": np.int64(3)},
                     [[np.int64(3)]], np.int64(3)):
            with pytest.raises(TypeError) as e:
                "".join(_render(tree, 0))
            assert str(e.value) == str(expected.value)

    def test_flat_containers_at_depth(self):
        # Lists, tuples and objects of scalars, empty ones too, at depths 0 to 3
        flat = [[1, -2.5, None, True, False, "s"], (3, 4.0), {"k": 1, "v": "x"}, [], {}, ()]
        for item in flat:
            tree = item
            for depth in range(4):  # the item at `depth`, in a list or an object with a leaf
                assert_matches_json(tree)
                tree = [0.5, tree] if depth % 2 else {"d": tree, "leaf": "x"}

    def test_strings_that_need_escapes(self):
        text = ['"quoted"', "back\\slash", "new\nline\ttab\r", "\x00\x1f\x7f", "é\u2028😀", ""]
        assert_matches_json(text)
        assert_matches_json({key: key for key in text})
        assert_matches_json({"mixed": [text, {"k": text[2]}], text[0]: text[3]})

    def test_per_frame_item(self):
        # An object mixing scalars and objects of scalars, as a report's per_frame
        # items do, alone and in a list, next to an array.
        item = {"objective": 0.25, "iterations": 4, "converged": True, "termination": "converged",
                "damping": 1e-3, "position_residuals": {"l_knee": 0.01, "r_knee": float("nan")},
                "orientation_residuals": {}, "note": None}
        assert_matches_json(item)
        assert_matches_json({"frames": 2, "per_frame": [item, item], "array": np.ones((2, 2))})
        # written a frame at a time: no piece holds more than one frame's text
        pieces = list(_render([item] * 30, 0))
        assert len(pieces) > 30 and max(map(len, pieces)) < len(json.dumps(item, indent=1))

    @pytest.mark.parametrize(
        "tree",
        [{1: 2}, {"a": 1, 2.5: "b"}, {None: [1]}, [{"a": [1]}, {(1, 2): 3}], {"a": {True: 1}}],
        ids=["int", "float", "none", "tuple_in_list", "bool_nested"],
    )
    def test_non_string_keys_refused(self, tree):
        with pytest.raises(TypeError, match="object keys must be strings"):
            "".join(_render(tree, 0))

    def test_string_and_constant_leaves(self):
        assert_matches_json(
            {"é": "日本語 \u2028 \U0001f600", "none": None, "flags": [True, False], "": ""}
        )

    def test_report_floats_written_as_before(self, tmp_path):
        report = {"objective": float("nan"), "bounds": [float("inf"), -float("inf"), 0.5]}
        save_report(report, tmp_path / "r.json")
        expected = {"format": "report", "version": 1, **report}
        assert (tmp_path / "r.json").read_text() == json.dumps(expected, indent=1) + "\n"

    @staticmethod
    def retarget_report(tmp_path, rng, monkeypatch):
        """The report tree `retarget --report` writes for 4 frames."""
        human = load_example_skeleton("human_24")
        values = np.array([twist_free_pose(human, rng, 0.4).joint_values for _ in range(4)])
        rotations = np.repeat(random_rotation(rng).matrix[None], 4, axis=0)
        traj = JointTrajectory.from_arrays(30.0, np.zeros((4, 3)), rotations, values, "human_24")
        save_motion(trajectory_motion(traj), tmp_path / "human.motion")
        trees = []
        real = io.save_report

        def recording(tree, path):
            trees.append(tree)
            real(tree, path)

        monkeypatch.setattr(io, "save_report", recording)
        argv = ["retarget", "--human", tmp_path / "human.motion",
                "--human-skel", asset_path("human_24"), "--robot-skel", asset_path("h1_like_19"),
                "--map", asset_path("human_to_h1"), "--out", tmp_path / "robot.motion",
                "--report", tmp_path / "report.json"]
        assert main([str(a) for a in argv]) == 0
        (tree,) = trees
        return tree

    def test_retarget_report(self, tmp_path, rng, monkeypatch):
        # A report has no arrays: its `per_frame` list is written a frame at a time,
        # each frame's objects of residuals in one encoder pass and its other
        # fields through json's text for their type; a NaN field too.
        tree = self.retarget_report(tmp_path, rng, monkeypatch)
        expected = json.dumps({"format": "report", "version": 1, **tree}, indent=1) + "\n"
        assert (tmp_path / "report.json").read_text() == expected
        frames = tree["per_frame"]
        tree = {**tree, "per_frame": [*frames[:2], {**frames[2], "objective": np.nan}]}
        assert_matches_json(tree)
        # next to an array, and nested in plain lists, at depths 1 to 3
        assert_matches_json({"array": np.eye(2), "nested": [tree, {"again": [[tree]]}]})

    def test_report_write_holds_one_frame_of_text(self, tmp_path, rng, monkeypatch):
        # Writing this 500-frame report (0.35 MiB) in one json.dumps took 2.2 MiB.
        tree = self.retarget_report(tmp_path, rng, monkeypatch)
        tree = {**tree, "frames": 500, "per_frame": tree["per_frame"] * 125}
        p = tmp_path / "long.json"
        save_report(tree, p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_report(tree, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        expected = json.dumps({"format": "report", "version": 1, **tree}, indent=1) + "\n"
        assert p.read_text() == expected
        assert peak < p.stat().st_size / 2, f"{peak / 2**20:.2f} MiB"

    def test_non_finite_array_refused(self, tmp_path):
        frames = np.zeros((2, 1, 3))
        frames[1, 0, 2] = np.nan
        p = tmp_path / "m.motion"
        with pytest.raises(ValidationError, match="cannot write .*NaN or infinity"):
            save_motion(motion_holding(frames, ["a"]), p)
        assert not p.exists() and no_tmp_files(tmp_path)

    @pytest.mark.parametrize("binary_sidecar", [False, True])
    def test_non_finite_codebook_refused(self, tmp_path, binary_sidecar):
        # The constructor refuses the codebook, so no entries sidecar is left behind.
        cb = Codebook.initialize(np.eye(3))
        p = tmp_path / "cb.json"
        with pytest.raises(ValidationError, match="NaN or infinity"):
            bad = Codebook(cb.entries, cb.ema_counts, cb.ema_sums + np.inf, usage=np.ones(3))
            save_codebook(bad, p, binary_sidecar=binary_sidecar)
        assert list(tmp_path.iterdir()) == []

    def test_writer_memory_does_not_grow_with_the_document(self, tmp_path, rng):
        # Each write allocates a row's text, not the document's, beyond its inputs.
        labels = [f"j{i}" for i in range(24)]
        writes = {
            "features": (save_feature_matrix, FeatureMatrix(rng.normal(size=(2000, 100)))),
            "keypoints": (save_motion, keypoint_motion(rng.normal(size=(2000, 24, 3)), labels, 30)),
            "codebook": (save_codebook, Codebook.initialize(rng.normal(size=(512, 100)))),
        }
        for name, (save, value) in writes.items():
            save(value, tmp_path / name)  # a first write, so nothing lazy is counted
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                save(value, tmp_path / name)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, f"{name}: {peak / 1e6:.1f} MB"

    def test_trajectory_write_allocates_less_than_its_file(self, tmp_path, rng):
        # Each frame is rendered as it is written; no column's text is held whole.
        # Rendering whole columns first took 14.9 MiB for this 3.7 MiB file.
        rotations = np.stack([random_rotation(rng).matrix for _ in range(2000)])
        traj = JointTrajectory.from_arrays(
            30.0, rng.normal(size=(2000, 3)), rotations, rng.normal(size=(2000, 70))
        )
        p = tmp_path / "t.motion"
        save_motion(trajectory_motion(traj), p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            save_motion(trajectory_motion(traj), p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < p.stat().st_size, f"{peak / 2**20:.2f} MiB"

    def test_rejects_non_string_keys_and_dtypes(self):
        with pytest.raises(TypeError):
            list(_render({1: 2}, 0))
        with pytest.raises(TypeError):
            list(_render(np.array([True]), 0))


class FullDisk:
    """A file whose every write fails as on a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


class TestFailedWrite:
    """A write that fails, before any of the document is written or after some,
    leaves the target as it was and no temp file."""

    @pytest.mark.parametrize(
        "save, error, message",
        [
            pytest.param(
                lambda p: save_report({"m": np.vstack([np.ones((4, 3)), [[0, np.nan, 1]]])}, p),
                ValidationError, r"cannot write .*array of shape \(5, 3\) contains NaN",
                id="nan_in_last_row",
            ),
            pytest.param(
                lambda p: save_motion(motion_holding(
                    np.concatenate([np.ones((4, 2, 3)), np.full((1, 2, 3), np.inf)]), ["a", "b"]
                ), p),
                ValidationError, r"cannot write .*array of shape \(5, 2, 3\) contains NaN",
                id="infinity_in_last_frame",
            ),
            pytest.param(
                lambda p: save_report({"a": np.ones((4, 3)), "b": {1: 2}}, p),
                TypeError, "object keys must be strings", id="key_after_array",
            ),
            pytest.param(
                lambda p: save_report({"a": np.ones((4, 3)), "b": np.array([True])}, p),
                TypeError, "dtype bool", id="bool_array_after_array",
            ),
        ],
    )
    def test_target_unchanged(self, tmp_path, save, error, message):
        p = tmp_path / "target.json"
        p.write_bytes(b"the file as it was\n")
        with pytest.raises(error, match=message):
            save(p)
        assert p.read_bytes() == b"the file as it was\n"
        assert no_tmp_files(tmp_path)

    def test_file_write_fails(self, tmp_path, monkeypatch):
        real = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda fd, mode: FullDisk(real(fd, mode)))
        self.test_target_unchanged(
            tmp_path, lambda p: save_feature_matrix(FeatureMatrix(np.ones((4, 3))), p),
            ValidationError, "cannot write .*No space left on device",
        )

    @staticmethod
    def fk_inputs(tmp_path):
        skel = make_humanlike(n_chains=2, chain_len=2)
        traj = JointTrajectory(30.0, [zero_pose(skel)] * 2, skeleton=skel.name)
        save_skeleton(skel, tmp_path / "skel.skel")
        save_motion(trajectory_motion(traj), tmp_path / "traj.motion")

    @staticmethod
    def fk(tmp_path, capsys):
        """Run `fk` on `fk_inputs` into tmp_path/target.motion; its exit code and stderr."""
        capsys.readouterr()
        code = main(["fk", "--skel", str(tmp_path / "skel.skel"),
                     "--motion", str(tmp_path / "traj.motion"),
                     "--out", str(tmp_path / "target.motion")])
        return code, capsys.readouterr().err

    def test_fifo_target_refused(self, tmp_path, capsys):
        # A FIFO target was once replaced by a regular file, with exit 0.
        self.fk_inputs(tmp_path)
        os.mkfifo(tmp_path / "target.motion")
        code, err = self.fk(tmp_path, capsys)
        assert (code, err) == (
            2, f"error: cannot write {tmp_path / 'target.motion'}: not a regular file\n"
        )
        assert stat.S_ISFIFO(os.stat(tmp_path / "target.motion").st_mode)
        assert no_tmp_files(tmp_path)

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES, errno.EXDEV])
    def test_rename_fails(self, tmp_path, monkeypatch, capsys, code):
        self.fk_inputs(tmp_path)
        (tmp_path / "target.motion").write_bytes(b"the file as it was\n")

        def failing(src, dst):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "replace", failing)
        assert self.fk(tmp_path, capsys) == (
            2, f"error: cannot write {tmp_path / 'target.motion'}: {os.strerror(code)}\n"
        )
        assert (tmp_path / "target.motion").read_bytes() == b"the file as it was\n"
        assert no_tmp_files(tmp_path)


class TestWrittenFileMode:
    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_mode_of_a_plain_open(self, tmp_path, rng, umask):
        # A temp file and a rename once left every written file at 0o600.
        (tmp_path / "report.json").write_bytes(b"replaced\n")
        (tmp_path / "report.json").chmod(0o600)
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "wb"):
                pass
            save_report({"a": 1}, tmp_path / "report.json")
            motion = keypoint_motion(np.ones((2, 2, 3)), ["a", "b"], 30.0)
            save_motion(motion, tmp_path / "kp.motion")
            cb = Codebook.initialize(rng.normal(size=(4, 2)))
            save_codebook(cb, tmp_path / "cb.json", binary_sidecar=True)
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert len(modes) == 6  # the codebook among them with its two sidecars
        assert set(modes.values()) == {0o666 & ~umask}

    def test_save_never_sets_the_umask(self, tmp_path, rng, monkeypatch):
        # Setting the umask to read it once gave a file another thread made meanwhile 0o600.
        def umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", umask)
        save_report({"a": np.ones((3, 2))}, tmp_path / "report.json")
        cb = Codebook.initialize(rng.normal(size=(4, 2)))
        save_codebook(cb, tmp_path / "cb.json", binary_sidecar=True)
        assert len(list(tmp_path.iterdir())) == 4 and no_tmp_files(tmp_path)


class TestSkeletonIo:
    def test_round_trip(self, tmp_path):
        skel = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint("a", "root", [0, 1, 0], dof="spherical", limits=((-1, 1),) * 3),
                Joint(
                    "b", "a", [0.5, 0, 0], dof="revolute", axis=[0, 0, 1],
                    limits=((-2, 2),), meta={"note": "elbow"},
                ),
            ],
            [Marker("tip", "b", [0.1, 0, 0])],
            name="test",
        )
        p = tmp_path / "s.skel"
        save_skeleton(skel, p)
        back = load_skeleton(p)
        assert back.name == "test"
        assert [j.name for j in back.joints] == ["root", "a", "b"]
        assert back.joint("b").limits == ((-2.0, 2.0),)
        assert np.allclose(back.joint("b").axis, [0, 0, 1])
        assert back.joint("b").meta == {"note": "elbow"}
        assert np.allclose(back.markers["tip"].offset, [0.1, 0, 0])

    def test_byte_identical_rewrites(self, tmp_path):
        skel = make_humanlike()
        p1, p2 = tmp_path / "a.skel", tmp_path / "b.skel"
        save_skeleton(skel, p1)
        save_skeleton(load_skeleton(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_format_key(self, tmp_path):
        p = tmp_path / "s.skel"
        save_skeleton(make_humanlike(), p)
        rewrite(p, lambda o: o.update(format="motion"))
        with pytest.raises(ParseError) as e:
            load_skeleton(p)
        assert e.value.location == "/format"

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "s.skel"
        save_skeleton(make_humanlike(), p)
        rewrite(p, lambda o: o.update(version=99))
        with pytest.raises(ValidationError, match="unsupported skeleton version 99"):
            load_skeleton(p)

    def test_nan_rejected(self, tmp_path):
        p = tmp_path / "s.skel"
        p.write_text(
            '{"format": "skeleton", "version": 1, "joints": '
            '[{"name": "r", "parent": null, "offset": [0, 0, NaN]}]}'
        )
        with pytest.raises(ParseError):
            load_skeleton(p)

    def test_malformed_json_location(self, tmp_path):
        p = tmp_path / "s.skel"
        p.write_text('{"format": "skeleton",\n "version": 1,,}')
        with pytest.raises(ParseError) as e:
            load_skeleton(p)
        assert "line 2" in e.value.location

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_skeleton(tmp_path / "absent.skel")

    @pytest.mark.parametrize("name", [5, ["human"], True])
    def test_name_must_be_a_string_or_null(self, tmp_path, name):
        # a numeric name was loaded and written into every motion made from it
        p = tmp_path / "s.skel"
        save_skeleton(make_humanlike(), p)
        rewrite(p, lambda o: o.update(name=name))
        with pytest.raises(ParseError, match="expected a skeleton name") as e:
            load_skeleton(p)
        assert e.value.location == "/name"

    @pytest.mark.parametrize(
        "content, reason",
        [(b"\xff\xfe{}", "can't decode byte 0xff"),
         (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded")],
        ids=["not_utf8", "nested_too_deep"],
    )
    def test_unreadable_document(self, tmp_path, content, reason):
        p = tmp_path / "s.skel"
        p.write_bytes(content)
        with pytest.raises(ParseError, match=reason) as e:
            load_skeleton(p)
        assert e.value.location == "-"


class TestMotionIo:
    def test_keypoints_round_trip(self, tmp_path, rng):
        frames = rng.normal(size=(4, 3, 3))
        m = keypoint_motion(frames, ["a", "b", "c"], 30.0, skeleton="human")
        p = tmp_path / "m.motion"
        save_motion(m, p)
        back = load_motion(p)
        assert back.kind == "keypoints"
        assert back.labels == ("a", "b", "c")
        assert back.fps == 30.0
        assert back.skeleton == "human"
        assert np.allclose(back.keypoints, frames, atol=0)

    def test_trajectory_round_trip(self, tmp_path, rng):
        skel = make_humanlike()
        poses = [twist_free_pose(skel, rng) for _ in range(3)]
        traj = JointTrajectory(fps=25.0, poses=poses, skeleton="humanlike")
        p = tmp_path / "m.motion"
        save_motion(trajectory_motion(traj), p)
        back = load_motion(p)
        assert back.kind == "trajectory"
        for a, b in zip(back.trajectory.poses, poses):
            assert np.allclose(a.root_position, b.root_position, atol=0)
            assert np.linalg.norm(a.root_orientation.matrix - b.root_orientation.matrix) < 1e-12
            assert np.allclose(a.joint_values, b.joint_values, atol=0)

    def test_quaternion_storage(self, tmp_path, rng):
        # root orientation is serialized as a (w, x, y, z) unit quaternion
        r = random_rotation(rng)
        traj = JointTrajectory(fps=30.0, poses=[Pose(np.zeros(3), r, [])])
        p = tmp_path / "m.motion"
        save_motion(trajectory_motion(traj), p)
        stored = json.loads(p.read_text())["frames"][0]["root_orientation"]
        assert np.allclose(stored, r.as_quat())
        assert stored[0] >= 0

    def test_bad_kind(self, tmp_path):
        p = tmp_path / "m.motion"
        p.write_text('{"format": "motion", "version": 1, "fps": 30, "kind": "blobs"}')
        with pytest.raises(ParseError) as e:
            load_motion(p)
        assert e.value.location == "/kind"

    def test_bad_fps(self, tmp_path):
        p = tmp_path / "m.motion"
        p.write_text('{"format": "motion", "version": 1, "fps": 0, "kind": "keypoints"}')
        with pytest.raises(ParseError):
            load_motion(p)

    @pytest.mark.parametrize("kind", ["keypoints", "trajectory"])
    @pytest.mark.parametrize("fps", [np.nan, np.inf, 0, True], ids=["nan", "inf", "0", "true"])
    def test_bad_fps_refused(self, tmp_path, kind, fps):
        # save_motion once wrote "fps": NaN or Infinity, which load_motion refuses
        def make(fps):
            if kind == "keypoints":
                return keypoint_motion(np.zeros((2, 1, 3)), ["a"], fps)
            arrays = np.zeros((2, 3)), np.stack([np.eye(3)] * 2), np.zeros((2, 1))
            return trajectory_motion(JointTrajectory.from_arrays(fps, *arrays))

        with pytest.raises(ValidationError, match="fps must be positive"):
            make(fps)
        motion = make(30.0)
        motion.fps = fps  # a Motion's fields can be set after it is made
        p = tmp_path / "m.motion"
        with pytest.raises(ValidationError, match="fps must be positive"):
            save_motion(motion, p)
        assert not p.exists() and no_tmp_files(tmp_path)

    @pytest.mark.parametrize(
        "field, value, location",
        [("fps", True, "/fps"), ("fps", 10**400, "/fps"), ("skeleton", 5, "/skeleton"),
         ("skeleton", ["human"], "/skeleton")],
    )
    def test_header_types(self, tmp_path, rng, field, value, location):
        p = tmp_path / "m.motion"
        save_motion(keypoint_motion(rng.normal(size=(2, 1, 3)), ["a"], 30.0), p)
        rewrite(p, lambda o: o.update({field: value}))
        with pytest.raises(ParseError) as e:
            load_motion(p)
        assert e.value.location == location

    def test_keypoint_shape_check(self, tmp_path):
        p = tmp_path / "m.motion"
        p.write_text(
            '{"format": "motion", "version": 1, "fps": 30, "kind": "keypoints", '
            '"labels": ["a", "b"], "frames": [[[0, 0, 0]]]}'
        )
        with pytest.raises(ParseError):
            load_motion(p)

    @pytest.mark.parametrize(
        "make, message",
        [
            pytest.param(lambda: keypoint_motion(np.full((2, 1, 3), np.nan), ["a"], 30),
                         "keypoint frames contains NaN", id="nan_keypoints"),
            pytest.param(lambda: keypoint_motion(np.zeros((2, 1, 3)), ["a", "b"], 30),
                         r"keypoint frames: expected shape \(None, 2, 3\)", id="labels_mismatch"),
            pytest.param(lambda: keypoint_motion(np.zeros((2, 1, 3)), [1], 30),
                         "labels must be a list or tuple of strings", id="label_not_a_string"),
            pytest.param(lambda: io.Motion(30.0, "keypoints", labels="a",
                                           keypoints=np.zeros((2, 1, 3))),
                         "labels must be a list or tuple of strings, got 'a'",
                         id="labels_a_string"),
            # keypoint_motion once split a string into one-character labels
            pytest.param(lambda: keypoint_motion(np.zeros((1, 2, 3)), "ab", 30),
                         "labels must be a list or tuple of strings, got 'ab'",
                         id="keypoint_motion_labels_a_string"),
            pytest.param(lambda: io.Motion(30.0, "trajectory"),
                         "trajectory must be a JointTrajectory, got None", id="no_trajectory"),
            pytest.param(lambda: io.Motion(30.0, "trajectory", trajectory=_trajectory(60.0)),
                         "trajectory fps 60.0", id="trajectory_fps_differs"),
            pytest.param(lambda: io.Motion(30.0, "trajectory", skeleton="h",
                                           trajectory=_trajectory(30.0)),
                         "skeleton None differ", id="trajectory_skeleton_differs"),
            pytest.param(lambda: io.Motion(30.0, "blobs"), "unknown motion kind 'blobs'",
                         id="unknown_kind"),
            pytest.param(lambda: io.Motion(30.0, "trajectory", skeleton=5,
                                           trajectory=_trajectory(30.0, skeleton=5)),
                         "expected a skeleton name, got 5", id="skeleton_name_a_number"),
        ],
    )
    def test_motion_checks_its_payload(self, make, message):
        # each of these was made; save_motion then wrote it, or failed with a raw error
        with pytest.raises(ValidationError, match=message):
            make()

    @pytest.mark.parametrize("kind", ["keypoints", "trajectory"])
    def test_zero_frames_refused(self, tmp_path, kind):
        # save_motion once wrote "frames": [], which load_motion refuses at /frames
        def save():
            if kind == "keypoints":
                motion = keypoint_motion(np.zeros((0, 2, 3)), ["a", "b"], 30.0)
            else:
                motion = trajectory_motion(JointTrajectory(30.0, [], skeleton="x"))
            save_motion(motion, p)

        p = tmp_path / "m.motion"
        with pytest.raises(ValidationError, match="^a motion needs at least one frame$"):
            save()
        assert not p.exists() and no_tmp_files(tmp_path)

    def test_list_labels_are_stored_as_a_tuple(self):
        motion = io.Motion(30.0, "keypoints", labels=["a"], keypoints=np.zeros((2, 1, 3)))
        assert motion.labels == ("a",)


def _trajectory(fps, skeleton=None):
    arrays = np.zeros((2, 3)), np.stack([np.eye(3)] * 2), np.zeros((2, 1))
    return JointTrajectory.from_arrays(fps, *arrays, skeleton)


class TestTrajectoryLoader:
    """One array per key; errors still name the first bad frame."""

    @pytest.fixture
    def saved(self, tmp_path, rng):
        skel = make_humanlike()
        poses = [twist_free_pose(skel, rng) for _ in range(8)]
        p = tmp_path / "m.motion"
        save_motion(trajectory_motion(JointTrajectory(30.0, poses, skeleton="h")), p)
        return p, poses

    def test_matches_frame_by_frame_parse(self, saved):
        p, poses = saved
        frames = json.loads(p.read_text())["frames"]
        back = load_motion(p).trajectory.poses
        assert len(back) == len(frames) == len(poses)
        for a, f, b in zip(back, frames, poses):
            assert np.array_equal(a.root_position, f["root_position"])
            assert np.array_equal(a.joint_values, f["joint_values"])
            rot = Rotation.from_quat(np.asarray(f["root_orientation"], dtype=float))
            assert np.array_equal(a.root_orientation.matrix, rot.matrix)
            assert np.array_equal(a.joint_values, b.joint_values)

    @pytest.mark.parametrize(
        "frame, mutate, reason",
        [
            (5, lambda f: f.pop("joint_values"), "bad trajectory frame: 'joint_values'"),
            (0, lambda f: f.pop("root_position"), "bad trajectory frame: 'root_position'"),
            (3, lambda f: f["joint_values"].pop(), "joint values, frame 0 has"),
            (6, lambda f: f["joint_values"].append(0.0), "joint values, frame 0 has"),
            (4, lambda f: f["joint_values"].__setitem__(2, None), "contains NaN or infinity"),
            (7, lambda f: f["root_orientation"].__setitem__(0, None), "contains NaN or infinity"),
            (2, lambda f: f["root_orientation"].pop(), "expected shape (4,)"),
            (1, lambda f: f.update(joint_values=[[0.0]]), "expected shape (None,)"),
            (6, lambda f: f.update(root_position="abc"), "not a numeric array"),
            (3, lambda f: f.update(joint_values=[10**400]), "not a numeric array"),
        ],
    )
    def test_error_names_first_bad_frame(self, saved, frame, mutate, reason):
        p, _ = saved

        def edit(obj):
            mutate(obj["frames"][frame])
            later = obj["frames"][-1]
            if frame < len(obj["frames"]) - 1:
                later["joint_values"][0] = None  # a later bad frame must not be named

        rewrite(p, edit)
        with pytest.raises(ParseError) as e:
            load_motion(p)
        assert e.value.location == f"/frames/{frame}"
        assert reason in e.value.reason

    def test_frame_not_an_object(self, saved):
        p, _ = saved
        rewrite(p, lambda o: o["frames"].__setitem__(2, [1, 2, 3]))
        with pytest.raises(ParseError) as e:
            load_motion(p)
        assert e.value.location == "/frames/2"


# --- per-frame reference ---------------------------------------------------
# The trajectory save and load code that the column writer and the stacked
# quaternion conversion replaced, one frame at a time: the bytes and floats
# the array code must reproduce.


def frame_by_frame_text(fps, skeleton, poses):
    """The file `save_motion` wrote frame by frame for a trajectory of Poses."""
    obj = {
        "format": "motion",
        "version": 1,
        "fps": float(fps),
        "skeleton": skeleton,
        "kind": "trajectory",
        "frames": [
            {
                "root_position": p.root_position.tolist(),
                "root_orientation": p.root_orientation.as_quat().tolist(),
                "joint_values": p.joint_values.tolist(),
            }
            for p in poses
        ],
    }
    return json.dumps(obj, indent=1) + "\n"


def frame_by_frame_load(path):
    """The Poses `load_motion` built frame by frame from a trajectory file."""
    return [
        Pose(
            f["root_position"],
            Rotation(scalar_from_quat(np.asarray(f["root_orientation"], dtype=float))),
            f["joint_values"],
        )
        for f in json.loads(path.read_text())["frames"]
    ]


def traj_columns(traj):
    """The three columns `save_motion` writes a trajectory's frames from."""
    return traj.root_positions, _quat_stack(traj.root_rotations), traj.joint_values


def bits(arr):
    return np.ascontiguousarray(arr, dtype=float).view(np.int64)


# Quaternions reaching every branch of `as_quat` once turned into matrices: a
# positive trace, each diagonal entry the largest (half turns about x, y, z and
# angles near pi), w < 0 to flip, -0.0 entries, and norms far from 1.
EDGE_QUATS = [
    (1.0, 0.0, 0.0, 0.0), (-1.0, -0.0, 0.0, -0.0), (0.0, 1.0, 0.0, 0.0), (-0.0, 0.0, -1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0), (1e-9, 1.0, 0.0, 0.0), (-1e-9, 0.0, 1.0, 0.0), (1e-9, 0.0, -0.0, -1.0),
    (-1e-9, 0.6, 0.8, 0.0), (0.5, -0.5, 0.5, -0.5), (-0.3, 0.1, 0.9, -0.2), (0.7, 0.7, 0.1, -0.1),
    (2e-3, 1e-3, 0.0, 0.0), (300.0, -400.0, 0.0, 1200.0),
]
QUAT_PART = st.floats(-1.0, 1.0) | st.sampled_from([0.0, -0.0, 1e-9, -1e-9])
QUATS = st.one_of(
    st.sampled_from(EDGE_QUATS),
    st.tuples(st.tuples(*[QUAT_PART] * 4), st.sampled_from([1e-3, 1.0, 1e3])).map(
        lambda qs: tuple(qs[1] * x for x in qs[0])
    ),
).filter(lambda q: np.linalg.norm(q) >= 1e-6)
VALUE = FINITE | st.sampled_from(EDGE_FLOATS)


@st.composite
def trajectory_columns(draw):
    """Root positions (T, 3), stored quaternions (T, 4) and joint values (T, DoF)."""
    t, dof = draw(st.integers(1, 40)), draw(st.integers(0, 30))
    positions = draw(hnp.arrays(np.float64, (t, 3), elements=VALUE))
    quats = np.array(draw(st.lists(QUATS, min_size=t, max_size=t)))
    values = draw(hnp.arrays(np.float64, (t, dof), elements=VALUE))
    return positions, quats, values


# Shrinking a failing example of up to 40 x 30 values takes minutes; the
# unshrunk example is reported at once.
NO_SHRINK = settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.generate])


class TestTrajectoryArraysMatchFrameByFrame:
    @given(trajectory_columns())
    @NO_SHRINK
    def test_save_writes_the_same_bytes(self, tmp_path_factory, columns):
        positions, quats, values = columns
        poses = [
            Pose(p, Rotation(scalar_from_quat(q)), v) for p, q, v in zip(positions, quats, values)
        ]
        path = tmp_path_factory.mktemp("save") / "m.motion"
        save_motion(trajectory_motion(JointTrajectory(24.0, poses, "walker")), path)
        assert path.read_text() == frame_by_frame_text(24.0, "walker", poses)

    @given(trajectory_columns())
    @NO_SHRINK
    def test_load_builds_the_same_floats(self, tmp_path_factory, columns):
        positions, quats, values = columns
        frames = [
            {"root_position": p.tolist(), "root_orientation": q.tolist(), "joint_values": v.tolist()}
            for p, q, v in zip(positions, quats, values)
        ]
        obj = {"format": "motion", "version": 1, "fps": 24.0, "skeleton": None,
               "kind": "trajectory", "frames": frames}
        path = tmp_path_factory.mktemp("load") / "m.motion"
        path.write_text(json.dumps(obj, indent=1))
        traj = load_motion(path).trajectory
        want = frame_by_frame_load(path)
        assert np.array_equal(bits(traj.root_positions), bits([p.root_position for p in want]))
        assert np.array_equal(
            bits(traj.root_rotations), bits([p.root_orientation.matrix for p in want])
        )
        assert np.array_equal(
            bits(traj.joint_values), bits(np.reshape([p.joint_values for p in want], values.shape))
        )

    @pytest.mark.parametrize("dof", [0, 19])
    @pytest.mark.parametrize("edge", BLOCK_EDGES, ids=BLOCK_EDGE_IDS)
    def test_block_boundaries(self, tmp_path, rng, dof, edge):
        width = 3 + 4 + dof  # a frame's values
        frames = edge(io._BLOCK_VALUES // width)
        positions, values = rng.normal(size=(frames, 3)), rng.normal(size=(frames, dof))
        positions[:, 0], positions[-1, 1], values.flat[::4] = -0.0, 1e22, 5e-324
        rotations = np.stack([random_rotation(rng).matrix for _ in range(frames)])
        traj = JointTrajectory.from_arrays(24.0, positions, rotations, values, "walker")
        path = tmp_path / "m.motion"
        save_motion(trajectory_motion(traj), path)
        text = path.read_text()
        assert text == frame_by_frame_text(24.0, "walker", traj.poses)
        obj = json.loads(text)
        assert text == json.dumps(obj, indent=1) + "\n"
        assert obj["frames"][-1]["joint_values"] == values[-1].tolist()  # [] for no DoF
        pieces = list(_render(io._Records(dict(zip(io._FRAME_KEYS, traj_columns(traj)))), 0))
        assert len(pieces) == blocks(frames, width) + 1

    @pytest.mark.parametrize(
        "name, message",
        [
            ("root_positions", r"^cannot write .*m\.motion: root_position contains NaN or inf"),
            ("root_rotations", r"^cannot write .*m\.motion: root_orientation contains NaN or inf"),
            ("joint_values", r"^cannot write .*m\.motion: joint_values contains NaN or inf"),
        ],
        ids=list(io._FRAME_KEYS),
    )
    def test_non_finite_column_refused(self, tmp_path, rng, name, message):
        traj = JointTrajectory.from_arrays(
            24.0, np.zeros((5, 3)), np.stack([np.eye(3)] * 5), rng.normal(size=(5, 2))
        )
        bad = getattr(traj, name).copy()
        bad[3].flat[1] = np.nan
        setattr(traj, name, bad)  # past the trajectory's own check
        path = tmp_path / "m.motion"
        path.write_bytes(b"the file as it was\n")
        with pytest.raises(ValidationError, match=message):
            save_motion(trajectory_motion(traj), path)
        assert path.read_bytes() == b"the file as it was\n" and no_tmp_files(tmp_path)

    def test_edge_quaternions(self, tmp_path):
        ms = np.array([scalar_from_quat(np.asarray(q)) for q in EDGE_QUATS])
        trace = np.trace(ms, axis1=1, axis2=2)
        largest = np.argmax(np.diagonal(ms, axis1=1, axis2=2), axis=1)
        assert (trace > 0).any()
        assert set(largest[trace <= 0]) == {0, 1, 2}
        assert any(np.signbit(m).any() and not (m < 0).any() for m in ms)  # a -0.0 entry
        poses = [Pose(np.zeros(3), Rotation(m), [-0.0]) for m in ms]
        path = tmp_path / "m.motion"
        save_motion(trajectory_motion(JointTrajectory(24.0, poses, "walker")), path)
        assert path.read_text() == frame_by_frame_text(24.0, "walker", poses)

        def store(obj):  # the edge quaternions themselves, not their unit form
            for frame, q in zip(obj["frames"], EDGE_QUATS):
                frame["root_orientation"] = list(q)

        rewrite(path, store)
        got = load_motion(path).trajectory.root_rotations
        want = [p.root_orientation.matrix for p in frame_by_frame_load(path)]
        assert np.array_equal(bits(got), bits(want))


class TestDegenerateQuaternion:
    @pytest.mark.parametrize("bad", [[0], [5, 7]])
    def test_parse_error_names_the_first_bad_frame(self, tmp_path, rng, bad):
        skel = make_humanlike()
        poses = [twist_free_pose(skel, rng) for _ in range(8)]
        p = tmp_path / "m.motion"
        save_motion(trajectory_motion(JointTrajectory(30.0, poses)), p)

        def zero(obj):
            for i in bad:
                obj["frames"][i]["root_orientation"] = [0, 0, 0, 0]

        rewrite(p, zero)
        with pytest.raises(ParseError) as e:
            load_motion(p)
        assert e.value.location == f"/frames/{bad[0]}/root_orientation"
        assert e.value.reason == "zero quaternion"


class TestCorrespondenceIo:
    def test_round_trip(self, tmp_path):
        corr = CorrespondenceSet(
            (CorrespondencePair("l_wrist", "wrist", 1.0, 0.5),),
            scale=0.83,
        )
        p = tmp_path / "c.map"
        save_correspondence(corr, p)
        back = load_correspondence(p)
        assert back.scale == 0.83
        assert back.pairs[0].orientation_weight == 0.5
        assert "fingertips" not in json.loads(p.read_text())

    def test_null_scale_derived_from_chains(self, tmp_path):
        human = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint("hip", "root", [0, 0, 0], dof="spherical"),
                Joint("knee", "hip", [0, -0.5, 0], dof="spherical"),
                Joint("ankle", "knee", [0, -0.5, 0], dof="spherical"),
            ]
        )
        robot = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint("hip", "root", [0, 0, 0], dof="spherical"),
                Joint("knee", "hip", [0, -0.4, 0], dof="spherical"),
                Joint("ankle", "knee", [0, -0.4, 0], dof="spherical"),
            ]
        )
        p = tmp_path / "c.map"
        p.write_text(
            json.dumps(
                {
                    "format": "correspondence",
                    "version": 1,
                    "scale": None,
                    "pairs": [{"human": "ankle", "robot": "ankle"}],
                    "scale_chains": {
                        "human": ["hip", "knee", "ankle"],
                        "robot": ["hip", "knee", "ankle"],
                    },
                }
            )
        )
        corr = load_correspondence(p, human, robot)
        assert corr.scale == pytest.approx(0.8)

    def test_null_scale_without_chains(self, tmp_path):
        p = tmp_path / "c.map"
        p.write_text(
            '{"format": "correspondence", "version": 1, "scale": null, '
            '"pairs": [{"human": "a", "robot": "b"}]}'
        )
        with pytest.raises(ParseError) as e:
            load_correspondence(p)
        assert e.value.location == "/scale"


class TestCodebookIo:
    def test_round_trip_inline(self, tmp_path, rng):
        cb = Codebook.initialize(rng.normal(size=(8, 4)), decay=0.97, epsilon=1e-4)
        p = tmp_path / "cb.json"
        save_codebook(cb, p)
        back = load_codebook(p)
        assert np.allclose(back.entries, cb.entries, atol=0)
        assert back.decay == 0.97 and back.epsilon == 1e-4
        assert np.array_equal(back.usage, cb.usage)

    def test_round_trip_binary_sidecar(self, tmp_path, rng):
        cb = Codebook.initialize(rng.normal(size=(16, 6)))
        p = tmp_path / "cb.json"
        save_codebook(cb, p, binary_sidecar=True)
        assert (tmp_path / "cb.json.entries.bin").exists()
        back = load_codebook(p)
        assert np.array_equal(back.entries, cb.entries)
        assert np.array_equal(back.ema_sums, cb.ema_sums)

    def test_sidecar_size_mismatch(self, tmp_path, rng):
        cb = Codebook.initialize(rng.normal(size=(4, 2)))
        p = tmp_path / "cb.json"
        save_codebook(cb, p, binary_sidecar=True)
        (tmp_path / "cb.json.entries.bin").write_bytes(b"\x00" * 8)
        with pytest.raises(ParseError):
            load_codebook(p)

    def test_sidecar_negative_shape(self, tmp_path, rng):
        cb = Codebook.initialize(rng.normal(size=(4, 2)))
        p = tmp_path / "cb.json"
        save_codebook(cb, p, binary_sidecar=True)
        rewrite(p, lambda o: o["entries"].update(shape=[-4, -2]))  # the right size, 8
        with pytest.raises(ParseError) as e:
            load_codebook(p)
        assert e.value.location == "/entries"

    def test_sidecar_to_missing_directory(self, tmp_path, rng):
        cb = Codebook.initialize(rng.normal(size=(4, 2)))
        with pytest.raises(ValidationError, match="cannot write .*cb.json.entries.bin"):
            save_codebook(cb, tmp_path / "missing" / "cb.json", binary_sidecar=True)

    def test_sidecar_written_atomically(self, tmp_path, rng):
        cb = Codebook.initialize(rng.normal(size=(4, 2)))
        (tmp_path / "cb.json.ema_sums.bin").mkdir()  # the rename onto it fails
        with pytest.raises(ValidationError, match="cannot write .*cb.json.ema_sums.bin"):
            save_codebook(cb, tmp_path / "cb.json", binary_sidecar=True)
        assert no_tmp_files(tmp_path)
        assert not (tmp_path / "cb.json").exists()

    def test_tokens_round_trip(self, tmp_path):
        t = TokenSequence([3, 1, 4, 1, 5], downsample_factor=4)
        p = tmp_path / "t.json"
        save_tokens(t, p)
        back = load_tokens(p)
        assert np.array_equal(back.indices, t.indices)
        assert back.downsample_factor == 4

    @pytest.mark.parametrize(
        "indices", [["a"], [1.5], [1.0], [True], [[1, 2]], 3, [2**70]]
    )
    def test_tokens_reject_non_integer_indices(self, tmp_path, indices):
        p = tmp_path / "t.json"
        p.write_text(json.dumps({"format": "tokens", "version": 1, "indices": indices}))
        with pytest.raises(ParseError):
            load_tokens(p)


class TestFeatureMatrixIo:
    def test_round_trip_with_labels(self, tmp_path, rng):
        fm = FeatureMatrix(rng.normal(size=(5, 3)), labels=list("aabbc"))
        p = tmp_path / "f.mat"
        save_feature_matrix(fm, p)
        back = load_feature_matrix(p)
        assert np.allclose(back.values, fm.values, atol=0)
        assert back.labels == ("a", "a", "b", "b", "c")

    def test_round_trip_with_numpy_integer_labels(self, tmp_path):
        # numpy integer labels were accepted, then refused by json.dumps on save
        fm = FeatureMatrix(np.ones((4, 2)), labels=np.array([0, 0, 1, 1]))
        assert fm.labels == (0, 0, 1, 1) and all(type(g) is int for g in fm.labels)
        p = tmp_path / "f.mat"
        save_feature_matrix(fm, p)
        back = load_feature_matrix(p)
        assert back.labels == fm.labels and np.array_equal(back.values, fm.values)

    def test_binary_sidecar(self, tmp_path, rng):
        fm = FeatureMatrix(rng.normal(size=(100, 7)))
        p = tmp_path / "f.mat"
        save_feature_matrix(fm, p, binary_sidecar=True)
        back = load_feature_matrix(p)
        assert np.array_equal(back.values, fm.values)


class TestPackagedAssets:
    @pytest.mark.parametrize("name", ["human_24", "h1_like_19", "g1_like_21"])
    def test_skeletons_load(self, name):
        skel = load_example_skeleton(name)
        assert len(skel.joints) >= 19

    @pytest.mark.parametrize("name", ["human_to_h1", "human_to_g1"])
    def test_maps_load(self, name):
        robot = {"human_to_h1": "h1_like_19", "human_to_g1": "g1_like_21"}[name]
        human, robot = load_example_skeleton("human_24"), load_example_skeleton(robot)
        corr = load_example_correspondence(name, human, robot)
        assert corr.scale > 0
        assert len(corr.pairs) >= 4


# --- malformed documents ---------------------------------------------------
# Every loader against the shapes a hand-edited file takes: a list of records
# that is not a list, a record that is not an object, a name that is not a
# string, a number that does not parse or is past the float range, a broken
# sidecar reference. Each is a ParseError at the JSON location of the bad value.


def bundled(name):
    return json.loads(asset_path(name).read_text())


def feature_tree():
    values = [[1.0, 2.0], [3.0, 4.0]]
    return {"format": "features", "version": 1, "labels": ["a", "b"], "values": values}


def codebook_tree():
    rows = [[0.0, 1.0], [2.0, 3.0]]
    return {"format": "codebook", "version": 1, "decay": 0.99, "epsilon": 1e-5,
            "entries": rows, "ema_counts": [1.0, 1.0], "ema_sums": rows, "usage": [0.0, 0.0]}


def load_bundled_map(path):
    human, robot = load_example_skeleton("human_24"), load_example_skeleton("h1_like_19")
    return load_correspondence(path, human, robot)


DOCUMENTS = {  # kind: (a valid tree, its loader)
    "skel": (lambda: bundled("h1_like_19"), load_skeleton),
    "map": (lambda: bundled("human_to_h1"), load_bundled_map),
    "features": (feature_tree, load_feature_matrix),
    "codebook": (codebook_tree, load_codebook),
}


def setting(*keys, value):
    """A mutation that sets the value at the key path `keys`."""

    def mutate(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value

    return mutate


def dropping(*keys):
    def mutate(obj):
        for key in keys[:-1]:
            obj = obj[key]
        del obj[keys[-1]]

    return mutate


SIDECAR = {"binary": 5, "shape": [2, 2]}
SIX = {"binary": "six.bin"}  # a sidecar of six values, written next to every document
MALFORMED_DOCUMENTS = [
    pytest.param("skel", setting("joints", value=5), "/joints", id="joints_not_a_list"),
    pytest.param("skel", setting("joints", 0, value="pelvis"), "/joints/0", id="joint_a_string"),
    pytest.param("skel", setting("joints", 1, "name", value=["l_hip_yaw"]), "/joints/1",
                 id="joint_name_a_list"),
    pytest.param("skel", setting("joints", 1, "parent", value=["pelvis"]), "/joints/1",
                 id="joint_parent_a_list"),
    pytest.param("skel", setting("joints", 1, "dof", value=["revolute"]), "/joints/1",
                 id="joint_dof_a_list"),
    pytest.param("skel", dropping("joints", 1, "name"), "/joints/1", id="joint_without_name"),
    pytest.param("skel", setting("joints", 1, "limits", value=[[0, 10**400]]), "/joints/1",
                 id="joint_limit_too_large"),
    # float() would take these limits: a number written as a string, a bool, "nan"
    pytest.param("skel", setting("joints", 1, "limits", value=[["-0.5", 0.5]]), "/joints/1",
                 id="joint_limit_a_numeric_string"),
    pytest.param("skel", setting("joints", 1, "limits", value=[[False, True]]), "/joints/1",
                 id="joint_limit_a_bool"),
    pytest.param("skel", setting("joints", 1, "limits", value=[["nan", 1.0]]), "/joints/1",
                 id="joint_limit_nan"),
    pytest.param("skel", setting("joints", 0, "offset", value="abc"), "/joints/0/offset",
                 id="joint_offset_not_numeric"),
    pytest.param("skel", setting("joints", 1, "dof", "axis", value="x"), "/joints/1/axis",
                 id="joint_axis_not_numeric"),
    pytest.param("skel", setting("markers", value=5), "/markers", id="markers_not_a_list"),
    pytest.param("skel", setting("markers", 0, value=7), "/markers/0", id="marker_a_number"),
    pytest.param("skel", setting("markers", 0, "joint", value=["l_elbow"]), "/markers/0",
                 id="marker_joint_a_list"),
    pytest.param("map", setting("pairs", value=4), "/pairs", id="pairs_not_a_list"),
    pytest.param("map", setting("pairs", 0, value="l_knee"), "/pairs/0", id="pair_a_string"),
    pytest.param("map", setting("pairs", 0, "human", value=["l_knee"]), "/pairs/0",
                 id="pair_name_a_list"),
    pytest.param("map", setting("pairs", 0, "position_weight", value="heavy"), "/pairs/0",
                 id="weight_not_numeric"),
    pytest.param("map", setting("pairs", 0, "position_weight", value=10**400), "/pairs/0",
                 id="weight_too_large"),
    pytest.param("map", setting("pairs", 0, "orientation_weight", value=-1), "/pairs/0",
                 id="weight_negative"),
    pytest.param("map", setting("scale", value="big"), "/scale", id="scale_not_numeric"),
    # float() would take these: a number written as a string, and a bool
    pytest.param("map", setting("scale", value="0.8"), "/scale", id="scale_a_numeric_string"),
    pytest.param("map", setting("scale", value=True), "/scale", id="scale_a_bool"),
    pytest.param("map", setting("pairs", 0, "position_weight", value="2"), "/pairs/0",
                 id="weight_a_numeric_string"),
    pytest.param("map", setting("pairs", 1, "orientation_weight", value=True), "/pairs/1",
                 id="weight_a_bool"),
    pytest.param("map", setting("scale", value=10**400), "/scale", id="scale_too_large"),
    pytest.param("map", setting("scale_chains", "human", value=["l_hip", "l_shin"]),
                 "/scale_chains", id="scale_chain_unknown_joint"),
    pytest.param("map", setting("scale_chains", "robot", 0, value="TYPO"), "/scale_chains",
                 id="scale_chain_first_joint_unknown"),
    pytest.param("map", setting("scale_chains", value="l_hip"), "/scale_chains",
                 id="scale_chains_a_string"),
    pytest.param("map", setting("scale_chains", "human", value=5), "/scale_chains",
                 id="scale_chain_a_number"),
    pytest.param("map", dropping("scale_chains", "robot"), "/scale_chains",
                 id="scale_chains_without_robot"),
    pytest.param("features", setting("labels", value=5), "/labels", id="labels_not_a_list"),
    pytest.param("features", setting("labels", 1, value=["b"]), "/", id="label_a_list"),
    pytest.param("features", setting("values", value=SIDECAR), "/values",
                 id="features_sidecar_path_a_number"),
    pytest.param("codebook", setting("entries", value=SIDECAR), "/entries",
                 id="codebook_sidecar_path_a_number"),
    pytest.param("codebook", setting("ema_sums", value={"binary": "s.bin", "shape": 2}),
                 "/ema_sums", id="codebook_sidecar_shape_a_number"),
    # int() would take these sizes of SIX's six values as (3, 2), (3, 2) and (1, 6)
    pytest.param("features", setting("values", value={**SIX, "shape": ["3", 2]}), "/values",
                 id="features_sidecar_size_a_numeric_string"),
    pytest.param("codebook", setting("entries", value={**SIX, "shape": [3.9, 2.2]}),
                 "/entries", id="codebook_sidecar_size_a_float"),
    pytest.param("codebook", setting("ema_sums", value={**SIX, "shape": [True, 6]}),
                 "/ema_sums", id="codebook_sidecar_size_a_bool"),
]


class TestMalformedDocuments:
    @pytest.mark.parametrize("kind", DOCUMENTS)
    def test_valid_tree_loads(self, tmp_path, kind):
        tree, load = DOCUMENTS[kind]
        p = tmp_path / f"doc.{kind}"
        p.write_text(json.dumps(tree()))
        load(p)

    @pytest.mark.parametrize("kind, mutate, location", MALFORMED_DOCUMENTS)
    def test_parse_error_at_location(self, tmp_path, kind, mutate, location):
        tree, load = DOCUMENTS[kind]
        obj = tree()
        mutate(obj)
        p = tmp_path / f"doc.{kind}"
        p.write_text(json.dumps(obj))
        (tmp_path / SIX["binary"]).write_bytes(np.arange(6.0).astype("<f8").tobytes())
        with pytest.raises(ParseError) as e:
            load(p)
        assert e.value.location == location
        assert str(e.value).count(str(p)) == 1  # an inner location is not wrapped again

    @pytest.mark.parametrize("kind", DOCUMENTS)
    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_version_must_be_the_integer_1(self, tmp_path, kind, version):
        tree, load = DOCUMENTS[kind]
        p = tmp_path / f"doc.{kind}"
        p.write_text(json.dumps({**tree(), "version": version}))
        with pytest.raises(ValidationError, match=f"version {version!r}"):
            load(p)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (setting("scale", value="0.8"), "/scale: scale must be positive, got '0.8'"),
            (setting("pairs", 0, "position_weight", value=True),
             "/pairs/0: position_weight of pair l_knee->l_knee must be a finite number >= 0, "
             "got True"),
        ],
    )
    def test_retarget_refuses_a_hand_edited_map(self, tmp_path, capsys, edit, message):
        obj = bundled("human_to_h1")
        edit(obj)
        (tmp_path / "human_to_h1.map").write_text(json.dumps(obj, indent=1))
        human = load_example_skeleton("human_24")
        traj = JointTrajectory.from_arrays(30.0, np.zeros((2, 3)), np.stack([np.eye(3)] * 2),
                                           np.zeros((2, human.total_dof)), "human_24")
        save_motion(trajectory_motion(traj), tmp_path / "human.motion")
        argv = ["retarget", "--human", tmp_path / "human.motion",
                "--human-skel", asset_path("human_24"), "--robot-skel", asset_path("h1_like_19"),
                "--map", tmp_path / "human_to_h1.map", "--out", tmp_path / "robot.motion"]
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert f"human_to_h1.map: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "robot.motion").exists()

    def test_inner_location_reported_once(self, tmp_path):
        obj = bundled("h1_like_19")
        obj["joints"][0]["offset"] = "abc"
        p = tmp_path / "x.skel"
        p.write_text(json.dumps(obj))
        with pytest.raises(ParseError) as e:
            load_skeleton(p)
        assert str(e.value).startswith(f"{p}: /joints/0/offset: offset is not a numeric array")


# --- mutated bundled documents ---------------------------------------------


def tree_paths(node, prefix=()):
    """The key path of every value below `node`."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from tree_paths(value, prefix + (key,))


BUNDLED_TREES = {name: bundled(name) for name in ("h1_like_19", "human_to_h1")}
SWAPPED = [None, True, 0, -1, 1.5, 10**400, "", "x", [], {}]


@st.composite
def mutated_bundled_trees(draw):
    """(name, tree): a bundled .skel or .map tree with one key deleted, one value
    swapped for a value of another type, or one value wrapped in a list."""
    name = draw(st.sampled_from(sorted(BUNDLED_TREES)))
    tree = json.loads(json.dumps(BUNDLED_TREES[name]))
    *parents, key = draw(st.sampled_from(list(tree_paths(tree))))
    node = tree
    for k in parents:
        node = node[k]
    edit = draw(st.sampled_from(["delete", "swap", "wrap"]))
    if edit == "delete":
        del node[key]
    elif edit == "swap":
        node[key] = draw(st.sampled_from(SWAPPED))
    else:
        node[key] = [node[key]]
    return name, tree


class TestMutatedBundledDocuments:
    @given(mutated_bundled_trees())
    @settings(max_examples=300, deadline=None)
    def test_loaders_raise_only_validation_errors(self, tmp_path_factory, mutated):
        name, tree = mutated
        p = tmp_path_factory.mktemp("mutated") / f"{name}.json"
        p.write_text(json.dumps(tree))
        load = load_skeleton if name == "h1_like_19" else load_bundled_map
        try:
            load(p)
        except ValidationError:
            pass


# --- column-checked loaders --------------------------------------------------
# A skeleton's joints and markers, and a map's pairs, are checked a column at a
# time and built without their constructors' checks. What they build must equal,
# bit for bit, what the constructors build from the same document.


def constructed_skeleton(tree):
    """The skeleton of a document tree, built a record at a time through Joint(...),
    Marker(...) and Skeleton(...)."""
    joints = []
    for node in tree["joints"]:
        dof, axis = node.get("dof", "fixed"), None
        if isinstance(dof, dict):
            dof, axis = dof["type"], dof["axis"]
        limits = tuple(map(tuple, node.get("limits", [])))
        joints.append(Joint(node["name"], node.get("parent"), node["offset"], dof, axis, limits,
                            node.get("meta", {})))
    markers = [Marker(m["name"], m["joint"], m["offset"]) for m in tree.get("markers", [])]
    return Skeleton(joints, markers, tree.get("name"))


def same(a, b):
    """Whether a and b are equal, every array among them bit for bit in its dtype and shape."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


def assert_same_skeleton(got, want):
    assert got.name == want.name
    assert len(got.joints) == len(want.joints) and list(got.markers) == list(want.markers)
    for g, w in zip(got.joints, want.joints):
        for field in ("name", "parent", "offset", "dof", "axis", "limits", "meta"):
            assert same(getattr(g, field), getattr(w, field)), (w.name, field)
    for g, w in zip(got.markers.values(), want.markers.values()):
        for field in ("name", "joint", "offset"):
            assert same(getattr(g, field), getattr(w, field)), (w.name, field)
    for field in ("dof_slices", "total_dof", "parent_index"):
        assert getattr(got, field) == getattr(want, field)
    assert dict(got.index) == dict(want.index)
    plan, want_plan = vars(got._plan), vars(want._plan)
    assert plan.keys() == want_plan.keys()
    for field, value in want_plan.items():
        assert same(plan[field], value), field


NUMBER = st.floats(-2.0, 2.0) | st.integers(-2, 2)
POINT = st.lists(NUMBER, min_size=3, max_size=3)
# Unit axes: along a coordinate axis, written with ints or floats, or drawn and
# normalized, then scaled by up to 0.9e-6, within the norm the loader scales to 1.
UNIT_AXES = st.one_of(
    st.sampled_from([[1, 0, 0], [0, -1, 0], [0.0, 0.0, 1.0], [-0.0, 1.0, 0.0]]),
    st.tuples(
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda v: math.hypot(*v) > 0.1
        ),
        st.floats(-9e-7, 9e-7),
    ).map(lambda d: [x / math.hypot(*d[0]) * (1.0 + d[1]) for x in d[0]]),
)


@st.composite
def skeleton_trees(draw):
    """A valid skeleton document tree: fixed, revolute and spherical joints, with and
    without limits and meta, and markers."""
    joints = []
    for i in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["fixed", "revolute", "spherical"]))
        parent = f"j{draw(st.integers(0, i - 1))}" if i else None
        node = {"name": f"j{i}", "parent": parent, "offset": draw(POINT)}
        if kind == "revolute":
            node["dof"] = {"type": "revolute", "axis": draw(UNIT_AXES)}
        elif kind == "spherical" or draw(st.booleans()):  # "fixed" is the default
            node["dof"] = kind
        count = {"fixed": 0, "revolute": 1, "spherical": 3}[kind]
        if draw(st.booleans()):
            pairs = st.lists(NUMBER, min_size=2, max_size=2).map(sorted)
            node["limits"] = draw(st.lists(pairs, min_size=count, max_size=count))
        if draw(st.booleans()):
            node["meta"] = {"note": draw(st.text(max_size=4))}
        joints.append(node)
    markers = [
        {"name": f"m{k}", "joint": f"j{draw(st.integers(0, len(joints) - 1))}",
         "offset": draw(POINT)}
        for k in range(draw(st.integers(0, 3)))
    ]
    tree = {"format": "skeleton", "version": 1, "name": draw(st.sampled_from([None, "drawn"])),
            "joints": joints}
    if markers or draw(st.booleans()):
        tree["markers"] = markers
    return tree


class TestColumnLoadersMatchConstructors:
    @pytest.mark.parametrize("name", ["human_24", "h1_like_19", "g1_like_21"])
    def test_bundled_skeletons(self, name):
        tree = bundled(name)
        io._skeleton_columns(tree)  # the column check takes the document, no walk
        assert_same_skeleton(load_example_skeleton(name), constructed_skeleton(tree))

    @given(skeleton_trees())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_drawn_skeletons(self, tmp_path_factory, tree):
        p = tmp_path_factory.mktemp("drawn") / "s.skel"
        p.write_text(json.dumps(tree))
        tree = json.loads(p.read_text())
        io._skeleton_columns(tree)
        assert_same_skeleton(load_skeleton(p), constructed_skeleton(tree))

    def test_a_refused_form_is_walked(self, tmp_path):
        # A fixed joint whose dof is an object with an axis is valid, but the
        # column check leaves it to the walk, which builds it through Joint.
        tree = bundled("h1_like_19")
        tree["joints"][0]["dof"] = {"type": "fixed", "axis": [0, 0, 1]}
        with pytest.raises(ValidationError):
            io._skeleton_columns(tree)
        p = tmp_path / "s.skel"
        p.write_text(json.dumps(tree))
        skel = load_skeleton(p)
        assert skel.joints[0].dof == "fixed"
        assert same(skel.joints[0].axis, np.array([0.0, 0.0, 1.0]))
        for got, want in zip(skel.joints[1:], load_example_skeleton("h1_like_19").joints[1:]):
            for field in ("name", "parent", "offset", "dof", "axis", "limits"):
                assert same(getattr(got, field), getattr(want, field))

    @pytest.mark.parametrize("name", ["human_to_h1", "human_to_g1"])
    def test_bundled_maps(self, name):
        tree = bundled(name)
        want = [CorrespondencePair(p["human"], p["robot"], float(p.get("position_weight", 1.0)),
                                   float(p.get("orientation_weight", 0.0)))
                for p in tree["pairs"]]
        assert same(io._pair_columns(tree), want)

    def test_pair_weights_loaded_as_floats(self, tmp_path):
        pairs = [{"human": "a", "robot": "b", "position_weight": 2, "orientation_weight": 0},
                 {"human": "c", "robot": "d"}]
        p = tmp_path / "c.map"
        p.write_text(json.dumps({"format": "correspondence", "version": 1, "scale": 1,
                                 "pairs": pairs}))
        got = load_correspondence(p).pairs
        assert got == (CorrespondencePair("a", "b", 2.0, 0.0), CorrespondencePair("c", "d"))
        assert {type(w) for q in got for w in (q.position_weight, q.orientation_weight)} == {float}
