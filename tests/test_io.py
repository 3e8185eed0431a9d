import json

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from retarget_kit import (
    Codebook,
    CorrespondencePair,
    CorrespondenceSet,
    DofChannel,
    DofConfig,
    FeatureMatrix,
    JointTrajectory,
    Pose,
    Rotation,
    TokenSequence,
    keypoint_motion,
    load_codebook,
    load_correspondence,
    load_dof_config,
    load_example_correspondence,
    load_example_skeleton,
    load_feature_matrix,
    load_motion,
    load_skeleton,
    load_tokens,
    save_codebook,
    save_correspondence,
    save_dof_config,
    save_feature_matrix,
    save_motion,
    save_skeleton,
    save_tokens,
    trajectory_motion,
)
from retarget_kit.errors import ParseError, SchemaVersionError, ValidationError
from retarget_kit.io import _dump, save_report
from retarget_kit.skeleton import Joint, Marker, Skeleton

from conftest import make_humanlike, random_rotation, scalar_from_quat, twist_free_pose


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
    assert _dump(obj, 0) == json.dumps(as_lists(obj), indent=1)


def no_tmp_files(directory):
    return not list(directory.rglob("*.tmp"))


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


class TestArrayWriter:
    """The one writer reproduces json.dumps(indent=1) byte for byte."""

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

    def test_int_extremes_and_zero_size(self):
        big = np.array([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max])
        assert_matches_json([big, np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((2, 0, 1), int)])

    def test_string_and_constant_leaves(self):
        assert_matches_json(
            {"é": "日本語 \u2028 \U0001f600", "none": None, "flags": [True, False], "": ""}
        )

    def test_report_floats_written_as_before(self, tmp_path):
        report = {"objective": float("nan"), "bounds": [float("inf"), -float("inf"), 0.5]}
        save_report(report, tmp_path / "r.json")
        expected = {"format": "report", "version": 1, **report}
        assert (tmp_path / "r.json").read_text() == json.dumps(expected, indent=1) + "\n"

    def test_non_finite_array_refused(self, tmp_path):
        frames = np.zeros((2, 1, 3))
        frames[1, 0, 2] = np.nan
        p = tmp_path / "m.motion"
        with pytest.raises(ValidationError, match="cannot write .*NaN or infinity"):
            save_motion(keypoint_motion(frames, ["a"], 30.0), p)
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

    def test_rejects_non_string_keys_and_dtypes(self):
        with pytest.raises(TypeError):
            _dump({1: 2}, 0)
        with pytest.raises(TypeError):
            _dump(np.array([True]), 0)


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
        with pytest.raises(SchemaVersionError):
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
            (1, lambda f: f.update(joint_values=[[0.0]]), "must be a flat list"),
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


class TestDofConfigIo:
    def test_round_trip(self, tmp_path):
        cfg = DofConfig(
            [DofChannel("hip", scale=2.0, offset=0.1), DofChannel("knee", default=0.5)],
            name="legs",
        )
        p = tmp_path / "d.json"
        save_dof_config(cfg, p)
        back = load_dof_config(p)
        assert back.name == "legs"
        assert back.channels[0].scale == 2.0
        assert back.channels[1].default == 0.5


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
        corr = load_example_correspondence(name)
        assert corr.scale > 0
        assert len(corr.pairs) >= 4
