"""The one array rule, `errors.check_array`, and every public array argument it guards.

Before the rule, each call in SILENT_BEFORE returned without an error: a
NaN axis or offset entered a skeleton, NaN root rotations entered a
trajectory, `mpjpe` returned NaN, `success_rate` counted NaN heights as a
success, `diversity` and `mm_dist` returned NaN or infinity, and `assign`
mapped NaN latents to code 0. Each call in MISREPORTED_BEFORE raised the
wrong error: `fid` numpy's raw LinAlgError, and `ema_update` a
ValidationError that blamed the codebook for NaN latents. Each is now a
ValidationError that names the argument.
"""

import re

import numpy as np
import pytest

from retarget_kit import (
    Codebook,
    FeatureMatrix,
    Joint,
    JointTrajectory,
    KeypointFrame,
    Marker,
    Pose,
    RetargetOptions,
    Rotation,
    TrajectoryPair,
    assign,
    diversity,
    ema_update,
    fid,
    fk,
    load_example_correspondence,
    load_example_skeleton,
    mm_dist,
    mpjpe,
    multimodality,
    r_precision,
    reconstruct_sequence,
    reset_dead_codes,
    retarget_frame,
    retrieval_ranks,
    success_rate,
    top_k_share,
)
from retarget_kit.errors import ValidationError, check_array
from retarget_kit.retarget import _Objective, _targets

from conftest import zero_pose

NAN, INF = float("nan"), float("inf")

# Every shape form the package asks for, with a value that has it and one that does not.
SHAPES = {
    "(3,)": ((3,), [1, 2, 3], [1, 2]),
    "(4,)": ((4,), [1.0, 0, 0, 0], [[1.0, 0, 0, 0]]),
    "(None, 3)": ((None, 3), np.zeros((5, 3)), np.zeros((5, 4))),
    "(None, None)": ((None, None), np.zeros((0, 7)), np.zeros(7)),
    "(n, 3)": ((4, 3), np.zeros((4, 3)), np.zeros((3, 3))),
    "(n, 3, 3)": ((2, 3, 3), np.zeros((2, 3, 3)), np.zeros((2, 3))),
    "(k,)": ((6,), np.ones(6), np.ones(5)),
    "(k, d)": ((6, 2), np.ones((6, 2)), np.ones((2, 6))),
    "(None, labels, 3)": ((None, 24, 3), np.zeros((2, 24, 3)), np.zeros((2, 23, 3))),
}


@pytest.mark.parametrize("form", SHAPES)
def test_shape_form_accepts_its_shape_and_refuses_another(form):
    shape, good, bad = SHAPES[form]
    got = check_array("x", good, shape)
    assert got.dtype == float and np.array_equal(got, good)
    with pytest.raises(ValidationError, match=re.escape(f"x: expected shape {shape}, got ")):
        check_array("x", bad, shape)


def test_no_shape_matches_any_shape_and_a_float_array_is_not_copied():
    for value in (2.5, [], np.zeros((2, 0, 3))):
        assert np.array_equal(check_array("x", value), value)
    arr = np.ones((3, 2))
    assert check_array("x", arr) is arr and check_array("x", arr, (None, 2)) is arr


@pytest.mark.parametrize(
    "value, reason",
    [
        ([1.0, NAN, 0.0], "contains NaN or infinity"),
        ([[INF, 0.0]], "contains NaN or infinity"),
        (-INF, "contains NaN or infinity"),
        (None, "contains NaN or infinity"),  # np.asarray(None, dtype=float) is NaN
        ([[1.0, 2.0], [3.0]], "is not a numeric array"),  # ragged
        ("abc", "is not a numeric array"),
        (10**400, "is not a numeric array"),
        ([1.0, 10**400], "is not a numeric array"),
        ({"a": 1}, "is not a numeric array"),
    ],
    ids=["nan", "inf", "-inf", "none", "ragged", "string", "10**400", "10**400_in_a_list", "dict"],
)
def test_refuses_what_does_not_convert_or_is_not_finite(value, reason):
    with pytest.raises(ValidationError, match=f"^offset {reason}"):
        check_array("offset", value)


def test_wrong_shape_is_named_before_non_finite_values():
    with pytest.raises(ValidationError, match=r"^x: expected shape \(3,\), got \(\)"):
        check_array("x", None, (3,))


# --- every public array argument -------------------------------------------

HUMAN = load_example_skeleton("human_24")
ROBOT = load_example_skeleton("h1_like_19")
LABELS = tuple(j.name for j in HUMAN.joints)
KEYPOINTS = fk(HUMAN, zero_pose(HUMAN)).positions[None]  # (1, 24, 3), no degenerate bone
RNG = np.random.default_rng(0)
FEATURES = RNG.normal(size=(8, 3))
CODEBOOK = Codebook.initialize(np.eye(3))


def _objective_solve(root):
    corr = load_example_correspondence("human_to_h1", HUMAN, ROBOT)
    _, rotations, points, frames = _targets(HUMAN, [zero_pose(HUMAN)], corr)
    objective = _Objective(ROBOT, corr.pairs, RetargetOptions(max_iterations=1))
    return objective.solve(root, rotations[0], points[0], frames[0], np.zeros(ROBOT.total_dof))


def _smoothed_frame(smooth_to):
    corr = load_example_correspondence("human_to_h1", HUMAN, ROBOT)
    opts = RetargetOptions(max_iterations=1)
    return retarget_frame(HUMAN, zero_pose(HUMAN), ROBOT, corr, opts, smooth_to=smooth_to)


def _trajectory(**arrays):
    base = dict(root_positions=np.zeros((2, 3)), root_rotations=np.stack([np.eye(3)] * 2),
                joint_values=np.zeros((2, 1)))
    return JointTrajectory.from_arrays(30.0, **(base | arrays))


def _codebook(**arrays):
    return Codebook(**(dict(entries=np.eye(3), ema_counts=np.ones(3), ema_sums=np.eye(3)) | arrays))


def _pair(**arrays):
    base = dict(reference=np.zeros((2, 1)), executed=np.zeros((2, 1)), fps=30.0)
    return TrajectoryPair(**(base | arrays))


RAGGED = [[0.0], [0.0, 1.0]]  # a bad shape for an argument that is flattened

# (name in the message, call with the argument set to the value, a valid value,
# a value of the wrong shape); NaN and infinity go into a copy of the valid value.
PUBLIC_ARRAY_ARGUMENTS = {
    "Joint.offset": ("offset of joint 'j'", lambda v: Joint("j", None, v), [0, 0, 1], [0, 1]),
    "Joint.axis": (
        "axis of joint 'j'", lambda v: Joint("j", None, [0, 0, 0], "revolute", v), [1, 0, 0],
        [1, 0],
    ),
    "Marker.offset": ("offset of marker 'm'", lambda v: Marker("m", "j", v), [0, 0, 1],
                      [[0, 0, 1, 0]]),
    "Pose.root_position": (
        "root_position", lambda v: Pose(v, Rotation.identity(), [0.0]), [0, 0, 1], [0, 1],
    ),
    "Pose.joint_values": (
        "joint_values", lambda v: Pose(np.zeros(3), Rotation.identity(), v), [0.5, 1], RAGGED,
    ),
    "JointTrajectory.root_positions": (
        "root_positions", lambda v: _trajectory(root_positions=v), np.zeros((2, 3)),
        np.zeros((3, 3)),
    ),
    "JointTrajectory.root_rotations": (
        "root_rotations", lambda v: _trajectory(root_rotations=v), np.stack([np.eye(3)] * 2),
        np.zeros((2, 3)),
    ),
    "JointTrajectory.joint_values": (
        "joint_values", lambda v: _trajectory(joint_values=v), np.zeros((2, 1)), np.zeros(2),
    ),
    "KeypointFrame.positions": (
        "keypoint positions", lambda v: KeypointFrame(v, ("a", "b")), np.zeros((2, 3)),
        np.zeros((2, 2)),
    ),
    "reconstruct_sequence.frames": (
        "keypoints", lambda v: reconstruct_sequence(HUMAN, v, LABELS), KEYPOINTS,
        KEYPOINTS[..., :2],
    ),
    "FeatureMatrix.values": ("feature matrix", FeatureMatrix, FEATURES, FEATURES[0]),
    "TrajectoryPair.reference": (
        "reference", lambda v: mpjpe(_pair(reference=v)), np.zeros((2, 1)), np.zeros((3, 1)),
    ),
    "TrajectoryPair.executed": (
        "executed", lambda v: mpjpe(_pair(executed=v)), np.zeros((2, 1)), np.zeros((2, 2)),
    ),
    "TrajectoryPair.heights": (
        "heights", lambda v: success_rate([_pair(heights=v)], 0.5), np.ones(2), np.ones(3),
    ),
    "fid.a": ("a", lambda v: fid(v, FEATURES), FEATURES, FEATURES[0]),
    "fid.b": ("b", lambda v: fid(FEATURES, v), FEATURES, FEATURES[0]),
    "diversity.features": ("features", lambda v: diversity(v, 2), FEATURES, FEATURES[0]),
    "multimodality.features": (
        "feature matrix", lambda v: multimodality(FeatureMatrix(v, [0] * 4 + [1] * 4), 1),
        FEATURES, FEATURES[0],
    ),
    "mm_dist.text_features": (
        "text_features", lambda v: mm_dist(v, FEATURES), FEATURES, FEATURES[0],
    ),
    "mm_dist.motion_features": (
        "motion_features", lambda v: mm_dist(FEATURES, v), FEATURES, FEATURES[0],
    ),
    "retrieval_ranks.text_features": (
        "text_features", lambda v: retrieval_ranks(v, FEATURES, 4), FEATURES, FEATURES[0],
    ),
    "r_precision.motion_features": (
        "motion_features", lambda v: r_precision(FEATURES, v, 4), FEATURES, FEATURES[0],
    ),
    "Codebook.entries": ("entries", lambda v: _codebook(entries=v), np.eye(3), np.ones(3)),
    "Codebook.ema_counts": ("ema_counts", lambda v: _codebook(ema_counts=v), np.ones(3), np.ones(2)),
    "Codebook.ema_sums": ("ema_sums", lambda v: _codebook(ema_sums=v), np.eye(3), np.eye(2)),
    "Codebook.usage": ("usage", lambda v: _codebook(usage=v), np.zeros(3), np.zeros(2)),
    "Codebook.initialize.entries": (
        "entries", Codebook.initialize, np.eye(3), np.ones(3),
    ),
    "assign.latents": ("latents", lambda v: assign(CODEBOOK, v), np.eye(3), np.eye(2)),
    "ema_update.latents": (
        "latents", lambda v: ema_update(CODEBOOK, v, [0, 1, 2]), np.eye(3), np.eye(2),
    ),
    "reset_dead_codes.latents": (
        "latents", lambda v: reset_dead_codes(CODEBOOK, v), np.eye(3), np.eye(2),
    ),
    "retarget solve.root_position": ("root position", _objective_solve, np.zeros(3), np.zeros(2)),
    "retarget_frame.smooth_to": (
        "smooth_to", _smoothed_frame, np.zeros(ROBOT.total_dof), np.zeros(3),
    ),
    "top_k_share.ranks": ("ranks", lambda v: top_k_share(v, 1), [1, 2, 3], [[1, 2]]),
    "Rotation.from_matrix": ("rotation matrix", Rotation.from_matrix, np.eye(3), np.eye(2)),
    "Rotation.from_quat": ("quaternion", Rotation.from_quat, [1, 0, 0, 0], [[1, 0, 0, 0]]),
    "Rotation.from_axis_angle.axis": (
        "axis", lambda v: Rotation.from_axis_angle(v, 0.5), [0, 1, 0], [0, 1],
    ),
    "Rotation.from_rotvec": ("rotation vector", Rotation.from_rotvec, [0, 0.5, 0], [0, 0.5]),
}

SILENT_BEFORE = [
    ("Joint.axis", NAN), ("Joint.offset", INF), ("Marker.offset", NAN),
    ("JointTrajectory.root_rotations", NAN), ("TrajectoryPair.reference", NAN),
    ("TrajectoryPair.heights", NAN), ("diversity.features", INF),
    ("mm_dist.text_features", NAN), ("assign.latents", NAN),
]
MISREPORTED_BEFORE = [("fid.a", NAN), ("ema_update.latents", NAN)]


def _spoiled(value, bad):
    """A float copy of `value` with its first entry set to `bad`."""
    arr = np.array(value, dtype=float)
    arr.flat[0] = bad
    return arr


@pytest.mark.parametrize("argument", PUBLIC_ARRAY_ARGUMENTS)
def test_public_array_argument_accepts_a_valid_array(argument):
    _, call, good, _ = PUBLIC_ARRAY_ARGUMENTS[argument]
    call(good)


@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("argument", PUBLIC_ARRAY_ARGUMENTS)
def test_public_array_argument_refuses_a_non_finite_entry(argument, bad):
    name, call, good, _ = PUBLIC_ARRAY_ARGUMENTS[argument]
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} contains NaN or infinity$"):
        call(_spoiled(good, bad))


@pytest.mark.parametrize("argument", PUBLIC_ARRAY_ARGUMENTS)
def test_public_array_argument_refuses_a_wrong_shape(argument):
    name, call, _, wrong = PUBLIC_ARRAY_ARGUMENTS[argument]
    with pytest.raises(ValidationError, match=rf"(^|\W){re.escape(name)}\W"):
        call(wrong)


@pytest.mark.parametrize("argument", PUBLIC_ARRAY_ARGUMENTS)
def test_public_array_argument_refuses_a_string(argument):
    name, call, _, _ = PUBLIC_ARRAY_ARGUMENTS[argument]
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} is not a numeric array"):
        call("abc")


@pytest.mark.parametrize(
    "argument, bad",
    SILENT_BEFORE + MISREPORTED_BEFORE,
    ids=[a for a, _ in SILENT_BEFORE + MISREPORTED_BEFORE],
)
def test_silent_or_misreported_before_now_refused_by_name(argument, bad):
    name, call, good, _ = PUBLIC_ARRAY_ARGUMENTS[argument]
    with pytest.raises(ValidationError, match=re.escape(name)):
        call(_spoiled(good, bad))


def test_type_that_reshapes_still_reshapes():
    assert Joint("j", None, [[0, 0, 1]]).offset.shape == (3,)
    assert Marker("m", "j", np.ones((3, 1))).offset.shape == (3,)
    pose = Pose([[0, 0, 1]], Rotation.identity(), [[1.0, 2.0]])
    assert pose.root_position.shape == (3,) and pose.joint_values.shape == (2,)
    cb = Codebook(np.eye(2), [[1.0], [1.0]], np.eye(2), usage=[[0.0, 0.0]])
    assert cb.ema_counts.shape == cb.usage.shape == (2,)
