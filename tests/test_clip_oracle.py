"""The per-clip retarget path against the per-frame loop it replaced, bit for bit.

`per_frame_retarget_sequence` and `per_frame_retarget_frame` (conftest) solve
as the code did before the set-up left the frame loop: one human `fk` per
frame, the markers resolved again, the objective built again and a validated
Pose per evaluation. The per-clip path must give the same joint values, roots
and report fields, exactly.
"""

import dataclasses

import numpy as np
import pytest

from retarget_kit import (
    JointTrajectory,
    Pose,
    RetargetOptions,
    load_example_correspondence,
    load_example_skeleton,
    retarget_frame,
    retarget_sequence,
)
from retarget_kit import retarget
from retarget_kit.errors import NumericError, ValidationError
from retarget_kit.retarget import RetargetReport

import conftest
from conftest import (
    per_frame_retarget_frame,
    per_frame_retarget_sequence,
    random_rotation,
    twist_free_pose,
)

ROBOTS = [("h1_like_19", "human_to_h1"), ("g1_like_21", "human_to_g1")]


def setup(robot_name, map_name):
    human = load_example_skeleton("human_24")
    robot = load_example_skeleton(robot_name)
    return human, robot, load_example_correspondence(map_name, human, robot)


def clip(human, rng, frames=5):
    """A smooth clip: root and joint values blended between two random poses, at 25 fps,
    not the 30 a list of Poses defaults to, so its rate is seen to carry through."""
    a, b = (twist_free_pose(human, rng, max_angle=0.6) for _ in range(2))
    s = np.linspace(0.0, 1.0, frames)[:, None]
    return JointTrajectory.from_arrays(
        25.0,
        (1 - s) * a.root_position + s * b.root_position,
        np.repeat(a.root_orientation.matrix[None], frames, axis=0),
        (1 - s) * a.joint_values + s * b.joint_values,
        skeleton=human.name,
    )


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def assert_reports_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for field in dataclasses.fields(RetargetReport):
            assert getattr(a, field.name) == getattr(b, field.name), field.name


def assert_matches_oracle(human, poses, robot, corr, opts):
    traj, reports = retarget_sequence(human, poses, robot, corr, opts)
    frames = poses.poses if isinstance(poses, JointTrajectory) else poses
    expected, expected_reports = per_frame_retarget_sequence(
        human, frames, robot, corr, opts, fps=25.0
    )
    for name in ("root_positions", "root_rotations", "joint_values"):
        assert bits(getattr(traj, name)) == bits(getattr(expected, name)), name
    assert (traj.fps, traj.skeleton) == (expected.fps, expected.skeleton) == (25.0, robot.name)
    assert_reports_equal(reports, expected_reports)
    return reports


@pytest.mark.parametrize("warm_start", [True, False])
@pytest.mark.parametrize("robot_name, map_name", ROBOTS)
def test_sequence_matches_per_frame_loop(rng, robot_name, map_name, warm_start):
    human, robot, corr = setup(robot_name, map_name)
    reports = assert_matches_oracle(
        human, clip(human, rng), robot, corr, RetargetOptions(warm_start=warm_start)
    )
    assert any(r.orientation_residuals for r in reports)


@pytest.mark.parametrize("weight", ["limit_weight", "smoothness_weight", "reference_weight"])
@pytest.mark.parametrize("robot_name, map_name", ROBOTS)
def test_zero_weight_matches_per_frame_loop(rng, robot_name, map_name, weight):
    human, robot, corr = setup(robot_name, map_name)
    opts = RetargetOptions(**{weight: 0.0})
    assert_matches_oracle(human, clip(human, rng), robot, corr, opts)


@pytest.mark.parametrize("robot_name, map_name", ROBOTS)
def test_limit_count_matches_check_limits(rng, monkeypatch, robot_name, map_name):
    # Unprojected answers without the barrier leave joints past both of their limits.
    def unprojected(skeleton, values):
        return values.copy()

    monkeypatch.setattr(retarget, "_project_to_limits", unprojected)
    monkeypatch.setattr(conftest, "_project_to_limits", unprojected)
    human, robot, corr = setup(robot_name, map_name)
    traj, opts = clip(human, rng), RetargetOptions(limit_weight=0.0)
    reports = assert_matches_oracle(human, traj, robot, corr, opts)
    assert sum(r.limit_violation_count for r in reports) > 0
    plan = robot._plan
    values = retarget_sequence(human, traj, robot, corr, opts)[0].joint_values
    limited = np.array([plan.limited_values(v) for v in values])
    assert (limited > plan.hi).any() and (limited < plan.lo).any()


@pytest.mark.parametrize("warm_start", [True, False])
def test_non_finite_frame_raises_naming_it(rng, warm_start):
    # Frame 2 once repeated frame 1's pose and root, as the per-frame loop did too.
    human, robot, corr = setup(*ROBOTS[0])
    poses = list(clip(human, rng).poses)
    values = poses[2].joint_values.copy()
    values[3] = 1e200  # a non-finite objective at the start of frame 2
    poses[2] = Pose(poses[2].root_position + 1.0, poses[2].root_orientation, values)
    opts = RetargetOptions(warm_start=warm_start)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match="^frame 2: objective at start point is nan$"):
            retarget_sequence(human, poses, robot, corr, opts)
        with pytest.raises(NumericError, match="^objective at start point is nan$"):
            per_frame_retarget_sequence(human, poses, robot, corr, opts)
        with pytest.raises(NumericError, match="^frame 0: objective at start point is nan$"):
            retarget_sequence(human, poses[2:], robot, corr, opts)


@pytest.mark.parametrize("robot_name, map_name", ROBOTS)
def test_frame_matches_per_frame_solve(rng, robot_name, map_name):
    human, robot, corr = setup(robot_name, map_name)
    pose = twist_free_pose(human, rng, max_angle=0.5)
    start = Pose(np.zeros(3), random_rotation(rng), rng.normal(size=robot.total_dof) * 0.2)
    smooth_to = rng.normal(size=robot.total_dof) * 0.1
    for kwargs in ({}, {"warm_start": start, "smooth_to": smooth_to}):
        opts = RetargetOptions()
        got, report = retarget_frame(human, pose, robot, corr, opts, **kwargs)
        expected, expected_report = per_frame_retarget_frame(
            human, pose, robot, corr, opts, **kwargs
        )
        assert bits(got.joint_values) == bits(expected.joint_values)
        assert bits(got.root_position) == bits(expected.root_position)
        assert bits(got.root_orientation.matrix) == bits(expected.root_orientation.matrix)
        assert_reports_equal([report], [expected_report])


class TestInputForms:
    def test_trajectory_and_its_poses_agree(self, rng):
        human, robot, corr = setup(*ROBOTS[1])
        traj = clip(human, rng, frames=4)
        a, reports_a = retarget_sequence(human, traj, robot, corr)
        b, reports_b = retarget_sequence(human, traj.poses, robot, corr)
        for name in ("root_positions", "root_rotations", "joint_values"):
            assert bits(getattr(a, name)) == bits(getattr(b, name))
        assert_reports_equal(reports_a, reports_b)

    def test_empty_trajectory_raises(self):
        human, robot, corr = setup(*ROBOTS[0])
        empty = JointTrajectory.from_arrays(
            30.0, np.zeros((0, 3)), np.zeros((0, 3, 3)), np.zeros((0, human.total_dof))
        )
        with pytest.raises(ValidationError, match="empty human pose sequence"):
            retarget_sequence(human, empty, robot, corr)

    def test_solving_a_trajectory_builds_no_pose(self, rng, monkeypatch):
        human, robot, corr = setup(*ROBOTS[0])
        traj = clip(human, rng, frames=3)
        built = []
        real = Pose.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(Pose, "__post_init__", counting)
        _, reports = retarget_sequence(human, traj, robot, corr)
        assert sum(r.residual_evals for r in reports) > 3 and built == []
