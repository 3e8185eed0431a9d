import numpy as np
import pytest

from retarget_kit import (
    JointTrajectory,
    Pose,
    Rotation,
    build_pose_features,
    feature_dimension,
    load_example_skeleton,
)
from retarget_kit.errors import ValidationError
from retarget_kit.features import _wrap_angle
from retarget_kit.skeleton import Joint, Marker, Skeleton, fk, resolve_marker

from conftest import random_rotation


def row_by_row_features(skeleton, poses, fps, contact_threshold=1e-3):
    """One fk call per pose and one feature row per loop pass: the float
    operations the batched `build_pose_features` must reproduce exactly."""
    results = [fk(skeleton, p) for p in poses]
    yaws = np.array([np.arctan2(r.rotations[0][0, 2], r.rotations[0][2, 2]) for r in results])
    root_pos = np.array([r.positions[0] for r in results])
    root_rot = np.array([r.rotations[0] for r in results])
    local_pos = np.array([(r.positions[1:] - r.positions[0]) @ r.rotations[0] for r in results])
    markers = [resolve_marker(skeleton, m) for m in ("l_heel", "l_toe", "r_heel", "r_toe")]
    contact_pos = np.array([[r.point(j, offset) for j, offset in markers] for r in results])
    rows = []
    for t in range(len(poses) - 1):
        yaw_rate = _wrap_angle(yaws[t + 1] - yaws[t]) * fps
        v_world = (root_pos[t + 1] - root_pos[t]) * fps
        c, s = np.cos(yaws[t]), np.sin(yaws[t])
        vx = c * v_world[0] - s * v_world[2]
        vz = s * v_world[0] + c * v_world[2]
        joint_vel = (local_pos[t + 1] - local_pos[t]) * fps
        rot6d = np.concatenate(
            [np.concatenate([m[:, 0], m[:, 1]]) for m in (root_rot[t].T @ results[t].rotations[1:])]
        )
        marker_speed2 = np.sum(((contact_pos[t + 1] - contact_pos[t]) * fps) ** 2, axis=1)
        contacts = (marker_speed2 < contact_threshold).astype(float)
        rows.append(
            np.concatenate(
                [[yaw_rate, vx, vz, root_pos[t, 1]], local_pos[t].reshape(-1),
                 joint_vel.reshape(-1), rot6d, contacts]
            )
        )
    return np.array(rows)


def make_legged(n_extra=0):
    """Root with two stub legs carrying heel/toe markers, plus optional filler."""
    joints = [
        Joint("root", None, [0, 0, 0]),
        Joint("l_foot", "root", [0.1, -0.9, 0], dof="spherical"),
        Joint("r_foot", "root", [-0.1, -0.9, 0], dof="spherical"),
    ]
    for i in range(n_extra):
        joints.append(Joint(f"x{i}", "root", [0, 0.2 + 0.1 * i, 0], dof="spherical"))
    markers = [
        Marker("l_heel", "l_foot", [0, -0.05, -0.05]),
        Marker("l_toe", "l_foot", [0, -0.05, 0.1]),
        Marker("r_heel", "r_foot", [0, -0.05, -0.05]),
        Marker("r_toe", "r_foot", [0, -0.05, 0.1]),
    ]
    return Skeleton(joints, markers)


def pose_at(skeleton, position=(0, 0, 0), yaw=0.0):
    return Pose(
        np.asarray(position, float),
        Rotation.from_axis_angle([0, 1, 0], yaw),
        np.zeros(skeleton.total_dof),
    )


class TestDimension:
    @pytest.mark.parametrize("extra", [3, 19, 49])
    def test_formula(self, extra):
        skel = make_legged(extra)
        j = extra + 2
        assert feature_dimension(skel) == 8 + 12 * j
        poses = [pose_at(skel)] * 3
        out = build_pose_features(skel, poses, 30.0)
        assert out.shape == (2, 8 + 12 * j)


class TestKinematicChannels:
    def test_stationary_sequence(self):
        skel = make_legged()
        poses = [pose_at(skel, position=(0.3, 0.8, -0.2))] * 5
        out = build_pose_features(skel, poses, 30.0)
        # zero rates everywhere, constant height, all four feet in contact
        assert np.allclose(out[:, 0:3], 0.0)
        assert np.allclose(out[:, 3], 0.8)
        assert np.allclose(out[:, -4:], 1.0)
        assert np.allclose(np.diff(out, axis=0), 0.0)

    def test_yaw_rate(self):
        skel = make_legged()
        fps = 30.0
        omega = 1.5  # rad/s
        poses = [pose_at(skel, yaw=omega * t / fps) for t in range(6)]
        out = build_pose_features(skel, poses, fps)
        assert np.allclose(out[:, 0], omega, atol=1e-9)
        # root is pinned, so planar velocity stays zero
        assert np.allclose(out[:, 1:3], 0.0, atol=1e-9)

    def test_heading_frame_velocity(self):
        skel = make_legged()
        fps = 10.0
        # walk along world +x at 2 m/s while facing yaw = pi/2
        poses = [pose_at(skel, position=(2.0 * t / fps, 1.0, 0), yaw=np.pi / 2) for t in range(5)]
        out = build_pose_features(skel, poses, fps)
        vx, vz = out[0, 1], out[0, 2]
        c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
        assert vx == pytest.approx(c * 2.0, abs=1e-9)
        assert vz == pytest.approx(s * 2.0, abs=1e-9)

    def test_yaw_wraps_across_pi(self):
        skel = make_legged()
        fps = 30.0
        poses = [pose_at(skel, yaw=np.pi - 0.01), pose_at(skel, yaw=-np.pi + 0.01)]
        out = build_pose_features(skel, poses, fps)
        # crossing the branch cut is a small positive rate, not ~ -2*pi*fps
        assert out[0, 0] == pytest.approx(0.02 * fps, abs=1e-9)

    def test_root_relative_positions_invariant_to_root_motion(self, rng):
        skel = make_legged(2)
        values = rng.normal(size=skel.total_dof) * 0.4
        a = [Pose(np.zeros(3), Rotation.identity(), values)] * 2
        b = [
            Pose(rng.normal(size=3), Rotation.from_axis_angle([0, 1, 0], 1.1), values)
        ] * 2
        fa = build_pose_features(skel, a, 30.0)
        fb = build_pose_features(skel, b, 30.0)
        j = len(skel.joints) - 1
        sl = slice(4, 4 + 3 * j)
        assert np.allclose(fa[0, sl], fb[0, sl], atol=1e-9)

    def test_rot6d_identity_block(self):
        skel = make_legged()
        out = build_pose_features(skel, [pose_at(skel)] * 2, 30.0)
        j = len(skel.joints) - 1
        rot = out[0, 4 + 6 * j : 4 + 12 * j].reshape(j, 6)
        assert np.allclose(rot, [1, 0, 0, 0, 1, 0])


class TestContacts:
    def test_moving_feet_break_contact(self):
        skel = make_legged()
        fps = 30.0
        poses = [pose_at(skel, position=(0.5 * t / fps, 1.0, 0)) for t in range(4)]
        out = build_pose_features(skel, poses, fps)
        # 0.5 m/s marker speed: squared speed 0.25 >> threshold
        assert np.allclose(out[:, -4:], 0.0)

    def test_threshold_is_on_squared_speed(self):
        skel = make_legged()
        fps = 1.0
        speed = 0.05  # squared 2.5e-3
        poses = [pose_at(skel, position=(speed * t, 1.0, 0)) for t in range(3)]
        below = build_pose_features(skel, poses, fps, contact_threshold=3e-3)
        above = build_pose_features(skel, poses, fps, contact_threshold=2e-3)
        assert np.all(below[:, -4:] == 1.0)
        assert np.all(above[:, -4:] == 0.0)

    def test_missing_markers(self):
        skel = Skeleton([Joint("root", None, [0, 0, 0])])
        with pytest.raises(ValidationError, match="skeleton lacks contact markers"):
            build_pose_features(skel, [Pose(np.zeros(3), Rotation.identity(), [])] * 2, 30.0)


class TestValidation:
    def test_single_frame(self):
        skel = make_legged()
        with pytest.raises(ValidationError):
            build_pose_features(skel, [pose_at(skel)], 30.0)

    def test_bad_fps(self):
        skel = make_legged()
        with pytest.raises(ValidationError):
            build_pose_features(skel, [pose_at(skel)] * 2, 0.0)

    def test_trajectory_rate_mismatch_refused(self):
        # A 60 fps trajectory passed with fps=30.0 once gave other velocity features.
        skel = make_legged()
        traj = JointTrajectory(60.0, [pose_at(skel, yaw=0.1 * t) for t in range(3)])
        with pytest.raises(ValidationError, match=r"^fps 30.0 differs from the trajectory's 60.0$"):
            build_pose_features(skel, traj, 30.0)

    def test_trajectory_at_its_own_rate(self, rng):
        # the same bytes as its poses at that rate
        skel = make_legged(3)
        poses = [
            Pose(rng.normal(size=3), random_rotation(rng), rng.normal(size=skel.total_dof))
            for _ in range(6)
        ]
        got = build_pose_features(skel, JointTrajectory(60.0, poses), 60)
        assert got.tobytes() == build_pose_features(skel, poses, 60.0).tobytes()

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -1.0])
    def test_bad_contact_threshold(self, threshold):
        # NaN once compared false everywhere and wrote all-zero contact columns
        skel = make_legged()
        with pytest.raises(ValidationError, match="contact threshold must be a finite number >= 0"):
            build_pose_features(skel, [pose_at(skel)] * 2, 30.0, contact_threshold=threshold)


class TestBatchedMatchesRowByRow:
    @pytest.mark.parametrize("name", ["human_24", "legged"])
    def test_bit_for_bit(self, rng, name):
        skel = load_example_skeleton(name) if name == "human_24" else make_legged(5)
        poses = [
            Pose(rng.normal(size=3), random_rotation(rng), rng.normal(size=skel.total_dof) * 0.5)
            for _ in range(30)
        ]
        # Slow stretches so that some contact flags are set, and a yaw across the branch cut.
        poses += [Pose(poses[-1].root_position + 1e-4 * t, poses[-1].root_orientation,
                       poses[-1].joint_values) for t in range(5)]
        poses += [pose_at(skel, yaw=np.pi - 0.01), pose_at(skel, yaw=-np.pi + 0.01)]
        for threshold in (1e-3, 10.0):
            got = build_pose_features(skel, poses, 30.0, contact_threshold=threshold)
            assert np.array_equal(got, row_by_row_features(skel, poses, 30.0, threshold))
        assert got[:, -4:].any() and not got[:, -4:].all()
