import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from retarget_kit import (
    DofChannel,
    DofConfig,
    Joint,
    JointTrajectory,
    Pose,
    Rotation,
    Skeleton,
    check_limits,
    fk,
    load_example_skeleton,
    remap_dofs,
)
from retarget_kit.errors import MissingDefault, PoseMismatch, ValidationError
from retarget_kit.retarget import _project_to_limits
from retarget_kit.rotations import _rodrigues_matrix
from retarget_kit.skeleton import LimitViolation, Marker, _intrinsic_xyz_euler, resolve_marker

from conftest import make_chain, make_random_tree, random_rotation


def naive_fk(skeleton, pose):
    """Independent recursive evaluator used as an oracle."""

    def local(joint, values):
        if joint.dof == "fixed":
            return np.eye(3)
        if joint.dof == "revolute":
            return ScipyRotation.from_rotvec(joint.axis * values[0]).as_matrix()
        return ScipyRotation.from_rotvec(values).as_matrix()

    def world(i):
        joint = skeleton.joints[i]
        values = pose.joint_values[skeleton.dof_slices[i]]
        p = skeleton.parent_index[i]
        if p < 0:
            return (
                pose.root_position,
                pose.root_orientation.matrix @ local(joint, values),
            )
        parent_pos, parent_rot = world(p)
        return parent_pos + parent_rot @ joint.offset, parent_rot @ local(joint, values)

    return [world(i) for i in range(len(skeleton.joints))]


def joint_walk_local(joint, values):
    """One joint's local rotation, from its own values."""
    if joint.dof == "fixed":
        return np.eye(3)
    if joint.dof == "revolute":
        return _rodrigues_matrix(joint.axis, values[0])
    angle = np.linalg.norm(values)
    if angle < 1e-12:
        return np.eye(3)
    return _rodrigues_matrix(values / angle, angle)


def joint_walk_fk(skeleton, pose):
    """Joint-by-joint forward kinematics, the float operations `fk` must reproduce exactly."""
    nj = len(skeleton.joints)
    pos = np.empty((nj, 3))
    rot = np.empty((nj, 3, 3))
    for i, joint in enumerate(skeleton.joints):
        m = joint_walk_local(joint, pose.joint_values[skeleton.dof_slices[i]])
        p = skeleton.parent_index[i]
        if p < 0:
            pos[i] = pose.root_position
            rot[i] = pose.root_orientation.matrix @ m
        else:
            pos[i] = pos[p] + rot[p] @ joint.offset
            rot[i] = rot[p] @ m
    return pos, rot


def joint_walk_limited_dofs(skeleton, values):
    """Yield (joint, k, value, lo, hi) per limited DoF, walking the joints one by one.

    Spherical joints yield their intrinsic XYZ Euler angles. This walk and
    the two below are what `check_limits` and the retarget limit projection
    must reproduce exactly.
    """
    for i, joint in enumerate(skeleton.joints):
        if not joint.limits:
            continue
        vals = values[skeleton.dof_slices[i]]
        if joint.dof == "spherical":
            vals = _intrinsic_xyz_euler(joint_walk_local(joint, vals))
        for k, (lo, hi) in enumerate(joint.limits):
            yield joint, k, vals[k], lo, hi


def joint_walk_check_limits(skeleton, values):
    out = []
    for joint, k, v, lo, hi in joint_walk_limited_dofs(skeleton, values):
        if v > hi:
            out.append(LimitViolation(joint.name, k, float(v - hi)))
        elif v < lo:
            out.append(LimitViolation(joint.name, k, float(v - lo)))
    return out


def joint_walk_projection(skeleton, values):
    out = values.copy()
    for i, joint in enumerate(skeleton.joints):
        sl = skeleton.dof_slices[i]
        if joint.dof == "spherical" and np.linalg.norm(out[sl]) > np.pi:
            out[sl] = Rotation.from_rotvec(out[sl]).as_rotvec()
        if not joint.limits:
            continue
        if joint.dof == "revolute":
            lo, hi = joint.limits[0]
            out[sl] = np.clip(out[sl], lo, hi)
        elif joint.dof == "spherical":
            euler = _intrinsic_xyz_euler(joint_walk_local(joint, out[sl]))
            clipped = np.array(
                [np.clip(euler[k], lo, hi) for k, (lo, hi) in enumerate(joint.limits)]
            )
            if not np.allclose(clipped, euler):
                m = (
                    _rodrigues_matrix(np.array([1.0, 0, 0]), clipped[0])
                    @ _rodrigues_matrix(np.array([0, 1.0, 0]), clipped[1])
                    @ _rodrigues_matrix(np.array([0, 0, 1.0]), clipped[2])
                )
                out[sl] = Rotation(m).as_rotvec()
    return out


def mixed_limits_skeleton():
    """Revolute and spherical joints, each with and without limits."""
    return Skeleton(
        [
            Joint("root", None, [0, 0, 0], dof="spherical", limits=((-0.5, 0.5),) * 3),
            Joint("a", "root", [0, 0.3, 0], dof="revolute", axis=[0, 0, 1], limits=((-0.4, 0.3),)),
            Joint(
                "s", "a", [0, 0.3, 0], dof="spherical",
                limits=((-0.3, 0.3), (-0.2, 0.25), (0, 0.1)),
            ),
            Joint("free", "s", [0.1, 0.2, 0], dof="spherical"),
            Joint("b", "free", [0, 0.3, 0], dof="revolute", axis=[1, 0, 0]),
            Joint("c", "root", [0.2, 0, 0], dof="revolute", axis=[0, 1, 0], limits=((-1.0, 2.0),)),
            Joint(
                "t", "c", [0, 0, 0.2], dof="spherical",
                limits=((-2, 2), (-0.05, 0.05), (-0.9, 0.9)),
            ),
            Joint("tip", "t", [0, 0.2, 0]),
        ]
    )


def assert_matches_naive(skeleton, pose):
    res = fk(skeleton, pose)
    for i, (p, r) in enumerate(naive_fk(skeleton, pose)):
        assert np.linalg.norm(res.positions[i] - p) <= 1e-9
        assert np.linalg.norm(res.rotations[i] - r) <= 1e-9


def random_pose(skeleton, rng, scale=1.0):
    return Pose(
        rng.normal(size=3), random_rotation(rng), scale * rng.normal(size=skeleton.total_dof)
    )


BUNDLED = ("human_24", "h1_like_19", "g1_like_21")


class TestSkeletonValidation:
    def test_duplicate_names(self):
        with pytest.raises(ValidationError, match="duplicate"):
            Skeleton([Joint("a", None, [0, 0, 0]), Joint("a", "a", [0, 0, 0])])

    def test_unordered_parent(self):
        with pytest.raises(ValidationError, match="not defined before"):
            Skeleton([Joint("a", "b", [0, 0, 0]), Joint("b", None, [0, 0, 0])])

    def test_two_roots(self):
        with pytest.raises(ValidationError):
            Skeleton([Joint("a", None, [0, 0, 0]), Joint("b", None, [0, 0, 0])])

    def test_revolute_axis_required(self):
        with pytest.raises(ValidationError):
            Joint("a", None, [0, 0, 0], dof="revolute")

    def test_bad_limits(self):
        with pytest.raises(ValidationError):
            Joint("a", None, [0, 0, 0], dof="revolute", axis=[0, 0, 1], limits=((1, -1),))

    def test_marker_unknown_joint(self):
        with pytest.raises(ValidationError):
            Skeleton([Joint("a", None, [0, 0, 0])], [Marker("m", "nope", [0, 0, 0])])


class TestFk:
    def test_zero_pose_offsets_sum(self):
        skel = make_chain([[0, 1, 0], [0, 1, 0]])
        res = fk(skel, skel.zero_pose())
        assert np.allclose(res.positions[2], [0, 2, 0])
        assert np.allclose(res.rotations, np.tile(np.eye(3), (3, 1, 1)))

    def test_revolute_quarter_turn(self):
        skel = make_chain([[0, 1, 0], [0, 1, 0]])
        pose = Pose(np.zeros(3), Rotation.identity(), [np.pi / 2, 0.0])
        res = fk(skel, pose)
        assert np.allclose(res.positions[2], [-1, 1, 0], atol=1e-12)

    def test_pose_mismatch(self):
        skel = make_chain([[0, 1, 0]])
        with pytest.raises(PoseMismatch):
            fk(skel, Pose(np.zeros(3), Rotation.identity(), [0.0, 0.0]))

    def test_matches_naive_oracle(self, rng):
        for _ in range(10):
            skel = make_random_tree(rng, 8)
            assert_matches_naive(skel, random_pose(skel, rng))

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_match_naive_oracle(self, rng, name):
        skel = load_example_skeleton(name)
        for _ in range(5):
            assert_matches_naive(skel, random_pose(skel, rng))

    @pytest.mark.parametrize("dof", ["revolute", "spherical"])
    def test_root_with_dof(self, rng, dof):
        axis = [0.6, 0.0, 0.8] if dof == "revolute" else None
        skel = Skeleton(
            [
                Joint("root", None, [0, 0, 0], dof=dof, axis=axis),
                Joint("a", "root", [0, 0.4, 0], dof="spherical"),
                Joint("b", "root", [0.3, 0, 0], dof="revolute", axis=[0, 1, 0]),
                Joint("c", "a", [0, 0, 0.2]),
            ]
        )
        for _ in range(5):
            assert_matches_naive(skel, random_pose(skel, rng))

    def test_spherical_at_and_below_identity_guard(self, rng):
        skel = make_chain([[0, 0.3, 0]] * 3, dof="spherical")
        turn = rng.normal(size=3)
        for first in (np.zeros(3), np.full(3, 1e-13), np.array([1e-14, 0.0, 0.0])):
            pose = Pose(rng.normal(size=3), random_rotation(rng), np.r_[first, turn, first])
            assert_matches_naive(skel, pose)
            res = fk(skel, pose)
            assert np.array_equal(res.rotations[1], res.rotations[0])
            assert np.array_equal(res.rotations[3], res.rotations[2])

    @pytest.mark.parametrize("dof", ["fixed", "revolute", "spherical"])
    def test_one_joint(self, rng, dof):
        axis = [0, 0, 1] if dof == "revolute" else None
        skel = Skeleton([Joint("only", None, [0, 0, 0], dof=dof, axis=axis)])
        pose = random_pose(skel, rng)
        assert_matches_naive(skel, pose)
        assert fk(skel, pose).positions.shape == (1, 3)

    def test_deep_chain(self, rng):
        offsets = rng.normal(size=(40, 3)) * 0.1
        for dof in ("revolute", "spherical"):
            skel = make_chain(offsets, dof=dof)
            assert_matches_naive(skel, random_pose(skel, rng, scale=0.5))

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bitwise_equal_to_joint_walk(self, rng, name):
        # Motion files are byte-identical to those of a joint-by-joint walk only if fk is.
        skel = load_example_skeleton(name)
        for scale in (1e-13, 1e-6, 1.0, 3.0):
            for _ in range(10):
                pose = random_pose(skel, rng, scale)
                res = fk(skel, pose)
                pos, rot = joint_walk_fk(skel, pose)
                assert np.array_equal(res.positions, pos)
                assert np.array_equal(res.rotations, rot)

    @pytest.mark.parametrize("name", BUNDLED + ("revolute_chain", "spherical_tree", "mixed_root"))
    def test_stacked_equals_per_pose(self, rng, name):
        # fk over T poses is, frame by frame, the per-pose fk (and so the joint walk).
        if name in BUNDLED:
            skel = load_example_skeleton(name)
        elif name == "revolute_chain":
            skel = make_chain(rng.normal(size=(12, 3)) * 0.2, axis=(0.6, 0.0, 0.8))
        elif name == "spherical_tree":
            skel = make_random_tree(rng, 15)
        else:
            skel = Skeleton(
                [
                    Joint("root", None, [0, 0, 0], dof="spherical"),
                    Joint("a", "root", [0, 0.4, 0], dof="revolute", axis=[0, 1, 0]),
                    Joint("b", "a", [0.3, 0, 0]),
                    Joint("c", "root", [0, 0, 0.2], dof="spherical"),
                ]
            )
        scales = (0.0, 1e-13, 1e-6, 1.0, 3.0)
        poses = [random_pose(skel, rng, scale) for scale in scales for _ in range(4)]
        res = fk(skel, poses)
        assert res.positions.shape == (len(poses), len(skel.joints), 3)
        assert res.rotations.shape == (len(poses), len(skel.joints), 3, 3)
        for t, pose in enumerate(poses):
            one = fk(skel, pose)
            pos, rot = joint_walk_fk(skel, pose)
            assert np.array_equal(res.positions[t], one.positions)
            assert np.array_equal(res.rotations[t], one.rotations)
            assert np.array_equal(one.positions, pos)
            assert np.array_equal(one.rotations, rot)

    def test_stacked_marker_points(self, rng):
        skel = load_example_skeleton("human_24")
        poses = [random_pose(skel, rng) for _ in range(5)]
        res = fk(skel, poses)
        for name, marker in skel.markers.items():
            j = skel.index[marker.joint]
            points = res.point(j, marker.offset)
            assert np.array_equal(points, [fk(skel, p).point(j, marker.offset) for p in poses])

    def test_stacked_pose_mismatch(self, rng):
        skel = make_chain([[0, 1, 0]])
        poses = [skel.zero_pose(), Pose(np.zeros(3), Rotation.identity(), [0.0, 0.0])]
        with pytest.raises(PoseMismatch, match="pose has 2 values, skeleton needs 1"):
            fk(skel, poses)

    def test_length_preserved(self, rng):
        skel = make_random_tree(rng, 10)
        for _ in range(20):
            pose = Pose(np.zeros(3), random_rotation(rng), rng.normal(size=skel.total_dof))
            res = fk(skel, pose)
            for i, joint in enumerate(skel.joints[1:], start=1):
                p = skel.parent_index[i]
                bone = np.linalg.norm(res.positions[i] - res.positions[p])
                assert bone == pytest.approx(np.linalg.norm(joint.offset), abs=1e-9)

    def test_root_equivariance(self, rng):
        skel = make_random_tree(rng, 8)
        values = rng.normal(size=skel.total_dof)
        base = Pose(np.zeros(3), Rotation.identity(), values)
        q = random_rotation(rng)
        rotated = Pose(np.zeros(3), q, values)
        res0, res1 = fk(skel, base), fk(skel, rotated)
        for i in range(len(skel.joints)):
            assert np.linalg.norm(q.apply(res0.positions[i]) - res1.positions[i]) <= 1e-9

    def test_markers(self):
        skel = Skeleton(
            [Joint("root", None, [0, 0, 0]), Joint("a", "root", [0, 1, 0])],
            [Marker("tip", "a", [0, 0.5, 0])],
        )
        res = fk(skel, skel.zero_pose())
        assert np.allclose(res.point(*resolve_marker(skel, "tip")), [0, 1.5, 0])
        assert np.allclose(res.point(*resolve_marker(skel, "a")), [0, 1, 0])


def bits(arr):
    return np.ascontiguousarray(arr, dtype=float).view(np.int64)


class TestJointTrajectory:
    def poses(self, skel, rng, n=6):
        poses = [random_pose(skel, rng, scale) for scale in (0.0, 1e-13, 1.0, 3.0)[:n]]
        poses += [random_pose(skel, rng) for _ in range(n - len(poses))]
        return poses

    def test_poses_round_trip_bitwise(self, rng):
        skel = load_example_skeleton("human_24")
        poses = self.poses(skel, rng)
        p = poses[1]
        poses[1] = Pose(-0.0 * p.root_position, p.root_orientation, -0.0 * p.joint_values)
        traj = JointTrajectory(30.0, poses, skel.name)
        assert len(traj) == len(traj.poses) == len(poses)
        for a, b in zip(traj.poses, poses):
            assert np.array_equal(bits(a.root_position), bits(b.root_position))
            assert np.array_equal(bits(a.root_orientation.matrix), bits(b.root_orientation.matrix))
            assert np.array_equal(bits(a.joint_values), bits(b.joint_values))
        assert traj.values() is traj.joint_values
        assert np.array_equal(bits(traj.values()), bits([p.joint_values for p in poses]))
        rebuilt = JointTrajectory.from_arrays(
            traj.fps, traj.root_positions, traj.root_rotations, traj.joint_values, traj.skeleton
        )
        for name in ("root_positions", "root_rotations", "joint_values"):
            assert np.array_equal(bits(getattr(rebuilt, name)), bits(getattr(traj, name)))
        assert (rebuilt.fps, rebuilt.skeleton) == (30.0, skel.name)

    def test_fk_reads_the_arrays(self, rng):
        skel = load_example_skeleton("h1_like_19")
        poses = self.poses(skel, rng)
        got, want = fk(skel, JointTrajectory(30.0, poses)), fk(skel, poses)
        assert np.array_equal(bits(got.positions), bits(want.positions))
        assert np.array_equal(bits(got.rotations), bits(want.rotations))
        with pytest.raises(PoseMismatch, match="pose has 19 values, skeleton needs 24"):
            fk(make_chain([[0, 1, 0]] * 24), JointTrajectory(30.0, poses))

    def test_mutating_inputs_leaves_the_trajectory_unchanged(self, rng):
        skel = make_random_tree(rng, 6)
        poses = self.poses(skel, rng, 3)
        positions = np.array([p.root_position for p in poses])
        rotations = np.array([p.root_orientation.matrix for p in poses])
        values = np.array([p.joint_values for p in poses])
        for traj in (
            JointTrajectory(30.0, poses),
            JointTrajectory.from_arrays(30.0, positions, rotations, values),
        ):
            now = (traj.root_positions, traj.root_rotations, traj.joint_values)
            stored = [a.copy() for a in now]
            for a in (positions, rotations, values):
                a += 1.0
            for p in poses:
                for a in (p.root_position, p.root_orientation.matrix, p.joint_values):
                    a += 1.0
            for before, after in zip(stored, now):
                assert np.array_equal(before, after)
                assert not after.flags.writeable
                with pytest.raises(ValueError):
                    after[0] = 0.0
            with pytest.raises(AttributeError):
                traj.poses = []

    def test_poses_of_different_lengths(self, rng):
        poses = [Pose(np.zeros(3), Rotation.identity(), v) for v in ([0.0], [0.0, 1.0])]
        with pytest.raises(PoseMismatch, match="pose has 2 values, frame 0 has 1"):
            JointTrajectory(30.0, poses)

    @pytest.mark.parametrize(
        "positions, rotations, values, message",
        [
            (np.zeros((2, 3)), np.zeros((3, 3, 3)), np.zeros((2, 4)), "are not"),
            (np.zeros((2, 2)), np.zeros((2, 3, 3)), np.zeros((2, 4)), "are not"),
            (np.zeros((2, 3)), np.zeros((2, 3, 3)), np.zeros(2), "are not"),
            (np.zeros((2, 3)), np.zeros((2, 3, 3)), [[0.0], [np.nan]], "non-finite"),
            ([[0, 0, np.inf]] * 2, np.zeros((2, 3, 3)), np.zeros((2, 1)), "non-finite"),
        ],
    )
    def test_from_arrays_validates(self, positions, rotations, values, message):
        with pytest.raises(ValidationError, match=message):
            JointTrajectory.from_arrays(30.0, positions, rotations, values)


class TestLimits:
    def test_boundary_is_inside(self):
        skel = make_chain([[0, 1, 0]], limits=((-1.0, 1.0),))
        pose = Pose(np.zeros(3), Rotation.identity(), [1.0])
        assert check_limits(skel, pose) == []

    def test_violation_amount(self):
        skel = make_chain([[0, 1, 0]], limits=((-1.0, 1.0),))
        pose = Pose(np.zeros(3), Rotation.identity(), [1.25])
        (v,) = check_limits(skel, pose)
        assert v.joint == "j1"
        assert v.amount == pytest.approx(0.25)
        pose = Pose(np.zeros(3), Rotation.identity(), [-1.5])
        (v,) = check_limits(skel, pose)
        assert v.amount == pytest.approx(-0.5)

    def test_euler_decomposition_matches_scipy(self, rng):
        for _ in range(200):
            m = random_rotation(rng).matrix
            ours = _intrinsic_xyz_euler(m)
            ref = ScipyRotation.from_matrix(m).as_euler("XYZ")
            assert np.allclose(ours, ref, atol=1e-9)

    @pytest.mark.parametrize("name", BUNDLED + ("mixed",))
    def test_limit_map_equals_joint_walk(self, rng, name):
        # check_limits and the retarget projection read one shared limit map;
        # both must give exactly what the joint-by-joint walks give.
        skel = mixed_limits_skeleton() if name == "mixed" else load_example_skeleton(name)
        for scale in (0.1, 0.5, 1.0, 3.0):
            for _ in range(10):
                values = scale * rng.normal(size=skel.total_dof)
                pose = Pose(np.zeros(3), Rotation.identity(), values)
                assert check_limits(skel, pose) == joint_walk_check_limits(skel, values)
                assert np.array_equal(
                    _project_to_limits(skel, values), joint_walk_projection(skel, values)
                )

    def test_spherical_limits_random_vs_scan(self, rng):
        limits = ((-0.5, 0.5), (-0.4, 0.4), (-0.3, 0.3))
        skel = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint("a", "root", [0, 1, 0], dof="spherical", limits=limits),
            ]
        )
        for _ in range(50):
            v = rng.normal(size=3) * 0.5
            pose = Pose(np.zeros(3), Rotation.identity(), v)
            euler = ScipyRotation.from_rotvec(v).as_euler("XYZ")
            expected = sum(
                1
                for k, (lo, hi) in enumerate(limits)
                if euler[k] > hi or euler[k] < lo
            )
            assert len(check_limits(skel, pose)) == expected


class TestRemapDofs:
    def test_identity(self):
        cfg = DofConfig([DofChannel("hip"), DofChannel("knee")])
        assert np.allclose(remap_dofs([0.1, 0.2], cfg, cfg), [0.1, 0.2])

    def test_permutation(self):
        src = DofConfig([DofChannel("hip"), DofChannel("knee")])
        dst = DofConfig([DofChannel("knee"), DofChannel("hip")])
        assert np.allclose(remap_dofs([0.1, 0.2], src, dst), [0.2, 0.1])

    def test_scale_offset_and_default(self):
        src = DofConfig([DofChannel("a", scale=2.0, offset=1.0), DofChannel("b")])
        dst = DofConfig(
            [DofChannel("a", scale=3.0, offset=-1.0), DofChannel("c", default=0.5)]
        )
        out = remap_dofs([5.0, 9.0], src, dst)
        # (5 - 1)/2 * 3 - 1 = 5; b dropped; c defaults
        assert np.allclose(out, [5.0, 0.5])

    def test_missing_default_raises(self):
        src = DofConfig([DofChannel("a")])
        dst = DofConfig([DofChannel("b")])
        with pytest.raises(MissingDefault):
            remap_dofs([1.0], src, dst)

    def test_large_table_oracle(self):
        names21 = [f"q{i}" for i in range(21)]
        names19 = [f"q{i}" for i in range(17)] + ["extra_a", "extra_b"]
        src = DofConfig([DofChannel(n, scale=1.0 + i * 0.1) for i, n in enumerate(names21)])
        dst = DofConfig(
            [
                DofChannel(n, scale=2.0, default=0.25 if n.startswith("extra") else None)
                for n in names19
            ]
        )
        values = np.arange(21, dtype=float)
        out = remap_dofs(values, src, dst)
        for i, n in enumerate(names19):
            if n.startswith("extra"):
                assert out[i] == 0.25
            else:
                j = names21.index(n)
                assert out[i] == pytest.approx(values[j] / (1.0 + j * 0.1) * 2.0)

    def test_round_trip_inverse_configs(self, rng):
        src = DofConfig([DofChannel(f"q{i}", scale=1.5, offset=0.2) for i in range(5)])
        dst = DofConfig([DofChannel(f"q{i}", scale=0.7, offset=-0.1) for i in range(5)])
        v = rng.normal(size=5)
        back = remap_dofs(remap_dofs(v, src, dst), dst, src)
        assert np.allclose(back, v, atol=1e-12)
