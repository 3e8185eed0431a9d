import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from retarget_kit import (
    Joint,
    JointTrajectory,
    Pose,
    Rotation,
    Skeleton,
    check_limits,
    fk,
    load_example_skeleton,
)
from retarget_kit.errors import ValidationError
from retarget_kit.retarget import CorrespondencePair, RetargetOptions, _Objective, _project_to_limits
from retarget_kit.skeleton import (
    LimitViolation,
    Marker,
    _fk_arrays,
    _intrinsic_xyz_euler,
    _stack_poses,
    resolve_marker,
)

from conftest import (
    joint_walk_limited_dofs,
    joint_walk_local,
    joint_walk_projection,
    make_chain,
    make_random_tree,
    random_rotation,
    zero_pose,
)


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


def joint_walk_check_limits(skeleton, values):
    out = []
    for joint, k, v, lo, hi in joint_walk_limited_dofs(skeleton, values):
        if v > hi:
            out.append(LimitViolation(joint.name, k, float(v - hi)))
        elif v < lo:
            out.append(LimitViolation(joint.name, k, float(v - lo)))
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

    @pytest.mark.parametrize("name", [5, ["walker"], b"walker"])
    def test_name_must_be_a_string_or_none(self, name):
        with pytest.raises(ValidationError, match="expected a skeleton name"):
            Skeleton([Joint("a", None, [0, 0, 0])], name=name)
        assert Skeleton([Joint("a", None, [0, 0, 0])]).name is None


class TestFk:
    def test_zero_pose_offsets_sum(self):
        skel = make_chain([[0, 1, 0], [0, 1, 0]])
        res = fk(skel, zero_pose(skel))
        assert np.allclose(res.positions[2], [0, 2, 0])
        assert np.allclose(res.rotations, np.tile(np.eye(3), (3, 1, 1)))

    def test_revolute_quarter_turn(self):
        skel = make_chain([[0, 1, 0], [0, 1, 0]])
        pose = Pose(np.zeros(3), Rotation.identity(), [np.pi / 2, 0.0])
        res = fk(skel, pose)
        assert np.allclose(res.positions[2], [-1, 1, 0], atol=1e-12)

    def test_pose_mismatch(self):
        skel = make_chain([[0, 1, 0]])
        with pytest.raises(ValidationError, match="pose has 2 values, skeleton needs 1"):
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

    @pytest.mark.parametrize("name", BUNDLED)
    def test_objective_buffers_equal_fk(self, rng, name):
        # The solver runs FK into its objective's level-order buffers, evaluation after
        # evaluation, and reads joint j at plan.rank[j]: those must be fk's bits.
        skel = load_example_skeleton(name)
        plan = skel._plan
        assert plan.in_level_order == (name == "human_24")
        pairs = [CorrespondencePair(j.name, j.name) for j in skel.joints]
        buffers = _Objective(skel, pairs, RetargetOptions()).fk_buffers
        for scale in (0.0, 1e-13, 1e-6, 1.0, 3.0):
            for _ in range(4):
                pose = random_pose(skel, rng, scale)
                root = pose.root_position[None], pose.root_orientation.matrix[None]
                pos, rot = _fk_arrays(skel, *root, pose.joint_values[None], buffers)
                assert pos is buffers[1] and rot is buffers[2]
                expected = fk(skel, pose)
                assert np.array_equal(bits(pos[plan.rank, 0]), bits(expected.positions))
                assert np.array_equal(bits(rot[plan.rank, 0]), bits(expected.rotations))
        poses = [random_pose(skel, rng) for _ in range(3)]
        pos, rot = _fk_arrays(skel, *_stack_poses(poses, skel.total_dof, ""), plan.fk_buffers(3))
        expected = fk(skel, poses)
        assert np.array_equal(bits(pos[plan.rank].swapaxes(0, 1)), bits(expected.positions))
        assert np.array_equal(bits(rot[plan.rank].swapaxes(0, 1)), bits(expected.rotations))

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
        poses = [zero_pose(skel), Pose(np.zeros(3), Rotation.identity(), [0.0, 0.0])]
        with pytest.raises(ValidationError, match="pose has 2 values, skeleton needs 1"):
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
            assert np.linalg.norm(q.matrix @ res0.positions[i] - res1.positions[i]) <= 1e-9

    def test_markers(self):
        skel = Skeleton(
            [Joint("root", None, [0, 0, 0]), Joint("a", "root", [0, 1, 0])],
            [Marker("tip", "a", [0, 0.5, 0])],
        )
        res = fk(skel, zero_pose(skel))
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
        with pytest.raises(ValidationError, match="pose has 19 values, skeleton needs 24"):
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
        with pytest.raises(ValidationError, match="pose has 2 values, frame 0 has 1"):
            JointTrajectory(30.0, poses)

    @pytest.mark.parametrize(
        "positions, rotations, values, message",
        [
            (np.zeros((2, 3)), np.zeros((3, 3, 3)), np.zeros((2, 4)), "root_rotations: expected"),
            (np.zeros((2, 2)), np.zeros((2, 3, 3)), np.zeros((2, 4)), "root_positions: expected"),
            (np.zeros((2, 3)), np.zeros((2, 3, 3)), np.zeros(2), "joint_values: expected"),
            (np.zeros((2, 3)), np.zeros((2, 3, 3)), [[0.0], [np.nan]],
             "joint_values contains NaN"),
            ([[0, 0, np.inf]] * 2, np.zeros((2, 3, 3)), np.zeros((2, 1)),
             "root_positions contains NaN"),
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
