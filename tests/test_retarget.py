import numpy as np
import pytest

from retarget_kit import (
    CorrespondencePair,
    CorrespondenceSet,
    Pose,
    Rotation,
    RetargetOptions,
    check_limits,
    load_example_correspondence,
    load_example_skeleton,
    retarget_frame,
    retarget_hand,
    retarget_sequence,
)
from retarget_kit import retarget
from retarget_kit.errors import (
    NonFiniteObjective,
    UnresolvableCorrespondence,
    ValidationError,
)
from retarget_kit.retarget import _LimitBarrier, _gauss_newton, _project_to_limits
from retarget_kit.skeleton import Joint, Marker, Skeleton, fk, resolve_marker

from conftest import make_humanlike, twist_free_pose

EXACT_OPTS = RetargetOptions(smoothness_weight=0.0, reference_weight=0.0)


def identity_corr(skeleton, orientation_weight=1.0, scale=1.0):
    return CorrespondenceSet(
        tuple(
            CorrespondencePair(j.name, j.name, 1.0, orientation_weight)
            for j in skeleton.joints[1:]
        ),
        scale=scale,
    )


@pytest.fixture(scope="module")
def humanlike():
    return make_humanlike(n_chains=3, chain_len=3)


class TestRetargetFrame:
    def test_identity_recovery(self, humanlike, rng):
        pose = twist_free_pose(humanlike, rng)
        out, report = retarget_frame(
            humanlike, pose, humanlike, identity_corr(humanlike), EXACT_OPTS
        )
        assert max(report.position_residuals.values()) < 1e-6
        assert np.max(np.abs(out.joint_values - pose.joint_values)) < 1e-3

    def test_reference_weight_dominant(self, humanlike, rng):
        pose = twist_free_pose(humanlike, rng)
        opts = RetargetOptions(smoothness_weight=0.0, reference_weight=1e6)
        corr = CorrespondenceSet(
            (CorrespondencePair(humanlike.joints[1].name, humanlike.joints[1].name, 1e-9),),
            scale=1.0,
        )
        out, _ = retarget_frame(humanlike, pose, humanlike, corr, opts)
        assert np.max(np.abs(out.joint_values)) < 1e-6

    def test_limit_projection(self):
        human = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint(
                    "a", "root", [0, 1, 0], dof="revolute", axis=[0, 0, 1]
                ),
                Joint("b", "a", [0, 1, 0]),
            ]
        )
        robot = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint(
                    "a",
                    "root",
                    [0, 1, 0],
                    dof="revolute",
                    axis=[0, 0, 1],
                    limits=((-0.5, 0.5),),
                ),
                Joint("b", "a", [0, 1, 0]),
            ]
        )
        # human elbow bends well beyond the robot's 0.5 rad limit
        human_pose = Pose(np.zeros(3), Rotation.identity(), [1.2])
        corr = CorrespondenceSet((CorrespondencePair("b", "b", 1.0),), scale=1.0)
        out, report = retarget_frame(
            human, human_pose, robot, corr, RetargetOptions(reference_weight=0.0)
        )
        assert out.joint_values[0] == 0.5
        assert report.limit_violation_count == 0

    def test_spherical_barrier_covers_violations(self):
        limits = ((-0.3, 0.3), (-0.2, 0.2), (-0.1, 0.1))
        skel = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint("s", "root", [0, 1, 0], dof="spherical", limits=limits),
                Joint("tip", "s", [0, 1, 0]),
            ]
        )
        # intrinsic XYZ Euler angles (0.5, -0.4, 0.3): every DoF past its limit
        m = (
            Rotation.from_axis_angle([1, 0, 0], 0.5).matrix
            @ Rotation.from_axis_angle([0, 1, 0], -0.4).matrix
            @ Rotation.from_axis_angle([0, 0, 1], 0.3).matrix
        )
        values = Rotation.from_matrix(m).as_rotvec()
        violations = check_limits(skel, Pose(np.zeros(3), Rotation.identity(), values))
        assert len(violations) == 3
        w = np.sqrt(RetargetOptions().limit_weight)
        rows = _LimitBarrier(skel, w).residual(values).reshape(-1, 2)
        plan = skel._plan
        dofs = [(skel.joints[j].name, k) for j, k in zip(plan.limit_joint, plan.limit_dof)]
        for v in violations:
            assert rows[dofs.index((v.joint, v.dof_index))].max() > 0

    def test_projection_leaves_spherical_within_allclose_of_limit(self):
        # The projection rebuilds an Euler-limited spherical joint only when its
        # Euler angles are not np.allclose to their clipped values, so a joint
        # this close past a limit is left where it is and counts as a violation.
        skel = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint("s", "root", [0, 1, 0], dof="spherical", limits=((-1.0, 1.0),) * 3),
            ]
        )
        past = 4e-6
        values = Rotation.from_axis_angle([1, 0, 0], 1.0 + past).as_rotvec()
        projected = _project_to_limits(skel, values)
        assert np.array_equal(projected, values)
        (v,) = check_limits(skel, Pose(np.zeros(3), Rotation.identity(), projected))
        assert (v.joint, v.dof_index) == ("s", 0)
        assert v.amount == pytest.approx(past, rel=1e-6)
        assert v.amount <= 1e-8 + 1e-5 * (1.0 + past)
        # Farther past the limit, the joint is rebuilt inside it.
        values = Rotation.from_axis_angle([1, 0, 0], 1.01).as_rotvec()
        projected = Pose(np.zeros(3), Rotation.identity(), _project_to_limits(skel, values))
        assert all(abs(v.amount) < 1e-12 for v in check_limits(skel, projected))

    def test_monotone_objective(self, humanlike, rng):
        pose = twist_free_pose(humanlike, rng)
        _, report = retarget_frame(
            humanlike, pose, humanlike, identity_corr(humanlike), EXACT_OPTS
        )
        trace = report.objective_trace
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))

    def test_determinism(self, humanlike, rng):
        pose = twist_free_pose(humanlike, rng)
        a, _ = retarget_frame(humanlike, pose, humanlike, identity_corr(humanlike))
        b, _ = retarget_frame(humanlike, pose, humanlike, identity_corr(humanlike))
        assert np.array_equal(a.joint_values, b.joint_values)

    def test_scale_equivariance(self, humanlike, rng):
        # Scaling the human geometry by s and the correspondence scale by
        # 1/s leaves the target cloud, and hence the joint angles, unchanged.
        s = 2.5
        pose = twist_free_pose(humanlike, rng)
        big = Skeleton(
            [
                Joint(j.name, j.parent, j.offset * s, dof=j.dof, limits=j.limits)
                for j in humanlike.joints
            ],
            humanlike.markers.values(),
        )
        big_pose = Pose(pose.root_position * s, pose.root_orientation, pose.joint_values)
        a, _ = retarget_frame(
            humanlike, pose, humanlike, identity_corr(humanlike, scale=1.0), EXACT_OPTS
        )
        b, _ = retarget_frame(
            big, big_pose, humanlike, identity_corr(humanlike, scale=1.0 / s), EXACT_OPTS
        )
        assert np.max(np.abs(a.joint_values - b.joint_values)) < 1e-6

    def test_unresolvable_correspondence(self, humanlike, rng):
        corr = CorrespondenceSet((CorrespondencePair("nope", "c0_0", 1.0),), scale=1.0)
        with pytest.raises(UnresolvableCorrespondence):
            retarget_frame(humanlike, twist_free_pose(humanlike, rng), humanlike, corr)

    def test_non_finite_objective(self, humanlike, rng):
        pose = twist_free_pose(humanlike, rng)
        bad = Pose(pose.root_position, pose.root_orientation, pose.joint_values)
        bad.joint_values[0] = 1e200  # overflows FK products into inf
        corr = identity_corr(humanlike)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((NonFiniteObjective, ValidationError)):
                retarget_frame(humanlike, bad, humanlike, corr)

    def test_needs_position_pair(self):
        with pytest.raises(ValidationError):
            CorrespondenceSet((CorrespondencePair("a", "b", 0.0, 1.0),), scale=1.0)

    def test_zero_dof_robot(self, humanlike, rng):
        fixed = [Joint(j.name, j.parent, j.offset) for j in humanlike.joints]
        statue = Skeleton(fixed, name="statue")
        with pytest.raises(ValidationError, match="'statue' has no degrees of freedom"):
            retarget_frame(
                humanlike, twist_free_pose(humanlike, rng), statue, identity_corr(humanlike)
            )


class TestOptions:
    @pytest.mark.parametrize(
        "field", ["limit_weight", "smoothness_weight", "reference_weight", "gradient_tol"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, "1"])
    def test_weights_and_tolerance_finite_nonnegative(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be a finite number >= 0"):
            RetargetOptions(**{field: value})

    @pytest.mark.parametrize("value", [0, -3, 2.5, 3.0, True, "10"])
    def test_max_iterations_integer_at_least_one(self, value):
        with pytest.raises(ValidationError, match="max_iterations must be an integer >= 1"):
            RetargetOptions(max_iterations=value)

    def test_numpy_scalars_accepted(self):
        opts = RetargetOptions(limit_weight=np.float64(2.0), max_iterations=np.int64(5))
        assert opts.max_iterations == 5


@pytest.mark.parametrize(
    "robot_name, map_name", [("h1_like_19", "human_to_h1"), ("g1_like_21", "human_to_g1")]
)
def test_one_fk_per_distinct_pose(monkeypatch, rng, robot_name, map_name):
    human = load_example_skeleton("human_24")
    robot = load_example_skeleton(robot_name)
    corr = load_example_correspondence(map_name, human, robot)
    pose = twist_free_pose(human, rng, max_angle=0.4)
    smooth_to = rng.normal(size=robot.total_dof) * 0.1
    _, plain = retarget_frame(human, pose, robot, corr, smooth_to=smooth_to)

    seen = []
    real_fk = retarget.fk

    def recorder(skeleton, p):
        if skeleton is robot:
            seen.append(p.joint_values.tobytes())
        return real_fk(skeleton, p)

    monkeypatch.setattr(retarget, "fk", recorder)
    _, report = retarget_frame(human, pose, robot, corr, smooth_to=smooth_to)
    assert len(seen) == len(set(seen))
    assert len(seen) <= report.residual_evals
    assert report.iterations == plain.iterations > 1
    assert report.termination == plain.termination
    assert report.objective_trace == plain.objective_trace


class TestRetargetSequence:
    def test_constant_sequence_constant_output(self, humanlike, rng):
        pose = twist_free_pose(humanlike, rng)
        traj, reports = retarget_sequence(
            humanlike, [pose] * 5, humanlike, identity_corr(humanlike), EXACT_OPTS
        )
        values = traj.values()
        assert np.max(np.abs(np.diff(values[1:], axis=0))) < 1e-9
        assert not any(r.carried_forward for r in reports)

    def test_identity_sequence_mpjpe(self, humanlike, rng):
        poses = [twist_free_pose(humanlike, rng, max_angle=0.3) for _ in range(5)]
        traj, _ = retarget_sequence(
            humanlike, poses, humanlike, identity_corr(humanlike), EXACT_OPTS
        )
        ref = np.array([p.joint_values for p in poses])
        assert np.mean(np.abs(traj.values() - ref)) < 1e-3

    def test_warm_start_ab(self, humanlike, rng):
        # Smooth input: disabling warm start changes converged objectives little.
        base = twist_free_pose(humanlike, rng, max_angle=0.3)
        poses = []
        for t in range(4):
            v = base.joint_values * (1.0 + 0.02 * t)
            poses.append(Pose(base.root_position, base.root_orientation, v))
        opts_on = RetargetOptions(smoothness_weight=0.0, reference_weight=0.0)
        opts_off = RetargetOptions(
            smoothness_weight=0.0, reference_weight=0.0, warm_start=False
        )
        _, rep_on = retarget_sequence(humanlike, poses, humanlike, identity_corr(humanlike), opts_on)
        _, rep_off = retarget_sequence(humanlike, poses, humanlike, identity_corr(humanlike), opts_off)
        for a, b in zip(rep_on, rep_off):
            assert b.objective <= 0.01 * (1.0 + a.objective) + a.objective or a.objective <= 0.01 * (1.0 + b.objective) + b.objective

    def test_empty_raises(self, humanlike):
        with pytest.raises(ValidationError):
            retarget_sequence(humanlike, [], humanlike, identity_corr(humanlike))


class TestTermination:
    def test_converged(self, humanlike, rng):
        pose = twist_free_pose(humanlike, rng)
        _, report = retarget_frame(
            humanlike, pose, humanlike, identity_corr(humanlike), EXACT_OPTS
        )
        assert report.termination == "converged" and report.converged
        assert report.jacobian_evals == report.iterations
        # the start point, every accepted iterate, and the projected answer
        assert report.residual_evals >= len(report.objective_trace) + 1

    def test_max_iterations(self, humanlike, rng):
        pose = twist_free_pose(humanlike, rng)
        _, report = retarget_frame(
            humanlike, pose, humanlike, identity_corr(humanlike),
            RetargetOptions(max_iterations=1),
        )
        assert report.termination == "max_iterations" and not report.converged
        assert report.iterations == report.jacobian_evals == 1
        assert len(report.objective_trace) == 2

    def test_carried_forward(self, humanlike, rng):
        good = twist_free_pose(humanlike, rng)
        values = good.joint_values.copy()
        values[0] = 1e200  # non-finite targets below the root
        bad = Pose(good.root_position, good.root_orientation, values)
        with np.errstate(all="ignore"):
            traj, reports = retarget_sequence(
                humanlike, [good, bad], humanlike, identity_corr(humanlike)
            )
        assert [r.termination for r in reports] == ["converged", "carried_forward"]
        assert reports[1].carried_forward and not reports[0].carried_forward
        assert reports[1].jacobian_evals == reports[1].iterations == 0
        assert np.array_equal(traj.poses[1].joint_values, traj.poses[0].joint_values)

    def test_stalled(self):
        # A Jacobian pointing uphill: no damping gives descent.
        def residual(x):
            return x.copy()

        def jacobian(x):
            return -np.eye(len(x))

        x, trace, iterations, termination = _gauss_newton(
            residual, jacobian, np.array([1.0, -2.0]), RetargetOptions()
        )
        assert termination == "stalled"
        assert iterations == 1 and trace == [5.0]
        assert np.array_equal(x, [1.0, -2.0])


def make_finger():
    joints = [
        Joint("palm", None, [0, 0, 0]),
        Joint(
            "f_a",
            "palm",
            [0.03, 0, 0],
            dof="revolute",
            axis=[0, 0, 1],
            limits=((-1.4, 1.4),),
        ),
        Joint(
            "f_b",
            "f_a",
            [0.04, 0, 0],
            dof="revolute",
            axis=[0, 0, 1],
            limits=((-1.4, 1.4),),
        ),
    ]
    return Skeleton(joints, [Marker("tip", "f_b", [0.04, 0, 0])])


TIP_PAIR = CorrespondencePair("h_tip", "tip")


def tip_position(hand, pose):
    return fk(hand, pose).point(*resolve_marker(hand, "tip"))


class TestRetargetHand:
    def test_zero_pose_fingertips(self):
        hand = make_finger()
        tip = tip_position(hand, hand.zero_pose())
        pose = retarget_hand([tip], hand, [TIP_PAIR])
        assert np.max(np.abs(pose.joint_values)) < 1e-6

    def test_round_trip_random_pose(self, rng):
        hand = make_finger()
        for _ in range(10):
            q = rng.uniform(-1.0, 1.0, size=2)
            target = tip_position(hand, Pose(np.zeros(3), Rotation.identity(), q))
            pose = retarget_hand([target], hand, [TIP_PAIR])
            tip = tip_position(hand, pose)
            assert np.linalg.norm(tip - target) < 1e-3
            assert check_limits(hand, pose) == []

    def test_unreachable_target(self):
        hand = make_finger()
        target = np.array([0.2, 0.0, 0.0])  # reach is 0.03 + 0.08 = 0.11
        pose = retarget_hand(
            [target], hand, [TIP_PAIR], RetargetOptions(limit_weight=0.0)
        )
        tip = tip_position(hand, pose)
        residual = np.linalg.norm(tip - target)
        assert residual == pytest.approx(0.09, rel=0.05)
        assert check_limits(hand, pose) == []

    def test_wrist_frame_fixed(self, rng):
        hand = make_finger()
        wrist_pos = np.array([0.1, 0.2, 0.3])
        wrist_rot = Rotation.from_axis_angle([0, 1, 0], 0.7)
        q = rng.uniform(-1.0, 1.0, size=2)
        target = tip_position(hand, Pose(wrist_pos, wrist_rot, q))
        pose = retarget_hand(
            [target],
            hand,
            [TIP_PAIR],
            wrist_position=wrist_pos,
            wrist_orientation=wrist_rot,
        )
        assert np.allclose(pose.root_position, wrist_pos)
        assert np.linalg.norm(tip_position(hand, pose) - target) < 1e-3

    def test_no_pairs_raises(self):
        with pytest.raises(ValidationError):
            retarget_hand([], make_finger(), [])

    def test_zero_dof_hand(self):
        hand = Skeleton([Joint("palm", None, [0, 0, 0]), Joint("f", "palm", [0.05, 0, 0])],
                        [Marker("tip", "f", [0.04, 0, 0])], name="mitten")
        with pytest.raises(ValidationError, match="'mitten' has no degrees of freedom"):
            retarget_hand([np.array([0.09, 0.0, 0.0])], hand, [TIP_PAIR])

    def test_orientation_weight_rejected(self):
        hand = make_finger()
        pair = CorrespondencePair("h_tip", "tip", 1.0, 0.5)
        with pytest.raises(ValidationError, match="orientation"):
            retarget_hand([tip_position(hand, hand.zero_pose())], hand, [pair])
