import numpy as np
import pytest

from retarget_kit import (
    CorrespondencePair,
    CorrespondenceSet,
    JointTrajectory,
    Pose,
    Rotation,
    RetargetOptions,
    check_limits,
    load_example_correspondence,
    load_example_skeleton,
    retarget_frame,
    retarget_sequence,
)
from retarget_kit import retarget
from retarget_kit.errors import NumericError, ValidationError
from retarget_kit.retarget import _gauss_newton, _project_to_limits
from retarget_kit.skeleton import Joint, Skeleton

from conftest import (
    barrier_objective,
    barrier_rows,
    make_humanlike,
    twist_free_pose,
    zero_pose,
)

EXACT_OPTS = RetargetOptions(smoothness_weight=0.0, reference_weight=0.0)


def identity_corr(skeleton, orientation_weight=1.0, scale=1.0):
    return CorrespondenceSet(
        tuple(
            CorrespondencePair(j.name, j.name, 1.0, orientation_weight)
            for j in skeleton.joints[1:]
        ),
        scale=scale,
    )


class FunctionObjective:
    """A residual and a Jacobian given as functions, with the retarget objective's step."""

    def __init__(self, residual, jacobian, dof):
        self.residual, self.jacobian, self.eye = residual, jacobian, np.eye(dof)

    step = retarget._Objective.step


@pytest.fixture(scope="module")
def humanlike():
    return make_humanlike(n_chains=3, chain_len=3)


class TestRetargetFrame:
    @pytest.mark.parametrize(
        "smooth_to, message",
        [(np.zeros(3), r"smooth_to: expected shape \(19,\), got \(3,\)"),
         (np.full(19, np.nan), "smooth_to contains NaN or infinity")],
        ids=["wrong_length", "nan"],
    )
    def test_smooth_to_follows_the_array_rule(self, smooth_to, message):
        # These once raised a raw broadcast ValueError, and a non-finite objective (a
        # numeric failure, exit 3) for what is bad input.
        human, robot = load_example_skeleton("human_24"), load_example_skeleton("h1_like_19")
        corr = load_example_correspondence("human_to_h1", human, robot)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            retarget_frame(human, zero_pose(human), robot, corr, smooth_to=smooth_to)

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
        rows = barrier_rows(barrier_objective(skel), values)[0].reshape(-1, 2)
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
        with pytest.raises(ValidationError, match="'nope' is neither a marker nor a joint"):
            retarget_frame(humanlike, twist_free_pose(humanlike, rng), humanlike, corr)

    def test_non_finite_objective(self, humanlike, rng):
        pose = twist_free_pose(humanlike, rng)
        bad = Pose(pose.root_position, pose.root_orientation, pose.joint_values)
        bad.joint_values[0] = 1e200  # overflows FK products into inf
        corr = identity_corr(humanlike)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((NumericError, ValidationError)):
                retarget_frame(humanlike, bad, humanlike, corr)

    def test_needs_position_pair(self):
        with pytest.raises(ValidationError):
            CorrespondenceSet((CorrespondencePair("a", "b", 0.0, 1.0),), scale=1.0)

    @pytest.mark.parametrize("weights", [(), (-1.0,), (np.nan,), (np.inf,), (0.0,), (0.0, 0.0)],
                             ids=["no_pairs", "negative", "nan", "inf", "zero", "all_zero"])
    def test_bad_position_weights_rejected(self, weights):
        # a NaN or zero weight would drop the marker's term from the solve; a negative
        # or infinite one would end in a non-finite objective, a NumericError
        with pytest.raises(ValidationError, match="weight"):
            CorrespondenceSet(tuple(CorrespondencePair("a", "a", w) for w in weights))

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
    real_fk = retarget._fk_arrays

    def recorder(skeleton, root_positions, root_rotations, values, buffers):
        if skeleton is robot:
            seen.append(values.tobytes())
        return real_fk(skeleton, root_positions, root_rotations, values, buffers)

    monkeypatch.setattr(retarget, "_fk_arrays", recorder)
    _, report = retarget_frame(human, pose, robot, corr, smooth_to=smooth_to)
    assert len(seen) == len(set(seen))
    assert 0 < len(seen) <= report.residual_evals
    assert report.iterations == plain.iterations > 1
    assert report.termination == plain.termination
    assert report.objective_trace == plain.objective_trace


class TestRetargetSequence:
    def test_constant_sequence_constant_output(self, humanlike, rng):
        pose = twist_free_pose(humanlike, rng)
        traj, _ = retarget_sequence(
            humanlike, [pose] * 5, humanlike, identity_corr(humanlike), EXACT_OPTS
        )
        values = traj.values()
        assert np.max(np.abs(np.diff(values[1:], axis=0))) < 1e-9

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

    def test_trajectory_keeps_its_fps(self, humanlike, rng):
        traj = JointTrajectory(60.0, [twist_free_pose(humanlike, rng) for _ in range(3)])
        got, _ = retarget_sequence(humanlike, traj, humanlike, identity_corr(humanlike))
        assert got.fps == 60.0

    def test_pose_list_defaults_to_30_fps(self, humanlike, rng):
        poses = [twist_free_pose(humanlike, rng) for _ in range(2)]
        traj, _ = retarget_sequence(humanlike, poses, humanlike, identity_corr(humanlike))
        assert traj.fps == 30.0


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

    def test_non_finite_frame_raises(self, humanlike, rng):
        # A later frame once repeated the previous pose and root, flagged "carried_forward".
        good = twist_free_pose(humanlike, rng)
        values = good.joint_values.copy()
        values[0] = 1e200  # non-finite targets below the root
        bad = Pose(good.root_position, good.root_orientation, values)
        with np.errstate(all="ignore"), pytest.raises(
            NumericError, match=r"^frame 1: objective at start point is nan$"
        ):
            retarget_sequence(humanlike, [good, bad], humanlike, identity_corr(humanlike))

    def test_small_decrease(self, humanlike, rng):
        # The regularizers keep the optimum off zero, so the decrease test stops the solve
        # before the gradient test does.
        pose = twist_free_pose(humanlike, rng)
        _, report = retarget_frame(humanlike, pose, humanlike, identity_corr(humanlike))
        assert report.termination == "small_decrease" and report.converged
        trace = report.objective_trace
        drops = [a - b for a, b in zip(trace, trace[1:])]
        assert drops[-1] <= retarget.RELATIVE_DECREASE_TOL * trace[-2]
        assert all(d > retarget.RELATIVE_DECREASE_TOL * f for d, f in zip(drops[:-1], trace))

    def test_stalled(self):
        # A Jacobian pointing uphill: no damping gives descent.
        def residual(x):
            return x.copy()

        def jacobian(x):
            return -np.eye(len(x))

        x, trace, iterations, termination, damping = _gauss_newton(
            FunctionObjective(residual, jacobian, 2), np.array([1.0, -2.0]), RetargetOptions()
        )
        assert termination == "stalled"
        assert iterations == 1 and trace == [5.0]
        assert np.array_equal(x, [1.0, -2.0])
        assert damping > retarget.DAMPING_MAX


class TestProjectionDisplacement:
    @staticmethod
    def elbow(limit):
        """A one-DoF arm; the robot's elbow is limited to [-limit, limit]."""
        limits = () if limit is None else ((-limit, limit),)
        return Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint("a", "root", [0, 1, 0], dof="revolute", axis=[0, 0, 1], limits=limits),
                Joint("b", "a", [0, 1, 0]),
            ]
        )

    def solve(self, monkeypatch, limit, bend):
        solved = []
        real = retarget._gauss_newton

        def spy(*args):
            out = real(*args)
            solved.append(out[0])
            return out

        monkeypatch.setattr(retarget, "_gauss_newton", spy)
        corr = CorrespondenceSet((CorrespondencePair("b", "b", 1.0),), scale=1.0)
        human_pose = Pose(np.zeros(3), Rotation.identity(), [bend])
        out, report = retarget_frame(
            self.elbow(None), human_pose, self.elbow(limit), corr,
            RetargetOptions(reference_weight=0.0),
        )
        return solved[0], out, report

    def test_clipped_solve(self, monkeypatch):
        # The barrier starts 0.05 inside the 0.5 rad limit and does not hold the solve
        # back from a 1.2 rad target, so the projection clips it.
        solved, out, report = self.solve(monkeypatch, 0.5, 1.2)
        assert solved[0] > 0.5 and out.joint_values[0] == 0.5
        assert report.projection_displacement > 0.0
        assert report.projection_displacement == float(np.linalg.norm(out.joint_values - solved))

    def test_nothing_clipped(self, monkeypatch):
        solved, out, report = self.solve(monkeypatch, 2.0, 0.3)
        assert np.array_equal(solved, out.joint_values)
        assert report.projection_displacement == 0.0


class TestNielsenDamping:
    """r(x) = A x - b solved with a scripted Jacobian, the damping read off each linear solve."""

    B = np.array([1.0, 2.0])

    def run(self, monkeypatch, jac, max_iterations, rejected=(), slope=None):
        """Solve from 0 with A = `slope`, else `jac`; residual calls numbered in `rejected`
        (0 is the start point) return a point far uphill."""
        slope = jac if slope is None else slope
        calls = []
        damping = []
        real_solve = np.linalg.solve

        def residual(x):
            calls.append(x)
            return np.full(2, 1e3) if len(calls) - 1 in rejected else slope @ x - self.B

        def solve(a, b):
            damping.append(a[0, 0] - (jac.T @ jac)[0, 0])
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        _, trace, iterations, termination, mu = _gauss_newton(
            FunctionObjective(residual, lambda x: jac, 2), np.zeros(2),
            RetargetOptions(max_iterations=max_iterations),
        )
        return damping, mu, trace, termination

    def test_initial_damping_and_full_gain_shrink(self, monkeypatch):
        # The residual is linear in x and the Jacobian exact: the gain ratio is 1,
        # and 1 - (2 rho - 1)^3 = 0 falls back to the 1/3 floor.
        jac = np.diag([1.0, 3.0])
        damping, mu, _, termination = self.run(monkeypatch, jac, max_iterations=1)
        assert damping == [pytest.approx(retarget.DAMPING_TAU * 9.0, rel=1e-9)]
        assert mu == pytest.approx(damping[0] / 3.0, rel=1e-9)
        assert termination == "max_iterations"

    def test_partial_gain_shrink(self, monkeypatch):
        # A Jacobian twice the true slope: the model overpredicts the decrease.
        damping, mu, trace, _ = self.run(
            monkeypatch, 2.0 * np.eye(2), max_iterations=1, slope=np.eye(2)
        )
        mu0 = retarget.DAMPING_TAU * 4.0
        alpha = 2.0 / (4.0 + mu0)  # the step is alpha * r
        rho = (2.0 - alpha) / (mu0 * alpha + 2.0)
        assert rho == pytest.approx((trace[0] - trace[1]) / (alpha * (mu0 * alpha + 2.0) * 5.0))
        factor = 1.0 - (2.0 * rho - 1.0) ** 3
        assert 1.0 / 3.0 < factor < 1.0
        assert damping == [pytest.approx(mu0, rel=1e-9)]
        assert mu == pytest.approx(mu0 * factor, rel=1e-9)

    def test_consecutive_rejections_double_the_factor(self, monkeypatch):
        damping, _, trace, _ = self.run(
            monkeypatch, np.eye(2), max_iterations=2, rejected=(1, 2, 3, 5)
        )
        assert len(damping) == 6 and len(trace) == 3
        ratios = [b / a for a, b in zip(damping, damping[1:])]
        # x2, x4, x8 within the first iteration; nu is back at 2 after the accepted step
        assert ratios[:3] == [pytest.approx(r, rel=1e-9) for r in (2.0, 4.0, 8.0)]
        assert ratios[3] == pytest.approx(1.0 / 3.0, rel=1e-9)
        assert ratios[4] == pytest.approx(2.0, rel=1e-9)

    def test_zero_jacobian_with_zero_tolerance(self):
        # J = 0, as for a lone marker on the unsolved root: the gradient test with tolerance
        # 0 never fires, but the damping floor still gives a (zero) step and the solve ends.
        _, trace, iterations, termination, damping = _gauss_newton(
            FunctionObjective(lambda x: np.ones(2), lambda x: np.zeros((2, len(x))), 3),
            np.zeros(3), RetargetOptions(gradient_tol=0.0),
        )
        assert (termination, iterations, trace) == ("small_decrease", 1, [2.0, 2.0])
        assert 0 < damping < np.inf

    def test_uphill_stalls(self, monkeypatch):
        damping, mu, trace, termination = self.run(
            monkeypatch, -np.eye(2), max_iterations=5, slope=np.eye(2)
        )
        assert termination == "stalled" and trace == [5.0]
        assert damping[-1] <= retarget.DAMPING_MAX < mu
        ratios = [b / a for a, b in zip(damping, damping[1:])]
        assert ratios == [pytest.approx(2.0 ** (k + 1), rel=1e-6) for k in range(len(ratios))]


def test_decrease_stop_keeps_objective(monkeypatch):
    """Cold solves onto g1_like_21 end within 1% of the objective of the gradient-only solve."""
    human = load_example_skeleton("human_24")
    robot = load_example_skeleton("g1_like_21")
    corr = load_example_correspondence("human_to_g1", human, robot)
    rng = np.random.default_rng(20261018)
    poses = [twist_free_pose(human, rng, max_angle=1.0) for _ in range(4)]
    opts = RetargetOptions(warm_start=False)
    _, fast = retarget_sequence(human, poses, robot, corr, opts)
    monkeypatch.setattr(retarget, "RELATIVE_DECREASE_TOL", 0.0)
    _, oracle = retarget_sequence(human, poses, robot, corr, opts)
    assert sum(r.iterations for r in fast) < sum(r.iterations for r in oracle)
    for a, b in zip(fast, oracle):
        assert a.objective == pytest.approx(b.objective, rel=0.01)


class TestLegScale:
    HUMAN_CHAIN, ROBOT_CHAIN = ["l_hip", "l_knee", "l_ankle"], ["l_hip_yaw", "l_knee", "l_ankle"]

    @pytest.mark.parametrize("robot, scale", [("h1_like_19", 1.0256), ("g1_like_21", 0.7692)])
    def test_bundled_chains(self, robot, scale):
        human, robot = load_example_skeleton("human_24"), load_example_skeleton(robot)
        got = retarget.leg_scale(human, robot, self.HUMAN_CHAIN, self.ROBOT_CHAIN)
        assert got == pytest.approx(scale, abs=1e-4)

    @pytest.mark.parametrize("side", ["human", "robot"])
    def test_every_chain_joint_is_checked(self, side):
        # The length sums the joints after the first, but a typo in the first is refused too.
        human, robot = load_example_skeleton("human_24"), load_example_skeleton("h1_like_19")
        chains = {"human": list(self.HUMAN_CHAIN), "robot": list(self.ROBOT_CHAIN)}
        chains[side][0] = "TYPO"
        with pytest.raises(ValidationError, match="scale chain joint 'TYPO' is not in"):
            retarget.leg_scale(human, robot, chains["human"], chains["robot"])
