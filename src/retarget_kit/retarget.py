"""Per-frame retargeting of human poses onto a robot skeleton.

Each frame minimizes a weighted least-squares objective over the robot
joint values: position terms pull corresponding markers toward the scaled
human targets, orientation terms penalize the geodesic frame error, and
regularizers cover joint limits, frame-to-frame smoothness, and a
reference posture. The solver is damped Gauss-Newton with analytic
Jacobians and backtracking on the damping parameter; accepted steps never
increase the objective. Each distinct pose costs one forward-kinematics
pass, shared by its residual, its Jacobian and the report. The
root transform is taken from the scaled human root and is not optimized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .errors import NonFiniteObjective, ValidationError
from .rotations import Rotation, _right_jacobian, _right_jacobian_inv, _rodrigues_matrix
from .skeleton import (
    JointTrajectory,
    Pose,
    _intrinsic_xyz_euler,
    check_limits,
    fk,
    resolve_marker,
)

LIMIT_MARGIN = 0.05  # the limit barrier starts this far inside each limit, radians
EULER_STEP = 1e-6  # central-difference step of the Euler-angle map of limited spherical joints
DAMPING_INIT = 1e-3
DAMPING_INCREASE = 10.0  # damping factor after a rejected step
DAMPING_DECREASE = 3.0  # damping divisor after an accepted step
DAMPING_MAX = 1e12  # give up on the iteration beyond this damping


@dataclass(frozen=True)
class CorrespondencePair:
    human: str
    robot: str
    position_weight: float = 1.0
    orientation_weight: float = 0.0


@dataclass(frozen=True)
class CorrespondenceSet:
    """Marker pairing plus the uniform human-to-robot length scale."""

    pairs: tuple
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ValidationError(f"scale must be finite and positive, got {self.scale}")
        for p in self.pairs:
            if not (
                np.isfinite(p.position_weight)
                and np.isfinite(p.orientation_weight)
                and p.position_weight >= 0
                and p.orientation_weight >= 0
            ):
                raise ValidationError(f"bad weights on pair {p.human}->{p.robot}")
        if not any(p.position_weight > 0 for p in self.pairs):
            raise ValidationError("need at least one pair with position weight > 0")


@dataclass(frozen=True)
class RetargetOptions:
    limit_weight: float = 10.0
    smoothness_weight: float = 0.1
    reference_weight: float = 1e-3
    max_iterations: int = 100
    gradient_tol: float = 1e-6
    warm_start: bool = True

    def __post_init__(self):
        for name in ("limit_weight", "smoothness_weight", "reference_weight", "gradient_tol"):
            value = getattr(self, name)
            if not (isinstance(value, Real) and np.isfinite(value) and value >= 0):
                raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}")
        if not (
            isinstance(self.max_iterations, Integral)
            and not isinstance(self.max_iterations, bool)
            and self.max_iterations >= 1
        ):
            raise ValidationError(
                f"max_iterations must be an integer >= 1, got {self.max_iterations!r}"
            )


TERMINATIONS = ("converged", "stalled", "max_iterations", "carried_forward")


@dataclass
class RetargetReport:
    """How one frame's solve went.

    `objective` is the objective at the returned pose, after projection
    into the joint limits; `objective_trace` holds the solver's accepted
    iterates, before projection. `termination` is one of TERMINATIONS:
    the gradient fell below tolerance, no damping gave descent, the
    iteration cap was hit, or the frame failed numerically and repeats the
    previous solution. `residual_evals` and `jacobian_evals` count the
    evaluations the solve made.
    """

    objective: float
    iterations: int
    termination: str
    residual_evals: int
    jacobian_evals: int
    position_residuals: dict
    orientation_residuals: dict
    limit_violation_count: int
    objective_trace: list

    @property
    def converged(self):
        return self.termination == "converged"

    @property
    def carried_forward(self):
        return self.termination == "carried_forward"


def leg_scale(human_skeleton, robot_skeleton, human_chain, robot_chain):
    """Uniform scale: robot chain length over human chain length."""

    def chain_length(skel, names):
        total = 0.0
        for name in names[1:]:
            total += float(np.linalg.norm(skel.joint(name).offset))
        return total

    h = chain_length(human_skeleton, human_chain)
    r = chain_length(robot_skeleton, robot_chain)
    if h <= 0 or r <= 0:
        raise ValidationError("scale chains have zero length")
    return r / h


def _gauss_newton(residual_fn, jacobian_fn, x0, opts):
    """Damped Gauss-Newton on the residual and its Jacobian.

    Returns (x, objective_trace, iterations, termination). Accepted steps
    are monotone nonincreasing in the objective; termination is
    "converged" once the gradient infinity-norm drops below tolerance,
    "stalled" when no damping gives descent, else "max_iterations".
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual_fn(x)
    f = float(r @ r)
    if not np.isfinite(f):
        raise NonFiniteObjective(f"objective at start point is {f}")
    trace = [f]
    mu = DAMPING_INIT
    termination = "max_iterations"
    iterations = 0
    eye = np.eye(len(x))
    for _ in range(opts.max_iterations):
        iterations += 1
        jac = jacobian_fn(x)
        jtr = jac.T @ r
        if np.max(np.abs(2.0 * jtr)) < opts.gradient_tol:
            termination = "converged"
            break
        jtj = jac.T @ jac
        accepted = False
        while mu <= DAMPING_MAX:
            try:
                step = np.linalg.solve(jtj + mu * eye, jtr)
            except np.linalg.LinAlgError:
                mu *= DAMPING_INCREASE
                continue
            x_new = x - step
            r_new = residual_fn(x_new)
            f_new = float(r_new @ r_new)
            if np.isfinite(f_new) and f_new <= f:
                x, r, f = x_new, r_new, f_new
                trace.append(f)
                mu = max(mu / DAMPING_DECREASE, 1e-12)
                accepted = True
                break
            mu *= DAMPING_INCREASE
        if not accepted:
            termination = "stalled"
            break
    return x, trace, iterations, termination


def _euler_jacobian(values):
    """(3, 3) Jacobian of the intrinsic XYZ Euler angles of a rotation vector.

    That map is cheap and calls no forward kinematics, so it is
    central-differenced.
    """
    jac = np.empty((3, 3))
    for m in range(3):
        h = np.zeros(3)
        h[m] = EULER_STEP
        up = _intrinsic_xyz_euler(Rotation.from_rotvec(values + h).matrix)
        down = _intrinsic_xyz_euler(Rotation.from_rotvec(values - h).matrix)
        jac[:, m] = (up - down) / (2.0 * EULER_STEP)
    return jac


class _LimitBarrier:
    """One-sided quadratic barrier starting inside each limit, two rows per limited DoF.

    For each value v of the skeleton plan's `limited_values`, the rows are
    w * max(0, v - hi') and w * max(0, lo' - v), with (lo', hi')
    LIMIT_MARGIN inside the limits, less on narrow ranges, and w the square
    root of the limit weight. Their Jacobian rows are +-w times the
    gradient of v on active rows.
    """

    def __init__(self, skeleton, w):
        self.plan = skeleton._plan
        self.w = w
        margin = np.minimum(LIMIT_MARGIN, 0.25 * (self.plan.hi - self.plan.lo))
        self.lo, self.hi = self.plan.lo + margin, self.plan.hi - margin

    def residual(self, values):
        v = self.plan.limited_values(values)
        rows = np.stack([v - self.hi, self.lo - v], axis=1)
        # np.where(d > 0, d, 0) is max(0, d) row by row, NaN included
        return (self.w * np.where(rows > 0.0, rows, 0.0)).reshape(-1)

    def jacobian(self, values):
        plan = self.plan
        v = plan.limited_values(values)
        upper, lower = v > self.hi, v < self.lo
        grad = np.zeros((len(v), len(values)))
        grad[np.arange(len(v)), plan.limit_col] = 1.0
        for first, sl in plan.euler:
            if np.any((upper | lower)[first : first + 3]):
                grad[first : first + 3, sl] = _euler_jacobian(values[sl])
        # A lower row is -w times a gradient, so it reads -0.0 off the columns v does
        # not depend on; the sign of a zero can reach the step and the motion written.
        out = np.zeros((len(v), 2, len(values)))
        out[upper, 0] = self.w * grad[upper]
        out[lower, 1] = -self.w * grad[lower]
        return out.reshape(-1, len(values))


def _project_to_limits(skeleton, values):
    """Clip every limited value of the skeleton plan's `limited_values` into its limits.

    Spherical rotation vectors are first folded onto the principal branch
    (norm <= pi); the solver may wander off it by multiples of 2*pi. An
    Euler-limited spherical joint is rebuilt from its clipped Euler angles
    only if they are not `np.allclose` to its own, so it may stay up to
    1e-8 + 1e-5 * |angle| past a limit.
    """
    plan = skeleton._plan
    out = values.copy()
    for cols in plan.spherical_cols:
        if np.linalg.norm(out[cols]) > np.pi:
            out[cols] = Rotation.from_rotvec(out[cols]).as_rotvec()
    v = plan.limited_values(out)
    clipped = np.clip(v, plan.lo, plan.hi)
    revolute = plan.limited_revolute
    out[plan.limit_col[revolute]] = clipped[revolute]
    x, y, z = np.eye(3)
    for first, sl in plan.euler:
        a, b, c = euler = clipped[first : first + 3]
        if not np.allclose(euler, v[first : first + 3]):
            m = _rodrigues_matrix(x, a) @ _rodrigues_matrix(y, b) @ _rodrigues_matrix(z, c)
            out[sl] = Rotation(m).as_rotvec()
    return out


class _Terms:
    """A solve's terms as arrays, the row layout of their residual, and its Jacobian.

    Per term: the robot marker's joint and local offset, the world target
    point, and the square root of its position weight. `framed` lists
    (term, square root of the orientation weight, world target frame) for
    the terms with a frame. Each term owns six rows of a (term, 6) stack,
    three position and three orientation rows; `keep` selects, in order,
    the rows the residual has: position rows of terms with position weight,
    orientation rows of framed terms. `mask` is 1.0 on the columns that
    move each term's marker joint, from the skeleton plan's `moves`.
    """

    def __init__(self, skeleton, terms):
        keep = []
        framed = []
        for t, (pair, _, _, frame) in enumerate(terms):
            if pair.position_weight > 0:
                keep += [6 * t, 6 * t + 1, 6 * t + 2]
            if frame is not None:
                keep += [6 * t + 3, 6 * t + 4, 6 * t + 5]
                framed.append((t, np.sqrt(pair.orientation_weight), frame))
        self.plan = skeleton._plan
        self.joint = np.array([marker[0] for _, marker, _, _ in terms], dtype=int)
        self.offset = np.array([marker[1] for _, marker, _, _ in terms]).reshape(-1, 3)
        self.point = np.array([point for _, _, point, _ in terms]).reshape(-1, 3)
        self.position_scale = np.sqrt([pair.position_weight for pair, *_ in terms])
        self.framed = tuple(framed)
        self.keep = np.array(keep, dtype=int)
        self.mask = self.plan.moves[self.joint]
        self.position_mask = self.mask * self.position_scale[:, None]

    def errors(self, res):
        """(term, 3) marker position errors, and the rotation-vector error of each framed term."""
        rot = res.rotations[self.joint]
        position = res.positions[self.joint] + (rot @ self.offset[:, :, None])[..., 0]
        orientation = [
            Rotation(rot[t].T @ frame).as_rotvec() for t, _, frame in self.framed
        ]
        return position - self.point, orientation

    def residual(self, position, orientation):
        """The weighted term rows, in order, from `errors`."""
        out = np.zeros((len(self.joint), 6))
        out[:, :3] = self.position_scale[:, None] * position
        for (t, w, _), e in zip(self.framed, orientation):
            out[t, 3:] = w * e
        return out.reshape(-1)[self.keep]

    def jacobian(self, res, orientation, values):
        """Rows of the residual's Jacobian, from the FkResult and orientation errors at values.

        Joint k's DoF turn joint k and everything below it at world angular
        rates, one 3-vector per column: R_k axis for a revolute DoF, the
        columns of R_k J_r(phi) for a spherical rotation vector phi. A
        marker x on joint k or below then moves at rate x (x - p_k), and an
        orientation error e = log(R_j^T R_t) at -J_r^{-1}(e) R_t^T rate.
        """
        plan, n = self.plan, len(values)
        rates = np.empty((n, 3))
        rates[plan.revolute_col] = np.einsum("cij,cj->ci", res.rotations[plan.revolute], plan.axes)
        for i, cols in zip(plan.spherical, plan.spherical_cols):
            rates[cols] = (res.rotations[i] @ _right_jacobian(values[cols])).T
        markers = res.positions[self.joint] + np.einsum(
            "tij,tj->ti", res.rotations[self.joint], self.offset
        )
        lever = markers[:, None, :] - res.positions[plan.col_joint]  # (term, column, 3)
        out = np.zeros((len(self.joint), 6, n))
        w0, w1, w2 = rates.T
        out[:, 0] = w1 * lever[..., 2] - w2 * lever[..., 1]
        out[:, 1] = w2 * lever[..., 0] - w0 * lever[..., 2]
        out[:, 2] = w0 * lever[..., 1] - w1 * lever[..., 0]
        out[:, :3] *= self.position_mask[:, None, :]
        for (t, w, frame), e in zip(self.framed, orientation):
            out[t, 3:] = (-w * _right_jacobian_inv(e) @ frame.T) @ (rates.T * self.mask[t])
        return out.reshape(-1, n)[self.keep]


def _solve(skeleton, root_position, root_orientation, terms, x0, opts, smooth_to=None):
    """Minimize the retarget objective over joint values with the root held fixed.

    A term is (CorrespondencePair, robot marker from resolve_marker, world
    target point, world target frame or None); the pair gives the weights.
    Rows, in order: each term's weighted position and orientation errors,
    the limit barrier, smoothness toward `smooth_to`, and the zero-posture
    reference. The answer is projected into the joint limits; returns
    (Pose, RetargetReport).
    """
    if skeleton.total_dof == 0:
        raise ValidationError(f"skeleton '{skeleton.name}' has no degrees of freedom to solve")
    w_ref = np.sqrt(opts.reference_weight) if opts.reference_weight > 0 else 0.0
    w_smooth = (
        np.sqrt(opts.smoothness_weight)
        if (opts.smoothness_weight > 0 and smooth_to is not None)
        else 0.0
    )
    layout = _Terms(skeleton, terms)
    barrier = (
        _LimitBarrier(skeleton, np.sqrt(opts.limit_weight)) if opts.limit_weight > 0 else None
    )
    eye = np.eye(skeleton.total_dof)
    evals = {"residual": 0, "jacobian": 0}
    last = {}  # one slot: joint-value bytes -> (FkResult, term errors) of the last pose

    def evaluate(values):
        key = values.tobytes()
        if key not in last:
            last.clear()
            res = fk(skeleton, Pose(root_position, root_orientation, values))
            last[key] = res, layout.errors(res)
        return last[key]

    def residual(values):
        evals["residual"] += 1
        parts = [layout.residual(*evaluate(values)[1])]
        if barrier:
            parts.append(barrier.residual(values))
        if w_smooth:
            parts.append(w_smooth * (values - smooth_to))
        if w_ref:
            parts.append(w_ref * values)
        return np.concatenate(parts)

    def jacobian(values):
        evals["jacobian"] += 1
        res, (_, orientation) = evaluate(values)
        parts = [layout.jacobian(res, orientation, values)]
        if barrier:
            parts.append(barrier.jacobian(values))
        if w_smooth:
            parts.append(w_smooth * eye)
        if w_ref:
            parts.append(w_ref * eye)
        return np.concatenate(parts)

    x, trace, iterations, termination = _gauss_newton(residual, jacobian, x0, opts)
    x = _project_to_limits(skeleton, x)
    pose = Pose(root_position, root_orientation, x)

    _, (position, orientation) = evaluate(x)
    pos_residuals = {
        pair.robot: float(np.linalg.norm(e)) for (pair, *_), e in zip(terms, position)
    }
    rot_residuals = {
        terms[t][0].robot: float(np.linalg.norm(e))
        for (t, _, _), e in zip(layout.framed, orientation)
    }
    r = residual(x)
    report = RetargetReport(
        objective=float(r @ r),
        iterations=iterations,
        termination=termination,
        residual_evals=evals["residual"],
        jacobian_evals=evals["jacobian"],
        position_residuals=pos_residuals,
        orientation_residuals=rot_residuals,
        limit_violation_count=len(check_limits(skeleton, pose)),
        objective_trace=trace,
    )
    return pose, report


def retarget_frame(
    human_skeleton,
    human_pose,
    robot_skeleton,
    corr,
    opts=RetargetOptions(),
    warm_start=None,
    smooth_to=None,
):
    """Solve one frame; returns (robot Pose, RetargetReport).

    Targets are the scaled human marker positions and frames. The returned
    pose is hard-projected into the joint limits after the solve: revolute
    values end inside them, but an Euler-limited spherical joint may stay up
    to 1e-8 + 1e-5 * |angle| past a limit (see `_project_to_limits`) and
    count in the report's `limit_violation_count`.
    """
    res = fk(human_skeleton, human_pose)
    terms = []
    for pair in corr.pairs:
        j, offset = resolve_marker(human_skeleton, pair.human)
        point = corr.scale * res.point(j, offset)
        frame = res.rotations[j] if pair.orientation_weight > 0 else None
        terms.append((pair, resolve_marker(robot_skeleton, pair.robot), point, frame))
    x0 = (
        warm_start.joint_values
        if warm_start is not None
        else np.zeros(robot_skeleton.total_dof)
    )
    return _solve(
        robot_skeleton,
        corr.scale * res.positions[0],
        Rotation(res.rotations[0]),
        terms,
        x0,
        opts,
        smooth_to,
    )


def retarget_sequence(
    human_skeleton,
    human_poses,
    robot_skeleton,
    corr,
    opts=RetargetOptions(),
    fps=30.0,
):
    """Retarget a pose sequence; frame t warm-starts from frame t-1.

    A frame whose solve fails numerically is replaced by the previous
    solution and flagged `carried_forward` in its report.
    """
    if not human_poses:
        raise ValidationError("empty human pose sequence")
    poses = []
    reports = []
    prev = None
    for human_pose in human_poses:
        try:
            pose, report = retarget_frame(
                human_skeleton,
                human_pose,
                robot_skeleton,
                corr,
                opts,
                warm_start=prev if opts.warm_start else None,
                smooth_to=None if prev is None else prev.joint_values,
            )
        except NonFiniteObjective:
            if prev is None:
                raise
            pose = prev
            report = RetargetReport(
                objective=float("nan"),
                iterations=0,
                termination="carried_forward",
                residual_evals=1,  # the non-finite start point
                jacobian_evals=0,
                position_residuals={},
                orientation_residuals={},
                limit_violation_count=0,
                objective_trace=[],
            )
        poses.append(pose)
        reports.append(report)
        prev = pose
    return JointTrajectory(fps=fps, poses=poses, skeleton=robot_skeleton.name), reports


def retarget_hand(
    fingertip_targets,
    hand_skeleton,
    fingertip_pairs,
    opts=RetargetOptions(),
    wrist_position=None,
    wrist_orientation=None,
):
    """Solve hand joint angles so fingertip markers reach the given points.

    `fingertip_pairs` are CorrespondencePairs naming the robot markers, one
    per target point, weighted by `position_weight`. The wrist (hand-skeleton
    root) transform is held fixed; only fingertip position terms and the
    joint-limit regularizer enter the objective.
    """
    fingertip_pairs = tuple(fingertip_pairs)
    if not fingertip_pairs:
        raise ValidationError("need at least one fingertip pair")
    if any(p.orientation_weight > 0 for p in fingertip_pairs):
        raise ValidationError("fingertip targets are points: pairs take no orientation weight")
    targets = [np.asarray(t, dtype=float).reshape(3) for t in fingertip_targets]
    if len(targets) != len(fingertip_pairs):
        raise ValidationError(
            f"{len(targets)} fingertip targets for {len(fingertip_pairs)} pairs"
        )
    root_position = (
        np.zeros(3) if wrist_position is None else np.asarray(wrist_position, float)
    )
    root_orientation = wrist_orientation or Rotation.identity()
    terms = [
        (p, resolve_marker(hand_skeleton, p.robot), target, None)
        for p, target in zip(fingertip_pairs, targets)
    ]
    pose, _ = _solve(
        hand_skeleton,
        root_position,
        root_orientation,
        terms,
        np.zeros(hand_skeleton.total_dof),
        replace(opts, reference_weight=0.0),
    )
    return pose
