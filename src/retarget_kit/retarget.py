"""Per-frame retargeting of human poses onto a robot skeleton.

Each frame minimizes a weighted least-squares objective over the robot
joint values: position terms pull corresponding markers toward the scaled
human targets, orientation terms penalize the geodesic frame error, and
regularizers cover joint limits, frame-to-frame smoothness, and a
reference posture. The solver is damped Gauss-Newton with central
finite-difference Jacobians and backtracking on the damping parameter;
accepted steps never increase the objective. The root transform is taken
from the scaled human root and is not optimized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteObjective, ValidationError
from .rotations import Rotation
from .skeleton import (
    JointTrajectory,
    Pose,
    _intrinsic_xyz_euler,
    _local_matrix,
    _rodrigues_matrix,
    check_limits,
    fk,
    limited_dofs,
    resolve_marker,
)

LIMIT_MARGIN = 0.05  # the limit barrier starts this far inside each limit, radians
FD_STEP = 1e-6  # central finite-difference step of the Jacobian
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
        for name in ("limit_weight", "smoothness_weight", "reference_weight"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")


@dataclass
class RetargetReport:
    objective: float
    iterations: int
    converged: bool
    position_residuals: dict
    orientation_residuals: dict
    limit_violation_count: int
    objective_trace: list
    carried_forward: bool = False


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


def _gauss_newton(residual_fn, x0, opts):
    """Damped Gauss-Newton with central-difference Jacobians.

    Returns (x, objective_trace, iterations, converged). Accepted steps are
    monotone nonincreasing in the objective; `converged` means the gradient
    infinity-norm dropped below tolerance.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual_fn(x)
    f = float(r @ r)
    if not np.isfinite(f):
        raise NonFiniteObjective(f"objective at start point is {f}")
    trace = [f]
    mu = DAMPING_INIT
    converged = False
    n = len(x)
    iterations = 0
    eye = np.eye(n)
    for _ in range(opts.max_iterations):
        iterations += 1
        jac = np.empty((len(r), n))
        h = FD_STEP
        for i in range(n):
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            jac[:, i] = (residual_fn(xp) - residual_fn(xm)) / (2.0 * h)
        g = 2.0 * (jac.T @ r)
        if np.max(np.abs(g)) < opts.gradient_tol:
            converged = True
            break
        jtj = jac.T @ jac
        jtr = jac.T @ r
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
            break  # no descent direction at any damping: local minimum
    return x, trace, iterations, converged


def _limit_residuals(skeleton, values, opts):
    """One-sided quadratic barrier starting LIMIT_MARGIN inside each limit."""
    if opts.limit_weight == 0:
        return np.zeros(0)
    w = np.sqrt(opts.limit_weight)
    out = []
    for _, _, v, lo, hi in limited_dofs(skeleton, values):
        margin = min(LIMIT_MARGIN, 0.25 * (hi - lo))
        out.append(w * max(0.0, v - (hi - margin)))
        out.append(w * max(0.0, (lo + margin) - v))
    return np.array(out)


def _project_to_limits(skeleton, values):
    out = values.copy()
    for i, joint in enumerate(skeleton.joints):
        sl = skeleton.dof_slices[i]
        # Fold spherical rotation vectors onto the principal branch
        # (norm <= pi); the solver may wander off it by multiples of 2*pi.
        if joint.dof == "spherical" and np.linalg.norm(out[sl]) > np.pi:
            out[sl] = Rotation.from_rotvec(out[sl]).as_rotvec()
        if not joint.limits:
            continue
        if joint.dof == "revolute":
            lo, hi = joint.limits[0]
            out[sl] = np.clip(out[sl], lo, hi)
        elif joint.dof == "spherical":
            euler = _intrinsic_xyz_euler(_local_matrix(joint, out[sl]))
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


def _term_errors(res, marker, point, frame):
    """Marker position error, and its rotation-vector frame error unless frame is None."""
    j, offset = marker
    position = res.point(j, offset) - point
    if frame is None:
        return position, None
    return position, Rotation(res.rotations[j].T @ frame).as_rotvec()


def _solve(skeleton, root_position, root_orientation, terms, x0, opts, smooth_to=None):
    """Minimize the retarget objective over joint values with the root held fixed.

    A term is (CorrespondencePair, robot marker from resolve_marker, world
    target point, world target frame or None); the pair gives the weights.
    Rows, in order: each term's weighted position and orientation errors,
    the limit barrier, smoothness toward `smooth_to`, and the zero-posture
    reference. The answer is projected into the joint limits; returns
    (Pose, RetargetReport).
    """
    w_ref = np.sqrt(opts.reference_weight) if opts.reference_weight > 0 else 0.0
    w_smooth = (
        np.sqrt(opts.smoothness_weight)
        if (opts.smoothness_weight > 0 and smooth_to is not None)
        else 0.0
    )

    def residual(values):
        res = fk(skeleton, Pose(root_position, root_orientation, values))
        parts = []
        for pair, marker, point, frame in terms:
            position, orientation = _term_errors(res, marker, point, frame)
            if pair.position_weight > 0:
                parts.append(np.sqrt(pair.position_weight) * position)
            if orientation is not None:
                parts.append(np.sqrt(pair.orientation_weight) * orientation)
        parts.append(_limit_residuals(skeleton, values, opts))
        if w_smooth:
            parts.append(w_smooth * (values - smooth_to))
        if w_ref:
            parts.append(w_ref * values)
        return np.concatenate(parts)

    x, trace, iterations, converged = _gauss_newton(residual, x0, opts)
    x = _project_to_limits(skeleton, x)
    pose = Pose(root_position, root_orientation, x)

    res = fk(skeleton, pose)
    pos_residuals = {}
    rot_residuals = {}
    for pair, marker, point, frame in terms:
        position, orientation = _term_errors(res, marker, point, frame)
        pos_residuals[pair.robot] = float(np.linalg.norm(position))
        if orientation is not None:
            rot_residuals[pair.robot] = float(np.linalg.norm(orientation))
    r = residual(x)
    report = RetargetReport(
        objective=float(r @ r),
        iterations=iterations,
        converged=converged,
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
    pose is hard-projected into the joint limits after the solve, so its
    limit-violation count is always zero.
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
                converged=False,
                position_residuals={},
                orientation_residuals={},
                limit_violation_count=0,
                objective_trace=[],
                carried_forward=True,
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
