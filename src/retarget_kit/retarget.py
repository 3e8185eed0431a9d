"""Per-frame retargeting of human poses onto a robot skeleton.

Each frame minimizes a weighted least-squares objective over the robot
joint values: position terms pull corresponding markers toward the scaled
human targets, orientation terms penalize the geodesic frame error, and
regularizers cover joint limits, frame-to-frame smoothness, and a
reference posture. The solver is damped Gauss-Newton with analytic
Jacobians (one forward-kinematics pass per iteration) and backtracking on
the damping parameter; accepted steps never increase the objective. The
root transform is taken from the scaled human root and is not optimized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteObjective, ValidationError
from .rotations import Rotation, _right_jacobian, _right_jacobian_inv
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
        for name in ("limit_weight", "smoothness_weight", "reference_weight"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")


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


def _barrier_bounds(lo, hi):
    """Where the limit barrier starts: LIMIT_MARGIN inside each limit, less on narrow ranges."""
    margin = min(LIMIT_MARGIN, 0.25 * (hi - lo))
    return lo + margin, hi - margin


def _limit_residuals(skeleton, values, opts):
    """One-sided quadratic barrier starting inside each limit, two rows per limited DoF."""
    if opts.limit_weight == 0:
        return np.zeros(0)
    w = np.sqrt(opts.limit_weight)
    out = []
    for _, _, v, lo, hi in limited_dofs(skeleton, values):
        lo, hi = _barrier_bounds(lo, hi)
        out.append(w * max(0.0, v - hi))
        out.append(w * max(0.0, lo - v))
    return np.array(out)


def _limited_value_gradient(skeleton, joint, k, values):
    """Gradient over all joint values of the k-th limited value of `joint`.

    A revolute value is its own joint value. A spherical joint's limited
    values are Euler angles of its rotation vector; that map is cheap and
    calls no forward kinematics, so it is central-differenced.
    """
    sl = skeleton.dof_slices[skeleton.index[joint.name]]
    grad = np.zeros(len(values))
    if joint.dof == "revolute":
        grad[sl] = 1.0
        return grad
    v = values[sl]
    for m in range(3):
        h = np.zeros(3)
        h[m] = EULER_STEP
        up = _intrinsic_xyz_euler(_local_matrix(joint, v + h))[k]
        down = _intrinsic_xyz_euler(_local_matrix(joint, v - h))[k]
        grad[sl.start + m] = (up - down) / (2.0 * EULER_STEP)
    return grad


def _limit_jacobian(skeleton, values, opts):
    """Jacobian of `_limit_residuals`: +-sqrt(limit_weight) times the gradient on active rows."""
    n = len(values)
    if opts.limit_weight == 0:
        return np.zeros((0, n))
    w = np.sqrt(opts.limit_weight)
    rows = []
    for joint, k, v, lo, hi in limited_dofs(skeleton, values):
        lo, hi = _barrier_bounds(lo, hi)
        upper, lower = np.zeros(n), np.zeros(n)
        if v > hi:
            upper = w * _limited_value_gradient(skeleton, joint, k, values)
        elif v < lo:
            lower = -w * _limited_value_gradient(skeleton, joint, k, values)
        rows += [upper, lower]
    return np.array(rows).reshape(-1, n)


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


def _term_jacobian(skeleton, terms):
    """Rows of the term residuals' Jacobian, as a function of (FkResult, values).

    Joint k's DoF turn joint k and everything below it at world angular
    rates, one 3-vector per column: R_k axis for a revolute DoF, the
    columns of R_k J_r(phi) for a spherical rotation vector phi. A marker x
    on joint k or below then moves at rate x (x - p_k), and an orientation
    error e = log(R_j^T R_t) at -J_r^{-1}(e) R_t^T rate. Columns of joints
    that are not on the marker joint's path to the root are zero; that mask
    and the row layout are fixed per solve and built here once.
    """
    n = skeleton.total_dof
    col_joint = np.repeat(
        np.arange(len(skeleton.joints)), [j.dof_count for j in skeleton.joints]
    )
    revolute = np.array(
        [i for i, j in enumerate(skeleton.joints) if j.dof == "revolute"], dtype=int
    )
    rev_col = np.array([skeleton.dof_slices[i].start for i in revolute], dtype=int)
    rev_axis = np.array([skeleton.joints[i].axis for i in revolute]).reshape(-1, 3)
    spherical = [
        (i, skeleton.dof_slices[i])
        for i, j in enumerate(skeleton.joints)
        if j.dof == "spherical"
    ]
    marker_joint = np.array([marker[0] for _, marker, _, _ in terms], dtype=int)
    marker_offset = np.array([marker[1] for _, marker, _, _ in terms])
    mask = np.zeros((len(terms), n))
    for t, j in enumerate(marker_joint):
        while j >= 0:
            mask[t, col_joint == j] = 1.0
            j = skeleton.parent_index[j]
    position_scale = mask * np.array([np.sqrt(p.position_weight) for p, *_ in terms])[:, None]
    orientation = []
    keep = []  # rows of the (term, 6) stack that the residual has, in its order
    for t, (pair, _, _, frame) in enumerate(terms):
        if pair.position_weight > 0:
            keep += [6 * t, 6 * t + 1, 6 * t + 2]
        if frame is not None:
            keep += [6 * t + 3, 6 * t + 4, 6 * t + 5]
            orientation.append((t, np.sqrt(pair.orientation_weight), frame))
    keep = np.array(keep, dtype=int)

    def rows(res, values):
        rates = np.empty((n, 3))
        rates[rev_col] = np.einsum("cij,cj->ci", res.rotations[revolute], rev_axis)
        for i, sl in spherical:
            rates[sl] = (res.rotations[i] @ _right_jacobian(values[sl])).T
        markers = res.positions[marker_joint] + np.einsum(
            "tij,tj->ti", res.rotations[marker_joint], marker_offset
        )
        lever = markers[:, None, :] - res.positions[col_joint]  # (term, column, 3)
        out = np.zeros((len(terms), 6, n))
        w0, w1, w2 = rates.T
        out[:, 0] = w1 * lever[..., 2] - w2 * lever[..., 1]
        out[:, 1] = w2 * lever[..., 0] - w0 * lever[..., 2]
        out[:, 2] = w0 * lever[..., 1] - w1 * lever[..., 0]
        out[:, :3] *= position_scale[:, None, :]
        for t, w, frame in orientation:
            e = Rotation(res.rotations[marker_joint[t]].T @ frame).as_rotvec()
            out[t, 3:] = (-w * _right_jacobian_inv(e) @ frame.T) @ (rates.T * mask[t])
        return out.reshape(-1, n)[keep]

    return rows


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
    term_rows = _term_jacobian(skeleton, terms)
    eye = np.eye(skeleton.total_dof)
    evals = {"residual": 0, "jacobian": 0}

    def residual(values):
        evals["residual"] += 1
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

    def jacobian(values):
        evals["jacobian"] += 1
        res = fk(skeleton, Pose(root_position, root_orientation, values))
        parts = [term_rows(res, values), _limit_jacobian(skeleton, values, opts)]
        if w_smooth:
            parts.append(w_smooth * eye)
        if w_ref:
            parts.append(w_ref * eye)
        return np.concatenate(parts)

    x, trace, iterations, termination = _gauss_newton(residual, jacobian, x0, opts)
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
