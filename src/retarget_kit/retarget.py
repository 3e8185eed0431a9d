"""Per-frame retargeting of human poses onto a robot skeleton.

Each frame minimizes a weighted least-squares objective over the robot
joint values: position terms pull corresponding markers toward the scaled
human targets, orientation terms penalize the geodesic frame error, and
regularizers cover joint limits, frame-to-frame smoothness, and a
reference posture. The solver is damped Gauss-Newton (Levenberg-Marquardt)
with analytic Jacobians and Nielsen's gain-ratio update of the damping;
accepted steps never increase the objective. It stops when the gradient
vanishes or when an accepted step lowers the objective by less than
RELATIVE_DECREASE_TOL of its value. The root transform is taken from the
scaled human root and is not optimized. A call sets up once: one human
forward-kinematics pass for all frames and one objective, `_Objective`,
which lays out the pair terms, the limit barrier and the regularizer
rows and owns its workspace, the level-order FK buffers and the Jacobian
with its fixed regularizer rows. Per frame its `aim` takes the root, the
targets and the smoothing target, and the solver calls its `residual`,
`jacobian` and damped `step` methods, which write every row block
themselves; each distinct pose costs one forward-kinematics pass, which
the residual, the Jacobian and the report share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError, check_array, check_number
from .rotations import (
    Rotation,
    _exp_stack,
    _hat_stack,
    _log_floats,
    _norm,
    _right_jacobian,
    _right_jacobian_inv,
    _rodrigues_stack,
    _rotvec_stack,
)
from .skeleton import (
    JointTrajectory,
    Pose,
    _fk_arrays,
    _intrinsic_xyz_euler,
    fk,
    resolve_marker,
)

LIMIT_MARGIN = 0.05  # the limit barrier starts this far inside each limit, radians
EULER_STEP = 1e-6  # central-difference step of the Euler-angle map of limited spherical joints
DAMPING_TAU = 1e-3  # initial damping, relative to the largest diagonal entry of J^T J
DAMPING_MIN = 1e-12  # damping floor: a zero J^T J or a long run of shrinks never leaves it 0
DAMPING_MAX = 1e12  # give up on the iteration beyond this damping
RELATIVE_DECREASE_TOL = 1e-5  # stop once an accepted step lowers the objective by less

_LEVI_CIVITA = np.zeros((3, 3, 3))
_LEVI_CIVITA[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_LEVI_CIVITA[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = -1.0


@dataclass(frozen=True)
class CorrespondencePair:
    human: str
    robot: str
    position_weight: float = 1.0
    orientation_weight: float = 0.0

    def __post_init__(self):
        if not (isinstance(self.human, str) and isinstance(self.robot, str)):
            raise ValidationError(
                f"pair names must be strings, got {self.human!r:.40}, {self.robot!r:.40}"
            )
        for name in ("position_weight", "orientation_weight"):
            check_number(f"{name} of pair {self.human}->{self.robot}", getattr(self, name), ">= 0")


@dataclass(frozen=True)
class CorrespondenceSet:
    """Marker pairing plus the uniform human-to-robot length scale."""

    pairs: tuple
    scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        check_number("scale", self.scale, "> 0")
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
            check_number(name, getattr(self, name), ">= 0")
        check_number("max_iterations", self.max_iterations, "int >= 1")


TERMINATIONS = ("converged", "small_decrease", "stalled", "max_iterations")


@dataclass
class RetargetReport:
    """How one frame's solve went.

    `objective` is the objective at the returned pose, after projection
    into the joint limits; `objective_trace` holds the solver's accepted
    iterates, before projection. `termination` is one of TERMINATIONS:
    the gradient fell below tolerance, an accepted step lowered the
    objective by less than RELATIVE_DECREASE_TOL of it, no damping gave
    descent, or the iteration cap was hit. `converged` is true for the
    first two, the solver's convergence criteria. `residual_evals` and
    `jacobian_evals` count the evaluations the solve made; `damping` is
    the solver's final damping and `projection_displacement` the norm of
    the change the limit projection made to the solver's answer.
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
    damping: float
    projection_displacement: float

    @property
    def converged(self):
        return self.termination in ("converged", "small_decrease")


def leg_scale(human_skeleton, robot_skeleton, human_chain, robot_chain):
    """Uniform scale: robot chain length over human chain length.

    A chain is a list of joint names, each of them checked; its length sums
    the offsets of every joint after the first.
    """

    def chain_length(skel, names):
        for name in names:
            if name not in skel.index:
                raise ValidationError(
                    f"scale chain joint {name!r:.40} is not in skeleton '{skel.name}'"
                )
        total = 0.0
        for name in names[1:]:
            total += float(np.linalg.norm(skel.joint(name).offset))
        return total

    h = chain_length(human_skeleton, human_chain)
    r = chain_length(robot_skeleton, robot_chain)
    if h <= 0 or r <= 0:
        raise ValidationError("scale chains have zero length")
    return r / h


def _gauss_newton(objective, x0, opts):
    """Damped Gauss-Newton on an objective, with Nielsen's damping update.

    The objective's `residual(x)` and `jacobian(x)` give r and J at x, and
    its `step(jtj, jtr, mu)` solves (J^T J + mu I) step = J^T r.
    Returns (x, objective_trace, iterations, termination, damping). The
    damping mu starts at DAMPING_TAU * max diag(J^T J). A step is accepted
    when it does not increase the objective f = r^T r; mu then scales by
    max(1/3, 1 - (2 rho - 1)^3), with rho the actual over the predicted
    decrease, and the rejection factor nu resets to 2. A rejected step
    multiplies mu by nu and doubles nu (H. B. Nielsen, "Damping parameter in
    Marquardt's method", IMM-REP-1999-05). Accepted steps are monotone
    nonincreasing in the objective; termination is "converged" once the
    gradient infinity-norm drops below tolerance, "small_decrease" after an
    accepted step lowers f by at most RELATIVE_DECREASE_TOL * f, "stalled"
    when mu exceeds DAMPING_MAX without descent, else "max_iterations".
    """
    x = np.asarray(x0, dtype=float).copy()
    r = objective.residual(x)
    f = float(r @ r)
    if not math.isfinite(f):
        raise NumericError(f"objective at start point is {f}")
    trace = [f]
    mu = None
    termination = "max_iterations"
    iterations = 0
    for _ in range(opts.max_iterations):
        iterations += 1
        jac = objective.jacobian(x)
        jtr = jac.T @ r
        jtj = jac.T @ jac
        if mu is None:
            mu = max(DAMPING_TAU * float(jtj.diagonal().max()), DAMPING_MIN)
        if np.abs(2.0 * jtr).max() < opts.gradient_tol:
            termination = "converged"
            break
        nu = 2.0
        while mu <= DAMPING_MAX:
            try:
                step = objective.step(jtj, jtr, mu)
            except np.linalg.LinAlgError:
                mu *= nu
                nu *= 2.0
                continue
            x_new = x - step
            r_new = objective.residual(x_new)
            f_new = float(r_new @ r_new)
            if math.isfinite(f_new) and f_new <= f:
                # predicted decrease ||r||^2 - ||r - J step||^2; > 0 unless the step is 0
                predicted = float(step @ (mu * step + jtr))
                rho = (f - f_new) / predicted if predicted > 0.0 else 0.0
                # any rho >= 1 gives the 1/3 floor; clipping it keeps the cube from overflowing
                shrink = max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3)
                mu = max(mu * shrink, DAMPING_MIN)
                if f - f_new <= RELATIVE_DECREASE_TOL * f:
                    termination = "small_decrease"
                x, r, f = x_new, r_new, f_new
                trace.append(f)
                break
            mu *= nu
            nu *= 2.0
        else:  # no damping up to DAMPING_MAX gave descent
            termination = "stalled"
        if termination != "max_iterations":
            break
    return x, trace, iterations, termination, mu


def _euler_jacobian(values):
    """(..., 3, 3) Jacobians of the intrinsic XYZ Euler angles of (..., 3) rotation vectors.

    That map is cheap and calls no forward kinematics, so it is
    central-differenced, all six steps of every vector in one call.
    """
    v, h = values[..., None, :], EULER_STEP * np.eye(3)
    euler = _intrinsic_xyz_euler(_exp_stack(np.stack([v + h, v - h], axis=-3)))
    return ((euler[..., 0, :, :] - euler[..., 1, :, :]) / (2.0 * EULER_STEP)).swapaxes(-1, -2)


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
    if len(plan.spherical):
        far = plan.spherical_cols[_norm(out[plan.spherical_cols]) > np.pi]
        out[far] = _rotvec_stack(_exp_stack(out[far]))
    v = plan.limited_values(out)
    clipped = np.clip(v, plan.lo, plan.hi)
    revolute = plan.limited_revolute
    out[plan.limit_col[revolute]] = clipped[revolute]
    if len(plan.euler_rows):
        # np.allclose per joint, then Rx(a) Ry(b) Rz(c) from the clipped angles
        moved = ~np.isclose(clipped[plan.euler_rows], v[plan.euler_rows]).all(axis=1)
        xyz = _rodrigues_stack(clipped[plan.euler_rows[moved]], _hat_stack(np.eye(3)))
        out[plan.euler_cols[moved]] = _rotvec_stack(xyz[:, 0] @ xyz[:, 1] @ xyz[:, 2])
    return out


class _Objective:
    """The retarget objective of one skeleton, pair list and options, built once per call.

    Rows, in order: each pair's weighted position and orientation errors,
    the limit barrier, smoothness toward `smooth_to`, and the zero-posture
    reference. Nothing here but the targets depends on the frame: `aim`
    sets one frame's root, targets and smoothing target, and `solve` aims,
    hands the objective to `_gauss_newton`, which calls its `residual`,
    `jacobian` and `step`, and reports. The objective owns its workspace:
    the level-order FK buffers, one Jacobian with and one without the
    smoothness rows, whose w * I blocks are written here, and a one-slot
    cache of the last values' FK, markers, orientation errors and barrier
    excess. `residual_evals` and `jacobian_evals` count the current frame's
    calls.

    Pair terms: per pair the robot marker's joint and local offset and the
    square root of its position weight; the framed pairs, those with
    orientation weight, also have the square roots of their orientation
    weights. Their rows are stacked as the x, y and z position rows of all
    pairs, one block per axis, then three orientation rows per framed pair;
    `rows` selects from that stack, in residual order, each pair's position
    rows if it has position weight and its orientation rows if it is framed.
    FK results are read in level order, as `_fk_arrays` leaves them in its
    buffers, through the skeleton plan's `rank`.

    Limit barrier, when the limit weight is positive: for each value v of
    the skeleton plan's `limited_values`, the rows w * max(0, v - hi') and
    w * max(0, lo' - v), with (lo', hi') LIMIT_MARGIN inside the limits,
    less on narrow ranges, and w the square root of the limit weight. Their
    Jacobian rows are +-w times the gradient of v on active rows: a
    revolute value is its own column; only an Euler-limited spherical joint
    with an active row has its gradient differenced at each call.
    """

    def __init__(self, skeleton, pairs, opts):
        if skeleton.total_dof == 0:
            raise ValidationError(f"skeleton '{skeleton.name}' has no degrees of freedom to solve")
        plan, n, dof = skeleton._plan, len(pairs), skeleton.total_dof
        self.skeleton, self.plan, self.opts = skeleton, plan, opts
        self.w_limit, self.w_smooth, self.w_ref = (
            np.sqrt(w) if w > 0 else 0.0
            for w in (opts.limit_weight, opts.smoothness_weight, opts.reference_weight)
        )
        rows = []
        framed = [t for t, pair in enumerate(pairs) if pair.orientation_weight > 0]
        for t, pair in enumerate(pairs):
            if pair.position_weight > 0:
                rows += [t, n + t, 2 * n + t]
            if pair.orientation_weight > 0:
                f = 3 * (n + framed.index(t))
                rows += [f, f + 1, f + 2]
        markers = [resolve_marker(skeleton, pair.robot) for pair in pairs]
        joint = np.array([joint for joint, _ in markers], dtype=int)
        self.names = [pair.robot for pair in pairs]
        self.framed_names = [self.names[t] for t in framed]
        self.offset = np.array([offset for _, offset in markers]).reshape(-1, 3, 1)
        self.position_scale = np.sqrt([pair.position_weight for pair in pairs])[:, None]
        self.framed = np.array(framed, dtype=int)
        self.frame_scale = np.sqrt([pairs[t].orientation_weight for t in framed])[:, None]
        self.rows = np.array(rows, dtype=int)
        mask = plan.moves[joint]  # 1.0 on the columns that move each pair's marker joint
        self.position_mask = mask * self.position_scale
        self.joint_rank, self.col_rank = plan.rank[joint], plan.rank[plan.col_joint]
        self.axes = plan.axes[..., None]
        self.frame_mask = mask[self.framed, None]
        self.frame_weight = -self.frame_scale[..., None]
        stacked = 3 * (n + len(framed))
        self.rates = np.empty((dof, 3))
        # The stacks `rows` selects from, with views of their position and orientation blocks.
        self.stack, self.jacobian_stack = np.empty(stacked), np.empty((stacked, dof))
        self.position_rows = self.stack[: 3 * n].reshape(3, n).T
        self.frame_rows = self.stack[3 * n :].reshape(-1, 3)
        self.position_jacobian = self.jacobian_stack[: 3 * n].reshape(3, n, dof)
        self.frame_jacobian = self.jacobian_stack[3 * n :].reshape(-1, 3, dof)
        margin = np.minimum(LIMIT_MARGIN, 0.25 * (plan.hi - plan.lo))
        # (v - hi', lo' - v) as v * (1, -1) + (-hi', lo'), the same floats
        self.sign = np.array([1.0, -1.0])
        self.shift = np.stack([-(plan.hi - margin), plan.lo + margin], axis=1)
        grad = np.zeros((len(plan.lo), dof))
        grad[np.arange(len(plan.lo)), plan.limit_col] = 1.0
        # A lower row is -w times a gradient, so it reads -0.0 off the columns v does
        # not depend on; the sign of a zero can reach the step and the motion written.
        self.limit_rows = np.stack([self.w_limit * grad, -self.w_limit * grad], axis=1)
        self.sides = np.arange(2)[:, None]
        self.fk_buffers = plan.fk_buffers(1)
        self.terms_end = len(self.rows)
        self.barrier_end = self.terms_end + (2 * len(plan.lo) if self.w_limit else 0)
        # Keyed by whether the frame has smoothness rows; the w * I rows never change.
        self.eye, head = np.eye(dof), np.empty((self.barrier_end, dof))
        reference = [self.w_ref * self.eye] if self.w_ref else []
        self.jacobians = {
            False: np.concatenate([head, *reference]),
            True: np.concatenate([head, self.w_smooth * self.eye, *reference]),
        }

    def aim(self, root_position, root_rotation, points, frames, smooth_to=None):
        """Set one frame: its root, (term, 3) target points, (framed, 3, 3) target
        frames and smoothing target; empties the cache and the counters."""
        check_array("root position", root_position, (3,))
        self.root = root_position[None], root_rotation[None]
        self.points, self.frames, self.frames_t = points, frames, frames.swapaxes(1, 2)
        self.smooth_to = smooth_to if self.w_smooth else None
        self.jac = self.jacobians[self.smooth_to is not None]
        self.key, self.residual_evals, self.jacobian_evals = None, 0, 0

    def evaluate(self, values):
        """(FK positions, rotations, markers, orientation errors, barrier excess) at values.

        The FK results are level-order (J, 3) and (J, 3, 3) arrays, the
        markers the (term, 3) world marker points, the orientation errors
        (framed, 3) rotation vectors, and the excess the (limited DoF, 2)
        signed distances past the upper and lower barrier starts.
        """
        key = values.tobytes()
        if key != self.key:
            pos, rot = _fk_arrays(self.skeleton, *self.root, values[None], self.fk_buffers)
            pos, rot = pos[:, 0], rot[:, 0]
            joint_rot = rot[self.joint_rank]
            markers = pos[self.joint_rank] + (joint_rot @ self.offset)[..., 0]
            relative = joint_rot[self.framed].swapaxes(1, 2) @ self.frames
            orientation = np.array([_log_floats(m) for m in relative.tolist()]).reshape(-1, 3)
            excess = (
                self.plan.limited_values(values)[:, None] * self.sign + self.shift
                if self.w_limit
                else None
            )
            self.key, self.cached = key, (pos, rot, markers, orientation, excess)
        return self.cached

    def residual(self, values):
        """The residual at the values, in a fresh array: the solver keeps the
        accepted residual while it tries steps."""
        self.residual_evals += 1
        _, _, markers, orientation, excess = self.evaluate(values)
        r, start = np.empty(len(self.jac)), self.barrier_end
        np.multiply(self.position_scale, markers - self.points, out=self.position_rows)
        np.multiply(self.frame_scale, orientation, out=self.frame_rows)
        # rows are in range; mode="clip" lets take write into r without a buffer
        self.stack.take(self.rows, out=r[: self.terms_end], mode="clip")
        if self.w_limit:
            # np.where(d > 0, d, 0) is max(0, d) row by row, NaN included
            barrier = r[self.terms_end : start].reshape(excess.shape)
            np.multiply(self.w_limit, np.where(excess > 0.0, excess, 0.0), out=barrier)
        if self.smooth_to is not None:
            np.multiply(self.w_smooth, values - self.smooth_to, out=r[start : start + len(values)])
        if self.w_ref:
            np.multiply(self.w_ref, values, out=r[len(r) - len(values) :])
        return r

    def jacobian(self, values):
        """The residual's Jacobian at the values, written into the workspace.

        Joint k's DoF turn joint k and everything below it at world angular
        rates w, one 3-vector per column: R_k axis for a revolute DoF, the
        columns of R_k J_r(phi) for a spherical rotation vector phi. A marker
        x on joint k or below then moves at w x (x - p_k) = p_k x w - x x w,
        both cross products from one Levi-Civita contraction with the rates,
        and an orientation error e = log(R_j^T R_t) at -J_r^{-1}(e) R_t^T w.
        """
        self.jacobian_evals += 1
        pos, rot, markers, orientation, excess = self.evaluate(values)
        plan, rates = self.plan, self.rates
        rates[plan.revolute_col] = (rot[plan.revolute_rank] @ self.axes)[..., 0]
        if len(plan.spherical):
            turn = rot[plan.spherical_rank] @ _right_jacobian(values[plan.spherical_cols])
            rates[plan.spherical_cols] = turn.swapaxes(1, 2)
        cross = _LEVI_CIVITA @ rates.T  # (a x w_c)_i = sum_j a_j cross[i, j, c]
        joint_side = (cross * pos[self.col_rank].T).sum(axis=1)
        position = joint_side[:, None] - markers @ cross
        np.multiply(position, self.position_mask, out=self.position_jacobian)
        scaled = self.frame_weight * _right_jacobian_inv(orientation)
        np.matmul(scaled @ self.frames_t, rates.T * self.frame_mask, out=self.frame_jacobian)
        self.jacobian_stack.take(self.rows, axis=0, out=self.jac[: self.terms_end], mode="clip")
        if self.w_limit:
            active = excess > 0.0
            barrier = self.jac[self.terms_end : self.barrier_end].reshape(self.limit_rows.shape)
            barrier.fill(0.0)
            np.copyto(barrier, self.limit_rows, where=active[..., None])
            rows, cols = plan.euler_rows, plan.euler_cols
            hit = active[rows].any(axis=(1, 2)) if len(rows) else ()
            if any(hit):
                rows, cols = rows[hit], cols[hit]
                grad = self.w_limit * _euler_jacobian(values[cols])
                block = np.where(active[rows][..., None], np.stack([grad, -grad], axis=2), 0.0)
                barrier[rows[..., None, None], self.sides, cols[:, None, None]] = block
        return self.jac

    def step(self, jtj, jtr, mu):
        """The damped step: the solution of (J^T J + mu I) step = J^T r."""
        return np.linalg.solve(jtj + mu * self.eye, jtr)

    def solve(self, root_position, root_rotation, points, frames, x0, smooth_to=None):
        """Minimize over joint values with the root held fixed; returns (values, RetargetReport).

        `points` (term, 3) and `frames` (framed, 3, 3) are this frame's world
        targets. The values are projected into the joint limits.
        """
        self.aim(root_position, root_rotation, points, frames, smooth_to)
        solved, trace, iterations, termination, damping = _gauss_newton(self, x0, self.opts)
        x = _project_to_limits(self.skeleton, solved)
        _, _, markers, orientation, _ = self.evaluate(x)
        r = self.residual(x)
        plan = self.plan
        limited = plan.limited_values(x)
        return x, RetargetReport(
            objective=float(r @ r),
            iterations=iterations,
            termination=termination,
            residual_evals=self.residual_evals,
            jacobian_evals=self.jacobian_evals,
            position_residuals=dict(zip(self.names, _norm(markers - points).tolist())),
            orientation_residuals=dict(zip(self.framed_names, _norm(orientation).tolist())),
            limit_violation_count=int(np.count_nonzero((limited > plan.hi) | (limited < plan.lo))),
            objective_trace=trace,
            damping=damping,
            projection_displacement=float(np.linalg.norm(x - solved)),
        )


def _targets(human_skeleton, human, corr):
    """What the human frames give the solve, as arrays over T frames.

    One forward-kinematics pass over a JointTrajectory or a sequence of
    Poses gives the (T, 3) scaled root positions, the (T, 3, 3) root
    rotations, the (T, pair, 3) scaled marker points and the (T, framed
    pair, 3, 3) marker frames of the pairs with orientation weight.
    """
    res = fk(human_skeleton, human)
    markers = [resolve_marker(human_skeleton, pair.human) for pair in corr.pairs]
    points = corr.scale * np.stack([res.point(j, offset) for j, offset in markers], axis=1)
    framed = [j for (j, _), p in zip(markers, corr.pairs) if p.orientation_weight > 0]
    return corr.scale * res.positions[:, 0], res.rotations[:, 0], points, res.rotations[:, framed]


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
    if smooth_to is not None:
        smooth_to = check_array("smooth_to", smooth_to, (robot_skeleton.total_dof,))
    root_positions, root_rotations, points, frames = _targets(human_skeleton, [human_pose], corr)
    x0 = np.zeros(robot_skeleton.total_dof) if warm_start is None else warm_start.joint_values
    x, report = _Objective(robot_skeleton, corr.pairs, opts).solve(
        root_positions[0], root_rotations[0], points[0], frames[0], x0, smooth_to
    )
    return Pose(root_positions[0], Rotation(root_rotations[0]), x), report


def retarget_sequence(
    human_skeleton,
    human_poses,
    robot_skeleton,
    corr,
    opts=RetargetOptions(),
):
    """Retarget a JointTrajectory or a sequence of Poses; frame t warm-starts from frame t-1.

    The robot trajectory keeps a JointTrajectory's frame rate; a sequence of
    Poses gets 30 fps (wrap it in a JointTrajectory for another rate).
    The set-up is done once per call: one forward-kinematics pass over all
    human frames and one objective for all solves. A frame whose objective
    is not finite at its start point raises a NumericError naming the
    frame, as "frame t: objective at start point is nan"; no frame is
    skipped or repeated.
    """
    fps = human_poses.fps if isinstance(human_poses, JointTrajectory) else 30.0
    if not len(human_poses):
        raise ValidationError("empty human pose sequence")
    root_positions, root_rotations, points, frames = _targets(human_skeleton, human_poses, corr)
    objective = _Objective(robot_skeleton, corr.pairs, opts)
    values = np.empty((len(points), robot_skeleton.total_dof))
    reports = []
    prev = None
    for t in range(len(points)):
        x0 = prev if opts.warm_start and prev is not None else np.zeros(robot_skeleton.total_dof)
        try:
            values[t], report = objective.solve(
                root_positions[t], root_rotations[t], points[t], frames[t], x0, prev
            )
        except NumericError as e:  # the one error a solve raises
            raise NumericError(f"frame {t}: {e}") from None
        reports.append(report)
        prev = values[t]
    trajectory = JointTrajectory.from_arrays(
        fps, root_positions, root_rotations, values, skeleton=robot_skeleton.name
    )
    return trajectory, reports
