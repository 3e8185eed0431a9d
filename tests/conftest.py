import numpy as np
import pytest
from hypothesis import settings

from retarget_kit import Rotation
from retarget_kit.errors import NumericError, ValidationError
from retarget_kit.retarget import (
    _LEVI_CIVITA,
    CorrespondencePair,
    DAMPING_MAX,
    DAMPING_MIN,
    DAMPING_TAU,
    LIMIT_MARGIN,
    RELATIVE_DECREASE_TOL,
    RetargetOptions,
    RetargetReport,
    _euler_jacobian,
    _Objective,
    _project_to_limits,
)
from retarget_kit.rotations import (
    _align_stack,
    _log_floats,
    _procrustes_stack,
    _right_jacobian,
    _right_jacobian_inv,
    _rotvec_stack,
)
from retarget_kit.skeleton import (
    Joint,
    JointTrajectory,
    Marker,
    Pose,
    Skeleton,
    check_limits,
    fk,
    resolve_marker,
)

# The same bounded examples on every run, locally and in CI: a property test
# either passes or fails, it does not come and go with the draw.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def zero_pose(skeleton):
    """The rest pose: the root at the origin, unturned, and every joint value 0."""
    return Pose(np.zeros(3), Rotation.identity(), np.zeros(skeleton.total_dof))


def random_rotation(rng):
    v = rng.normal(size=3)
    angle = rng.uniform(0, np.pi * 0.999)
    return Rotation.from_axis_angle(v / np.linalg.norm(v), angle)


def make_chain(offsets, dof="revolute", axis=(0, 0, 1), limits=None):
    """Simple serial chain root -> j1 -> j2 ... with the given offsets."""
    joints = [Joint("root", None, [0, 0, 0])]
    prev = "root"
    for i, off in enumerate(offsets):
        name = f"j{i + 1}"
        if dof == "revolute":
            joints.append(
                Joint(name, prev, off, dof="revolute", axis=axis, limits=limits or ())
            )
        else:
            joints.append(Joint(name, prev, off, dof=dof, limits=limits or ()))
        prev = name
    return Skeleton(joints)


def make_random_tree(rng, n_joints, dof="spherical"):
    """Random joint tree with parents drawn from earlier joints."""
    joints = [Joint("root", None, [0, 0, 0])]
    for i in range(1, n_joints):
        parent = joints[rng.integers(0, i)].name
        offset = rng.normal(size=3)
        offset /= np.linalg.norm(offset)
        offset *= rng.uniform(0.2, 0.5)
        joints.append(Joint(f"j{i}", parent, offset, dof=dof))
    return Skeleton(joints)


def make_humanlike(n_chains=3, chain_len=3, seg=0.3):
    """Small all-spherical tree: a root with several multi-joint limbs.

    Every internal joint has a non-collinear grandchild bone, so all
    rotations are observable from keypoint positions alone.
    """
    directions = [
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, -1.0, 0.0]),
        np.array([0.0, 0.3, 1.0]) / np.linalg.norm([0.0, 0.3, 1.0]),
        np.array([-1.0, 0.2, 0.0]) / np.linalg.norm([-1.0, 0.2, 0.0]),
    ]
    bend = [
        np.array([0.2, 0.0, 1.0]),
        np.array([1.0, 0.2, 0.0]),
        np.array([0.0, 1.0, 0.3]),
    ]
    joints = [Joint("root", None, [0, 0, 0])]
    for c in range(n_chains):
        prev = "root"
        d = directions[c % len(directions)]
        for k in range(chain_len):
            name = f"c{c}_{k}"
            off = seg * (d if k == 0 else bend[k % len(bend)] / np.linalg.norm(bend[k % len(bend)]))
            joints.append(Joint(name, prev, off, dof="spherical"))
            prev = name
    markers = [Marker("tip0", joints[-1].name, [0.05, 0, 0])]
    return Skeleton(joints, markers)


def twist_free_pose(skeleton, rng, max_angle=0.6):
    """Random pose recoverable from keypoints: multi-child joints get
    arbitrary rotations, single-child joints pure swing, leaves stay zero."""
    values = np.zeros(skeleton.total_dof)
    children = [[] for _ in skeleton.joints]
    for i, p in enumerate(skeleton.parent_index):
        if p >= 0:
            children[p].append(i)
    for i, joint in enumerate(skeleton.joints):
        if skeleton.parent_index[i] < 0 or joint.dof != "spherical":
            continue
        ch = children[i]
        if len(ch) == 1:
            t = skeleton.joints[ch[0]].offset
            target = random_rotation(rng).matrix @ t
            local = Rotation(_align_stack(t[None], target[None])[0][0])
            values[skeleton.dof_slices[i]] = local.as_rotvec()
        elif len(ch) > 1:
            values[skeleton.dof_slices[i]] = rng.normal(size=3) * max_angle
    return Pose(rng.normal(size=3), random_rotation(rng), values)


# Rotation conversions, bone alignment and Procrustes as written before they
# became the n = 1 case of their stacked forms: the float operations those
# must keep, and the oracles of the joint-by-joint walks below.


def scalar_hat(v):
    """Skew-symmetric (cross-product) matrix of a 3-vector."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def scalar_rodrigues_matrix(axis, angle):
    """Rotation matrix about a unit axis: I + sin(t) K + (1 - cos(t)) K^2."""
    k = scalar_hat(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def scalar_from_rotvec(v):
    """`Rotation.from_rotvec` before `_exp_stack`: the zero vector is the identity."""
    angle = np.linalg.norm(v)
    if angle < 1e-12:
        return np.eye(3)
    return scalar_rodrigues_matrix(v / angle, angle)


def scalar_as_quat(m):
    """`Rotation.as_quat` before `_quat_stack`: unit (w, x, y, z) with w >= 0."""
    t = np.trace(m)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(m)))
        if i == 0:
            s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            q = np.array(
                [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
            )
        elif i == 1:
            s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            q = np.array(
                [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
            )
        else:
            s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            q = np.array(
                [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
            )
    q /= np.linalg.norm(q)
    if q[0] < 0:
        q = -q
    return q


def scalar_as_rotvec(m):
    """`Rotation.as_rotvec` before `_rotvec_stack`: axis times angle from `scalar_as_quat`."""
    q = scalar_as_quat(m)
    s = np.linalg.norm(q[1:])
    if s < 1e-16:
        return np.array([1.0, 0.0, 0.0]) * 0.0
    return q[1:] / s * (2.0 * np.arctan2(s, q[0]))


def scalar_intrinsic_xyz_euler(m):
    """Angles (a, b, c) with m = Rx(a) Ry(b) Rz(c), one 3x3 matrix at a time."""
    b = np.arcsin(np.clip(m[0, 2], -1.0, 1.0))
    if abs(m[0, 2]) < 1.0 - 1e-9:
        a = np.arctan2(-m[1, 2], m[2, 2])
        c = np.arctan2(-m[0, 1], m[0, 0])
    else:
        # Gimbal lock: fold everything into the first angle.
        a = np.arctan2(m[1, 0], m[1, 1])
        c = 0.0
    return np.array([a, b, c])


def joint_walk_local(joint, values):
    """One joint's local rotation, from its own values."""
    if joint.dof == "fixed":
        return np.eye(3)
    if joint.dof == "revolute":
        return scalar_rodrigues_matrix(joint.axis, values[0])
    return scalar_from_rotvec(values)


def joint_walk_limited_dofs(skeleton, values):
    """Yield (joint, k, value, lo, hi) per limited DoF, walking the joints one by one.

    Spherical joints yield their intrinsic XYZ Euler angles. This walk and
    `joint_walk_projection` are what `check_limits`, the limit barrier and
    the retarget limit projection must reproduce exactly.
    """
    for i, joint in enumerate(skeleton.joints):
        if not joint.limits:
            continue
        vals = values[skeleton.dof_slices[i]]
        if joint.dof == "spherical":
            vals = scalar_intrinsic_xyz_euler(joint_walk_local(joint, vals))
        for k, (lo, hi) in enumerate(joint.limits):
            yield joint, k, vals[k], lo, hi


def joint_walk_projection(skeleton, values):
    out = values.copy()
    for i, joint in enumerate(skeleton.joints):
        sl = skeleton.dof_slices[i]
        if joint.dof == "spherical" and np.linalg.norm(out[sl]) > np.pi:
            out[sl] = scalar_as_rotvec(scalar_from_rotvec(out[sl]))
        if not joint.limits:
            continue
        if joint.dof == "revolute":
            lo, hi = joint.limits[0]
            out[sl] = np.clip(out[sl], lo, hi)
        elif joint.dof == "spherical":
            euler = scalar_intrinsic_xyz_euler(joint_walk_local(joint, out[sl]))
            clipped = np.array(
                [np.clip(euler[k], lo, hi) for k, (lo, hi) in enumerate(joint.limits)]
            )
            if not np.allclose(clipped, euler):
                m = (
                    scalar_rodrigues_matrix(np.array([1.0, 0, 0]), clipped[0])
                    @ scalar_rodrigues_matrix(np.array([0, 1.0, 0]), clipped[1])
                    @ scalar_rodrigues_matrix(np.array([0, 0, 1.0]), clipped[2])
                )
                out[sl] = scalar_as_rotvec(m)
    return out


def scalar_rodrigues_align(t, p, tol=1e-8):
    nt, np_ = np.linalg.norm(t), np.linalg.norm(p)
    if nt <= tol or np_ <= tol:
        raise ValidationError(f"bone norms {nt:.3e}, {np_:.3e} below {tol:.0e}")
    t_hat, p_hat = t / nt, p / np_
    c = float(np.clip(np.dot(t_hat, p_hat), -1.0, 1.0))
    cross = np.cross(t_hat, p_hat)
    s = np.linalg.norm(cross)
    if s < tol:
        if c > 0:
            return Rotation.identity()
        e = np.eye(3)[int(np.argmin(np.abs(t_hat)))]
        axis = e - np.dot(t_hat, e) * t_hat
        axis /= np.linalg.norm(axis)
        return Rotation(scalar_rodrigues_matrix(axis, np.pi))
    return Rotation(scalar_rodrigues_matrix(cross / s, np.arccos(c)))


def scalar_from_quat(q):
    """`Rotation.from_quat` as written before it became the n = 1 case of `_matrix_stack`."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def scalar_procrustes(t, p, rank_tol=1e-9):
    u, s, vt = np.linalg.svd(p @ t.T)
    if s[1] <= rank_tol * max(s[0], 1.0):
        raise ValidationError(f"cross-covariance rank < 2 (singular values {s})")
    d = np.linalg.det(u @ vt)
    return Rotation((u * np.array([1.0, 1.0, d])) @ vt)


# Keypoint reconstruction as `ik._reconstruct` ran before its level walk: the
# joints in skeleton order, each solved for all frames by one stacked kernel
# call that stops at its first refused item, and a sequence's error found again
# frame by frame. The level walk must reproduce its floats and its errors.


def _children_of_spherical_joints(skeleton):
    """Each joint's children; a ValidationError for a joint below the root that has
    children but is not spherical."""
    children = [[] for _ in skeleton.joints]
    for i, p in enumerate(skeleton.parent_index):
        if p >= 0:
            children[p].append(i)
    for i, joint in enumerate(skeleton.joints):
        if skeleton.parent_index[i] >= 0 and children[i] and joint.dof != "spherical":
            raise ValidationError(
                f"joint '{joint.name}' has dof '{joint.dof}'; "
                "keypoint reconstruction needs spherical joints"
            )
    return children


def joint_walk_reconstruct(skeleton, kp):
    """Root orientations (T, 3, 3) and joint values (T, DoF) of (T, J, 3)
    keypoints in joint order, one joint at a time."""
    children = _children_of_spherical_joints(skeleton)
    n = len(kp)
    world = np.empty((n, len(skeleton.joints), 3, 3))
    root = identity = np.tile(np.eye(3), (n, 1, 1))
    values = np.zeros((n, skeleton.total_dof))
    for i, joint in enumerate(skeleton.joints):
        ch, p = children[i], skeleton.parent_index[i]
        parent_world = world[:, p] if p >= 0 else identity
        if not ch:
            world[:, i] = parent_world  # leaf: rotation unobservable, keep identity
            continue
        # (n, 3, m): each child bone in the parent's frame, one matrix-vector product each
        bones = (kp[:, ch] - kp[:, i, None])[..., None]
        observed = (np.swapaxes(parent_world, 1, 2)[:, None] @ bones)[..., 0]
        observed = np.ascontiguousarray(np.swapaxes(observed, 1, 2))
        if len(ch) == 1:
            t = np.broadcast_to(skeleton.joints[ch[0]].offset, (n, 3))
            local, refused, why = _align_stack(t, observed[:, :, 0])
        else:
            templates = np.column_stack([skeleton.joints[c].offset for c in ch])
            local, refused, why = _procrustes_stack(templates, observed)
        if refused.any():  # the walk stops at the joint's first refused item
            names = ", ".join(f"'{skeleton.joints[c].name}'" for c in ch)
            reason = why(int(np.argmax(refused)))
            raise ValidationError(f"joint '{joint.name}' → {names}: {reason}")
        world[:, i] = parent_world @ local
        if p < 0:
            root = local
        else:
            values[:, skeleton.dof_slices[i]] = _rotvec_stack(local)
    return root, values


def joint_walk_sequence(skeleton, kp):
    """`joint_walk_reconstruct`, whose refusal names the earliest frame that fails on its own."""
    _children_of_spherical_joints(skeleton)  # a skeleton it refuses names no frame
    try:
        return joint_walk_reconstruct(skeleton, kp)
    except ValidationError:
        for t in range(len(kp)):
            try:
                joint_walk_reconstruct(skeleton, kp[t : t + 1])
            except ValidationError as e:
                raise ValidationError(f"frame {t}, {e}") from None
        raise


def two_finger_hand():
    """Two limited three-joint revolute fingers on a palm, with a marker at each tip."""
    joints = [Joint("palm", None, [0, 0, 0])]
    markers = []
    for finger, y in (("a", 0.02), ("b", -0.02)):
        parent = "palm"
        for k, offset in enumerate(([0.03, y, 0], [0.04, 0, 0], [0.03, 0, 0])):
            name = f"{finger}{k}"
            joints.append(Joint(name, parent, offset, dof="revolute",
                                axis=[0, 0, 1] if k else [0, 1, 0], limits=((-1.2, 1.4),)))
            parent = name
        markers.append(Marker(f"{finger}_tip", parent, [0.02, 0, 0]))
    return Skeleton(joints, markers)


def barrier_objective(skeleton):
    """An `_Objective` of the default options with one pair per joint, aimed at the origin."""
    pairs = [CorrespondencePair(joint.name, joint.name) for joint in skeleton.joints]
    objective = _Objective(skeleton, pairs, RetargetOptions())
    objective.aim(np.zeros(3), np.eye(3), np.zeros((len(pairs), 3)), np.zeros((0, 3, 3)))
    return objective


def objective_rows(objective, values):
    """An aimed `_Objective`'s (residual, Jacobian) at values; the Jacobian rows it writes
    per evaluation are NaN-filled first, so each one must be written."""
    objective.jac[: objective.barrier_end] = np.nan
    return objective.residual(values), objective.jacobian(values).copy()


def barrier_rows(objective, values):
    """An aimed `_Objective`'s limit-barrier (residual, Jacobian) rows at values."""
    residual, jacobian = objective_rows(objective, values)
    rows = slice(objective.terms_end, objective.barrier_end)
    return residual[rows], jacobian[rows]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# The retarget path as it ran before its set-up moved out of the frame loop:
# per frame one human `fk`, the markers resolved again, a new term layout,
# limit barrier and regularizer rows, and a validated Pose per evaluation.
# Its term layout, limit barrier and solver loop are kept below as they were
# before the solver's workspace: joint-order FK results, every part of the
# residual and the Jacobian allocated and concatenated per evaluation. The
# per-clip path must reproduce it bit for bit.


def per_frame_gauss_newton(residual_fn, jacobian_fn, x0, opts):
    """Damped Gauss-Newton with Nielsen's damping update, as `_gauss_newton` was written."""
    x = np.asarray(x0, dtype=float).copy()
    r = residual_fn(x)
    f = float(r @ r)
    if not np.isfinite(f):
        raise NumericError(f"objective at start point is {f}")
    trace = [f]
    mu = None
    termination = "max_iterations"
    iterations = 0
    eye = np.eye(len(x))
    for _ in range(opts.max_iterations):
        iterations += 1
        jac = jacobian_fn(x)
        jtr = jac.T @ r
        jtj = jac.T @ jac
        if mu is None:
            mu = max(DAMPING_TAU * float(np.max(np.diag(jtj))), DAMPING_MIN)
        if np.max(np.abs(2.0 * jtr)) < opts.gradient_tol:
            termination = "converged"
            break
        nu = 2.0
        while mu <= DAMPING_MAX:
            try:
                step = np.linalg.solve(jtj + mu * eye, jtr)
            except np.linalg.LinAlgError:
                mu *= nu
                nu *= 2.0
                continue
            x_new = x - step
            r_new = residual_fn(x_new)
            f_new = float(r_new @ r_new)
            if np.isfinite(f_new) and f_new <= f:
                predicted = float(step @ (mu * step + jtr))
                rho = (f - f_new) / predicted if predicted > 0.0 else 0.0
                shrink = max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3)
                mu = max(mu * shrink, DAMPING_MIN)
                if f - f_new <= RELATIVE_DECREASE_TOL * f:
                    termination = "small_decrease"
                x, r, f = x_new, r_new, f_new
                trace.append(f)
                break
            mu *= nu
            nu *= 2.0
        else:
            termination = "stalled"
        if termination != "max_iterations":
            break
    return x, trace, iterations, termination, mu


class PerFrameBarrier:
    """The limit barrier as `_LimitBarrier` was written: fresh rows from the values per call."""

    def __init__(self, skeleton, w):
        plan = self.plan = skeleton._plan
        self.w = w
        margin = np.minimum(LIMIT_MARGIN, 0.25 * (plan.hi - plan.lo))
        self.sign = np.array([1.0, -1.0])
        self.shift = np.stack([-(plan.hi - margin), plan.lo + margin], axis=1)
        grad = np.zeros((len(plan.lo), len(plan.col_joint)))
        grad[np.arange(len(plan.lo)), plan.limit_col] = 1.0
        self.rows = np.stack([w * grad, -w * grad], axis=1)

    def _excess(self, values):
        return self.plan.limited_values(values)[:, None] * self.sign + self.shift

    def residual(self, values):
        rows = self._excess(values)
        return (self.w * np.where(rows > 0.0, rows, 0.0)).reshape(-1)

    def jacobian(self, values):
        active = self._excess(values) > 0.0
        out = np.where(active[..., None], self.rows, 0.0)
        rows, cols = self.plan.euler_rows, self.plan.euler_cols
        hit = active[rows].any(axis=(1, 2)) if len(rows) else ()
        if any(hit):
            rows, cols = rows[hit], cols[hit]
            grad = self.w * _euler_jacobian(values[cols])
            block = np.where(active[rows][..., None], np.stack([grad, -grad], axis=2), 0.0)
            out[rows[..., None, None], np.arange(2)[:, None], cols[:, None, None]] = block
        return out.reshape(-1, len(values))


class PerFrameTerms:
    """The term layout as `_Terms` was written: joint-order FK results, rows concatenated."""

    def __init__(self, skeleton, pairs):
        n, rows = len(pairs), []
        framed = [t for t, pair in enumerate(pairs) if pair.orientation_weight > 0]
        for t, pair in enumerate(pairs):
            if pair.position_weight > 0:
                rows += [t, n + t, 2 * n + t]
            if pair.orientation_weight > 0:
                f = 3 * (n + framed.index(t))
                rows += [f, f + 1, f + 2]
        markers = [resolve_marker(skeleton, pair.robot) for pair in pairs]
        self.plan = skeleton._plan
        self.joint = np.array([joint for joint, _ in markers], dtype=int)
        self.offset = np.array([offset for _, offset in markers]).reshape(-1, 3, 1)
        self.position_scale = np.sqrt([pair.position_weight for pair in pairs])[:, None]
        self.framed = np.array(framed, dtype=int)
        self.frame_scale = np.sqrt([pairs[t].orientation_weight for t in framed])[:, None]
        self.rows = np.array(rows, dtype=int)
        self.mask = self.plan.moves[self.joint]
        self.position_mask = self.mask * self.position_scale
        self.point = self.frames = None

    def errors(self, res):
        rot = res.rotations[self.joint]
        markers = res.positions[self.joint] + (rot @ self.offset)[..., 0]
        relative = rot[self.framed].swapaxes(1, 2) @ self.frames
        orientation = np.array([_log_floats(m) for m in relative.tolist()]).reshape(-1, 3)
        return markers, orientation

    def residual(self, markers, orientation):
        position = self.position_scale * (markers - self.point)
        orientation = self.frame_scale * orientation
        return np.concatenate([position.T.reshape(-1), orientation.reshape(-1)])[self.rows]

    def jacobian(self, res, markers, orientation, values):
        plan, n = self.plan, len(values)
        rates = np.empty((n, 3))
        rates[plan.revolute_col] = (res.rotations[plan.revolute] @ plan.axes[..., None])[..., 0]
        if len(plan.spherical):
            turn = res.rotations[plan.spherical] @ _right_jacobian(values[plan.spherical_cols])
            rates[plan.spherical_cols] = turn.swapaxes(1, 2)
        cross = _LEVI_CIVITA @ rates.T
        joint_side = (cross * res.positions[plan.col_joint].T).sum(axis=1)
        position = (joint_side[:, None] - markers @ cross) * self.position_mask
        scaled = -self.frame_scale[..., None] * _right_jacobian_inv(orientation)
        frame = (scaled @ self.frames.swapaxes(1, 2)) @ (rates.T * self.mask[self.framed, None])
        return np.concatenate([position.reshape(-1, n), frame.reshape(-1, n)])[self.rows]


def per_frame_solve(skeleton, root_position, root_orientation, terms, x0, opts, smooth_to=None):
    """The objective built for one frame from (pair, target point, target frame or None) terms."""
    if skeleton.total_dof == 0:
        raise ValidationError(f"skeleton '{skeleton.name}' has no degrees of freedom to solve")
    w_ref = np.sqrt(opts.reference_weight) if opts.reference_weight > 0 else 0.0
    w_smooth = (
        np.sqrt(opts.smoothness_weight)
        if (opts.smoothness_weight > 0 and smooth_to is not None)
        else 0.0
    )
    layout = PerFrameTerms(skeleton, [pair for pair, _, _ in terms])
    layout.point = np.array([point for _, point, _ in terms]).reshape(-1, 3)
    layout.frames = np.array([frame for *_, frame in terms if frame is not None]).reshape(-1, 3, 3)
    barrier = (
        PerFrameBarrier(skeleton, np.sqrt(opts.limit_weight)) if opts.limit_weight > 0 else None
    )
    fixed_rows = [w * np.eye(skeleton.total_dof) for w in (w_smooth, w_ref) if w]
    evals = {"residual": 0, "jacobian": 0}
    last = {}

    def evaluate(values):
        key = values.tobytes()
        if key not in last:
            last.clear()
            res = fk(skeleton, Pose(root_position, root_orientation, values))
            last[key] = (res, *layout.errors(res))
        return last[key]

    def residual(values):
        evals["residual"] += 1
        parts = [layout.residual(*evaluate(values)[1:])]
        if barrier:
            parts.append(barrier.residual(values))
        if w_smooth:
            parts.append(w_smooth * (values - smooth_to))
        if w_ref:
            parts.append(w_ref * values)
        return np.concatenate(parts)

    def jacobian(values):
        evals["jacobian"] += 1
        parts = [layout.jacobian(*evaluate(values), values)]
        if barrier:
            parts.append(barrier.jacobian(values))
        return np.concatenate(parts + fixed_rows)

    solved, trace, iterations, termination, damping = per_frame_gauss_newton(
        residual, jacobian, x0, opts
    )
    x = _project_to_limits(skeleton, solved)
    pose = Pose(root_position, root_orientation, x)
    _, markers, orientation = evaluate(x)
    pos_residuals = {
        pair.robot: float(np.linalg.norm(e))
        for (pair, *_), e in zip(terms, markers - layout.point)
    }
    rot_residuals = {
        terms[t][0].robot: float(np.linalg.norm(e)) for t, e in zip(layout.framed, orientation)
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
        damping=damping,
        projection_displacement=float(np.linalg.norm(x - solved)),
    )
    return pose, report


def per_frame_retarget_frame(
    human_skeleton, human_pose, robot_skeleton, corr, opts, warm_start=None, smooth_to=None
):
    res = fk(human_skeleton, human_pose)
    terms = []
    for pair in corr.pairs:
        j, offset = resolve_marker(human_skeleton, pair.human)
        point = corr.scale * res.point(j, offset)
        frame = res.rotations[j] if pair.orientation_weight > 0 else None
        terms.append((pair, point, frame))
    x0 = warm_start.joint_values if warm_start is not None else np.zeros(robot_skeleton.total_dof)
    root = corr.scale * res.positions[0], Rotation(res.rotations[0])
    return per_frame_solve(robot_skeleton, *root, terms, x0, opts, smooth_to)


def per_frame_retarget_sequence(human_skeleton, human_poses, robot_skeleton, corr, opts, fps=30.0):
    poses, reports, prev = [], [], None
    for human_pose in human_poses:
        pose, report = per_frame_retarget_frame(
            human_skeleton,
            human_pose,
            robot_skeleton,
            corr,
            opts,
            warm_start=prev if opts.warm_start else None,
            smooth_to=None if prev is None else prev.joint_values,
        )
        poses.append(pose)
        reports.append(report)
        prev = pose
    return JointTrajectory(fps=fps, poses=poses, skeleton=robot_skeleton.name), reports

