"""Articulated skeletons: joint trees, poses, forward kinematics, DoF remaps."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import MissingDefault, PoseMismatch, UnresolvableCorrespondence, ValidationError
from .rotations import Rotation, _hat_stack, _norm, _rodrigues_stack

DOF_COUNTS = {"fixed": 0, "revolute": 1, "spherical": 3}

_EYE3 = np.eye(3)


@dataclass(frozen=True)
class Joint:
    """One joint of the tree; offsets are meters in the parent frame.

    `dof` is "fixed", "revolute" (with a unit `axis`) or "spherical"
    (axis-angle 3-vector in the pose). `limits` holds one [min, max] pair
    per DoF, radians; spherical limits are interpreted on the intrinsic
    XYZ Euler decomposition, used only for limit checks.
    """

    name: str
    parent: str | None
    offset: np.ndarray
    dof: str = "fixed"
    axis: np.ndarray | None = None
    limits: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float).reshape(3))
        if self.dof not in DOF_COUNTS:
            raise ValidationError(f"joint '{self.name}': unknown dof kind '{self.dof}'")
        if self.dof == "revolute":
            if self.axis is None:
                raise ValidationError(f"joint '{self.name}': revolute joint needs an axis")
            ax = np.asarray(self.axis, dtype=float).reshape(3)
            n = np.linalg.norm(ax)
            if abs(n - 1.0) > 1e-6:
                raise ValidationError(f"joint '{self.name}': revolute axis norm {n} != 1")
            object.__setattr__(self, "axis", ax / n)
        try:
            lim = tuple((float(lo), float(hi)) for lo, hi in self.limits)
        except (TypeError, ValueError):
            raise ValidationError(
                f"joint '{self.name}': limits must be [min, max] pairs of numbers"
            ) from None
        if lim and len(lim) != DOF_COUNTS[self.dof]:
            raise ValidationError(
                f"joint '{self.name}': {len(lim)} limit pairs for {DOF_COUNTS[self.dof]} DoF"
            )
        for lo, hi in lim:
            if lo > hi:
                raise ValidationError(f"joint '{self.name}': limit min {lo} > max {hi}")
        object.__setattr__(self, "limits", lim)

    @property
    def dof_count(self):
        return DOF_COUNTS[self.dof]


@dataclass(frozen=True)
class Marker:
    """Named keypoint rigidly attached to a joint with a local offset."""

    name: str
    joint: str
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float).reshape(3))


class Skeleton:
    """Joint tree in topological order (parents strictly before children)."""

    def __init__(self, joints, markers=(), name=None):
        joints = tuple(joints)
        if not joints:
            raise ValidationError("skeleton has no joints")
        seen = {}
        roots = 0
        for i, j in enumerate(joints):
            if j.name in seen:
                raise ValidationError(f"duplicate joint name '{j.name}'")
            if j.parent is None:
                roots += 1
                if i != 0:
                    raise ValidationError(f"root joint '{j.name}' is not first")
            elif j.parent not in seen:
                raise ValidationError(
                    f"joint '{j.name}' references parent '{j.parent}' "
                    "which is not defined before it (unordered or cyclic)"
                )
            seen[j.name] = i
        if roots != 1:
            raise ValidationError(f"expected exactly one root, found {roots}")
        self.name = name
        self.joints = joints
        self.index = MappingProxyType(seen)
        self.parent_index = tuple(
            -1 if j.parent is None else seen[j.parent] for j in joints
        )
        slices, start = [], 0
        for j in joints:
            slices.append(slice(start, start + j.dof_count))
            start += j.dof_count
        self.dof_slices = tuple(slices)
        self.total_dof = start
        self._plan = _SkeletonPlan(joints, self.parent_index, self.dof_slices)
        mk = {}
        for m in markers:
            if m.joint not in seen:
                raise ValidationError(f"marker '{m.name}' references unknown joint '{m.joint}'")
            if m.name in mk:
                raise ValidationError(f"duplicate marker name '{m.name}'")
            mk[m.name] = m
        self.markers = MappingProxyType(mk)

    def joint(self, name):
        return self.joints[self.index[name]]

    def zero_pose(self):
        return Pose(np.zeros(3), Rotation.identity(), np.zeros(self.total_dof))


@dataclass(frozen=True)
class Pose:
    """Root transform plus flat joint-value vector in skeleton joint order."""

    root_position: np.ndarray
    root_orientation: Rotation
    joint_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "root_position", np.asarray(self.root_position, dtype=float).reshape(3)
        )
        object.__setattr__(
            self, "joint_values", np.asarray(self.joint_values, dtype=float).reshape(-1)
        )
        if not (
            np.all(np.isfinite(self.root_position))
            and np.all(np.isfinite(self.joint_values))
        ):
            raise ValidationError("pose contains non-finite entries")


def _stack_poses(poses, dof, expected):
    """(T, 3) root positions, (T, 3, 3) root rotations and (T, dof) joint values of T Poses."""
    for p in poses:
        if len(p.joint_values) != dof:
            raise PoseMismatch(f"pose has {len(p.joint_values)} values, {expected} {dof}")
    n = len(poses)
    return (
        np.array([p.root_position for p in poses]).reshape(n, 3),
        np.array([p.root_orientation.matrix for p in poses]).reshape(n, 3, 3),
        np.array([p.joint_values for p in poses]).reshape(n, dof),
    )


class JointTrajectory:
    """T frames at a fixed frame rate, held as three arrays validated once.

    `root_positions` (T, 3), `root_rotations` (T, 3, 3) and `joint_values`
    (T, DoF) are read-only copies, never views of the caller's arrays.
    `JointTrajectory(fps, poses, skeleton)` stacks a sequence of Poses,
    `from_arrays` takes the three arrays; `poses` is derived from the rows.
    """

    def __init__(self, fps, poses, skeleton=None):
        poses = tuple(poses)
        dof = len(poses[0].joint_values) if poses else 0
        self._set(fps, skeleton, *_stack_poses(poses, dof, "frame 0 has"))

    @classmethod
    def from_arrays(cls, fps, root_positions, root_rotations, joint_values, skeleton=None):
        trajectory = cls.__new__(cls)
        trajectory._set(fps, skeleton, root_positions, root_rotations, joint_values)
        return trajectory

    def _set(self, fps, skeleton, root_positions, root_rotations, joint_values):
        arrays = [np.array(a, dtype=float) for a in (root_positions, root_rotations, joint_values)]
        positions, rotations, values = arrays
        n = len(values) if values.ndim == 2 else -1
        if positions.shape != (n, 3) or rotations.shape != (n, 3, 3):
            raise ValidationError(
                f"trajectory arrays of shapes {positions.shape}, {rotations.shape} and "
                f"{values.shape} are not (T, 3), (T, 3, 3) and (T, DoF)"
            )
        if not (np.all(np.isfinite(positions)) and np.all(np.isfinite(values))):
            raise ValidationError("trajectory contains non-finite root positions or joint values")
        for a in arrays:
            a.flags.writeable = False
        self.fps, self.skeleton = fps, skeleton
        self.root_positions, self.root_rotations, self.joint_values = arrays

    def __len__(self):
        return len(self.joint_values)

    @property
    def poses(self):
        """The frames as a tuple of Poses, built from the rows on each access."""
        return tuple(
            Pose(p, Rotation(r), v)
            for p, r, v in zip(self.root_positions, self.root_rotations, self.joint_values)
        )

    def values(self):
        """The (T, DoF) joint values."""
        return self.joint_values


@dataclass
class FkResult:
    positions: np.ndarray  # (J, 3) world, or (T, J, 3) for T poses
    rotations: np.ndarray  # (J, 3, 3) world, or (T, J, 3, 3) for T poses

    def point(self, joint_index, offset):
        """World position of a point fixed at `offset` in a joint's frame, per pose."""
        rot = self.rotations[..., joint_index, :, :]
        return self.positions[..., joint_index, :] + rot @ offset


def resolve_marker(skeleton, name):
    """(joint index, local offset) of a marker, falling back to a joint name."""
    m = skeleton.markers.get(name)
    if m is not None:
        return skeleton.index[m.joint], m.offset
    i = skeleton.index.get(name)
    if i is None:
        raise UnresolvableCorrespondence(
            f"'{name}' is neither a marker nor a joint of skeleton '{skeleton.name}'"
        )
    return i, np.zeros(3)


class _SkeletonPlan:
    """A skeleton's structure as index arrays, built once per skeleton.

    It is all that `fk`, `check_limits` and the retarget solver know of the
    tree. Revolute joints come with their value columns, axes, K = hat(axis)
    and K @ K, spherical joints with their (S, 3) value columns. `order`
    lists the joints in level order: the root, then each tree depth in turn,
    children grouped by the order of their parents; `rank` is its inverse,
    and `in_level_order` says whether the joints are listed that way.
    `levels` holds (slice of the depth, its parents, offsets as column
    vectors) per depth below the root, in level-order positions; the
    parents are a slice whenever they are a contiguous run or a single
    joint, else an index array. K, K @ K and the offsets carry a length-1
    frame axis after the joint axis, as `fk`'s buffers do; `fixed_rank`,
    `revolute_rank` and `spherical_rank` place each kind of joint in them.
    `col_joint` maps value columns to joints; row j of `moves` is 1.0 on the
    columns that turn joint j. The limited DoFs, in joint order, have a
    joint, DoF index, value column and `lo`/`hi`; `euler` holds (first
    limited DoF, value slice) per limited spherical joint.
    """

    def __init__(self, joints, parent_index, dof_slices):
        kind = np.array([j.dof for j in joints])
        start = np.array([sl.start for sl in dof_slices])
        self.revolute = np.flatnonzero(kind == "revolute")
        self.revolute_col = start[self.revolute]
        self.axes = np.array([joints[i].axis for i in self.revolute]).reshape(-1, 3)
        self.k = _hat_stack(self.axes)[:, None]
        self.kk = self.k @ self.k
        self.spherical = np.flatnonzero(kind == "spherical")
        self.spherical_cols = start[self.spherical, None] + np.arange(3)
        depth = [0] * len(joints)
        for i, p in enumerate(parent_index[1:], start=1):
            depth[i] = depth[p] + 1
        order = [0]
        for d in range(1, max(depth) + 1):
            order += sorted(
                (i for i in range(len(joints)) if depth[i] == d),
                key=lambda i: (order.index(parent_index[i]), i),
            )
        self.order = np.array(order)
        self.rank = np.argsort(self.order)
        self.in_level_order = bool(np.all(self.order == np.arange(len(joints))))
        offsets = np.array([j.offset for j in joints])
        levels, first = [], 1
        for d in range(1, max(depth) + 1):
            idx = self.order[first : first + depth.count(d)]
            par = self.rank[[parent_index[i] for i in idx]]
            if np.all(par == par[0]):
                par = slice(par[0], par[0] + 1)
            elif np.all(np.diff(par) == 1):
                par = slice(par[0], par[-1] + 1)
            levels.append((slice(first, first + len(idx)), par, offsets[idx, None, :, None]))
            first += len(idx)
        self.levels = tuple(levels)
        self.fixed_rank = self.rank[kind == "fixed"]
        self.revolute_rank = self.rank[self.revolute]
        self.spherical_rank = self.rank[self.spherical]
        self.col_joint = np.repeat(np.arange(len(joints)), [j.dof_count for j in joints])
        self.moves = np.zeros((len(joints), len(self.col_joint)))
        for i, (p, sl) in enumerate(zip(parent_index, dof_slices)):
            if p >= 0:
                self.moves[i] = self.moves[p]
            self.moves[i, sl] = 1.0
        limited = np.array(
            [(i, k, lo, hi) for i, j in enumerate(joints) for k, (lo, hi) in enumerate(j.limits)],
            dtype=float,
        ).reshape(-1, 4)
        self.limit_joint, self.limit_dof = limited[:, :2].T.astype(int)
        self.limit_col = start[self.limit_joint] + self.limit_dof
        self.lo, self.hi = limited[:, 2].copy(), limited[:, 3].copy()
        limit_kind = kind[self.limit_joint]
        self.limited_revolute = np.flatnonzero(limit_kind == "revolute")
        self.euler = tuple(
            (first, dof_slices[self.limit_joint[first]])
            for first in np.flatnonzero((limit_kind == "spherical") & (self.limit_dof == 0))
        )

    def limited_values(self, values):
        """The values the limits are stated on, one per limited DoF: revolute
        angles, and the intrinsic XYZ Euler angles of spherical joints."""
        out = values[self.limit_col]
        for first, sl in self.euler:
            out[first : first + 3] = _intrinsic_xyz_euler(Rotation.from_rotvec(values[sl]).matrix)
        return out


def fk(skeleton, pose):
    """World transforms of all joints for one Pose, a JointTrajectory or T Poses.

    One Pose gives (J, 3) positions and (J, 3, 3) rotations; a T-frame
    trajectory (its arrays read as they are) or a sequence of T Poses gives
    (T, J, 3) and (T, J, 3, 3), frame by frame the floats of one call per
    pose. Child transform = parent o translate(rest offset) o joint
    rotation; the root transform is (root_position, root_orientation)
    composed with the root joint's own rotation if it has DoF.

    All frames are evaluated at once in level order, from an index plan that
    `Skeleton.__init__` builds once: one broadcast Rodrigues for all revolute
    joints, one for all spherical joints, then each tree depth composed onto
    its parents, written into its own contiguous slice of buffers allocated
    once per call. Every entry goes through the float operations of a
    joint-by-joint walk of the tree, so the results are bit for bit its own.
    """
    single = isinstance(pose, Pose)
    if single:
        root_pos, root_rot = pose.root_position[None], pose.root_orientation.matrix[None]
        values = pose.joint_values[None]
    elif isinstance(pose, JointTrajectory):
        root_pos, root_rot, values = pose.root_positions, pose.root_rotations, pose.joint_values
    else:
        root_pos, root_rot, values = _stack_poses(pose, skeleton.total_dof, "skeleton needs")
    if values.shape[1] != skeleton.total_dof:
        raise PoseMismatch(
            f"pose has {values.shape[1]} values, skeleton needs {skeleton.total_dof}"
        )
    # Joint-major (J, T, ...) buffers in level order: each depth is one slice.
    plan = skeleton._plan
    shape = (len(plan.order), len(values))
    local = np.empty(shape + (3, 3))
    local[plan.fixed_rank] = _EYE3
    theta = values.T[plan.revolute_col]
    local[plan.revolute_rank] = _rodrigues_stack(np.sin(theta), np.cos(theta), plan.k, plan.kk)
    if len(plan.spherical):
        # The same float operations as Rotation.from_rotvec, one rotation vector per row.
        v = values[:, plan.spherical_cols].swapaxes(0, 1)
        angle = _norm(v)
        turned = angle >= 1e-12
        k = _hat_stack(v / np.where(turned, angle, 1.0)[..., None])
        rodrigues = _rodrigues_stack(np.sin(angle), np.cos(angle), k, k @ k)
        local[plan.spherical_rank] = np.where(turned[..., None, None], rodrigues, _EYE3)
    pos = np.empty(shape + (3,))
    rot = np.empty(shape + (3, 3))
    pos[0] = root_pos
    np.matmul(root_rot, local[0], out=rot[0])
    for sl, par, offset in plan.levels:
        parent_rot = rot[par]
        np.add(pos[par], (parent_rot @ offset)[..., 0], out=pos[sl])
        np.matmul(parent_rot, local[sl], out=rot[sl])
    if not plan.in_level_order:
        pos, rot = pos[plan.rank], rot[plan.rank]
    if single:
        return FkResult(pos[:, 0], rot[:, 0])
    return FkResult(pos.swapaxes(0, 1), rot.swapaxes(0, 1))


def _intrinsic_xyz_euler(m):
    """Angles (a, b, c) with m = Rx(a) Ry(b) Rz(c)."""
    b = np.arcsin(np.clip(m[0, 2], -1.0, 1.0))
    if abs(m[0, 2]) < 1.0 - 1e-9:
        a = np.arctan2(-m[1, 2], m[2, 2])
        c = np.arctan2(-m[0, 1], m[0, 0])
    else:
        # Gimbal lock: fold everything into the first angle.
        a = np.arctan2(m[1, 0], m[1, 1])
        c = 0.0
    return np.array([a, b, c])


@dataclass(frozen=True)
class LimitViolation:
    joint: str
    dof_index: int
    amount: float  # signed exceedance, radians


def check_limits(skeleton, pose):
    """Signed limit exceedances; empty list iff every DoF is inside [min, max]."""
    if len(pose.joint_values) != skeleton.total_dof:
        raise PoseMismatch(
            f"pose has {len(pose.joint_values)} values, skeleton needs {skeleton.total_dof}"
        )
    plan = skeleton._plan
    v = plan.limited_values(pose.joint_values)
    amount = v - np.where(v > plan.hi, plan.hi, plan.lo)
    return [
        LimitViolation(skeleton.joints[j].name, int(k), float(amount[i]))
        for i, (j, k) in enumerate(zip(plan.limit_joint, plan.limit_dof))
        if v[i] > plan.hi[i] or v[i] < plan.lo[i]
    ]


@dataclass(frozen=True)
class DofChannel:
    """One named actuator channel in an external ordering convention."""

    name: str
    scale: float = 1.0
    offset: float = 0.0
    default: float | None = None
    meta: dict = field(default_factory=dict)


class DofConfig:
    """Ordered actuator channels; PD gains etc. ride along in channel meta."""

    def __init__(self, channels, name=None):
        channels = tuple(channels)
        names = [c.name for c in channels]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate channel names in DofConfig")
        self.name = name
        self.channels = channels
        self.index = {c.name: i for i, c in enumerate(channels)}

    def __len__(self):
        return len(self.channels)


def remap_dofs(values, src, dst):
    """Reorder/rescale a flat actuator vector from src to dst convention.

    Each dst channel takes (value - src.offset) / src.scale * dst.scale
    + dst.offset when the name exists in src, else its default. Channels
    only present in src are dropped.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if len(values) != len(src):
        raise ValidationError(f"{len(values)} values for {len(src)} source channels")
    out = np.empty(len(dst))
    for i, ch in enumerate(dst.channels):
        j = src.index.get(ch.name)
        if j is None:
            if ch.default is None:
                raise MissingDefault(f"channel '{ch.name}' missing from source and has no default")
            out[i] = ch.default
        else:
            s = src.channels[j]
            out[i] = (values[j] - s.offset) / s.scale * ch.scale + ch.offset
    return out
