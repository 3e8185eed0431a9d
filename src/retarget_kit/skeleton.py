"""Articulated skeletons: joint trees, poses, forward kinematics, DoF remaps."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import MissingDefault, PoseMismatch, UnresolvableCorrespondence, ValidationError
from .rotations import Rotation, _hat_stack, _rodrigues_stack

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

    @property
    def root(self):
        return self.joints[0]

    def joint(self, name):
        return self.joints[self.index[name]]

    def children(self, name):
        i = self.index[name]
        return [j.name for j, p in zip(self.joints, self.parent_index) if p == i]

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


@dataclass
class JointTrajectory:
    """A pose per frame at a fixed frame rate."""

    fps: float
    poses: list
    skeleton: str | None = None

    def values(self):
        return np.array([p.joint_values for p in self.poses])


@dataclass
class FkResult:
    positions: np.ndarray  # (J, 3) world
    rotations: np.ndarray  # (J, 3, 3) world

    def point(self, joint_index, offset):
        """World position of a point fixed at `offset` in a joint's frame."""
        return self.positions[joint_index] + self.rotations[joint_index] @ offset


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
    and K @ K, spherical joints with their (S, 3) value columns. `levels`
    holds (joints, parents, offsets as column vectors) per tree depth below
    the root. `col_joint` maps value columns to joints; row j of `moves` is
    1.0 on the columns that turn joint j. The limited DoFs, in joint order,
    have a joint, DoF index, value column and `lo`/`hi`; `euler` holds
    (first limited DoF, value slice) per limited spherical joint.
    """

    def __init__(self, joints, parent_index, dof_slices):
        kind = np.array([j.dof for j in joints])
        start = np.array([sl.start for sl in dof_slices])
        self.revolute = np.flatnonzero(kind == "revolute")
        self.revolute_col = start[self.revolute]
        self.axes = np.array([joints[i].axis for i in self.revolute]).reshape(-1, 3)
        self.k = _hat_stack(self.axes)
        self.kk = self.k @ self.k
        self.spherical = np.flatnonzero(kind == "spherical")
        self.spherical_cols = start[self.spherical, None] + np.arange(3)
        depth = [0] * len(joints)
        for i, p in enumerate(parent_index[1:], start=1):
            depth[i] = depth[p] + 1
        depth, parents = np.array(depth), np.array(parent_index)
        offsets = np.array([j.offset for j in joints])
        self.levels = tuple(
            (idx, parents[idx], offsets[idx, :, None])
            for idx in (np.flatnonzero(depth == d) for d in range(1, depth.max() + 1))
        )
        self.identity = np.tile(_EYE3, (len(joints), 1, 1))
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
    """World transforms of all joints for one pose.

    Child transform = parent o translate(rest offset) o joint rotation;
    the root transform is (root_position, root_orientation) composed with
    the root joint's own rotation if it has DoF.

    The tree is evaluated in level order from an index plan that
    `Skeleton.__init__` builds once: the local rotations of all revolute
    joints come from one broadcast Rodrigues, those of all spherical joints
    from another, and then each tree depth is composed at once onto its
    parents' world transforms. Every entry goes through the same float
    operations as a joint-by-joint walk of the tree, so the results are bit
    for bit those of that walk.
    """
    values = pose.joint_values
    if len(values) != skeleton.total_dof:
        raise PoseMismatch(
            f"pose has {len(values)} values, skeleton needs {skeleton.total_dof}"
        )
    plan = skeleton._plan
    local = plan.identity.copy()
    theta = values[plan.revolute_col]
    local[plan.revolute] = _rodrigues_stack(np.sin(theta), np.cos(theta), plan.k, plan.kk)
    if len(plan.spherical):
        # The same float operations as Rotation.from_rotvec, one rotation vector per row.
        v = values[plan.spherical_cols]
        angle = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])  # np.linalg.norm's dot
        turned = angle >= 1e-12
        k = _hat_stack(v / np.where(turned, angle, 1.0)[:, None])
        rodrigues = _rodrigues_stack(np.sin(angle), np.cos(angle), k, k @ k)
        local[plan.spherical] = np.where(turned[:, None, None], rodrigues, _EYE3)
    pos = np.empty((len(local), 3))
    rot = np.empty((len(local), 3, 3))
    pos[0] = pose.root_position
    rot[0] = pose.root_orientation.matrix @ local[0]
    for idx, par, offset in plan.levels:
        parent_rot = rot[par]
        pos[idx] = pos[par] + (parent_rot @ offset)[..., 0]
        rot[idx] = parent_rot @ local[idx]
    return FkResult(pos, rot)


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
