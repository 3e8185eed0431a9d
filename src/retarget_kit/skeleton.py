"""Articulated skeletons: joint trees, poses, forward kinematics, DoF remaps."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import MissingDefault, PoseMismatch, UnresolvableCorrespondence, ValidationError
from .rotations import Rotation, _rodrigues_matrix

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


def _local_matrix(joint, values):
    if joint.dof == "fixed":
        return _EYE3
    if joint.dof == "revolute":
        return _rodrigues_matrix(joint.axis, values[0])
    angle = np.linalg.norm(values)
    if angle < 1e-12:
        return _EYE3
    return _rodrigues_matrix(values / angle, angle)


def fk(skeleton, pose):
    """World transforms of all joints for one pose.

    Child transform = parent o translate(rest offset) o joint rotation;
    the root transform is (root_position, root_orientation) composed with
    the root joint's own rotation if it has DoF.
    """
    if len(pose.joint_values) != skeleton.total_dof:
        raise PoseMismatch(
            f"pose has {len(pose.joint_values)} values, skeleton needs {skeleton.total_dof}"
        )
    nj = len(skeleton.joints)
    pos = np.empty((nj, 3))
    rot = np.empty((nj, 3, 3))
    for i, joint in enumerate(skeleton.joints):
        local = _local_matrix(joint, pose.joint_values[skeleton.dof_slices[i]])
        p = skeleton.parent_index[i]
        if p < 0:
            pos[i] = pose.root_position
            rot[i] = pose.root_orientation.matrix @ local
        else:
            pos[i] = pos[p] + rot[p] @ joint.offset
            rot[i] = rot[p] @ local
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


def limited_dofs(skeleton, values):
    """Yield (joint, k, value, lo, hi) for every limited DoF of a joint-value vector.

    Spherical joints yield their intrinsic XYZ Euler angles, the values
    their limits are stated on.
    """
    for i, joint in enumerate(skeleton.joints):
        if not joint.limits:
            continue
        vals = values[skeleton.dof_slices[i]]
        if joint.dof == "spherical":
            vals = _intrinsic_xyz_euler(_local_matrix(joint, vals))
        for k, (lo, hi) in enumerate(joint.limits):
            yield joint, k, vals[k], lo, hi


def check_limits(skeleton, pose):
    """Signed limit exceedances; empty list iff every DoF is inside [min, max]."""
    if len(pose.joint_values) != skeleton.total_dof:
        raise PoseMismatch(
            f"pose has {len(pose.joint_values)} values, skeleton needs {skeleton.total_dof}"
        )
    out = []
    for joint, k, v, lo, hi in limited_dofs(skeleton, pose.joint_values):
        if v > hi:
            out.append(LimitViolation(joint.name, k, float(v - hi)))
        elif v < lo:
            out.append(LimitViolation(joint.name, k, float(v - lo)))
    return out


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
