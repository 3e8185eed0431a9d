"""Articulated skeletons: joint trees, poses, forward kinematics, joint limits."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ValidationError, check_array, check_number
from .rotations import Rotation, _exp_stack, _hat_stack, _rodrigues_stack

DOF_COUNTS = {"fixed": 0, "revolute": 1, "spherical": 3}

_EYE3 = np.eye(3)


def _vector3(name, value):
    """`value` checked by the array rule and stored flat: any array of 3 values will do."""
    v = check_array(name, value)
    if v.size != 3:
        raise ValidationError(f"{name}: expected shape (3,), got {v.shape}")
    return v.reshape(3)


def _axis_norms(axes):
    """The norm of each row of (R, 3) `axes`, from that row's own dot product, so
    that an axis has the same norm whether it is checked alone or in a stack."""
    return np.sqrt([a.dot(a) for a in axes])


_AXIS_NORM_TOL = 1e-6  # how far from 1 a revolute axis's norm may be before it is scaled to 1


def _skeleton_name(name):
    """`name` if it names a skeleton: a string, or None for an unnamed one."""
    if not isinstance(name, (str, type(None))):
        raise ValidationError(f"expected a skeleton name, got {name!r:.40}")
    return name


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
        if not (isinstance(self.name, str) and isinstance(self.parent, (str, type(None)))):
            raise ValidationError(
                f"joint and parent names must be strings, got {self.name!r:.40}, "
                f"{self.parent!r:.40}"
            )
        object.__setattr__(self, "offset", _vector3(f"offset of joint '{self.name}'", self.offset))
        if self.dof not in DOF_COUNTS:
            raise ValidationError(f"joint '{self.name}': unknown dof kind '{self.dof}'")
        if self.dof == "revolute":
            if self.axis is None:
                raise ValidationError(f"joint '{self.name}': revolute joint needs an axis")
            ax = _vector3(f"axis of joint '{self.name}'", self.axis)
            (n,) = _axis_norms(ax[None])
            if abs(n - 1.0) > _AXIS_NORM_TOL:
                raise ValidationError(f"joint '{self.name}': revolute axis norm {n} != 1")
            object.__setattr__(self, "axis", ax / n)
        name = f"limit of joint '{self.name}'"
        try:
            lim = tuple(
                (float(check_number(name, lo, "finite")), float(check_number(name, hi, "finite")))
                for lo, hi in self.limits
            )
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
        if not (isinstance(self.name, str) and isinstance(self.joint, str)):
            raise ValidationError(
                f"marker and joint names must be strings, got {self.name!r:.40}, {self.joint!r:.40}"
            )
        object.__setattr__(self, "offset", _vector3(f"offset of marker '{self.name}'", self.offset))


class Skeleton:
    """Joint tree in topological order (parents strictly before children)."""

    def __init__(self, joints, markers=(), name=None):
        self.name = _skeleton_name(name)
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


@dataclass(frozen=True)
class Pose:
    """Root transform plus flat joint-value vector in skeleton joint order."""

    root_position: np.ndarray
    root_orientation: Rotation
    joint_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "root_position", _vector3("root_position", self.root_position))
        values = check_array("joint_values", self.joint_values).reshape(-1)
        object.__setattr__(self, "joint_values", values)


def _stack_poses(poses, dof, expected):
    """(T, 3) root positions, (T, 3, 3) root rotations and (T, dof) joint values of T Poses."""
    for p in poses:
        if len(p.joint_values) != dof:
            raise ValidationError(f"pose has {len(p.joint_values)} values, {expected} {dof}")
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
        check_number("fps", fps, "> 0")
        values = check_array("joint_values", joint_values, (None, None))
        n = len(values)
        arrays = [
            np.array(check_array("root_positions", root_positions, (n, 3))),
            np.array(check_array("root_rotations", root_rotations, (n, 3, 3))),
            np.array(values),
        ]
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
        raise ValidationError(
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
    `levels` holds (slice of the depth, its parents) per depth below the
    root, in level-order positions; the parents are a slice whenever they
    are a contiguous run or a single joint, else an index array. The joints
    below the root, level-order positions 1 to J - 1, have their parents'
    positions in `parent_rank` and their offsets as column vectors in
    `offsets`. K, K @ K and the offsets carry a length-1 frame axis after
    the joint axis, as `fk`'s buffers do (`fk_buffers`);
    `fixed_rank`, `revolute_rank` and `spherical_rank` place each kind of
    joint in them.
    `col_joint` maps value columns to joints; row j of `moves` is 1.0 on the
    columns that turn joint j. The limited DoFs, in joint order, have a
    joint, DoF index, value column and `lo`/`hi`. The E Euler-limited
    spherical joints are two (E, 3) index arrays: `euler_rows`, the rows
    of their three limited DoFs, and `euler_cols`, their value columns.
    `children` lists each joint's children. Keypoint reconstruction works
    out its own walk from them, `order`, `rank` and `levels` (`ik._levels`).
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
        children = [[] for _ in joints]
        for i, p in enumerate(parent_index[1:], start=1):
            children[p].append(i)
        self.children = children
        order = [0]
        for i in order:  # breadth first: each depth's joints grouped by their parents' order
            order += children[i]
        self.order = np.array(order)
        self.rank = np.argsort(self.order)
        self.in_level_order = bool(np.all(self.order == np.arange(len(joints))))
        levels, sl = [], slice(0, 1)
        while sl.stop < len(joints):  # the next depth: the children of this one
            sl = slice(sl.stop, sl.stop + sum(len(children[i]) for i in order[sl]))
            levels.append((sl, _run(self.rank[[parent_index[i] for i in order[sl]]].tolist())))
        self.levels = tuple(levels)
        self.parent_rank = self.rank[[parent_index[i] for i in self.order[1:]]]
        self.offsets = np.array([j.offset for j in joints])[self.order[1:], None, :, None]
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
        first = np.flatnonzero((limit_kind == "spherical") & (self.limit_dof == 0))
        self.euler_rows = first[:, None] + np.arange(3)
        self.euler_cols = self.limit_col[self.euler_rows]

    def fk_buffers(self, frames):
        """Level-order (J, frames, ...) `local`, `pos` and `rot` buffers for `_fk_arrays`,
        the fixed joints' identity already written into `local`."""
        shape = (len(self.order), frames)
        local = np.empty(shape + (3, 3))
        local[self.fixed_rank] = _EYE3
        return local, np.empty(shape + (3,)), np.empty(shape + (3, 3))

    def limited_values(self, values):
        """The values the limits are stated on, one per limited DoF: revolute
        angles, and the intrinsic XYZ Euler angles of spherical joints."""
        out = values[self.limit_col]
        if len(self.euler_rows):
            out[self.euler_rows] = _intrinsic_xyz_euler(_exp_stack(values[self.euler_cols]))
        return out


def _run(index):
    """A list of positions as a slice when they are one position (which
    broadcasts) or a contiguous run, else as an index array."""
    first, k = index[0], len(index)
    if index.count(first) == k:
        return slice(first, first + 1)
    if index == list(range(first, first + k)):
        return slice(first, first + k)
    return np.array(index)


def fk(skeleton, pose):
    """World transforms of all joints for one Pose, a JointTrajectory or T Poses.

    One Pose gives (J, 3) positions and (J, 3, 3) rotations; a T-frame
    trajectory (its arrays read as they are) or a sequence of T Poses gives
    (T, J, 3) and (T, J, 3, 3), frame by frame the floats of one call per
    pose. Child transform = parent o translate(rest offset) o joint
    rotation; the root transform is (root_position, root_orientation)
    composed with the root joint's own rotation if it has DoF. The frames
    go to `_fk_arrays` as arrays, in buffers allocated for the call, and
    its level-order result is put back in joint order.
    """
    if isinstance(pose, Pose):
        root, rot, values = pose.root_position, pose.root_orientation.matrix, pose.joint_values
        arrays = root[None], rot[None], values[None]
    elif isinstance(pose, JointTrajectory):
        arrays = pose.root_positions, pose.root_rotations, pose.joint_values
    else:
        arrays = _stack_poses(pose, skeleton.total_dof, "skeleton needs")
    plan = skeleton._plan
    pos, rot = _fk_arrays(skeleton, *arrays, plan.fk_buffers(len(arrays[2])))
    if not plan.in_level_order:
        pos, rot = pos[plan.rank], rot[plan.rank]
    pos, rot = pos.swapaxes(0, 1), rot.swapaxes(0, 1)
    return FkResult(pos[0], rot[0]) if isinstance(pose, Pose) else FkResult(pos, rot)


def _fk_arrays(skeleton, root_pos, root_rot, values, buffers):
    """`fk` of T frames given as (T, 3) root positions, (T, 3, 3) root rotations and
    (T, DoF) joint values, read as they are, written into `buffers`, the
    plan's `fk_buffers(T)`; returns their level-order (J, T, 3) positions and
    (J, T, 3, 3) rotations, joint j at `plan.rank[j]`, valid until the next
    call with them.

    All frames are evaluated at once in level order, from an index plan that
    `Skeleton.__init__` builds once: one broadcast Rodrigues for all revolute
    joints, one for all spherical joints, each tree depth's rotations composed
    onto its parents', one product for every joint's offset, and then each
    depth's positions; each depth is written into its own contiguous slice
    of the buffers, so a caller that evaluates many times allocates them
    once. Every entry goes through the float operations of a joint-by-joint
    walk of the tree, so the results are bit for bit its own.
    """
    if values.shape[1] != skeleton.total_dof:
        raise ValidationError(
            f"pose has {values.shape[1]} values, skeleton needs {skeleton.total_dof}"
        )
    # Joint-major (J, T, ...) buffers in level order: each depth is one slice.
    plan = skeleton._plan
    local, pos, rot = buffers
    theta = values.T[plan.revolute_col]
    local[plan.revolute_rank] = _rodrigues_stack(theta, plan.k, plan.kk)
    if len(plan.spherical):
        local[plan.spherical_rank] = _exp_stack(values[:, plan.spherical_cols].swapaxes(0, 1))
    np.matmul(root_rot, local[0], out=rot[0])
    for sl, par in plan.levels:
        np.matmul(rot[par], local[sl], out=rot[sl])
    # Each joint's offset turned into the world by its parent, all joints in one product.
    lever = (rot[plan.parent_rank] @ plan.offsets)[..., 0]
    pos[0] = root_pos
    for sl, par in plan.levels:
        np.add(pos[par], lever[sl.start - 1 : sl.stop - 1], out=pos[sl])
    return pos, rot


def _intrinsic_xyz_euler(m):
    """Angles (a, b, c) with m = Rx(a) Ry(b) Rz(c), as (..., 3) for an (..., 3, 3) stack."""
    b = np.arcsin(np.clip(m[..., 0, 2], -1.0, 1.0))
    free = np.abs(m[..., 0, 2]) < 1.0 - 1e-9
    a = np.arctan2(-m[..., 1, 2], m[..., 2, 2])
    c = np.arctan2(-m[..., 0, 1], m[..., 0, 0])
    # Gimbal lock: fold everything into the first angle.
    a = np.where(free, a, np.arctan2(m[..., 1, 0], m[..., 1, 1]))
    return np.stack([a, b, np.where(free, c, 0.0)], axis=-1)


@dataclass(frozen=True)
class LimitViolation:
    joint: str
    dof_index: int
    amount: float  # signed exceedance, radians


def check_limits(skeleton, pose):
    """Signed limit exceedances; empty list iff every DoF is inside [min, max]."""
    if len(pose.joint_values) != skeleton.total_dof:
        raise ValidationError(
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
