"""Hierarchical pose reconstruction from 3D keypoints, all frames at once.

`reconstruct_sequence` takes one input form: a (T, N, 3) keypoint array
with its N labels. `reconstruct_frame` solves one labelled KeypointFrame.

Works root-outward, depth by depth on FK's `levels`: each joint's local
rotation is solved in its parent's accumulated frame, from its child bone
directions. Single-child joints use the minimal (swing-only) bone alignment;
multi-child joints solve a small orthogonal Procrustes problem over all child
bones. Bone lengths are never rescaled; only directions are matched. Each call
groups the joints of each depth itself (`_levels`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_array, check_labels, check_number
from .rotations import _EYE3, Rotation, _align_stack, _dot, _norm, _procrustes_stack, _rotvec_stack
from .skeleton import JointTrajectory, Pose, _run


@dataclass(frozen=True)
class KeypointFrame:
    """N x 3 world-frame joint positions with joint-name labels."""

    positions: np.ndarray
    labels: tuple

    def __post_init__(self):
        labels = check_labels("labels", self.labels)
        pos = check_array("keypoint positions", self.positions, (len(labels), 3))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "labels", labels)


def _joint_order(skeleton, labels):
    """Keypoint row of each skeleton joint, for one label tuple."""
    row = {label: i for i, label in enumerate(labels)}
    if len(labels) != len(skeleton.joints):
        raise ValidationError(f"{len(labels)} keypoints for {len(skeleton.joints)} joints")
    try:
        return [row[j.name] for j in skeleton.joints]
    except KeyError as e:
        raise ValidationError(f"keypoint frame missing joint {e}") from None


def _levels(skeleton):
    """Keypoint reconstruction's walk, worked out from the skeleton plan's tree.

    Refuses a joint below the root that has children but is not spherical.
    Per depth, the root's in front of FK's `levels`: the single-child joints
    (None if none), then each multi-child joint, each group as level-order
    positions of the joints, their parents (J above the root) and children,
    each a slice where `_run` makes one, and the children's offsets as
    (3, k) columns. Then the joints converted to values, the spherical ones
    below the root with children (a leaf keeps the identity and zero
    values), in joint order: level-order positions and (S, 3) value columns.
    """
    plan, joints, parent = skeleton._plan, skeleton.joints, skeleton.parent_index
    order, children = plan.order.tolist(), plan.children
    for joint, kids in zip(joints[1:], children[1:]):
        if kids and joint.dof != "spherical":
            message = "keypoint reconstruction needs spherical joints"
            raise ValidationError(f"joint '{joint.name}' has dof '{joint.dof}'; {message}")
    at = plan.rank.tolist() + [len(joints)]  # level-order positions, J above the root

    def group(solved, kids):  # the positions of the joints, their parents and children
        runs = [_run([at[i] for i in js]) for js in (solved, [parent[i] for i in solved], kids)]
        return (*runs, np.array([joints[c].offset for c in kids]).T.copy())

    depths = []
    for sl in [slice(0, 1)] + [sl for sl, _ in plan.levels]:
        solved = [i for i in order[sl] if children[i]]
        ones = [i for i in solved if len(children[i]) == 1]
        singles = group(ones, [children[i][0] for i in ones]) if ones else None
        depths.append((singles, [group([i], children[i]) for i in solved if i not in ones]))
    solved = [i for i in range(1, len(joints)) if children[i]]
    start = np.array([skeleton.dof_slices[i].start for i in solved], dtype=int)
    return depths, [at[i] for i in solved], start[:, None] + np.arange(3)


def _reconstruct(skeleton, kp, continuity=False):
    """Root orientations (T, 3, 3) and joint values (T, DoF) of (T, J, 3)
    keypoints in joint order, solved depth by depth with the floats of a
    joint-by-joint walk, then, with `continuity`, kept on one quaternion
    hemisphere. A refusal is a ValidationError that names the earliest frame,
    then the first joint in skeleton order, where such a walk stops."""
    depths, converted, cols = _levels(skeleton)
    plan, n = skeleton._plan, len(kp)
    kp = kp.swapaxes(0, 1)[plan.order]
    # Level-order joint-major buffers, as FK's: a joint without children keeps the
    # identity, and the identity above the root sits in the last slot of `world`.
    local = np.broadcast_to(_EYE3, (len(kp), n, 3, 3)).copy()
    world = np.empty((len(kp) + 1, n, 3, 3))
    world[-1] = _EYE3
    # (refusal mask (k, T), joints, reason of item i) of each kernel call: a refused
    # item gets the identity, the walk goes on, and the error is chosen at the end
    calls = []
    levels = ((slice(0, 1), slice(-1, None)),) + plan.levels  # the root's, below the identity
    for (sl, par), (singles, multis) in zip(levels, depths):
        if singles:
            at, above, kids, offsets = singles
            seen = (world[above].swapaxes(2, 3) @ (kp[kids] - kp[at])[..., None]).reshape(-1, 3)
            rot, bad, why = _align_stack(np.repeat(offsets.T, n, axis=0), seen)
            local[at] = rot.reshape(-1, n, 3, 3)
            calls.append((bad.reshape(-1, n), plan.order[at], why))
        for at, above, kids, templates in multis:
            seen = (world[above].swapaxes(2, 3) @ (kp[kids] - kp[at])[..., None])[..., 0]
            local[at], bad, why = _procrustes_stack(templates, seen.transpose(1, 2, 0).copy())
            calls.append((bad[None], plan.order[at], why))
        np.matmul(world[par], local[sl], out=world[sl])
    refused = [(t, joints[k], why, k * n + t) for bad, joints, why in calls
               for k, t in zip(*np.nonzero(bad))]
    if refused:
        t, j, why, i = min(refused, key=lambda r: r[:2])
        names = ", ".join(f"'{skeleton.joints[c].name}'" for c in plan.children[j])
        raise ValidationError(f"frame {t}, joint '{skeleton.joints[j].name}' → {names}: {why(i)}")
    values = np.zeros((n, skeleton.total_dof))
    turns = _rotvec_stack(local[converted].reshape(-1, 3, 3))
    values[:, cols] = turns.reshape(-1, n, 3).swapaxes(0, 1)
    if continuity and n > 1:
        _hemisphere_continuity(values, cols)
    return local[0], values


def reconstruct_frame(skeleton, frame):
    """Recover a pose whose FK reproduces every observed bone direction.

    The T = 1 case of `reconstruct_sequence` without the continuity pass; a
    refusal names frame 0.
    """
    kp = frame.positions[_joint_order(skeleton, frame.labels)]
    root, values = _reconstruct(skeleton, kp[None])
    return Pose(kp[0], Rotation(root[0]), values[0])


def _rotvec_quat(v):
    """Quaternions of raw (..., 3) axis-angle vectors, without hemisphere folding."""
    v = np.asarray(v, dtype=float)
    angle = _norm(v)
    turned = angle >= 1e-12
    q = np.zeros(v.shape[:-1] + (4,))
    q[..., 0] = 1.0
    a = angle[turned]
    q[turned] = np.column_stack([np.cos(a / 2.0), (np.sin(a / 2.0) / a)[:, None] * v[turned]])
    return q


def _hemisphere_continuity(values, cols):
    """Re-express the axis-angle vectors in the (S, 3) value columns `cols` in
    place so consecutive frames keep dot(q_t, q_{t+1}) >= 0, as a
    frame-by-frame pass would."""
    v = values[:, cols]  # (T, S, 3)
    q = _rotvec_quat(v)
    # Frame t flips iff frame t - 1 flipped XOR the raw dot of their quaternions
    # is negative, but a dot of 0 or NaN flips neither way: so iff an odd number
    # of negative dots lead up to it since the last such dot.
    raw = np.concatenate([np.ones((1, len(cols))), _dot(q[:-1], q[1:])])  # frame t's is row t
    odd = np.logical_xor.accumulate(raw < 0, axis=0)
    last = np.where((raw < 0) | (raw > 0), 0, np.arange(len(v))[:, None])
    flip = odd ^ np.take_along_axis(odd, np.maximum.accumulate(last, axis=0), axis=0)
    angle = _norm(v)
    flip &= angle >= 1e-12
    v[flip] *= ((angle[flip] - 2.0 * np.pi) / angle[flip])[:, None]
    values[:, cols] = v


def reconstruct_sequence(skeleton, frames, labels, *, fps=30.0, hemisphere_continuity=True):
    """The JointTrajectory of a (T, N, 3) keypoint array with its N `labels`,
    with an optional quaternion-continuity pass.

    Every skeleton joint needs one labelled keypoint. All frames are solved at
    once, bit for bit as T calls of `reconstruct_frame` would solve them. The
    continuity pass re-expresses spherical joint axis-angle vectors so
    consecutive frames stay on the same quaternion hemisphere
    (dot(q_t, q_{t+1}) >= 0), which may push angles above pi. A degenerate
    bone or rank-deficient joint is a ValidationError at the earliest frame,
    and within it the first joint in skeleton order: "frame t, joint 'a' →
    'b': bone norms …" or "…: cross-covariance rank < 2 …".
    """
    check_number("fps", fps, "> 0")
    labels = check_labels("labels", labels)
    kp = check_array("keypoints", frames, (None, len(labels), 3))
    if not len(kp):
        raise ValidationError("empty keypoint sequence")
    kp = kp[:, _joint_order(skeleton, labels)]
    root, values = _reconstruct(skeleton, kp, hemisphere_continuity)
    return JointTrajectory.from_arrays(fps, kp[:, 0], root, values, skeleton.name)
