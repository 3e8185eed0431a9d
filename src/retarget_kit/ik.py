"""Hierarchical pose reconstruction from 3D keypoints, all frames at once.

Works root-outward: each joint's local rotation is solved in its parent's
accumulated frame, from its child bone directions. Single-child joints use
the minimal (swing-only) bone alignment; multi-child joints solve a small
orthogonal Procrustes problem over all child bones. Bone lengths are never
rescaled; only directions are matched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBone, PoseMismatch, RankDeficient, ValidationError, check_array, check_labels,
)
from .rotations import Rotation, _align_stack, _dot, _norm, _procrustes_stack, _rotvec_stack
from .skeleton import JointTrajectory, Pose


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
        raise PoseMismatch(f"{len(labels)} keypoints for {len(skeleton.joints)} joints")
    try:
        return [row[j.name] for j in skeleton.joints]
    except KeyError as e:
        raise PoseMismatch(f"keypoint frame missing joint {e}") from None


def _reconstruct(skeleton, kp):
    """Root orientations (T, 3, 3) and joint values (T, DoF) of (T, J, 3)
    keypoints in joint order: the joints in skeleton order, each solved for
    all frames by one stacked bone alignment or Procrustes solve."""
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
        try:
            if len(ch) == 1:
                offset = skeleton.joints[ch[0]].offset
                local = _align_stack(np.broadcast_to(offset, (n, 3)), observed[:, :, 0])
            else:
                templates = np.column_stack([skeleton.joints[c].offset for c in ch])
                local = _procrustes_stack(templates, observed)
        except (DegenerateBone, RankDeficient) as e:
            names = ", ".join(f"'{skeleton.joints[c].name}'" for c in ch)
            raise type(e)(f"joint '{joint.name}' → {names}: {e}") from None
        world[:, i] = parent_world @ local
        if p < 0:
            root = local
        else:
            values[:, skeleton.dof_slices[i]] = _rotvec_stack(local)
    return root, values


def reconstruct_frame(skeleton, frame):
    """Recover a pose whose FK reproduces every observed bone direction.

    The T = 1 case of `reconstruct_sequence` without the continuity pass.
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


def _hemisphere_continuity(skeleton, values):
    """Re-express non-root spherical joint vectors in place so consecutive
    frames keep dot(q_t, q_{t+1}) >= 0, as a frame-by-frame pass would."""
    plan = skeleton._plan
    cols = plan.spherical_cols[plan.spherical > 0]
    v = values[:, cols]  # (T, S, 3)
    q = _rotvec_quat(v)
    raw = _dot(q[:-1], q[1:])  # (T - 1, S)
    # Frame t flips iff its raw quaternion points away from frame t - 1's
    # quaternion as flipped; a dot of exactly 0 flips neither way.
    flip = np.zeros((len(v), len(cols)), dtype=bool)
    for t, d in enumerate(raw, start=1):
        flip[t] = np.where(flip[t - 1], d > 0, d < 0)
    angle = _norm(v)
    flip &= angle >= 1e-12
    v[flip] *= ((angle[flip] - 2.0 * np.pi) / angle[flip])[:, None]
    values[:, cols] = v


def reconstruct_sequence(
    skeleton, frames, labels=None, *, fps=30.0, hemisphere_continuity=True
):
    """The JointTrajectory of T keypoint frames, with an optional quaternion-continuity pass.

    `frames` is either a (T, N, 3) keypoint array with its N `labels`, or T
    KeypointFrames, each labelled on its own; either way every skeleton joint
    needs one labelled position. All frames are solved at once from one
    (T, J, 3) keypoint array, bit for bit as T calls of `reconstruct_frame`
    would solve them. The continuity pass re-expresses spherical joint
    axis-angle vectors so consecutive frames stay on the same quaternion
    hemisphere (dot(q_t, q_{t+1}) >= 0), which may push angles above pi. A
    degenerate bone or rank-deficient joint is reported at the earliest
    frame, and within it the first joint in skeleton order.
    """
    if labels is None and all(isinstance(f, KeypointFrame) for f in frames):
        if not len(frames):
            raise ValidationError("empty keypoint sequence")
        first_seen = dict.fromkeys(f.labels for f in frames)
        orders = {key: _joint_order(skeleton, key) for key in first_seen}
        rows = np.array([orders[f.labels] for f in frames])
        kp = np.array([f.positions for f in frames])[np.arange(len(frames))[:, None], rows]
    else:
        labels = check_labels("labels", labels)  # refuses None: an array needs its labels
        kp = check_array("keypoints", frames, (None, len(labels), 3))
        if not len(kp):
            raise ValidationError("empty keypoint sequence")
        kp = kp[:, _joint_order(skeleton, labels)]
    try:
        root, values = _reconstruct(skeleton, kp)
    except (DegenerateBone, RankDeficient):
        for t in range(len(kp)):
            try:
                _reconstruct(skeleton, kp[t : t + 1])
            except (DegenerateBone, RankDeficient) as e:
                raise type(e)(f"frame {t}, {e}") from None
        raise
    if hemisphere_continuity and len(kp) > 1:
        _hemisphere_continuity(skeleton, values)
    return JointTrajectory.from_arrays(fps, kp[:, 0], root, values, skeleton.name)
