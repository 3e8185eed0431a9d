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
from .rotations import _EYE3, Rotation, _align_stack, _dot, _norm, _procrustes_stack, _rotvec_stack
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
    keypoints in joint order, solved depth by depth on FK's `levels` with the
    floats of a joint-by-joint walk. The error names the earliest frame (its
    `frame`), then the first joint in skeleton order, where such a walk stops."""
    plan, joint = skeleton._plan, skeleton._plan.unobservable
    if joint is not None:
        message = "keypoint reconstruction needs spherical joints"
        raise ValidationError(f"joint '{joint.name}' has dof '{joint.dof}'; {message}")
    n = len(kp)
    kp = kp.swapaxes(0, 1)[plan.order]
    # Level-order joint-major buffers, as FK's: a joint without children keeps the
    # identity, and the identity above the root sits in the last slot of `world`.
    local = np.broadcast_to(_EYE3, (len(kp), n, 3, 3)).copy()
    world = np.empty((len(kp) + 1, n, 3, 3))
    world[-1] = _EYE3
    # (refusal mask (k, T), joints, error of item i) of each kernel call: a refused
    # item gets the identity, the walk goes on, and the error is chosen at the end
    calls = []
    levels = ((slice(0, 1), slice(-1, None)),) + plan.levels  # the root's, below the identity
    for (sl, par), (singles, multis) in zip(levels, plan.solve_levels):
        if singles:
            at, above, kids, offsets = singles
            seen = (world[above].swapaxes(2, 3) @ (kp[kids] - kp[at])[..., None]).reshape(-1, 3)
            rot, bad, error = _align_stack(np.repeat(offsets, n, axis=0), seen)
            local[at] = rot.reshape(len(at), n, 3, 3)
            calls.append((bad.reshape(len(at), n), plan.order[at], error))
        for at, above, kids, templates in multis:
            seen = (world[above].swapaxes(2, 3) @ (kp[kids] - kp[at])[..., None])[..., 0]
            local[at], bad, error = _procrustes_stack(templates, seen.transpose(1, 2, 0).copy())
            calls.append((bad[None], plan.order[at], error))
        np.matmul(world[par], local[sl], out=world[sl])
    refused = [(t, joints[k], error, k * n + t) for bad, joints, error in calls
               for k, t in zip(*np.nonzero(bad))]
    if refused:
        t, j, error, i = min(refused, key=lambda r: r[:2])
        names = ", ".join(f"'{skeleton.joints[c].name}'" for c in plan.children[j])
        e = error(i)
        e = type(e)(f"joint '{skeleton.joints[j].name}' → {names}: {e}")
        e.frame = t
        raise e
    values = np.zeros((n, skeleton.total_dof))
    turns = _rotvec_stack(local[plan.spherical_rank[plan.spherical > 0]].reshape(-1, 3, 3))
    values[:, plan.solved_cols] = turns.reshape(-1, n, 3).swapaxes(0, 1)
    return local[0], values


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
    cols = skeleton._plan.solved_cols
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
    except (DegenerateBone, RankDeficient) as e:
        raise type(e)(f"frame {e.frame}, {e}") from None
    if hemisphere_continuity and len(kp) > 1:
        _hemisphere_continuity(skeleton, values)
    return JointTrajectory.from_arrays(fps, kp[:, 0], root, values, skeleton.name)
