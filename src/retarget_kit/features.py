"""Pose feature vectors for motion modeling, one row per pair of consecutive frames.

Layout, in order: root yaw angular velocity (1), root linear velocity on
the XZ plane in the heading frame (2), root height (1), non-root joint
positions (3j), velocities (3j) and rotations in 6D form (6j) in root
space, and one binary foot-contact flag per contact marker from its speed
(heel and toe of each foot by default). Total dimension D = 4 + 12j + c
for j non-root joints and c contact markers. Velocities use forward
differences between consecutive frames, so a T-frame input yields T - 1
feature frames.
"""

from __future__ import annotations

import numpy as np

from .errors import MissingContactMarkers, ValidationError
from .skeleton import fk, resolve_marker

DEFAULT_CONTACT_MARKERS = ("l_heel", "l_toe", "r_heel", "r_toe")
DEFAULT_CONTACT_THRESHOLD = 1e-3  # on squared marker speed


def feature_dimension(skeleton, contact_markers=DEFAULT_CONTACT_MARKERS):
    j = len(skeleton.joints) - 1
    return 4 + 12 * j + len(contact_markers)


def _yaw(rotation_matrix):
    """Heading angle about the vertical Y axis, of each (..., 3, 3) matrix."""
    return np.arctan2(rotation_matrix[..., 0, 2], rotation_matrix[..., 2, 2])


def _wrap_angle(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def build_pose_features(
    skeleton,
    poses,
    fps,
    contact_threshold=DEFAULT_CONTACT_THRESHOLD,
    contact_markers=DEFAULT_CONTACT_MARKERS,
):
    """(T-1) x D feature matrix of a JointTrajectory or T Poses at the given frame rate."""
    if len(poses) < 2:
        raise ValidationError("need at least 2 frames to build pose features")
    if fps <= 0:
        raise ValidationError(f"fps must be positive, got {fps}")
    missing = [m for m in contact_markers if m not in skeleton.markers]
    if missing:
        raise MissingContactMarkers(f"skeleton lacks contact markers {missing}")

    res = fk(skeleton, poses)
    root_pos, root_rot = res.positions[:, 0], res.rotations[:, 0]
    yaws = _yaw(root_rot)
    # Non-root joint positions expressed in the root frame.
    local_pos = (res.positions[:, 1:] - root_pos[:, None]) @ root_rot
    markers = [resolve_marker(skeleton, m) for m in contact_markers]
    contact_pos = np.stack([res.point(j, offset) for j, offset in markers], axis=1)

    # Row t of every block below is feature frame t, from frames t and t + 1.
    yaw_rate = _wrap_angle(yaws[1:] - yaws[:-1]) * fps
    v_world = (root_pos[1:] - root_pos[:-1]) * fps
    c, s = np.cos(yaws[:-1]), np.sin(yaws[:-1])
    # World velocity in the heading (yaw-only) frame; keep x and z.
    vx = c * v_world[:, 0] - s * v_world[:, 2]
    vz = s * v_world[:, 0] + c * v_world[:, 2]
    joint_vel = (local_pos[1:] - local_pos[:-1]) * fps
    rel = np.swapaxes(root_rot[:-1], 1, 2)[:, None] @ res.rotations[:-1, 1:]
    rot6d = np.concatenate([rel[..., :, 0], rel[..., :, 1]], axis=-1)
    marker_speed2 = np.sum(((contact_pos[1:] - contact_pos[:-1]) * fps) ** 2, axis=2)
    contacts = (marker_speed2 < contact_threshold).astype(float)
    rows = len(poses) - 1
    blocks = [local_pos[:-1], joint_vel, rot6d]
    root = np.stack([yaw_rate, vx, vz, root_pos[:-1, 1]], axis=1)
    return np.concatenate([root] + [b.reshape(rows, -1) for b in blocks] + [contacts], axis=1)
