"""Per-frame pose feature vectors for motion modeling.

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
    """Heading angle about the vertical Y axis."""
    return np.arctan2(rotation_matrix[0, 2], rotation_matrix[2, 2])


def _wrap_angle(a):
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def build_pose_features(
    skeleton,
    poses,
    fps,
    contact_threshold=DEFAULT_CONTACT_THRESHOLD,
    contact_markers=DEFAULT_CONTACT_MARKERS,
):
    """(T-1) x D feature matrix for a pose sequence at the given frame rate."""
    if len(poses) < 2:
        raise ValidationError("need at least 2 frames to build pose features")
    if fps <= 0:
        raise ValidationError(f"fps must be positive, got {fps}")
    missing = [m for m in contact_markers if m not in skeleton.markers]
    if missing:
        raise MissingContactMarkers(f"skeleton lacks contact markers {missing}")

    results = [fk(skeleton, p) for p in poses]
    t_total = len(poses)

    yaws = np.array([_yaw(r.rotations[0]) for r in results])
    root_pos = np.array([r.positions[0] for r in results])
    root_rot = np.array([r.rotations[0] for r in results])
    # Non-root joint positions expressed in the root frame.
    local_pos = np.array(
        [(r.positions[1:] - r.positions[0]) @ r.rotations[0] for r in results]
    )
    markers = [resolve_marker(skeleton, m) for m in contact_markers]
    contact_pos = np.array([[r.point(j, offset) for j, offset in markers] for r in results])

    rows = []
    for t in range(t_total - 1):
        yaw_rate = _wrap_angle(yaws[t + 1] - yaws[t]) * fps
        v_world = (root_pos[t + 1] - root_pos[t]) * fps
        c, s = np.cos(yaws[t]), np.sin(yaws[t])
        # World velocity in the heading (yaw-only) frame; keep x and z.
        vx = c * v_world[0] - s * v_world[2]
        vz = s * v_world[0] + c * v_world[2]
        joint_vel = (local_pos[t + 1] - local_pos[t]) * fps
        rot6d = np.concatenate(
            [
                np.concatenate([m[:, 0], m[:, 1]])
                for m in (root_rot[t].T @ results[t].rotations[1:])
            ]
        )
        marker_speed2 = np.sum(
            ((contact_pos[t + 1] - contact_pos[t]) * fps) ** 2, axis=1
        )
        contacts = (marker_speed2 < contact_threshold).astype(float)
        rows.append(
            np.concatenate(
                [
                    [yaw_rate, vx, vz, root_pos[t, 1]],
                    local_pos[t].reshape(-1),
                    joint_vel.reshape(-1),
                    rot6d,
                    contacts,
                ]
            )
        )
    return np.array(rows)
