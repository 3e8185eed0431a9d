"""SO(3) rotation algebra: conversions, bone alignment, Procrustes, geodesics.

A Rotation stores a 3x3 orthonormal matrix and exposes lossless views as a
unit quaternion (w, x, y, z), axis-angle with angle in [0, pi], and the 6D
continuous representation (first two matrix columns, flattened). All
operations are pure and all values immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBone, DegenerateFrame, RankDeficient

# Default tolerances; every public operation takes an override keyword.
ORTHONORMAL_TOL = 1e-9
DEGENERATE_NORM = 1e-8
RANK_TOL = 1e-9

_EYE3 = np.eye(3)


def _hat(v):
    """Skew-symmetric (cross-product) matrix of a 3-vector."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def _rodrigues_matrix(axis, angle):
    """Rotation matrix about a unit axis: I + sin(t) K + (1 - cos(t)) K^2."""
    k = _hat(axis)
    return _EYE3 + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _hat_stack(v):
    """`_hat` of each row of an (n, 3) array."""
    k = np.zeros((len(v), 3, 3))
    k[:, 0, 1], k[:, 0, 2] = -v[:, 2], v[:, 1]
    k[:, 1, 0], k[:, 1, 2] = v[:, 2], -v[:, 0]
    k[:, 2, 0], k[:, 2, 1] = -v[:, 1], v[:, 0]
    return k


def _rodrigues_stack(sin, cos, k, kk):
    """Stacked I + sin(t) K + (1 - cos(t)) K^2, as `_rodrigues_matrix` computes it."""
    return _EYE3 + sin[:, None, None] * k + (1.0 - cos)[:, None, None] * kk


def _right_jacobian(phi):
    """J_r(phi), with Exp(phi + d) ~ Exp(phi) Exp(J_r(phi) d) for small d.

    Right Jacobian of SO(3) per Sola, Deray & Atchuthan, "A micro Lie
    theory for state estimation in robotics" (arXiv:1812.01537); a series
    replaces the closed form near phi = 0.
    """
    theta = np.linalg.norm(phi)
    k = _hat(phi)
    if theta < 1e-4:
        a = 0.5 - theta * theta / 24.0
        b = 1.0 / 6.0 - theta * theta / 120.0
    else:
        a = (1.0 - np.cos(theta)) / (theta * theta)
        b = (theta - np.sin(theta)) / theta**3
    return _EYE3 - a * k + b * (k @ k)


def _right_jacobian_inv(phi):
    """Inverse of `_right_jacobian`; finite for every angle up to pi."""
    theta = np.linalg.norm(phi)
    k = _hat(phi)
    if theta < 1e-4:
        c = 1.0 / 12.0 + theta * theta / 720.0
    else:
        # (1 + cos t) / (2 t sin t) written with tan(t/2) stays finite at t = pi.
        c = 1.0 / (theta * theta) - 1.0 / (2.0 * theta * np.tan(0.5 * theta))
    return _EYE3 + 0.5 * k + c * (k @ k)


@dataclass(frozen=True)
class Rotation:
    """One orientation in SO(3), canonically stored as a 3x3 matrix.

    Construct through the classmethods; `from_matrix` validates
    orthonormality, the other constructors produce valid members by
    construction and skip the check.
    """

    matrix: np.ndarray

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls):
        return cls(_EYE3.copy())

    @classmethod
    def from_matrix(cls, m, *, tol=ORTHONORMAL_TOL):
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise DegenerateFrame(f"expected 3x3 matrix, got shape {m.shape}")
        err = np.linalg.norm(m.T @ m - _EYE3)
        det = np.linalg.det(m)
        if err > tol or abs(det - 1.0) > tol:
            raise DegenerateFrame(
                f"matrix not in SO(3): orthonormality residual {err:.3e}, det {det:.12f}"
            )
        return cls(m)

    @classmethod
    def from_quat(cls, q):
        """Unit quaternion (w, x, y, z); small norm drift is renormalized."""
        q = np.asarray(q, dtype=float)
        n = np.linalg.norm(q)
        if n < DEGENERATE_NORM:
            raise DegenerateFrame("zero quaternion")
        w, x, y, z = q / n
        return cls(
            np.array(
                [
                    [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                    [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                    [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
                ]
            )
        )

    @classmethod
    def from_axis_angle(cls, axis, angle):
        axis = np.asarray(axis, dtype=float)
        n = np.linalg.norm(axis)
        if n < DEGENERATE_NORM:
            if abs(angle) < DEGENERATE_NORM:
                return cls.identity()
            raise DegenerateFrame("zero axis with nonzero angle")
        return cls(_rodrigues_matrix(axis / n, float(angle)))

    @classmethod
    def from_rotvec(cls, v):
        """Axis-angle 3-vector axis*angle; the zero vector is the identity."""
        v = np.asarray(v, dtype=float)
        angle = np.linalg.norm(v)
        if angle < 1e-12:
            return cls.identity()
        return cls(_rodrigues_matrix(v / angle, angle))

    @classmethod
    def from_rot6d(cls, v, *, tol=DEGENERATE_NORM):
        """Gram-Schmidt the two 3-vectors, third column by cross product."""
        v = np.asarray(v, dtype=float).reshape(6)
        a, b = v[:3], v[3:]
        na = np.linalg.norm(a)
        if na <= tol:
            raise DegenerateFrame("first 6D column has near-zero norm")
        x = a / na
        b_perp = b - np.dot(x, b) * x
        nb = np.linalg.norm(b_perp)
        if nb <= tol:
            raise DegenerateFrame("6D columns are collinear")
        y = b_perp / nb
        z = np.cross(x, y)
        return cls(np.column_stack([x, y, z]))

    # -- views ----------------------------------------------------------

    def as_quat(self):
        """Unit quaternion (w, x, y, z) with w >= 0."""
        m = self.matrix
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

    def as_axis_angle(self):
        """(unit axis, angle) with angle in [0, pi]; axis (1,0,0) at angle 0."""
        q = self.as_quat()
        s = np.linalg.norm(q[1:])
        if s < 1e-16:
            return np.array([1.0, 0.0, 0.0]), 0.0
        # atan2 keeps full precision near both 0 and pi.
        angle = 2.0 * np.arctan2(s, q[0])
        return q[1:] / s, angle

    def as_rotvec(self):
        axis, angle = self.as_axis_angle()
        return axis * angle

    def as_rot6d(self):
        m = self.matrix
        return np.concatenate([m[:, 0], m[:, 1]])

    # -- algebra --------------------------------------------------------

    def inverse(self):
        return Rotation(self.matrix.T.copy())

    def __matmul__(self, other):
        if isinstance(other, Rotation):
            return Rotation(self.matrix @ other.matrix)
        return NotImplemented

    def apply(self, v):
        return self.matrix @ np.asarray(v, dtype=float)

    def is_close(self, other, *, tol=ORTHONORMAL_TOL):
        return bool(np.linalg.norm(self.matrix - other.matrix) <= tol)


def rodrigues_align(template_bone, observed_bone, *, degenerate_tol=DEGENERATE_NORM):
    """Minimal rotation mapping the template bone direction onto the observed one.

    Antiparallel inputs fall back to a half-turn about the coordinate axis
    least aligned with the template, orthogonalized against it.
    """
    t = np.asarray(template_bone, dtype=float)
    p = np.asarray(observed_bone, dtype=float)
    nt, np_ = np.linalg.norm(t), np.linalg.norm(p)
    if nt <= degenerate_tol or np_ <= degenerate_tol:
        raise DegenerateBone(f"bone norms {nt:.3e}, {np_:.3e} below {degenerate_tol:.0e}")
    t_hat, p_hat = t / nt, p / np_
    c = float(np.clip(np.dot(t_hat, p_hat), -1.0, 1.0))
    cross = np.cross(t_hat, p_hat)
    s = np.linalg.norm(cross)
    if s < degenerate_tol:
        if c > 0:
            return Rotation.identity()
        # Antiparallel: deterministic fallback axis orthogonal to t.
        e = _EYE3[int(np.argmin(np.abs(t_hat)))]
        axis = e - np.dot(t_hat, e) * t_hat
        axis /= np.linalg.norm(axis)
        return Rotation(_rodrigues_matrix(axis, np.pi))
    axis = cross / s
    angle = np.arccos(c)
    return Rotation(_rodrigues_matrix(axis, angle))


def procrustes(template_cols, observed_cols, *, rank_tol=RANK_TOL):
    """Rotation minimizing ||R T - P||_F over SO(3) for 3xm column sets.

    SVD of the cross-covariance P T^T with the standard determinant
    correction on the smallest singular direction, so the result is always
    a proper rotation.
    """
    t = np.asarray(template_cols, dtype=float)
    p = np.asarray(observed_cols, dtype=float)
    if t.shape != p.shape or t.ndim != 2 or t.shape[0] != 3:
        raise RankDeficient(f"expected matching 3xm inputs, got {t.shape} and {p.shape}")
    if t.shape[1] < 2:
        raise RankDeficient("need at least 2 correspondence columns")
    m = p @ t.T
    u, s, vt = np.linalg.svd(m)
    if s[1] <= rank_tol * max(s[0], 1.0):
        raise RankDeficient(f"cross-covariance rank < 2 (singular values {s})")
    d = np.linalg.det(u @ vt)
    return Rotation((u * np.array([1.0, 1.0, d])) @ vt)


def geodesic_distance(a, b):
    """Rotation angle of a^T b in [0, pi]."""
    c = (np.trace(a.matrix.T @ b.matrix) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))
