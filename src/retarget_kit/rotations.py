"""SO(3) rotation algebra: conversions, bone alignment, Procrustes, geodesics.

A Rotation stores a 3x3 orthonormal matrix and exposes lossless views as a
unit quaternion (w, x, y, z), axis-angle with angle in [0, pi], and the 6D
continuous representation (first two matrix columns, flattened). All
operations are pure and all values immutable.
"""

from __future__ import annotations

import math
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
    """`_hat` of each 3-vector of an (..., 3) array."""
    k = np.zeros(v.shape + (3,))
    k[..., 0, 1], k[..., 0, 2] = -v[..., 2], v[..., 1]
    k[..., 1, 0], k[..., 1, 2] = v[..., 2], -v[..., 0]
    k[..., 2, 0], k[..., 2, 1] = -v[..., 1], v[..., 0]
    return k


def _rodrigues_stack(sin, cos, k, kk):
    """Stacked I + sin(t) K + (1 - cos(t)) K^2, as `_rodrigues_matrix` computes it."""
    return _EYE3 + sin[..., None, None] * k + (1.0 - cos)[..., None, None] * kk


# The stacked forms below repeat their one-item counterparts' float operations
# item by item, each branch on its own rows. A (1, k) @ (k, 1) matmul sums as
# `np.dot` and `np.linalg.norm` do; a reduction along an axis would not.


def _dot(a, b):
    """`np.dot` of matching k-vectors of two (..., k) arrays."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(v):
    """`np.linalg.norm` of each k-vector of an (..., k) array."""
    return np.sqrt(_dot(v, v))


_CYCLIC = ((1, 2), (2, 0), (0, 1))


def _quat_stack(m):
    """`Rotation.as_quat` of each matrix of an (n, 3, 3) stack."""
    trace = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
    # Branch 3 is a positive trace; branch i < 3 is the largest diagonal entry i.
    branch = np.where(trace > 0, 3, np.argmax(np.diagonal(m, axis1=1, axis2=2), axis=1))
    q = np.empty((len(m), 4))
    for b in range(4):
        rows = branch == b
        r = m[rows]
        if b == 3:
            s = np.sqrt(trace[rows] + 1.0) * 2.0
            parts = [0.25 * s] + [(r[:, k, j] - r[:, j, k]) / s for j, k in _CYCLIC]
        else:
            (j, k), (lo, hi) = _CYCLIC[b], sorted(_CYCLIC[b])
            s = np.sqrt(1.0 + r[:, b, b] - r[:, lo, lo] - r[:, hi, hi]) * 2.0
            parts = [(r[:, k, j] - r[:, j, k]) / s] + [
                0.25 * s if c == b else (r[:, c, b] + r[:, b, c]) / s for c in range(3)
            ]
        q[rows] = np.stack(parts, axis=1)
    q /= _norm(q)[:, None]
    return np.where(q[:, :1] < 0, -q, q)


def _matrix_stack(q):
    """`Rotation.from_quat` of each (w, x, y, z) row of an (n, 4) array, as (n, 3, 3).

    Raises DegenerateFrame for the first row with a norm below
    DEGENERATE_NORM; the error's `row` attribute holds its index.
    """
    n = _norm(q)
    zero = n < DEGENERATE_NORM
    if zero.any():
        error = DegenerateFrame("zero quaternion")
        error.row = int(np.argmax(zero))
        raise error
    w, x, y, z = (q / n[:, None]).T
    m = [
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]
    return np.stack(m, axis=1).reshape(-1, 3, 3)


def _rotvec_stack(m):
    """`Rotation.as_rotvec` of each matrix of an (n, 3, 3) stack."""
    q = _quat_stack(m)
    s = _norm(q[:, 1:])
    turned = s >= 1e-16
    out = np.zeros((len(m), 3))
    qt, st = q[turned], s[turned]
    out[turned] = qt[:, 1:] / st[:, None] * (2.0 * np.arctan2(st, qt[:, 0]))[:, None]
    return out


# The two right Jacobians below take their per-row coefficients on Python floats: at
# the few rows a solve has (its framed terms, its spherical joints) that costs less
# than numpy's per-call overhead on both branches of an np.where.


def _right_jacobian(phi):
    """J_r of each rotation vector of an (n, 3) stack, as (n, 3, 3) matrices.

    Exp(phi + d) ~ Exp(phi) Exp(J_r(phi) d) for small d: the right Jacobian
    of SO(3) per Sola, Deray & Atchuthan, "A micro Lie theory for state
    estimation in robotics" (arXiv:1812.01537); a series replaces the closed
    form below an angle of 1e-4.
    """
    ab = [
        (0.5 - t * t / 24.0, 1.0 / 6.0 - t * t / 120.0)
        if t < 1e-4
        else ((1.0 - math.cos(t)) / (t * t), (t - math.sin(t)) / (t * t * t))
        for t in _norm(phi).tolist()
    ]
    a, b = np.array(ab).reshape(-1, 2).T[..., None, None]
    k = _hat_stack(phi)
    return _EYE3 - a * k + b * (k @ k)


def _right_jacobian_inv(phi):
    """Inverse of each `_right_jacobian` of an (n, 3) stack; finite for every angle up to pi."""
    # (1 + cos t) / (2 t sin t) written with tan(t/2) stays finite at t = pi.
    c = [
        1.0 / 12.0 + t * t / 720.0
        if t < 1e-4
        else 1.0 / (t * t) - 1.0 / (2.0 * t * math.tan(0.5 * t))
        for t in _norm(phi).tolist()
    ]
    k = _hat_stack(phi)
    return _EYE3 + 0.5 * k + np.array(c).reshape(-1, 1, 1) * (k @ k)


def _log_floats(m):
    """`Rotation(m).as_rotvec()` of a 3x3 matrix given as nested lists of floats.

    It takes the branches and float operations of `Rotation.as_quat` and
    `as_axis_angle` on Python floats, which costs a third of the array
    version for one matrix. The two norms are summed left to right, where
    `np.linalg.norm` sums in BLAS order, so a result may differ from
    `as_rotvec` in its last bits.
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    trace = m00 + m11 + m22
    if trace > 0:
        s = math.sqrt(trace + 1.0) * 2.0
        w, x, y, z = 0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s
    elif m00 >= m11 and m00 >= m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        w, x, y, z = (m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s
    elif m11 >= m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        w, x, y, z = (m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s
    else:
        s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
        w, x, y, z = (m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0:
        w, x, y, z = -w, -x, -y, -z
    s = math.sqrt(x * x + y * y + z * z)
    if s < 1e-16:
        return 0.0, 0.0, 0.0
    angle = 2.0 * math.atan2(s, w)
    return x / s * angle, y / s * angle, z / s * angle


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
        return cls(_matrix_stack(np.asarray(q, dtype=float).reshape(1, 4))[0])

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


def _align_stack(t, p, tol=DEGENERATE_NORM):
    """`rodrigues_align` of each row pair of two (n, 3) arrays, as (n, 3, 3) matrices.

    Raises DegenerateBone for the first pair with a bone shorter than tol.
    """
    nt, np_ = _norm(t), _norm(p)
    short = (nt <= tol) | (np_ <= tol)
    if short.any():
        i = np.argmax(short)
        raise DegenerateBone(f"bone norms {nt[i]:.3e}, {np_[i]:.3e} below {tol:.0e}")
    t_hat, p_hat = t / nt[:, None], p / np_[:, None]
    c = np.clip(_dot(t_hat, p_hat), -1.0, 1.0)
    cross = np.cross(t_hat, p_hat)
    s = _norm(cross)
    out = np.empty((len(t), 3, 3))
    turned = s >= tol
    out[~turned & (c > 0)] = _EYE3
    # Antiparallel: deterministic fallback axis orthogonal to t.
    half_turn = ~turned & ~(c > 0)
    th = t_hat[half_turn]
    e = _EYE3[np.argmin(np.abs(th), axis=1)]
    axis = e - _dot(th, e)[:, None] * th
    axis /= _norm(axis)[:, None]
    k, pi = _hat_stack(axis), np.full(len(th), np.pi)
    out[half_turn] = _rodrigues_stack(np.sin(pi), np.cos(pi), k, k @ k)
    angle = np.arccos(c[turned])
    k = _hat_stack(cross[turned] / s[turned, None])
    out[turned] = _rodrigues_stack(np.sin(angle), np.cos(angle), k, k @ k)
    return out


def rodrigues_align(template_bone, observed_bone, *, degenerate_tol=DEGENERATE_NORM):
    """Minimal rotation mapping the template bone direction onto the observed one.

    Antiparallel inputs fall back to a half-turn about the coordinate axis
    least aligned with the template, orthogonalized against it.
    """
    t = np.asarray(template_bone, dtype=float).reshape(1, 3)
    p = np.asarray(observed_bone, dtype=float).reshape(1, 3)
    return Rotation(_align_stack(t, p, degenerate_tol)[0])


def _procrustes_stack(t, p, rank_tol=RANK_TOL):
    """`procrustes` of one 3 x m template column set against an (n, 3, m) stack.

    Raises RankDeficient for the first item whose cross-covariance has rank < 2.
    """
    u, s, vt = np.linalg.svd(p @ t.T)
    low = s[:, 1] <= rank_tol * np.maximum(s[:, 0], 1.0)
    if low.any():
        raise RankDeficient(f"cross-covariance rank < 2 (singular values {s[np.argmax(low)]})")
    d = np.ones((len(p), 1, 3))
    d[:, 0, 2] = np.linalg.det(u @ vt)
    return (u * d) @ vt


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
    return Rotation(_procrustes_stack(t, p[None], rank_tol)[0])


def geodesic_distance(a, b):
    """Rotation angle of a^T b in [0, pi]."""
    c = (np.trace(a.matrix.T @ b.matrix) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))
