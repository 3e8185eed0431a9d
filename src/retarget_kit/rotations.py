"""SO(3) rotation algebra: conversions, bone alignment, Procrustes.

A Rotation stores a 3x3 orthonormal matrix and exposes lossless views as a
unit quaternion (w, x, y, z) and as axis-angle with angle in [0, pi]. The 6D
continuous representation (first two matrix columns, flattened) is taken of
stacks only, by the pose features. All operations are pure and all values
immutable.

Each conversion has one body, stacked over leading axes; the Rotation
view is its one-item case. Conversion, body, and its views and callers:

    quaternion -> matrix     _matrix_stack      from_quat, io; refuses zero rows
    matrix -> quaternion     _quat_stack        as_quat, as_axis_angle, io
    matrix -> rotation vec   _rotvec_stack      as_rotvec, ik, limit projection
    rotation vec -> matrix   _exp_stack         from_rotvec, fk, joint limits
    axis, angle -> matrix    _rodrigues_stack   from_axis_angle, fk, bone alignment
    matrix -> XYZ Euler      skeleton._intrinsic_xyz_euler: joint limits
    matrix -> 6D             _rot6d_stack       features
    matrix -> rotation vec   _log_floats: the solver's orientation errors, one matrix at
                             a time on Python floats, ten times cheaper at n <= 4

The stacked kernels that can refuse an item, `_matrix_stack`, `_align_stack`
and `_procrustes_stack`, raise nothing: they return their results, the mask
of refused items, each of which gets the identity, and `why(i)`, the reason
for refusing item i as a message. The caller, which knows the frame, the
joint or the file location of an item, words the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_array, check_number

# Tolerances, the same for every caller.
ORTHONORMAL_TOL = 1e-9
DEGENERATE_NORM = 1e-8
RANK_TOL = 1e-9

_EYE3 = np.eye(3)


def _hat_stack(v):
    """Skew-symmetric (cross-product) matrix of each 3-vector of an (..., 3) array."""
    k = np.zeros(v.shape + (3,))
    k[..., 0, 1], k[..., 0, 2] = -v[..., 2], v[..., 1]
    k[..., 1, 0], k[..., 1, 2] = v[..., 2], -v[..., 0]
    k[..., 2, 0], k[..., 2, 1] = -v[..., 1], v[..., 0]
    return k


def _rodrigues_stack(angle, k, kk=None):
    """Rodrigues' rotation I + sin(t) K + (1 - cos(t)) K^2 by angles t about unit axes
    u, K = hat(u); K @ K is computed unless given."""
    sin, cos = np.sin(angle)[..., None, None], np.cos(angle)[..., None, None]
    return _EYE3 + sin * k + (1.0 - cos) * (k @ k if kk is None else kk)


# The stacked forms below take every item through the float operations of a
# one-item computation, each branch on its own rows. A (1, k) @ (k, 1) matmul
# sums as `np.dot` and `np.linalg.norm` do; a reduction along an axis would not.


def _dot(a, b):
    """`np.dot` of matching k-vectors of two (..., k) arrays."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(v):
    """`np.linalg.norm` of each k-vector of an (..., k) array."""
    return np.sqrt(_dot(v, v))


_CYCLIC = ((1, 2), (2, 0), (0, 1))
_PLUS1, _PLUS2 = [1, 2, 0], [2, 0, 1]  # i + 1 and i + 2, mod 3


def _quat_stack(m):
    """Unit quaternion (w, x, y, z) with w >= 0 of each matrix of an (n, 3, 3) stack."""
    trace = m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2]
    # Branch 3 is a positive trace; branch i < 3 is the largest diagonal entry i.
    branch = np.where(trace > 0, 3, np.argmax(np.diagonal(m, axis1=1, axis2=2), axis=1))
    q = np.empty((len(m), 4))
    for b in set(branch.tolist()):  # np.unique's first call costs ~1.5 MB of peak RSS
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
    """`Rotation.from_quat` of each (w, x, y, z) row of an (n, 4) array, as (n, 3, 3);
    also the mask of refused rows and `why(i)`. A row with a norm below
    DEGENERATE_NORM is refused as a "zero quaternion" and gets the identity.
    """
    n = _norm(q)
    zero = n < DEGENERATE_NORM
    if zero.any():  # a refused row is read as (1, 0, 0, 0): the identity
        q, n = np.where(zero[:, None], (1.0, 0.0, 0.0, 0.0), q), np.where(zero, 1.0, n)
    w, x, y, z = (q / n[:, None]).T
    m = [
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]
    return np.stack(m, axis=1).reshape(-1, 3, 3), zero, lambda i: "zero quaternion"


def _rotvec_stack(m):
    """Rotation vector (axis * angle, angle in [0, pi]) of each matrix of an (n, 3, 3) stack."""
    q = _quat_stack(m)
    s = _norm(q[:, 1:])
    turned = ~(s < 1e-16)  # a NaN row stays NaN
    out = np.zeros((len(m), 3))
    qt, st = q[turned], s[turned]
    out[turned] = qt[:, 1:] / st[:, None] * (2.0 * np.arctan2(st, qt[:, 0]))[:, None]
    return out


def _rot6d_stack(m):
    """The 6D form, first column then second, of each matrix of an (..., 3, 3) stack."""
    return np.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)


def _exp_stack(v):
    """Exp map of SO(3) (Sola, Deray & Atchuthan, arXiv:1812.01537) of each rotation
    vector of an (..., 3) array, as (..., 3, 3); an angle below 1e-12 gives the identity."""
    angle = _norm(v)
    turned = ~(angle < 1e-12)  # a NaN vector gives NaN, not the identity
    rodrigues = _rodrigues_stack(angle, _hat_stack(v / np.where(turned, angle, 1.0)[..., None]))
    return np.where(turned[..., None, None], rodrigues, _EYE3)


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

    It takes the branches and float operations of `_quat_stack` and
    `_rotvec_stack` on Python floats, which costs under a tenth of the
    array version for a few matrices. The two norms are summed left to right, where
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


def _one(rot, refused, why):
    """The one item of a kernel's results; a ValidationError with its reason if refused."""
    if refused[0]:
        raise ValidationError(why(0))
    return rot[0]


@dataclass(frozen=True)
class Rotation:
    """One orientation in SO(3), canonically stored as a 3x3 matrix.

    Construct through the classmethods, which refuse non-finite input by the
    array and number rules; `from_matrix` validates orthonormality, the other
    constructors produce valid members by construction and skip the check.
    """

    matrix: np.ndarray

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls):
        return cls(_EYE3.copy())

    @classmethod
    def from_matrix(cls, m):
        m = check_array("rotation matrix", m, (3, 3))
        err = np.linalg.norm(m.T @ m - _EYE3)
        det = np.linalg.det(m)
        if err > ORTHONORMAL_TOL or abs(det - 1.0) > ORTHONORMAL_TOL:
            raise ValidationError(
                f"matrix not in SO(3): orthonormality residual {err:.3e}, det {det:.12f}"
            )
        return cls(m)

    @classmethod
    def from_quat(cls, q):
        """Unit quaternion (w, x, y, z); small norm drift is renormalized."""
        return cls(_one(*_matrix_stack(check_array("quaternion", q, (4,))[None])))

    @classmethod
    def from_axis_angle(cls, axis, angle):
        axis = check_array("axis", axis, (3,))
        check_number("angle", angle, "finite")
        n = np.linalg.norm(axis)
        if n < DEGENERATE_NORM:
            if abs(angle) < DEGENERATE_NORM:
                return cls.identity()
            raise ValidationError("zero axis with nonzero angle")
        return cls(_rodrigues_stack(float(angle), _hat_stack(axis / n)))

    @classmethod
    def from_rotvec(cls, v):
        """Axis-angle 3-vector axis*angle; the zero vector is the identity."""
        return cls(_exp_stack(check_array("rotation vector", v, (3,))[None])[0])

    # -- views ----------------------------------------------------------

    def as_quat(self):
        """Unit quaternion (w, x, y, z) with w >= 0."""
        return _quat_stack(self.matrix[None])[0]

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
        return _rotvec_stack(self.matrix[None])[0]

    # -- algebra --------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, Rotation):
            return Rotation(self.matrix @ other.matrix)
        return NotImplemented


def _align_stack(t, p):
    """Minimal rotation mapping each template bone direction of an (n, 3) array onto
    the observed one of the matching row of another, as (n, 3, 3) matrices; also
    the mask of refused pairs and `why(i)`.

    Antiparallel inputs fall back to a half-turn about the coordinate axis
    least aligned with the template, orthogonalized against it. A pair with a
    bone no longer than DEGENERATE_NORM is refused, naming the "bone norms", and
    gets the identity.
    """
    nt, np_ = _norm(t), _norm(p)
    short = (nt <= DEGENERATE_NORM) | (np_ <= DEGENERATE_NORM)

    def why(i, nt=nt, np_=np_):  # the norms as measured, not as replaced below
        return f"bone norms {nt[i]:.3e}, {np_[i]:.3e} below {DEGENERATE_NORM:.0e}"

    if short.any():  # a refused pair is aligned as the x axis onto itself: the identity
        t, p = (np.where(short[:, None], _EYE3[0], v) for v in (t, p))
        nt, np_ = np.where(short, 1.0, nt), np.where(short, 1.0, np_)
    t_hat, p_hat = t / nt[:, None], p / np_[:, None]
    c = np.clip(_dot(t_hat, p_hat), -1.0, 1.0)
    # np.cross by its own products and differences, t_{i+1} p_{i+2} - t_{i+2} p_{i+1}
    cross = t_hat[:, _PLUS1] * p_hat[:, _PLUS2] - t_hat[:, _PLUS2] * p_hat[:, _PLUS1]
    s = _norm(cross)
    turned = s >= DEGENERATE_NORM
    # Every row turns about its cross product; the rows that do not turn are then overwritten.
    axis = cross / np.where(turned, s, 1.0)[:, None]
    out = _rodrigues_stack(np.arccos(c), _hat_stack(axis))
    if not turned.all():
        out[~turned & (c > 0)] = _EYE3
        half_turn = ~turned & ~(c > 0)
        if half_turn.any():  # antiparallel: deterministic fallback axis orthogonal to t
            th = t_hat[half_turn]
            e = _EYE3[np.argmin(np.abs(th), axis=1)]
            axis = e - _dot(th, e)[:, None] * th
            axis /= _norm(axis)[:, None]
            out[half_turn] = _rodrigues_stack(np.full(len(th), np.pi), _hat_stack(axis))
    return out, short, why


def _procrustes_stack(t, p):
    """`procrustes` of one 3 x m template column set against an (n, 3, m) stack; also
    the mask of refused items and `why(i)`.

    An item whose cross-covariance has rank < 2 is refused, naming the
    "cross-covariance rank", and gets the identity.
    """
    u, s, vt = np.linalg.svd(p @ t.T)
    low = s[:, 1] <= RANK_TOL * np.maximum(s[:, 0], 1.0)
    d = np.ones((len(p), 1, 3))
    d[:, 0, 2] = np.linalg.det(u @ vt)
    out = (u * d) @ vt
    out[low] = _EYE3
    return out, low, lambda i: f"cross-covariance rank < 2 (singular values {s[i]})"


def procrustes(template_cols, observed_cols):
    """Rotation minimizing ||R T - P||_F over SO(3) for 3xm column sets.

    SVD of the cross-covariance P T^T with the standard determinant
    correction on the smallest singular direction, so the result is always
    a proper rotation.
    """
    t = np.asarray(template_cols, dtype=float)
    p = np.asarray(observed_cols, dtype=float)
    if t.shape != p.shape or t.ndim != 2 or t.shape[0] != 3:
        raise ValidationError(f"expected matching 3xm inputs, got {t.shape} and {p.shape}")
    if t.shape[1] < 2:
        raise ValidationError("need at least 2 correspondence columns")
    return Rotation(_one(*_procrustes_stack(t, p[None])))

