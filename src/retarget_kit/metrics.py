"""Tracking metrics over joint trajectories and generation metrics over features.

Tracking metrics compare an executed trajectory against its reference in
joint-angle space. Generation metrics operate on caller-supplied feature
matrices; the learned extractors that produce those features live outside
this package. All randomized metrics are seeded and bit-reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ValidationError, check_array, check_number

DEFAULT_SEED = 0


def _rows(name, x):
    """`x` as (n, d) rows, n >= 1, checked by the array rule."""
    v = check_array(name, x, (None, None))
    if v.shape[0] < 1:
        raise ValidationError(f"{name} must be nonempty, got {v.shape}")
    return v


@dataclass(frozen=True)
class FeatureMatrix:
    """n x d feature rows with optional per-row group labels."""

    values: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        v = _rows("feature matrix", self.values)
        object.__setattr__(self, "values", v)
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != v.shape[0]:
                raise ValidationError(f"{len(labels)} labels for {v.shape[0]} feature rows")
            if not all(isinstance(g, (str, Integral)) for g in labels):
                raise ValidationError("group labels must be strings or integers")
            # a numpy integer is stored as the int it equals, which JSON can write
            labels = tuple(g if isinstance(g, (str, bool)) else int(g) for g in labels)
            object.__setattr__(self, "labels", labels)


def _values(name, x):
    """The (n, d) rows of a FeatureMatrix, or of a raw array checked by `_rows`."""
    return x.values if isinstance(x, FeatureMatrix) else _rows(name, x)


@dataclass(frozen=True)
class TrajectoryPair:
    """Reference and executed joint-angle trajectories on the same skeleton."""

    reference: np.ndarray  # (T, DoF) radians
    executed: np.ndarray
    fps: float
    heights: np.ndarray | None = None  # executed center-of-mass proxy, meters

    def __post_init__(self):
        ref = check_array("reference", self.reference)
        ex = check_array("executed", self.executed)
        if ref.shape != ex.shape:
            raise ValidationError(
                f"reference and executed shapes {ref.shape} and {ex.shape} differ"
            )
        if ref.ndim != 2 or 0 in ref.shape:
            raise ValidationError(f"trajectories must be (T, DoF), T, DoF >= 1, got {ref.shape}")
        check_number("fps", self.fps, "> 0")
        object.__setattr__(self, "reference", ref)
        object.__setattr__(self, "executed", ex)
        if self.heights is not None:
            h = check_array("heights", self.heights).reshape(-1)
            if len(h) != ref.shape[0]:
                raise ValidationError(f"{len(h)} heights for {ref.shape[0]} frames")
            object.__setattr__(self, "heights", h)


# --- tracking ----------------------------------------------------------


def _central_diff(q, fps):
    """Central differences on the interior, one-sided at the boundaries."""
    v = np.empty_like(q)
    v[1:-1] = (q[2:] - q[:-2]) * (fps / 2.0)
    v[0] = (q[1] - q[0]) * fps
    v[-1] = (q[-1] - q[-2]) * fps
    return v


def mpjpe(pair):
    """Mean absolute per-joint angle error, radians."""
    return float(np.mean(np.abs(pair.executed - pair.reference)))


def vel_err(pair):
    if pair.reference.shape[0] < 2:
        raise ValidationError("velocity error needs at least 2 frames")
    return float(
        np.mean(
            np.abs(
                _central_diff(pair.executed, pair.fps)
                - _central_diff(pair.reference, pair.fps)
            )
        )
    )


def accel_err(pair):
    if pair.reference.shape[0] < 3:
        raise ValidationError("acceleration error needs at least 3 frames")
    a_ex = _central_diff(_central_diff(pair.executed, pair.fps), pair.fps)
    a_ref = _central_diff(_central_diff(pair.reference, pair.fps), pair.fps)
    return float(np.mean(np.abs(a_ex - a_ref)))


def success_rate(pairs, height_threshold):
    """Fraction of motions whose height never drops strictly below threshold."""
    pairs = list(pairs)
    if not pairs:
        raise ValidationError("empty trajectory list")
    check_number("height threshold", height_threshold, "finite")
    successes = 0
    for pair in pairs:
        if pair.heights is None:
            raise ValidationError("trajectory pair has no height track")
        if not np.any(pair.heights < height_threshold):
            successes += 1
    return successes / len(pairs)


# --- generation --------------------------------------------------------


def _psd_sqrt(m):
    """Symmetric matrix square root with negative eigenvalues clamped to 0."""
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def fid(a, b):
    """Frechet distance between Gaussian fits of two feature samples.

    ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}), with the matrix
    square root taken of the symmetric product S_a^{1/2} S_b S_a^{1/2}.
    Covariances use 1/(n-1) normalization.
    """
    a, b = _values("a", a), _values("b", b)
    if a.shape[1] != b.shape[1]:
        raise ValidationError(f"feature dims {a.shape[1]} and {b.shape[1]} differ")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise ValidationError("need at least 2 rows per sample to fit a covariance")
    d = a.shape[1]
    if a.shape[0] <= d or b.shape[0] <= d:
        warnings.warn(
            "fewer samples than feature dimensions; covariance estimate is singular",
            stacklevel=2,
        )
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.cov(a, rowvar=False, ddof=1).reshape(d, d)
    cov_b = np.cov(b, rowvar=False, ddof=1).reshape(d, d)
    sqrt_a = _psd_sqrt(cov_a)
    w = np.linalg.eigvalsh(sqrt_a @ cov_b @ sqrt_a)
    tr_sqrt = np.sum(np.sqrt(np.clip(w, 0.0, None)))
    diff = mu_a - mu_b
    value = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * tr_sqrt)
    return max(value, 0.0)


def _disjoint_pairs(n, pair_count, rng):
    perm = rng.permutation(n)
    return perm[: 2 * pair_count : 2], perm[1 : 2 * pair_count : 2]


def diversity(features, pair_count, seed=DEFAULT_SEED):
    """Mean Euclidean distance over `pair_count` disjoint seeded random pairs."""
    check_number("pair_count", pair_count, "int >= 1")
    x = _values("features", features)
    if x.shape[0] < 2 * pair_count:
        raise ValidationError(
            f"need at least {2 * pair_count} rows for {pair_count} disjoint pairs"
        )
    left, right = _disjoint_pairs(x.shape[0], pair_count, np.random.default_rng(seed))
    return float(np.mean(np.linalg.norm(x[left] - x[right], axis=1)))


def multimodality(features, pairs_per_group, seed=DEFAULT_SEED):
    """Mean over a FeatureMatrix's label groups of mean within-group pairwise distance."""
    check_number("pairs_per_group", pairs_per_group, "int >= 1")
    x = _values("features", features)
    labels = features.labels if isinstance(features, FeatureMatrix) else None
    if labels is None:
        raise ValidationError("multimodality needs per-row group labels")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    group_means = []
    for g in dict.fromkeys(labels.tolist()):  # first-appearance order, deterministic
        rows = x[labels == g]
        if rows.shape[0] < 2 * pairs_per_group:
            raise ValidationError(
                f"group {g!r} has {rows.shape[0]} rows, needs {2 * pairs_per_group}"
            )
        left, right = _disjoint_pairs(rows.shape[0], pairs_per_group, rng)
        group_means.append(np.mean(np.linalg.norm(rows[left] - rows[right], axis=1)))
    return float(np.mean(group_means))


def mm_dist(text_features, motion_features):
    """Mean Euclidean distance between matched text/motion feature rows."""
    t, m = _values("text_features", text_features), _values("motion_features", motion_features)
    if t.shape != m.shape:
        raise ValidationError(f"shapes {t.shape} and {m.shape} differ")
    return float(np.mean(np.linalg.norm(t - m, axis=1)))


def retrieval_ranks(text_features, motion_features, pool_size=32, seed=DEFAULT_SEED):
    """Rank of each text's matched motion in its retrieval pool, 1 being the closest.

    Each text anchors a pool of its matched motion plus pool_size - 1
    seeded random distractors; ranking is by Euclidean distance, and
    distractors tied with the match do not rank above it.
    """
    check_number("pool_size", pool_size, "int >= 1")
    t, m = _values("text_features", text_features), _values("motion_features", motion_features)
    if t.shape != m.shape:
        raise ValidationError(f"shapes {t.shape} and {m.shape} differ")
    n = t.shape[0]
    if pool_size > n:
        raise ValidationError(f"pool size {pool_size} exceeds {n} samples")
    rng = np.random.default_rng(seed)
    ranks = np.empty(n, dtype=int)
    for i in range(n):
        # draws from the n - 1 samples other than i, as rng.choice of that list draws them
        distractors = rng.choice(n - 1, size=pool_size - 1, replace=False)
        distractors += distractors >= i
        d_true = np.linalg.norm(t[i] - m[i])
        d_pool = np.linalg.norm(t[i] - m[distractors], axis=1)
        ranks[i] = 1 + int(np.sum(d_pool < d_true))
    return ranks


def top_k_share(ranks, top_k):
    """Share of the `retrieval_ranks` at most top_k: the R-precision of those pools."""
    ranks = check_array("ranks", ranks, (None,))
    if not len(ranks):
        raise ValidationError("ranks must be nonempty")
    return int(np.sum(ranks <= check_number("top_k", top_k, "int >= 1"))) / len(ranks)


def r_precision(text_features, motion_features, pool_size=32, top_k=1, seed=DEFAULT_SEED):
    """Retrieval accuracy: does the true motion rank in the top k of its pool?

    The share of `retrieval_ranks` at most top_k.
    """
    check_number("pool_size", pool_size, "int >= 1")
    if check_number("top_k", top_k, "int >= 1") >= pool_size:
        raise ValidationError(f"top_k must be in [1, {pool_size - 1}], got {top_k}")
    return top_k_share(retrieval_ranks(text_features, motion_features, pool_size, seed), top_k)
