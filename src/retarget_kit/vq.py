"""Codebook-side vector quantization: assignment, EMA updates, dead-code reset."""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .errors import DimensionMismatch, ValidationError

DEFAULT_DECAY = 0.99
DEFAULT_EPSILON = 1e-5
DEFAULT_USAGE_THRESHOLD = 1.0


def _check_epsilon(epsilon):
    """The Laplace smoothing of `ema_update` must be a finite number >= 0.

    Zero is allowed: `ema_update` then keeps the entries of empty clusters.
    """
    if isinstance(epsilon, bool) or not (
        isinstance(epsilon, Real) and np.isfinite(epsilon) and epsilon >= 0
    ):
        raise ValidationError(f"epsilon must be a finite number >= 0, got {epsilon!r}")


def _check_decay(decay):
    """The EMA decay of `ema_update` must be a real number in [0, 1], not a bool."""
    if isinstance(decay, bool) or not (isinstance(decay, Real) and 0.0 <= decay <= 1.0):
        raise ValidationError(f"decay must be a number in [0, 1], got {decay!r:.40}")


@dataclass(frozen=True)
class Codebook:
    """K x d quantization entries with EMA accumulators and usage counters."""

    entries: np.ndarray
    ema_counts: np.ndarray
    ema_sums: np.ndarray
    decay: float = DEFAULT_DECAY
    epsilon: float = DEFAULT_EPSILON
    usage: np.ndarray = None

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2 or entries.size == 0:
            raise ValidationError(f"entries must be a nonempty KxD matrix, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValidationError("codebook entries contain non-finite values")
        _check_decay(self.decay)
        _check_epsilon(self.epsilon)
        counts = np.asarray(self.ema_counts, dtype=float).reshape(-1)
        sums = np.asarray(self.ema_sums, dtype=float)
        if counts.shape != (entries.shape[0],) or sums.shape != entries.shape:
            raise DimensionMismatch("EMA accumulator shapes do not match entries")
        usage = self.usage
        usage = np.zeros(entries.shape[0]) if usage is None else np.asarray(usage, float)
        usage = usage.reshape(-1)
        if usage.shape != counts.shape:
            raise DimensionMismatch(f"{usage.size} usage counters for {counts.size} entries")
        # save_codebook refuses non-finite arrays, so a codebook that holds one could not be saved
        for name, arr in (("ema_counts", counts), ("ema_sums", sums), ("usage", usage)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"codebook {name} contains NaN or infinity")
        if np.any(counts < 0):
            raise ValidationError("ema_counts must be >= 0")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "ema_counts", counts)
        object.__setattr__(self, "ema_sums", sums)
        object.__setattr__(self, "usage", usage)

    @classmethod
    def initialize(cls, entries, decay=DEFAULT_DECAY, epsilon=DEFAULT_EPSILON):
        """Fresh codebook: counts start at 1 and sums at the entries themselves."""
        entries = np.asarray(entries, dtype=float)
        return cls(
            entries=entries,
            ema_counts=np.ones(entries.shape[0]),
            ema_sums=entries.copy(),
            decay=decay,
            epsilon=epsilon,
        )

    @property
    def size(self):
        return self.entries.shape[0]

    @property
    def dim(self):
        return self.entries.shape[1]


@dataclass(frozen=True)
class TokenSequence:
    """Codebook indices for a latent sequence, with downsampling metadata."""

    indices: np.ndarray
    downsample_factor: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=int).reshape(-1))

    def __len__(self):
        return len(self.indices)


def _check_latents(codebook, latents):
    latents = np.asarray(latents, dtype=float)
    if latents.ndim != 2 or latents.shape[1] != codebook.dim:
        raise DimensionMismatch(
            f"latents shape {latents.shape} does not match codebook dim {codebook.dim}"
        )
    return latents


def assign(codebook, latents, downsample_factor=None):
    """Nearest codebook entry per latent; ties break to the lowest index.

    The distances are filled one entry at a time, so the largest temporary
    is (T, D), not (T, K, D). Each row is still summed over its D contiguous
    values in numpy's pairwise order, so the distances are bit for bit those
    of the broadcast form.
    """
    latents = _check_latents(codebook, latents)
    d2 = np.empty((latents.shape[0], codebook.size))
    for k, entry in enumerate(codebook.entries):
        diff = latents - entry
        d2[:, k] = np.sum(diff * diff, axis=1)
    return TokenSequence(np.argmin(d2, axis=1), downsample_factor)


def ema_update(codebook, latents, assignments):
    """Fold one batch into the EMA accumulators and recompute the entries.

    counts_k <- g*counts_k + (1-g)*n_k, sums_k likewise; entries come from
    sums over Laplace-smoothed counts. Full decay (g = 1) is the no-op
    limit and leaves the codebook unchanged.
    """
    latents = _check_latents(codebook, latents)
    idx = np.asarray(assignments.indices if isinstance(assignments, TokenSequence) else assignments)
    if idx.shape != (latents.shape[0],):
        raise DimensionMismatch(f"{idx.shape[0]} assignments for {latents.shape[0]} latents")
    if np.any(idx < 0) or np.any(idx >= codebook.size):
        raise DimensionMismatch("assignment index out of range")
    n = np.bincount(idx, minlength=codebook.size).astype(float)
    if codebook.decay == 1.0:
        return replace(codebook, usage=codebook.usage + n)
    g = codebook.decay
    batch_sums = np.zeros_like(codebook.ema_sums)
    np.add.at(batch_sums, idx, latents)
    counts = g * codebook.ema_counts + (1.0 - g) * n
    sums = g * codebook.ema_sums + (1.0 - g) * batch_sums
    total = counts.sum()
    smoothed = (counts + codebook.epsilon) / (total + codebook.size * codebook.epsilon) * total
    # With zero smoothing an empty cluster has no information; keep its entry.
    safe = np.where(smoothed > 0, smoothed, 1.0)
    entries = np.where(
        (smoothed > 0)[:, None], sums / safe[:, None], codebook.entries
    )
    return replace(
        codebook,
        entries=entries,
        ema_counts=counts,
        ema_sums=sums,
        usage=codebook.usage + n,
    )


def reset_dead_codes(codebook, latents, usage_threshold=DEFAULT_USAGE_THRESHOLD):
    """Replace under-used entries with the worst-quantized batch latents.

    Entries with usage below the threshold take the batch latents with the
    largest quantization error, in descending order (cycling if the batch
    is smaller than the dead set). Their EMA state restarts at that latent
    with count 1; all usage counters are zeroed. Returns (codebook, count).
    """
    latents = _check_latents(codebook, latents)
    if latents.shape[0] == 0:
        raise ValidationError("need a nonempty latent batch to reset dead codes")
    dead = np.flatnonzero(codebook.usage < usage_threshold)
    if len(dead) == 0:
        return replace(codebook, usage=np.zeros(codebook.size)), 0
    idx = assign(codebook, latents).indices
    err = np.sum((latents - codebook.entries[idx]) ** 2, axis=1)
    order = np.argsort(-err, kind="stable")
    entries = codebook.entries.copy()
    counts = codebook.ema_counts.copy()
    sums = codebook.ema_sums.copy()
    for rank, k in enumerate(dead):
        z = latents[order[rank % len(order)]]
        entries[k] = z
        counts[k] = 1.0
        sums[k] = z
    return (
        replace(
            codebook,
            entries=entries,
            ema_counts=counts,
            ema_sums=sums,
            usage=np.zeros(codebook.size),
        ),
        len(dead),
    )
