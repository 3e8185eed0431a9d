"""Codebook-side vector quantization: assignment, EMA updates, dead-code reset."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError, check_array, check_number

DEFAULT_DECAY = 0.99
DEFAULT_EPSILON = 1e-5
DEFAULT_USAGE_THRESHOLD = 1.0


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
        entries = check_array("entries", self.entries, (None, None))
        if entries.size == 0:
            raise ValidationError(f"entries must be a nonempty KxD matrix, got {entries.shape}")
        check_number("decay", self.decay, "[0, 1]")
        check_number("epsilon", self.epsilon, ">= 0")  # 0 keeps the entries of empty clusters
        counts = check_array("ema_counts", self.ema_counts).reshape(-1)
        sums = check_array("ema_sums", self.ema_sums)
        if counts.shape != (entries.shape[0],) or sums.shape != entries.shape:
            raise ValidationError("ema_counts or ema_sums shape does not match entries")
        usage = np.zeros(len(entries)) if self.usage is None else self.usage
        usage = check_array("usage", usage).reshape(-1)
        if usage.shape != counts.shape:
            raise ValidationError(f"{usage.size} usage counters for {counts.size} entries")
        if np.any(counts < 0):
            raise ValidationError("ema_counts must be >= 0")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "ema_counts", counts)
        object.__setattr__(self, "ema_sums", sums)
        object.__setattr__(self, "usage", usage)

    @classmethod
    def initialize(cls, entries, decay=DEFAULT_DECAY, epsilon=DEFAULT_EPSILON):
        """Fresh codebook: counts start at 1 and sums at the entries themselves."""
        entries = check_array("entries", entries, (None, None))
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
        indices = np.asarray(self.indices)
        # a fractional or bool index must not be truncated, nor a bool among integers
        # read as one; an empty list converts to floats
        mixed = not isinstance(self.indices, np.ndarray) and any(
            isinstance(i, (bool, np.bool_)) for i in np.asarray(self.indices, dtype=object).flat
        )
        if mixed or (indices.size and indices.dtype.kind not in "iu"):
            raise ValidationError(f"token indices must be integers, got {self.indices!r:.40}")
        object.__setattr__(self, "indices", indices.astype(int, copy=False).reshape(-1))
        if self.downsample_factor is not None:
            check_number("downsample_factor", self.downsample_factor, "int >= 1")

    def __len__(self):
        return len(self.indices)


def _check_latents(codebook, latents):
    latents = check_array("latents", latents)
    if latents.ndim != 2 or latents.shape[1] != codebook.dim:
        raise ValidationError(
            f"latents shape {latents.shape} does not match codebook dim {codebook.dim}"
        )
    return latents


def assign(codebook, latents, downsample_factor=None):
    """Nearest codebook entry per latent; ties break to the lowest index.

    The distances are filled one entry at a time through one (T, D) scratch
    buffer, so no entry allocates a temporary and none is (T, K, D). Each
    row is still summed over its D contiguous values in numpy's pairwise
    order, so the distances are bit for bit those of the broadcast form.
    """
    latents = _check_latents(codebook, latents)
    d2, diff = np.empty((latents.shape[0], codebook.size)), np.empty_like(latents)
    for k, entry in enumerate(codebook.entries):
        np.subtract(latents, entry, out=diff)
        np.multiply(diff, diff, out=diff)
        np.sum(diff, axis=1, out=d2[:, k])
    return TokenSequence(np.argmin(d2, axis=1), downsample_factor)


def ema_update(codebook, latents, assignments):
    """Fold one batch into the EMA accumulators and recompute the entries.

    counts_k <- g*counts_k + (1-g)*n_k, sums_k likewise; entries come from
    sums over Laplace-smoothed counts. Full decay (g = 1) is the no-op
    limit and leaves the codebook unchanged.
    """
    latents = _check_latents(codebook, latents)
    tokens = assignments if isinstance(assignments, TokenSequence) else TokenSequence(assignments)
    idx = tokens.indices
    if idx.shape != (latents.shape[0],):
        raise ValidationError(f"{idx.shape[0]} assignments for {latents.shape[0]} latents")
    if np.any(idx < 0) or np.any(idx >= codebook.size):
        raise ValidationError("assignment index out of range")
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
    check_number("usage_threshold", usage_threshold, ">= 0")
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
