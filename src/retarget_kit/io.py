"""Versioned JSON file formats for every artifact the pipeline exchanges.

All files are UTF-8 JSON trees with explicit "format" and "version" keys.
Numbers are written with shortest round-trip decimal formatting, key order
is fixed by construction, and writes are atomic (temp file + rename), so
repeated saves of the same data are byte-identical. Large matrices may be
stored as a sidecar flat binary of little-endian float64, referenced as
{"binary": <relative path>, "shape": [rows, cols]}.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaVersionError, ValidationError
from .metrics import FeatureMatrix
from .retarget import CorrespondencePair, CorrespondenceSet, leg_scale
from .rotations import Rotation
from .skeleton import (
    DofChannel,
    DofConfig,
    Joint,
    JointTrajectory,
    Marker,
    Pose,
    Skeleton,
)
from .vq import Codebook, TokenSequence

FORMAT_VERSION = 1


# --- plumbing ----------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-finite constant {token!r} not allowed")


def _read_json(path):
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(path, "-", str(e)) from None
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise ParseError(path, f"line {e.lineno} col {e.colno}", e.msg) from None
    except ValueError as e:
        raise ParseError(path, "-", str(e)) from None


def _check_header(obj, path, expected_format):
    if not isinstance(obj, dict):
        raise ParseError(path, "/", "top level must be an object")
    if obj.get("format") != expected_format:
        raise ParseError(
            path, "/format", f"expected {expected_format!r}, got {obj.get('format')!r}"
        )
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise SchemaVersionError(
            f"{path}: unsupported {expected_format} version {version!r}"
        )


def _finite_array(node, path, location, shape=None):
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as e:
        raise ParseError(path, location, f"not a numeric array: {e}") from None
    if not np.all(np.isfinite(arr)):
        raise ParseError(path, location, "contains NaN or infinity")
    if shape is not None and arr.shape != shape:
        raise ParseError(path, location, f"expected shape {shape}, got {arr.shape}")
    return arr


def _matrix(node, path, location, base_dir):
    """Inline list-of-lists matrix or a {"binary", "shape"} sidecar reference."""
    if isinstance(node, dict):
        try:
            rel, shape = node["binary"], tuple(int(s) for s in node["shape"])
        except (KeyError, TypeError, ValueError):
            raise ParseError(path, location, "bad sidecar reference") from None
        bin_path = Path(base_dir) / rel
        try:
            flat = np.fromfile(bin_path, dtype="<f8")
        except OSError as e:
            raise ParseError(path, location, f"sidecar {rel}: {e}") from None
        if flat.size != int(np.prod(shape)):
            raise ParseError(
                path, location, f"sidecar {rel} holds {flat.size} values, shape {shape}"
            )
        if not np.all(np.isfinite(flat)):
            raise ParseError(path, location, f"sidecar {rel} contains NaN or infinity")
        return flat.reshape(shape)
    arr = _finite_array(node, path, location)
    if arr.ndim != 2:
        raise ParseError(path, location, f"expected a matrix, got shape {arr.shape}")
    return arr


def _floats(arr):
    return [float(v) for v in np.asarray(arr).reshape(-1)]


def _matrix_node(arr, path, key, binary_sidecar):
    if not binary_sidecar:
        return [[float(v) for v in row] for row in np.asarray(arr)]
    rel = f"{Path(path).name}.{key}.bin"
    np.asarray(arr, dtype="<f8").tofile(Path(path).parent / rel)
    return {"binary": rel, "shape": list(np.asarray(arr).shape)}


def _atomic_write(path, obj):
    path = Path(path)
    text = json.dumps(obj, indent=1) + "\n"
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
        tmp = None
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e.strerror or e}") from None
    finally:
        if tmp is not None:
            os.unlink(tmp)


def save_report(report, path):
    """Write a machine-readable report tree."""
    _atomic_write(path, {"format": "report", "version": FORMAT_VERSION, **report})


# --- skeleton ----------------------------------------------------------


def load_skeleton(path):
    obj = _read_json(path)
    _check_header(obj, path, "skeleton")
    joints = []
    for i, node in enumerate(obj.get("joints", [])):
        loc = f"/joints/{i}"
        try:
            dof = node.get("dof", "fixed")
            axis = None
            if isinstance(dof, dict):
                axis = _finite_array(dof.get("axis"), path, loc + "/axis", (3,))
                dof = dof.get("type")
            joints.append(
                Joint(
                    name=node["name"],
                    parent=node.get("parent"),
                    offset=_finite_array(node["offset"], path, loc + "/offset", (3,)),
                    dof=dof,
                    axis=axis,
                    limits=tuple(tuple(p) for p in node.get("limits", [])),
                    meta=node.get("meta", {}),
                )
            )
        except (KeyError, TypeError) as e:
            raise ParseError(path, loc, f"bad joint record: {e}") from None
        except ValidationError as e:
            raise ParseError(path, loc, str(e)) from None
    markers = []
    for i, node in enumerate(obj.get("markers", [])):
        loc = f"/markers/{i}"
        try:
            markers.append(
                Marker(
                    name=node["name"],
                    joint=node["joint"],
                    offset=_finite_array(node["offset"], path, loc + "/offset", (3,)),
                )
            )
        except (KeyError, TypeError) as e:
            raise ParseError(path, loc, f"bad marker record: {e}") from None
    try:
        return Skeleton(joints, markers, name=obj.get("name"))
    except ValidationError as e:
        raise ParseError(path, "/joints", str(e)) from None


def save_skeleton(skeleton, path):
    joints = []
    for j in skeleton.joints:
        node = {"name": j.name, "parent": j.parent, "offset": _floats(j.offset)}
        if j.dof == "revolute":
            node["dof"] = {"type": "revolute", "axis": _floats(j.axis)}
        else:
            node["dof"] = j.dof
        if j.limits:
            node["limits"] = [[lo, hi] for lo, hi in j.limits]
        if j.meta:
            node["meta"] = j.meta
        joints.append(node)
    markers = [
        {"name": m.name, "joint": m.joint, "offset": _floats(m.offset)}
        for m in skeleton.markers.values()
    ]
    _atomic_write(
        path,
        {
            "format": "skeleton",
            "version": FORMAT_VERSION,
            "name": skeleton.name,
            "joints": joints,
            "markers": markers,
        },
    )


# --- motion ------------------------------------------------------------


@dataclass
class Motion:
    """Either a keypoint sequence or a joint trajectory, plus header metadata."""

    fps: float
    kind: str  # "keypoints" | "trajectory"
    skeleton: str | None = None
    labels: tuple | None = None
    keypoints: np.ndarray | None = None  # (T, N, 3)
    trajectory: JointTrajectory | None = None


def load_motion(path):
    obj = _read_json(path)
    _check_header(obj, path, "motion")
    fps = obj.get("fps")
    if not isinstance(fps, (int, float)) or not np.isfinite(fps) or fps <= 0:
        raise ParseError(path, "/fps", f"fps must be positive, got {fps!r}")
    kind = obj.get("kind")
    if kind == "keypoints":
        labels = tuple(obj.get("labels", []))
        frames = _finite_array(obj.get("frames"), path, "/frames")
        if frames.ndim != 3 or frames.shape[2] != 3 or frames.shape[1] != len(labels):
            raise ParseError(
                path,
                "/frames",
                f"expected (T, {len(labels)}, 3) keypoints, got {frames.shape}",
            )
        return Motion(
            fps=float(fps),
            kind=kind,
            skeleton=obj.get("skeleton"),
            labels=labels,
            keypoints=frames,
        )
    if kind == "trajectory":
        poses = []
        for i, node in enumerate(obj.get("frames", [])):
            loc = f"/frames/{i}"
            try:
                poses.append(
                    Pose(
                        _finite_array(node["root_position"], path, loc, (3,)),
                        Rotation.from_quat(
                            _finite_array(node["root_orientation"], path, loc, (4,))
                        ),
                        _finite_array(node["joint_values"], path, loc),
                    )
                )
            except (KeyError, TypeError) as e:
                raise ParseError(path, loc, f"bad trajectory frame: {e}") from None
        lengths = {len(p.joint_values) for p in poses}
        if len(lengths) > 1:
            raise ParseError(path, "/frames", f"inconsistent DoF counts {sorted(lengths)}")
        traj = JointTrajectory(fps=float(fps), poses=poses, skeleton=obj.get("skeleton"))
        return Motion(
            fps=float(fps), kind=kind, skeleton=obj.get("skeleton"), trajectory=traj
        )
    raise ParseError(path, "/kind", f"unknown motion kind {kind!r}")


def save_motion(motion, path):
    obj = {
        "format": "motion",
        "version": FORMAT_VERSION,
        "fps": float(motion.fps),
        "skeleton": motion.skeleton,
        "kind": motion.kind,
    }
    if motion.kind == "keypoints":
        obj["labels"] = list(motion.labels)
        obj["frames"] = [
            [[float(v) for v in p] for p in frame] for frame in motion.keypoints
        ]
    elif motion.kind == "trajectory":
        obj["frames"] = [
            {
                "root_position": _floats(p.root_position),
                "root_orientation": _floats(p.root_orientation.as_quat()),
                "joint_values": _floats(p.joint_values),
            }
            for p in motion.trajectory.poses
        ]
    else:
        raise ValidationError(f"unknown motion kind {motion.kind!r}")
    _atomic_write(path, obj)


def trajectory_motion(trajectory):
    return Motion(
        fps=trajectory.fps,
        kind="trajectory",
        skeleton=trajectory.skeleton,
        trajectory=trajectory,
    )


def keypoint_motion(frames, labels, fps, skeleton=None):
    return Motion(
        fps=fps,
        kind="keypoints",
        skeleton=skeleton,
        labels=tuple(labels),
        keypoints=np.asarray(frames, dtype=float),
    )


# --- correspondence ----------------------------------------------------


def load_correspondence(path, human_skeleton=None, robot_skeleton=None):
    """Load a marker map; a null scale is derived from the scale chains."""
    obj = _read_json(path)
    _check_header(obj, path, "correspondence")
    pairs = []
    for i, node in enumerate(obj.get("pairs", [])):
        loc = f"/pairs/{i}"
        try:
            pairs.append(
                CorrespondencePair(
                    human=node["human"],
                    robot=node["robot"],
                    position_weight=float(node.get("position_weight", 1.0)),
                    orientation_weight=float(node.get("orientation_weight", 0.0)),
                )
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(path, loc, f"bad pair record: {e}") from None
    scale = obj.get("scale")
    if scale is None:
        chains = obj.get("scale_chains")
        if chains and human_skeleton is not None and robot_skeleton is not None:
            scale = leg_scale(
                human_skeleton, robot_skeleton, chains["human"], chains["robot"]
            )
        else:
            raise ParseError(
                path,
                "/scale",
                "scale is null and no scale_chains/skeletons available to derive it",
            )
    try:
        return CorrespondenceSet(tuple(pairs), float(scale))
    except ValidationError as e:
        raise ParseError(path, "/", str(e)) from None


def save_correspondence(corr, path):
    _atomic_write(
        path,
        {
            "format": "correspondence",
            "version": FORMAT_VERSION,
            "scale": float(corr.scale),
            "pairs": [
                {
                    "human": p.human,
                    "robot": p.robot,
                    "position_weight": p.position_weight,
                    "orientation_weight": p.orientation_weight,
                }
                for p in corr.pairs
            ],
        },
    )


# --- dof config --------------------------------------------------------


def load_dof_config(path):
    obj = _read_json(path)
    _check_header(obj, path, "dofconfig")
    channels = []
    for i, node in enumerate(obj.get("joints", [])):
        loc = f"/joints/{i}"
        try:
            channels.append(
                DofChannel(
                    name=node["name"],
                    scale=float(node.get("scale", 1.0)),
                    offset=float(node.get("offset", 0.0)),
                    default=None if node.get("default") is None else float(node["default"]),
                    meta=node.get("meta", {}),
                )
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(path, loc, f"bad channel record: {e}") from None
    try:
        return DofConfig(channels, name=obj.get("name"))
    except ValidationError as e:
        raise ParseError(path, "/joints", str(e)) from None


def save_dof_config(config, path):
    _atomic_write(
        path,
        {
            "format": "dofconfig",
            "version": FORMAT_VERSION,
            "name": config.name,
            "joints": [
                {
                    "name": c.name,
                    "scale": c.scale,
                    "offset": c.offset,
                    "default": c.default,
                    "meta": c.meta,
                }
                for c in config.channels
            ],
        },
    )


# --- codebook ----------------------------------------------------------


def load_codebook(path):
    obj = _read_json(path)
    _check_header(obj, path, "codebook")
    base = Path(path).parent
    entries = _matrix(obj.get("entries"), path, "/entries", base)
    try:
        return Codebook(
            entries=entries,
            ema_counts=_finite_array(
                obj.get("ema_counts"), path, "/ema_counts", (entries.shape[0],)
            ),
            ema_sums=_matrix(obj.get("ema_sums"), path, "/ema_sums", base),
            decay=float(obj.get("decay", 0.99)),
            epsilon=float(obj.get("epsilon", 1e-5)),
            usage=_finite_array(obj.get("usage"), path, "/usage", (entries.shape[0],)),
        )
    except ValidationError as e:
        raise ParseError(path, "/", str(e)) from None


def save_codebook(codebook, path, binary_sidecar=False):
    _atomic_write(
        path,
        {
            "format": "codebook",
            "version": FORMAT_VERSION,
            "decay": float(codebook.decay),
            "epsilon": float(codebook.epsilon),
            "entries": _matrix_node(codebook.entries, path, "entries", binary_sidecar),
            "ema_counts": _floats(codebook.ema_counts),
            "ema_sums": _matrix_node(codebook.ema_sums, path, "ema_sums", binary_sidecar),
            "usage": _floats(codebook.usage),
        },
    )


def load_tokens(path):
    obj = _read_json(path)
    _check_header(obj, path, "tokens")
    indices = obj.get("indices", [])
    # bool is an int subclass, and a fractional index must not be truncated
    if not isinstance(indices, list) or any(type(i) is not int for i in indices):
        raise ParseError(path, "/indices", "expected a list of integer token indices")
    factor = obj.get("downsample_factor")
    if factor is not None and type(factor) is not int:
        raise ParseError(path, "/downsample_factor", f"expected an integer, got {factor!r}")
    try:
        return TokenSequence(np.asarray(indices, dtype=int), factor)
    except OverflowError as e:
        raise ParseError(path, "/indices", str(e)) from None


def save_tokens(tokens, path):
    _atomic_write(
        path,
        {
            "format": "tokens",
            "version": FORMAT_VERSION,
            "downsample_factor": tokens.downsample_factor,
            "indices": [int(i) for i in tokens.indices],
        },
    )


# --- feature matrices --------------------------------------------------


def load_feature_matrix(path):
    obj = _read_json(path)
    _check_header(obj, path, "features")
    values = _matrix(obj.get("values"), path, "/values", Path(path).parent)
    labels = obj.get("labels")
    try:
        return FeatureMatrix(values, None if labels is None else tuple(labels))
    except ValidationError as e:
        raise ParseError(path, "/", str(e)) from None


def save_feature_matrix(features, path, binary_sidecar=False):
    _atomic_write(
        path,
        {
            "format": "features",
            "version": FORMAT_VERSION,
            "labels": None if features.labels is None else list(features.labels),
            "values": _matrix_node(features.values, path, "values", binary_sidecar),
        },
    )
