"""Versioned JSON file formats for every artifact the pipeline exchanges.

All files are UTF-8 JSON trees with explicit "format" and "version" keys.
Numbers are written with shortest round-trip decimal formatting, key order
is fixed by construction, and writes are atomic (temp file + rename), so
repeated saves of the same data are byte-identical.

One writer, `_dump`, renders every file as json.dumps(tree, indent=1)
would, byte for byte. Savers hand it numeric np.ndarrays, which it renders
whole (one repr pass, joined by shape); it refuses arrays holding NaN or
infinity, which every loader rejects. Large matrices may be stored as a
sidecar flat binary of little-endian float64, referenced as
{"binary": <relative path>, "shape": [rows, cols]} and written atomically
too. A trajectory is loaded as one array per frame key and saved as one
rendered column per key.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateFrame, ParseError, SchemaVersionError, ValidationError
from .metrics import FeatureMatrix
from .retarget import CorrespondencePair, CorrespondenceSet, leg_scale
from .rotations import _matrix_stack, _quat_stack
from .skeleton import DofChannel, DofConfig, Joint, JointTrajectory, Marker, Skeleton
from .vq import DEFAULT_DECAY, DEFAULT_EPSILON, Codebook, TokenSequence, _check_decay, _check_epsilon

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
    except (TypeError, ValueError, OverflowError) as e:
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


def _finite_floats(arr):
    """arr as a float array; a saver refuses what its loader would reject."""
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"array of shape {arr.shape} contains NaN or infinity")
    return arr


def _array(arr, depth, rows=False):
    """A numeric array laid out as json.dumps(arr.tolist(), indent=1) lays it out.

    Every value is rendered in one pass, then joined axis by axis, innermost
    first, with the separators of the nesting level that axis sits at. With
    rows=True the first axis is not joined: the result is the list of
    `_array(arr[i], depth)` for each i.
    """
    if arr.dtype.kind == "f":
        _finite_floats(arr)
    elif arr.dtype.kind not in "iu":
        raise TypeError(f"cannot write an array of dtype {arr.dtype}")
    items = list(map(repr, arr.ravel().tolist()))
    depth -= rows
    for axis in reversed(range(rows, arr.ndim)):
        n = arr.shape[axis]
        if n == 0:
            items = ["[]"] * math.prod(arr.shape[:axis])
            continue
        inner = "\n" + " " * (depth + axis + 1)
        head, sep, tail = "[" + inner, "," + inner, "\n" + " " * (depth + axis) + "]"
        items = [head + sep.join(items[i : i + n]) + tail for i in range(0, len(items), n)]
    return items if rows else items[0]


class _Rendered(str):
    """Text that `_dump` writes as it is, laid out for the nesting level it goes to."""


def _dump(node, depth):
    """json.dumps(node, indent=1) at nesting level `depth`, byte for byte.

    Numeric np.ndarrays are rendered whole by `_array`; keys, strings,
    numbers, bools and None go through json.dumps as leaves.
    """
    if isinstance(node, _Rendered):
        return node
    if isinstance(node, np.ndarray):
        return _array(node, depth)
    if isinstance(node, dict):
        if any(not isinstance(k, str) for k in node):
            raise TypeError("object keys must be strings")
        items = [json.dumps(k) + ": " + _dump(v, depth + 1) for k, v in node.items()]
        brackets = "{}"
    elif isinstance(node, (list, tuple)):
        items = [_dump(v, depth + 1) for v in node]
        brackets = "[]"
    else:
        return json.dumps(node)
    if not items:
        return brackets
    inner = "\n" + " " * (depth + 1)
    return (
        brackets[0] + inner + ("," + inner).join(items)
        + "\n" + " " * depth + brackets[1]
    )


def _floats(arr):
    return np.asarray(arr, dtype=float).reshape(-1)


def _matrix_node(arr, path, key, binary_sidecar):
    if not binary_sidecar:
        return np.asarray(arr, dtype=float)
    rel = f"{Path(path).name}.{key}.bin"
    bin_path = Path(path).parent / rel
    try:
        data = _finite_floats(arr).astype("<f8").tobytes()
    except ValidationError as e:
        raise ValidationError(f"cannot write {bin_path}: {e}") from None
    _atomic_write(bin_path, data)
    return {"binary": rel, "shape": list(np.shape(arr))}


def _atomic_write(path, data):
    """Write bytes through a temp file in the target directory, then rename."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
        tmp = None
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e.strerror or e}") from None
    finally:
        if tmp is not None:
            os.unlink(tmp)


def _save(path, obj):
    try:
        text = _dump(obj, 0)
    except ValidationError as e:
        raise ValidationError(f"cannot write {path}: {e}") from None
    _atomic_write(path, (text + "\n").encode("ascii"))


def save_report(report, path):
    """Write a machine-readable report tree."""
    _save(path, {"format": "report", "version": FORMAT_VERSION, **report})


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
    _save(
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


def _trajectory_columns(frames, path):
    """(T, 3) root positions, (T, 4) quaternions and (T, DoF) joint values.

    One array per key. When one of them fails, the frames are checked in
    order, so the error names the first bad frame.
    """
    try:
        positions, quats, values = (
            np.asarray([node[key] for node in frames], dtype=float)
            for key in ("root_position", "root_orientation", "joint_values")
        )
        columns = positions, quats, values
        if (
            positions.shape[1:] == (3,)
            and quats.shape[1:] == (4,)
            and values.ndim == 2
            and all(np.all(np.isfinite(c)) for c in columns)
        ):
            return columns
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    dof = None
    for i, node in enumerate(frames):
        loc = f"/frames/{i}"
        try:
            _finite_array(node["root_position"], path, loc, (3,))
            _finite_array(node["root_orientation"], path, loc, (4,))
            values = _finite_array(node["joint_values"], path, loc)
        except (KeyError, TypeError) as e:
            raise ParseError(path, loc, f"bad trajectory frame: {e}") from None
        if values.ndim != 1:
            reason = f"joint_values must be a flat list, got shape {values.shape}"
            raise ParseError(path, loc, reason)
        if dof is not None and len(values) != dof:
            raise ParseError(path, loc, f"{len(values)} joint values, frame 0 has {dof}")
        dof = len(values)
    raise ParseError(path, "/frames", "inconsistent trajectory frames")


def load_motion(path):
    obj = _read_json(path)
    _check_header(obj, path, "motion")
    fps = obj.get("fps")
    # bool is an int subclass, and an int past the float range has no float
    if type(fps) not in (int, float) or not 0 < fps <= sys.float_info.max:
        raise ParseError(path, "/fps", f"fps must be positive, got {fps!r:.40}")
    skeleton = obj.get("skeleton")
    if skeleton is not None and not isinstance(skeleton, str):
        raise ParseError(path, "/skeleton", f"expected a skeleton name, got {skeleton!r:.40}")
    kind = obj.get("kind")
    if kind == "keypoints":
        labels = obj.get("labels", [])
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ParseError(path, "/labels", "expected a list of joint names")
        labels = tuple(labels)
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
            skeleton=skeleton,
            labels=labels,
            keypoints=frames,
        )
    if kind == "trajectory":
        frames = obj.get("frames")
        if not isinstance(frames, list) or not frames:
            reason = f"expected a non-empty list of frames, got {frames!r:.40}"
            raise ParseError(path, "/frames", reason)
        positions, quats, values = _trajectory_columns(frames, path)
        try:
            rotations = _matrix_stack(quats)
        except DegenerateFrame as e:
            raise ParseError(path, f"/frames/{e.row}/root_orientation", str(e)) from None
        traj = JointTrajectory.from_arrays(float(fps), positions, rotations, values, skeleton)
        return Motion(fps=float(fps), kind=kind, skeleton=skeleton, trajectory=traj)
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
        obj["frames"] = np.asarray(motion.keypoints, dtype=float)
    elif motion.kind == "trajectory":
        # Each column is rendered in one pass, as rows laid out for their frame's object.
        traj = motion.trajectory
        columns = (traj.root_positions, _quat_stack(traj.root_rotations), traj.joint_values)
        keys = ("root_position", "root_orientation", "joint_values")
        obj["frames"] = [
            dict(zip(keys, map(_Rendered, row)))
            for row in zip(*(_array(c, 3, rows=True) for c in columns))
        ]
    else:
        raise ValidationError(f"unknown motion kind {motion.kind!r}")
    _save(path, obj)


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
    _save(
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
    _save(
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
    epsilon = obj.get("epsilon", DEFAULT_EPSILON)
    decay = obj.get("decay", DEFAULT_DECAY)
    for key, check, value in (("epsilon", _check_epsilon, epsilon), ("decay", _check_decay, decay)):
        try:
            check(value)
        except ValidationError as e:
            raise ParseError(path, f"/{key}", str(e)) from None
    try:
        return Codebook(
            entries=entries,
            ema_counts=_finite_array(
                obj.get("ema_counts"), path, "/ema_counts", (entries.shape[0],)
            ),
            ema_sums=_matrix(obj.get("ema_sums"), path, "/ema_sums", base),
            decay=float(decay),
            epsilon=float(epsilon),
            usage=_finite_array(obj.get("usage"), path, "/usage", (entries.shape[0],)),
        )
    except ValidationError as e:
        raise ParseError(path, "/", str(e)) from None


def save_codebook(codebook, path, binary_sidecar=False):
    _save(
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
    _save(
        path,
        {
            "format": "tokens",
            "version": FORMAT_VERSION,
            "downsample_factor": tokens.downsample_factor,
            "indices": tokens.indices,
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
    _save(
        path,
        {
            "format": "features",
            "version": FORMAT_VERSION,
            "labels": None if features.labels is None else list(features.labels),
            "values": _matrix_node(features.values, path, "values", binary_sidecar),
        },
    )
