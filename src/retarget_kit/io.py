"""Versioned JSON file formats for every artifact the pipeline exchanges.

All files are UTF-8 JSON trees with explicit "format" and "version" keys.
Numbers are written with shortest round-trip decimal formatting, key order
is fixed by construction, and writes are atomic (temp file + rename), so
repeated saves of the same data are byte-identical.

One renderer, `_render`, yields every file's text as json.dumps(tree,
indent=1) would, byte for byte, in pieces that `_save` writes as they come,
so no document is held whole (loaders read it whole, as json.loads needs).
Savers hand it numeric np.ndarrays, rendered a top-level row a piece (one
repr pass, joined by shape); it refuses, by `errors.check_array`, arrays
holding NaN or infinity, which every loader rejects by the same rule.
Large matrices may be stored as a
sidecar flat binary of little-endian float64, referenced as
{"binary": <relative path>, "shape": [rows, cols]} and written atomically
too. A trajectory is loaded as one array per frame key and saved as one
object per frame, whose values are row views of those arrays.

Every loader reads its document through `_load`, which checks the header,
and every saver writes it through `_save`, which writes the header. A
malformed field or record, of any type or value, is a ParseError naming the
file and its JSON location; the rules on a value live in the type built
from it, and the loaders only attach the location.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateFrame,
    ParseError,
    SchemaVersionError,
    ValidationError,
    check_array,
    check_labels,
    check_number,
)
from .metrics import FeatureMatrix
from .retarget import CorrespondencePair, CorrespondenceSet, leg_scale
from .rotations import _matrix_stack, _quat_stack
from .skeleton import Joint, JointTrajectory, Marker, Skeleton, _skeleton_name
from .vq import DEFAULT_DECAY, DEFAULT_EPSILON, Codebook, TokenSequence

FORMAT_VERSION = 1
# What a malformed value raises: a missing key, a wrong type, an unparsable or
# out-of-range number.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


# --- plumbing ----------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-finite constant {token!r} not allowed")


def _load(path, format):
    """The JSON object at `path`, checked to be a `format` document of FORMAT_VERSION."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise ParseError(path, f"line {e.lineno} col {e.colno}", e.msg) from None
    except (OSError, ValueError, RecursionError) as e:  # unreadable, not UTF-8, too deep
        raise ParseError(path, "-", str(e)) from None
    if not isinstance(obj, dict):
        raise ParseError(path, "/", "top level must be an object")
    if obj.get("format") != format:
        raise ParseError(path, "/format", f"expected {format!r}, got {obj.get('format')!r}")
    # bool is an int subclass, and 1.0 == 1
    if type(obj.get("version")) is not int or obj["version"] != FORMAT_VERSION:
        raise SchemaVersionError(f"{path}: unsupported {format} version {obj.get('version')!r}")
    return obj


def _at(path, location, make, *args):
    """make(*args); a malformed value or a ValidationError raised in it becomes a
    ParseError at `location`, and a ParseError keeps its own location."""
    try:
        return make(*args)
    except ParseError:
        raise
    except ValidationError as e:
        raise ParseError(path, location, str(e)) from None
    except _MALFORMED as e:
        reason = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ParseError(path, location, reason) from None


def _records(path, obj, key, make):
    """make(record, location) for each object in the list at obj[key], none if
    the key is absent; a failure is a ParseError at /key/i."""
    nodes = obj.get(key, [])
    if not isinstance(nodes, list):
        raise ParseError(path, f"/{key}", f"expected a list of objects, got {nodes!r:.40}")
    records = []
    for i, node in enumerate(nodes):
        location = f"/{key}/{i}"
        if not isinstance(node, dict):
            raise ParseError(path, location, f"expected an object, got {node!r:.40}")
        records.append(_at(path, location, make, node, location))
    return records


def _matrix(node, path, location, base_dir):
    """Inline list-of-lists matrix or a {"binary", "shape"} sidecar reference."""
    name = location[1:]
    if isinstance(node, dict):
        rel, shape = node.get("binary"), node.get("shape")
        # sizes are JSON integers: int() would take "3", 3.9 and true
        if not (isinstance(rel, str) and isinstance(shape, list)
                and all(type(s) is int for s in shape)):
            raise ParseError(path, location, "bad sidecar reference")
        bin_path, shape = Path(base_dir) / rel, tuple(shape)
        try:
            flat = np.fromfile(bin_path, dtype="<f8")
        except OSError as e:
            raise ParseError(path, location, f"sidecar {rel}: {e}") from None
        if flat.size != math.prod(shape) or min(shape, default=0) < 0:
            reason = f"sidecar {rel} holds {flat.size} values, shape {shape}"
            raise ParseError(path, location, reason)
        node, name = flat.reshape(shape), f"sidecar {rel}"
    return _at(path, location, check_array, name, node, (None, None))


def _array(arr, depth):
    """A numeric array laid out as json.dumps(arr.tolist(), indent=1) lays it out.

    Every value is rendered in one pass, then joined axis by axis, innermost
    first, with the separators of the nesting level that axis sits at. The
    caller has checked the values.
    """
    items = list(map(repr, arr.ravel().tolist()))
    for axis in reversed(range(arr.ndim)):
        n = arr.shape[axis]
        if n == 0:
            items = ["[]"] * math.prod(arr.shape[:axis])
            continue
        inner = "\n" + " " * (depth + axis + 1)
        head, sep, tail = "[" + inner, "," + inner, "\n" + " " * (depth + axis) + "]"
        items = [head + sep.join(items[i : i + n]) + tail for i in range(0, len(items), n)]
    return items[0]


def _plain(node):
    """Whether `_render` writes the tree in one json.dumps: no np.ndarray, no non-str
    object key and no list holding a list or an object anywhere in it."""
    if isinstance(node, dict):
        return all(isinstance(k, str) and _plain(v) for k, v in node.items())
    if isinstance(node, (list, tuple)):
        return not any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in node)
    return not isinstance(node, np.ndarray)


def _render(node, depth):
    """The pieces of json.dumps(node, indent=1) at nesting level `depth`, byte for byte.

    A numeric np.ndarray is checked whole, then rendered by `_array`, a piece
    per top-level row if it has several; a list of lists or objects, such as
    a report's `per_frame`, is rendered an item at a time; a leaf, or any
    other subtree with no array in it, goes through one json.dumps,
    re-indented for its depth."""
    if isinstance(node, np.ndarray):
        if node.dtype.kind == "f":
            check_array(f"array of shape {node.shape}", node)
        elif node.dtype.kind not in "iu":
            raise TypeError(f"cannot write an array of dtype {node.dtype}")
        if node.ndim < 2 or len(node) < 2:
            yield _array(node, depth)
            return
        items = (("", [_array(row, depth + 1)]) for row in node)
    elif _plain(node):
        # json.dumps escapes newlines in strings: every "\n" it writes starts a line
        yield json.dumps(node, indent=1).replace("\n", "\n" + " " * depth)
        return
    elif isinstance(node, dict):
        if any(not isinstance(k, str) for k in node):
            raise TypeError("object keys must be strings")
        items = ((json.dumps(k) + ": ", _render(v, depth + 1)) for k, v in node.items())
    else:
        items = (("", _render(v, depth + 1)) for v in node)
    brackets = "{}" if isinstance(node, dict) else "[]"
    inner = "\n" + " " * (depth + 1)
    sep = brackets[0] + inner
    for head, pieces in items:
        yield sep + head
        yield from pieces
        sep = "," + inner
    yield "\n" + " " * depth + brackets[1]


def _matrix_node(arr, path, key, binary_sidecar):
    if not binary_sidecar:
        return np.asarray(arr, dtype=float)
    rel = f"{Path(path).name}.{key}.bin"
    bin_path = Path(path).parent / rel
    try:
        data = np.ascontiguousarray(check_array(f"array of shape {np.shape(arr)}", arr), "<f8")
    except ValidationError as e:
        raise ValidationError(f"cannot write {bin_path}: {e}") from None
    _atomic_write(bin_path, [data])
    return {"binary": rel, "shape": list(np.shape(arr))}


def _atomic_write(path, chunks):
    """Write bytes-like chunks, made as they are written, through a temp file in
    the target directory, then rename; on any failure the target is untouched."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
        tmp = None
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e.strerror or e}") from None
    except ValidationError as e:
        raise ValidationError(f"cannot write {path}: {e}") from None
    finally:
        if tmp is not None:
            os.unlink(tmp)


def _save(path, format, body):
    """Write the `format` document of FORMAT_VERSION holding `body`'s keys, atomically."""
    pieces = _render({"format": format, "version": FORMAT_VERSION, **body}, 0)
    _atomic_write(path, (piece.encode("ascii") for piece in itertools.chain(pieces, ["\n"])))


def save_report(report, path):
    """Write a machine-readable report tree."""
    _save(path, "report", report)


# --- skeleton ----------------------------------------------------------


def load_skeleton(path):
    obj = _load(path, "skeleton")
    name = _at(path, "/name", _skeleton_name, obj.get("name"))

    def joint(node, location):
        dof, axis = node.get("dof", "fixed"), None
        if isinstance(dof, dict):
            axis = _at(path, location + "/axis", check_array, "axis", dof.get("axis"), (3,))
            dof = dof.get("type")
        return Joint(
            name=node["name"],
            parent=node.get("parent"),
            offset=_at(path, location + "/offset", check_array, "offset", node["offset"], (3,)),
            dof=dof,
            axis=axis,
            limits=tuple(tuple(p) for p in node.get("limits", [])),
            meta=node.get("meta", {}),
        )

    def marker(node, location):
        offset = _at(path, location + "/offset", check_array, "offset", node["offset"], (3,))
        return Marker(name=node["name"], joint=node["joint"], offset=offset)

    joints = _records(path, obj, "joints", joint)
    markers = _records(path, obj, "markers", marker)
    return _at(path, "/joints", Skeleton, joints, markers, name)


def save_skeleton(skeleton, path):
    joints = []
    for j in skeleton.joints:
        node = {"name": j.name, "parent": j.parent, "offset": j.offset}
        if j.dof == "revolute":
            node["dof"] = {"type": "revolute", "axis": j.axis}
        else:
            node["dof"] = j.dof
        if j.limits:
            node["limits"] = [[lo, hi] for lo, hi in j.limits]
        if j.meta:
            node["meta"] = j.meta
        joints.append(node)
    markers = [
        {"name": m.name, "joint": m.joint, "offset": m.offset}
        for m in skeleton.markers.values()
    ]
    _save(path, "skeleton", {"name": skeleton.name, "joints": joints, "markers": markers})


# --- motion ------------------------------------------------------------


@dataclass
class Motion:
    """Either a keypoint sequence or a joint trajectory, plus header metadata.

    The payload is checked when the motion is made: keypoints are a (T, N, 3)
    array, N the number of labels (stored as a tuple), and a trajectory has
    the motion's fps and skeleton name.
    """

    fps: float
    kind: str  # "keypoints" | "trajectory"
    skeleton: str | None = None
    labels: tuple | None = None
    keypoints: np.ndarray | None = None  # (T, N, 3)
    trajectory: JointTrajectory | None = None

    def __post_init__(self):
        check_number("fps", self.fps, "> 0")
        _skeleton_name(self.skeleton)
        if self.kind == "keypoints":
            self.labels = check_labels("labels", self.labels)
            shape = (None, len(self.labels), 3)
            self.keypoints = check_array("keypoint frames", self.keypoints, shape)
        elif self.kind == "trajectory":
            t = self.trajectory
            if not isinstance(t, JointTrajectory):
                raise ValidationError(f"trajectory must be a JointTrajectory, got {t!r:.40}")
            if (t.fps, t.skeleton) != (self.fps, self.skeleton):
                raise ValidationError(
                    f"trajectory fps {t.fps!r} and skeleton {t.skeleton!r:.40} differ from the "
                    f"motion's {self.fps!r} and {self.skeleton!r:.40}"
                )
        else:
            raise ValidationError(f"unknown motion kind {self.kind!r:.40}")


_FRAME_KEYS = {  # the keys of a trajectory frame, and the shapes of their columns
    "root_position": (None, 3), "root_orientation": (None, 4), "joint_values": (None, None)
}


def _trajectory_columns(frames, path):
    """(T, 3) root positions, (T, 4) quaternions and (T, DoF) joint values.

    One array per key, checked by the array rule. When one of them fails,
    the frames are checked in order, so the error names the first bad frame.
    """
    try:
        return [check_array(k, [node[k] for node in frames], s) for k, s in _FRAME_KEYS.items()]
    except (ValidationError, *_MALFORMED):
        pass
    dof = None
    for i, node in enumerate(frames):
        loc = f"/frames/{i}"
        try:
            columns = [node[key] for key in _FRAME_KEYS]
        except _MALFORMED as e:
            raise ParseError(path, loc, f"bad trajectory frame: {e}") from None
        for (key, shape), column in zip(_FRAME_KEYS.items(), columns):
            values = _at(path, loc, check_array, key, column, shape[1:])
        if dof is not None and len(values) != dof:
            raise ParseError(path, loc, f"{len(values)} joint values, frame 0 has {dof}")
        dof = len(values)
    raise ParseError(path, "/frames", "inconsistent trajectory frames")


def load_motion(path):
    obj = _load(path, "motion")
    fps = float(_at(path, "/fps", check_number, "fps", obj.get("fps"), "> 0"))
    skeleton = _at(path, "/skeleton", _skeleton_name, obj.get("skeleton"))
    kind = obj.get("kind")
    if kind == "keypoints":
        labels = _at(path, "/labels", check_labels, "labels", obj.get("labels", []))
        return _at(path, "/frames", Motion, fps, kind, skeleton, labels, obj.get("frames"))
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
        traj = JointTrajectory.from_arrays(fps, positions, rotations, values, skeleton)
        return Motion(fps=fps, kind=kind, skeleton=skeleton, trajectory=traj)
    raise ParseError(path, "/kind", f"unknown motion kind {kind!r}")


def save_motion(motion, path):
    body = {
        "fps": float(check_number("fps", motion.fps, "> 0")),
        "skeleton": motion.skeleton,
        "kind": motion.kind,
    }
    if motion.kind == "keypoints":
        body["labels"] = list(motion.labels)
        body["frames"] = np.asarray(motion.keypoints, dtype=float)
    elif motion.kind == "trajectory":
        # One object of row views per frame; `_render` writes each frame as it comes.
        traj = motion.trajectory
        quats = check_array("root orientation quaternions", _quat_stack(traj.root_rotations))
        columns = zip(traj.root_positions, quats, traj.joint_values)
        body["frames"] = [dict(zip(_FRAME_KEYS, row)) for row in columns]
    else:
        raise ValidationError(f"unknown motion kind {motion.kind!r}")
    _save(path, "motion", body)


def trajectory_motion(trajectory):
    return Motion(trajectory.fps, "trajectory", trajectory.skeleton, trajectory=trajectory)


def keypoint_motion(frames, labels, fps, skeleton=None):
    return Motion(fps, "keypoints", skeleton, labels, frames)


# --- correspondence ----------------------------------------------------


def load_correspondence(path, human_skeleton=None, robot_skeleton=None):
    """Load a marker map; a null scale is derived from the scale chains."""
    obj = _load(path, "correspondence")

    def pair(node, location):
        weights = node.get("position_weight", 1.0), node.get("orientation_weight", 0.0)
        CorrespondencePair(node["human"], node["robot"], *weights)  # checks the weights
        return CorrespondencePair(node["human"], node["robot"], *map(float, weights))

    pairs = _records(path, obj, "pairs", pair)
    scale = obj.get("scale")
    if scale is None:
        chains = obj.get("scale_chains")
        if not chains or human_skeleton is None or robot_skeleton is None:
            raise ParseError(
                path,
                "/scale",
                "scale is null and no scale_chains/skeletons available to derive it",
            )
        chains = _at(path, "/scale_chains", lambda: (chains["human"], chains["robot"]))
        scale = _at(path, "/scale_chains", leg_scale, human_skeleton, robot_skeleton, *chains)
    scale = float(_at(path, "/scale", check_number, "scale", scale, "> 0"))
    return _at(path, "/", CorrespondenceSet, tuple(pairs), scale)


def save_correspondence(corr, path):
    pairs = [
        {
            "human": p.human,
            "robot": p.robot,
            "position_weight": p.position_weight,
            "orientation_weight": p.orientation_weight,
        }
        for p in corr.pairs
    ]
    _save(path, "correspondence", {"scale": float(corr.scale), "pairs": pairs})


# --- codebook ----------------------------------------------------------


def load_codebook(path):
    obj = _load(path, "codebook")
    base = Path(path).parent
    entries = _matrix(obj.get("entries"), path, "/entries", base)
    epsilon = obj.get("epsilon", DEFAULT_EPSILON)
    decay = obj.get("decay", DEFAULT_DECAY)
    _at(path, "/epsilon", check_number, "epsilon", epsilon, ">= 0")
    _at(path, "/decay", check_number, "decay", decay, "[0, 1]")
    rows = (entries.shape[0],)
    counts = _at(path, "/ema_counts", check_array, "ema_counts", obj.get("ema_counts"), rows)
    sums = _matrix(obj.get("ema_sums"), path, "/ema_sums", base)
    usage = _at(path, "/usage", check_array, "usage", obj.get("usage"), rows)
    return _at(path, "/", Codebook, entries, counts, sums, float(decay), float(epsilon), usage)


def save_codebook(codebook, path, binary_sidecar=False):
    _save(
        path,
        "codebook",
        {
            "decay": float(codebook.decay),
            "epsilon": float(codebook.epsilon),
            "entries": _matrix_node(codebook.entries, path, "entries", binary_sidecar),
            "ema_counts": codebook.ema_counts,
            "ema_sums": _matrix_node(codebook.ema_sums, path, "ema_sums", binary_sidecar),
            "usage": codebook.usage,
        },
    )


def load_tokens(path):
    obj = _load(path, "tokens")
    indices = obj.get("indices", [])
    # bool is an int subclass, and a fractional index must not be truncated
    if not isinstance(indices, list) or any(type(i) is not int for i in indices):
        raise ParseError(path, "/indices", "expected a list of integer token indices")
    factor = obj.get("downsample_factor")
    if factor is not None:
        _at(path, "/downsample_factor", check_number, "downsample_factor", factor, "int >= 1")
    return _at(path, "/indices", lambda: TokenSequence(np.asarray(indices, dtype=int), factor))


def save_tokens(tokens, path):
    body = {"downsample_factor": tokens.downsample_factor, "indices": tokens.indices}
    _save(path, "tokens", body)


# --- feature matrices --------------------------------------------------


def load_feature_matrix(path):
    obj = _load(path, "features")
    values = _matrix(obj.get("values"), path, "/values", Path(path).parent)
    labels = obj.get("labels")
    labels = None if labels is None else _at(path, "/labels", tuple, labels)
    return _at(path, "/", FeatureMatrix, values, labels)


def save_feature_matrix(features, path, binary_sidecar=False):
    labels = None if features.labels is None else list(features.labels)
    values = _matrix_node(features.values, path, "values", binary_sidecar)
    _save(path, "features", {"labels": labels, "values": values})
