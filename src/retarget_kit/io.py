"""Versioned JSON file formats for every artifact the pipeline exchanges.

All files are UTF-8 JSON trees with explicit "format" and "version" keys.
Numbers are written with shortest round-trip decimal formatting, key order
is fixed by construction, and writes are atomic (temp file + rename), so
repeated saves of the same data are byte-identical.

One renderer, `_render`, yields every file's text as json.dumps(tree,
indent=1) would, byte for byte, in pieces that `_save` writes as they come,
so no document is held whole (loaders read it whole, as json.loads needs).
Savers hand it numeric np.ndarrays, and a trajectory's frames as `_Records`
of its columns; each column is checked whole by `errors.check_array`, which
refuses NaN and infinity as every loader does, then rendered a block of at
most _BLOCK_VALUES values' top-level rows a piece (one repr pass per column,
joined by shape), so a write holds one block's text. The rest of a tree is
plain: a list or object of scalars is written in one pass of a C encoder, any
other scalar through json's text for its type, and any other list or object,
such as a report's `per_frame`, an item at a time. A matrix is always an
inline list of rows. A trajectory is loaded as one array per frame key.

Every loader reads its document through `_load`, which checks the header,
and every saver writes it through `_save`, which writes the header. A
malformed field or record, of any type or value, is a ParseError naming the
file and its JSON location; the rules on a value live in the type built
from it, and the loaders only attach the location. Every table of records is
walked a record at a time through those types by `_records`, so that the error
names the first bad record; a skeleton's joint table is checked a column at a
time first, and walked only when that check refuses it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError, check_array, check_labels, check_number
from .metrics import FeatureMatrix
from .retarget import CorrespondencePair, CorrespondenceSet, leg_scale
from .rotations import _matrix_stack, _quat_stack
from .skeleton import (
    _AXIS_NORM_TOL,
    DOF_COUNTS,
    Joint,
    JointTrajectory,
    Marker,
    Skeleton,
    _add_marker,
    _axis_norms,
    _skeleton_name,
)
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
        raise ValidationError(f"{path}: unsupported {format} version {obj.get('version')!r}")
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


def _prechecked(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields`: every field,
    already checked by cls's rules and in the form its __post_init__ stores. A
    loader that checks a whole table by column builds its records with this, so
    no record is checked a second time."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _matrix(node, path, location):
    """An inline list-of-lists matrix; anything else is a ParseError at `location`."""
    return _at(path, location, check_array, location[1:], node, (None, None))


def _array(arr, depth):
    """The texts of `arr`'s top-level rows as json.dumps(arr.tolist(), indent=1)
    lays them out, at nesting level depth + 1; a 1-D array's are its values.

    Every value is rendered in one pass, then joined axis by axis, innermost
    first, with the separators of the nesting level that axis sits at. The
    caller has checked the values.
    """
    items = list(map(repr, arr.ravel().tolist()))
    for axis in reversed(range(1, arr.ndim)):
        n = arr.shape[axis]
        if n == 0:
            items = ["[]"] * math.prod(arr.shape[:axis])
            continue
        inner = "\n" + " " * (depth + axis + 1)
        head, sep, tail = "[" + inner, "," + inner, "\n" + " " * (depth + axis) + "]"
        items = [head + sep.join(items[i : i + n]) + tail for i in range(0, len(items), n)]
    return items


class _Records:
    """A list of objects, object t holding row t of each column under its key."""

    def __init__(self, columns):
        self.columns = columns


_BLOCK_VALUES = 1024  # the most values a piece of an array or of records is made from


def _float_text(x):
    """json's text of a float: its repr, or NaN, Infinity or -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


_LEAF_TEXT = {  # json's text of a scalar leaf, by its exact type
    float: _float_text,
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


@functools.cache
def _encoder(depth):
    """The C encoder of a list or object of scalars at nesting level `depth`: its
    items one a line at level depth + 1, the brackets left for `_render` to place."""
    return json.JSONEncoder(check_circular=False, separators=(",\n" + " " * (depth + 1), ": "))


def _render(node, depth):
    """The pieces of json.dumps(node, indent=1) at nesting level `depth`, byte for byte.

    A leaf whose type is in _LEAF_TEXT is written through it; any other leaf goes
    through an encoder, which writes a subclass of a scalar type as json does and
    refuses what json refuses. A numeric np.ndarray or a `_Records` is written by
    `_blocks`. A list or object of _LEAF_TEXT leaves is one piece, from one pass of
    its depth's C encoder. Any other list or object, such as a report's
    `per_frame`, is written an item at a time: an item whose type is in _LEAF_TEXT
    joins the piece before it, and any other item is a level deeper in `_render`,
    so no piece holds more than one container item."""
    leaf = _LEAF_TEXT.get(type(node))
    if leaf:
        yield leaf(node)
        return
    if isinstance(node, dict):
        if not all(map(isinstance, node, itertools.repeat(str))):
            raise TypeError("object keys must be strings")
        values, brackets = node.values(), "{}"
        items = ((encode_basestring_ascii(k) + ": ", v) for k, v in node.items())
    elif isinstance(node, (list, tuple)):
        values, brackets, items = node, "[]", zip(itertools.repeat(""), node)
    elif isinstance(node, (np.ndarray, _Records)):
        yield from _blocks(node, depth)
        return
    else:
        yield _encoder(0).encode(node)
        return
    inner = "\n" + " " * (depth + 1)
    if _LEAF_TEXT.keys() >= set(map(type, values)):  # every item is such a leaf
        text = _encoder(depth).encode(node)
        if len(text) > 2:  # not [] or {}
            text = text[0] + inner + text[1:-1] + "\n" + " " * depth + text[-1]
        yield text
        return
    sep, piece = brackets[0] + inner, ""
    for head, value in items:
        leaf = _LEAF_TEXT.get(type(value))
        if leaf:
            piece += sep + head + leaf(value)
        else:
            yield piece + sep + head
            yield from _render(value, depth + 1)
            piece = ""
        sep = "," + inner
    yield piece + "\n" + " " * depth + brackets[1]


def _blocks(node, depth):
    """`_render`'s pieces of an array or records: each column checked whole, named
    by its key in records, then a piece per block of top-level rows, at most
    _BLOCK_VALUES values, from one `_array` pass per column."""
    records = isinstance(node, _Records)
    named = node.columns if records else {f"array of shape {node.shape}": node}
    columns = list(named.values())
    for name, column in named.items():
        if column.dtype.kind == "f":
            check_array(name, column)
        elif column.dtype.kind not in "iu":
            raise TypeError(f"cannot write an array of dtype {column.dtype}")
    if columns[0].ndim == 0:
        yield _array(node.reshape(1), depth)[0]
        return
    inner = "\n" + " " * (depth + 1)
    row = "{}"  # a row's text; for records, object t with its values filled in
    if records:
        keys = [json.dumps(k).replace("{", "{{").replace("}", "}}") + ": " for k in node.columns]
        row = "{{" + inner + " " + ("{}," + inner + " ").join(keys) + "{}" + inner + "}}"
    step = max(1, _BLOCK_VALUES // max(1, sum(math.prod(c.shape[1:]) for c in columns)))
    sep = "[" + inner
    for i in range(0, len(columns[0]), step):
        # a records' values sit a level further in than an array's rows
        texts = [_array(column[i : i + step], depth + records) for column in columns]
        yield sep + ("," + inner).join(map(row.format, *texts))
        sep = "," + inner
    yield "\n" + " " * depth + "]" if sep[0] == "," else "[]"


def _atomic_write(path, chunks):
    """Write bytes-like chunks, made as they are written, through a temp file in
    the target directory, then rename; on any failure the target is untouched.
    The file gets the mode a plain `open` would give it, 0o666 less the umask.
    A target that exists and is not a regular file, a directory or a FIFO, is
    refused before anything is written."""
    path = Path(path)
    tmp = None
    try:
        if path.exists() and not path.is_file():  # the directory's message is the rename's
            raise ValidationError("Is a directory" if path.is_dir() else "not a regular file")
        name = path.parent / f"tmp{os.urandom(8).hex()}.tmp"
        fd = os.open(name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        tmp = name
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


def _joint_columns(obj):
    """The joints of a skeleton document, the table checked a column at a time by
    the rules `Joint` checks a record by, then built without a second check.

    It raises, naming no location, on whatever it does not take: a table that
    is not a list of objects, a name that is not a string, a dof that is neither
    "fixed" nor "spherical" nor a revolute object with an axis, offsets or axes
    that are not (n, 3) finite numbers, an axis norm off 1 by more than
    _AXIS_NORM_TOL, limits that are not one [min, max] pair of finite numbers
    with min <= max per DoF. Valid tables of rarer forms, such as a fixed joint
    whose dof is an object, are refused too: `load_skeleton` walks a refused
    table a record at a time.
    """
    nodes = obj.get("joints", [])
    if not (type(nodes) is list and {dict} >= set(map(type, nodes))):
        raise ValidationError("not a list of objects")
    names, parents = [n["name"] for n in nodes], [n.get("parent") for n in nodes]
    dofs = [n.get("dof", "fixed") for n in nodes]
    kinds = [d.get("type") if type(d) is dict else d for d in dofs]
    limits = [n.get("limits", []) for n in nodes]
    if not (
        {str} >= set(map(type, names)) and {str, type(None)} >= set(map(type, parents))
        and all(k in DOF_COUNTS and (k == "revolute") == (type(d) is dict)
                for d, k in zip(dofs, kinds))
        and {list} >= set(map(type, limits))
        and all(not lim or len(lim) == DOF_COUNTS[k] for lim, k in zip(limits, kinds))
    ):
        raise ValidationError("unchecked joint fields")
    offsets = check_array("offset", [n["offset"] for n in nodes], (len(nodes), 3))
    axes = [d["axis"] for d in dofs if type(d) is dict]
    if axes:
        axes = check_array("axis", axes, (len(axes), 3))
        norms = _axis_norms(axes)
        if (np.abs(norms - 1.0) > _AXIS_NORM_TOL).any():
            raise ValidationError("axis norm")
        axes = iter(axes / norms[:, None])
    pairs = [p for lim in limits for p in lim]
    if not ({list} >= set(map(type, pairs)) and {2} >= set(map(len, pairs))):
        raise ValidationError("unchecked limits")
    values = [float(check_number("limit", x, "finite")) for p in pairs for x in p]
    pairs = list(zip(values[::2], values[1::2]))
    if any(lo > hi for lo, hi in pairs):
        raise ValidationError("limit min > max")
    ends = itertools.accumulate(map(len, limits))
    return [
        _prechecked(Joint, name=name, parent=parent, offset=offset, dof=kind,
                    axis=next(axes) if kind == "revolute" else None,
                    limits=tuple(pairs[end - len(lim) : end]))
        for name, parent, offset, kind, lim, end
        in zip(names, parents, offsets, kinds, limits, ends)
    ]


def load_skeleton(path):
    """A skeleton document. Its joint table is checked by column (`_joint_columns`),
    and a table that check refuses is walked a record at a time through `Joint`,
    so that the error names the first bad joint and its field. The markers are
    walked through `Marker` and the marker rule of `Skeleton`."""
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
        )

    try:
        joints = _joint_columns(obj)
    except (ValidationError, *_MALFORMED):
        joints = _records(path, obj, "joints", joint)
    names, markers = {j.name for j in joints}, {}

    def marker(node, location):
        offset = _at(path, location + "/offset", check_array, "offset", node["offset"], (3,))
        return _add_marker(markers, Marker(node["name"], node["joint"], offset), names)

    return _at(path, "/joints", Skeleton, joints, _records(path, obj, "markers", marker), name)


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
    the motion's fps and skeleton name. Either kind has at least one frame,
    as `load_motion` requires.
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
            frames = len(self.keypoints)
        elif self.kind == "trajectory":
            t = self.trajectory
            if not isinstance(t, JointTrajectory):
                raise ValidationError(f"trajectory must be a JointTrajectory, got {t!r:.40}")
            if (t.fps, t.skeleton) != (self.fps, self.skeleton):
                raise ValidationError(
                    f"trajectory fps {t.fps!r} and skeleton {t.skeleton!r:.40} differ from the "
                    f"motion's {self.fps!r} and {self.skeleton!r:.40}"
                )
            frames = len(t)
        else:
            raise ValidationError(f"unknown motion kind {self.kind!r:.40}")
        if not frames:
            raise ValidationError("a motion needs at least one frame")


_FRAME_KEYS = {  # the keys of a trajectory frame, and the shapes of their columns
    "root_position": (None, 3), "root_orientation": (None, 4), "joint_values": (None, None)
}


def _trajectory_columns(obj, path):
    """(T, 3) root positions, (T, 4) quaternions and (T, DoF) joint values of
    the frames of a trajectory document.

    One array per key, checked by the array rule. When one of them fails,
    the frames are walked by `_records`, so the error names the first bad frame.
    """
    frames = obj["frames"]
    try:
        return [check_array(k, [node[k] for node in frames], s) for k, s in _FRAME_KEYS.items()]
    except (ValidationError, *_MALFORMED):
        pass

    def frame(node, location):
        for key, shape in _FRAME_KEYS.items():
            values = check_array(key, node[key], shape[1:])
        dof = len(frames[0]["joint_values"])  # frame 0 is walked, and passes, first
        if len(values) != dof:
            raise ValidationError(f"{len(values)} joint values, frame 0 has {dof}")

    _records(path, obj, "frames", frame)
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
        positions, quats, values = _trajectory_columns(obj, path)
        rotations, zero, why = _matrix_stack(quats)
        if zero.any():
            k = int(np.argmax(zero))
            raise ParseError(path, f"/frames/{k}/root_orientation", why(k))
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
        # One object per frame, which `_render` writes a block of frames at a time.
        traj = motion.trajectory
        columns = traj.root_positions, _quat_stack(traj.root_rotations), traj.joint_values
        body["frames"] = _Records(dict(zip(_FRAME_KEYS, columns)))
    else:
        raise ValidationError(f"unknown motion kind {motion.kind!r}")
    _save(path, "motion", body)


def trajectory_motion(trajectory):
    return Motion(trajectory.fps, "trajectory", trajectory.skeleton, trajectory=trajectory)


def keypoint_motion(frames, labels, fps, skeleton=None):
    return Motion(fps, "keypoints", skeleton, labels, frames)


# --- correspondence ----------------------------------------------------


def load_correspondence(path, human_skeleton=None, robot_skeleton=None):
    """Load a marker map, its pairs walked one at a time through
    `CorrespondencePair`; a null scale is derived from the scale chains."""
    obj = _load(path, "correspondence")

    def pair(node, location):
        weights = node.get("position_weight", 1.0), node.get("orientation_weight", 0.0)
        return CorrespondencePair(node["human"], node["robot"], *weights)

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
    entries = _matrix(obj.get("entries"), path, "/entries")
    epsilon = obj.get("epsilon", DEFAULT_EPSILON)
    decay = obj.get("decay", DEFAULT_DECAY)
    _at(path, "/epsilon", check_number, "epsilon", epsilon, ">= 0")
    _at(path, "/decay", check_number, "decay", decay, "[0, 1]")
    rows = (entries.shape[0],)
    counts = _at(path, "/ema_counts", check_array, "ema_counts", obj.get("ema_counts"), rows)
    sums = _matrix(obj.get("ema_sums"), path, "/ema_sums")
    usage = _at(path, "/usage", check_array, "usage", obj.get("usage"), rows)
    return _at(path, "/", Codebook, entries, counts, sums, float(decay), float(epsilon), usage)


def save_codebook(codebook, path):
    _save(
        path,
        "codebook",
        {
            "decay": float(codebook.decay),
            "epsilon": float(codebook.epsilon),
            "entries": codebook.entries,
            "ema_counts": codebook.ema_counts,
            "ema_sums": codebook.ema_sums,
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
    values = _matrix(obj.get("values"), path, "/values")
    labels = obj.get("labels")
    if not isinstance(labels, (list, type(None))):
        raise ParseError(path, "/labels", f"expected a list of labels, got {labels!r:.40}")
    return _at(path, "/", FeatureMatrix, values, labels)


def save_feature_matrix(features, path):
    labels = None if features.labels is None else list(features.labels)
    _save(path, "features", {"labels": labels, "values": features.values})
