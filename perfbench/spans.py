"""In-memory span tracing of the library's layers, from outside the library.

The tracer replaces each traced function by a wrapper at the name its
caller looks it up under (for example ``retarget.fk``, which the solver's
residual calls, rather than ``skeleton.fk``), and puts every original back
when the ``patched`` block ends. Spans are kept in memory; a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    child_s: float = 0.0
    nbytes: int = 0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


def _path_arg(args, kwargs, index):
    if "path" in kwargs:
        return kwargs["path"]
    return args[index] if len(args) > index else None


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []  # stack of open Spans
        self.cost_s = 0.0  # time spent in wrappers outside the wrapped calls

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), None if parent is None else parent.id, name, time.perf_counter(), 0.0)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.child_s += s.duration

    def wrap(self, name, fn, path_index=None, size_after=False):
        """fn wrapped in a span; path_index names the argument holding a file."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            with self.span(name) as s:
                if path_index is not None and not size_after:
                    s.nbytes = _file_size(_path_arg(args, kwargs, path_index))
                called = time.perf_counter()
                result = fn(*args, **kwargs)
                returned = time.perf_counter()
                if size_after:
                    s.nbytes = _file_size(_path_arg(args, kwargs, path_index))
            self.cost_s += time.perf_counter() - entered - (returned - called)
            return result

        return traced

    def records(self):
        return [
            {
                "id": s.id, "parent": s.parent, "name": s.name,
                "start": s.start, "end": s.end, "self_s": s.self_s, "bytes": s.nbytes,
            }
            for s in self.spans
        ]


def _public_functions(module):
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    ]


def targets(rk):
    """(module, attribute, span name, path argument index, size after call)."""
    cli, io = rk.cli, rk.io
    features, ik, metrics, retarget = rk.features, rk.ik, rk.metrics, rk.retarget
    out = [
        (cli, "fk", "skeleton.fk@cli", None, False),
        (retarget, "fk", "skeleton.fk@retarget", None, False),
        (features, "fk", "skeleton.fk@features", None, False),
        (cli, "reconstruct_sequence", "ik.reconstruct_sequence", None, False),
        (ik, "reconstruct_frame", "ik.reconstruct_frame", None, False),
        (retarget, "retarget_frame", "retarget.retarget_frame", None, False),
        (features, "build_pose_features", "features.build_pose_features", None, False),
        (cli, "assign", "vq.assign", None, False),
    ]
    for name in _public_functions(io):
        if name.startswith("load_"):
            out.append((io, name, f"io.{name}", 0, False))
        elif name.startswith("save_"):
            out.append((io, name, f"io.{name}", 1, True))
    for name in _public_functions(metrics):
        out.append((metrics, name, f"metrics.{name}", None, False))
    return out


@contextlib.contextmanager
def patched(tracer, rk):
    """Wrap every traced function for the duration of the block."""
    saved = []
    try:
        for module, attr, name, path_index, size_after in targets(rk):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, path_index, size_after))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
