"""Bundled example skeletons and correspondence maps.

The robot trees are illustrative 19-DoF and 21-DoF humanoids with
plausible proportions and limits; they are approximations for testing and
demos, not vendor data. Regenerate with scripts/make_example_assets.py.

`load_example_correspondence` takes the two skeletons a map connects,
whose leg lengths derive its scale.
"""

from __future__ import annotations

from pathlib import Path

from . import io

DATA_DIR = Path(__file__).parent / "data"


def asset_path(name):
    for candidate in (DATA_DIR / f"{name}.skel", DATA_DIR / f"{name}.map"):
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"no bundled asset named {name!r}")


def load_example_skeleton(name):
    return io.load_skeleton(DATA_DIR / f"{name}.skel")


def load_example_correspondence(name, human_skeleton, robot_skeleton):
    return io.load_correspondence(DATA_DIR / f"{name}.map", human_skeleton, robot_skeleton)
