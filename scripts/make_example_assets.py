"""Regenerate the bundled example skeletons and correspondence maps.

The humanoid trees are hand-written approximations with plausible
proportions and limits, intended for tests and demos only.

Usage: python scripts/make_example_assets.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from retarget_kit import io
from retarget_kit.skeleton import Joint, Marker, Skeleton

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "retarget_kit" / "data"

X = [1.0, 0.0, 0.0]
Y = [0.0, 1.0, 0.0]
Z = [0.0, 0.0, 1.0]

SPH_LIMITS = ((-3.2, 3.2),) * 3


def spherical(name, parent, offset):
    return Joint(name, parent, offset, dof="spherical", limits=SPH_LIMITS)


def revolute(name, parent, offset, axis, lo, hi):
    return Joint(name, parent, offset, dof="revolute", axis=axis, limits=((lo, hi),))


def human_24():
    joints = [
        Joint("pelvis", None, [0, 0, 0]),
        spherical("l_hip", "pelvis", [0.09, -0.08, 0]),
        spherical("r_hip", "pelvis", [-0.09, -0.08, 0]),
        spherical("spine1", "pelvis", [0, 0.12, 0]),
        spherical("l_knee", "l_hip", [0, -0.38, 0]),
        spherical("r_knee", "r_hip", [0, -0.38, 0]),
        spherical("spine2", "spine1", [0, 0.13, 0]),
        spherical("l_ankle", "l_knee", [0, -0.40, 0]),
        spherical("r_ankle", "r_knee", [0, -0.40, 0]),
        spherical("spine3", "spine2", [0, 0.13, 0]),
        spherical("l_foot", "l_ankle", [0, -0.05, 0.12]),
        spherical("r_foot", "r_ankle", [0, -0.05, 0.12]),
        spherical("neck", "spine3", [0, 0.10, 0]),
        spherical("l_collar", "spine3", [0.05, 0.08, 0]),
        spherical("r_collar", "spine3", [-0.05, 0.08, 0]),
        spherical("head", "neck", [0, 0.12, 0]),
        spherical("l_shoulder", "l_collar", [0.10, 0, 0]),
        spherical("r_shoulder", "r_collar", [-0.10, 0, 0]),
        spherical("l_elbow", "l_shoulder", [0.26, 0, 0]),
        spherical("r_elbow", "r_shoulder", [-0.26, 0, 0]),
        spherical("l_wrist", "l_elbow", [0.25, 0, 0]),
        spherical("r_wrist", "r_elbow", [-0.25, 0, 0]),
        spherical("l_hand", "l_wrist", [0.08, 0, 0]),
        spherical("r_hand", "r_wrist", [-0.08, 0, 0]),
    ]
    markers = [
        Marker("l_heel", "l_ankle", [0, -0.07, -0.04]),
        Marker("l_toe", "l_foot", [0, 0, 0.06]),
        Marker("r_heel", "r_ankle", [0, -0.07, -0.04]),
        Marker("r_toe", "r_foot", [0, 0, 0.06]),
    ]
    return Skeleton(joints, markers, name="human_24")


def _leg(side, sx, hip_y, thigh, shank):
    return [
        revolute(f"{side}_hip_yaw", "pelvis", [sx * 0.09, hip_y, 0], Y, -0.6, 0.6),
        revolute(f"{side}_hip_roll", f"{side}_hip_yaw", [0, 0, 0], Z, -0.6, 0.6),
        revolute(f"{side}_hip_pitch", f"{side}_hip_roll", [0, 0, 0], X, -1.8, 1.8),
        revolute(f"{side}_knee", f"{side}_hip_pitch", [0, -thigh, 0], X, -0.2, 2.1),
        revolute(f"{side}_ankle", f"{side}_knee", [0, -shank, 0], X, -0.9, 0.6),
    ]


def _arm(side, sx, torso, shoulder_off, upper):
    return [
        revolute(
            f"{side}_shoulder_pitch", torso, [sx * shoulder_off[0], shoulder_off[1], 0], X, -2.9, 2.9
        ),
        revolute(f"{side}_shoulder_roll", f"{side}_shoulder_pitch", [0, 0, 0], Z, -2.0, 2.0),
        revolute(f"{side}_shoulder_yaw", f"{side}_shoulder_roll", [0, 0, 0], Y, -1.6, 1.6),
        # zero pose holds the arm out along +-X, matching the human rest pose
        revolute(f"{side}_elbow", f"{side}_shoulder_yaw", [sx * upper, 0, 0], Y, -2.2, 2.2),
    ]


def h1_like_19():
    joints = [Joint("pelvis", None, [0, 0, 0])]
    joints += _leg("l", 1, -0.09, 0.40, 0.40)
    joints += _leg("r", -1, -0.09, 0.40, 0.40)
    joints.append(revolute("torso_yaw", "pelvis", [0, 0.12, 0], Y, -2.3, 2.3))
    joints += _arm("l", 1, "torso_yaw", (0.20, 0.25), 0.26)
    joints += _arm("r", -1, "torso_yaw", (0.20, 0.25), 0.26)
    markers = [
        Marker("l_wrist", "l_elbow", [0.25, 0, 0]),
        Marker("r_wrist", "r_elbow", [-0.25, 0, 0]),
        Marker("l_foot", "l_ankle", [0, -0.05, 0.10]),
        Marker("r_foot", "r_ankle", [0, -0.05, 0.10]),
    ]
    return Skeleton(joints, markers, name="h1_like_19")


def g1_like_21():
    joints = [Joint("pelvis", None, [0, 0, 0])]
    for side, sx in (("l", 1), ("r", -1)):
        joints += _leg(side, sx, -0.08, 0.30, 0.30)
        joints.append(
            revolute(f"{side}_ankle_roll", f"{side}_ankle", [0, -0.02, 0], Z, -0.3, 0.3)
        )
    joints.append(revolute("waist_yaw", "pelvis", [0, 0.10, 0], Y, -2.6, 2.6))
    joints += _arm("l", 1, "waist_yaw", (0.13, 0.18), 0.20)
    joints += _arm("r", -1, "waist_yaw", (0.13, 0.18), 0.20)
    markers = [
        Marker("l_wrist", "l_elbow", [0.18, 0, 0]),
        Marker("r_wrist", "r_elbow", [-0.18, 0, 0]),
        Marker("l_foot", "l_ankle_roll", [0, -0.04, 0.08]),
        Marker("r_foot", "r_ankle_roll", [0, -0.04, 0.08]),
    ]
    return Skeleton(joints, markers, name="g1_like_21")


def body_map(robot_ankle_suffix=""):
    pairs = [
        {"human": "l_knee", "robot": "l_knee", "position_weight": 1.0},
        {"human": "r_knee", "robot": "r_knee", "position_weight": 1.0},
        {"human": "l_ankle", "robot": "l_ankle" + robot_ankle_suffix, "position_weight": 1.0},
        {"human": "r_ankle", "robot": "r_ankle" + robot_ankle_suffix, "position_weight": 1.0},
        {"human": "l_elbow", "robot": "l_elbow", "position_weight": 1.0},
        {"human": "r_elbow", "robot": "r_elbow", "position_weight": 1.0},
        {
            "human": "l_wrist",
            "robot": "l_wrist",
            "position_weight": 1.0,
            "orientation_weight": 0.5,
        },
        {
            "human": "r_wrist",
            "robot": "r_wrist",
            "position_weight": 1.0,
            "orientation_weight": 0.5,
        },
        {"human": "l_foot", "robot": "l_foot", "position_weight": 0.5},
        {"human": "r_foot", "robot": "r_foot", "position_weight": 0.5},
    ]
    return {
        "scale": None,
        "scale_chains": {
            "human": ["l_hip", "l_knee", "l_ankle"],
            "robot": ["l_hip_yaw", "l_knee", "l_ankle"],
        },
        "pairs": pairs,
    }


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    io.save_skeleton(human_24(), DATA_DIR / "human_24.skel")
    io.save_skeleton(h1_like_19(), DATA_DIR / "h1_like_19.skel")
    io.save_skeleton(g1_like_21(), DATA_DIR / "g1_like_21.skel")
    # save_correspondence writes a number for the scale; these maps keep it null
    # with the chains it is derived from.
    io._save(DATA_DIR / "human_to_h1.map", "correspondence", body_map())
    io._save(DATA_DIR / "human_to_g1.map", "correspondence", body_map())
    print(f"wrote assets to {DATA_DIR}")


if __name__ == "__main__":
    main()
