"""Workload definitions: seeded input files and the CLI stage chain of each.

A workload fixes its motion clip: which joints move, how far, how fast, in
which phase, and the keypoint sensor noise on top. The seed draws where on
the floor the clip is played and which way it faces, and the matrices the
capture workload quantizes and scores. Different seeds therefore give
different input files of the same difficulty: the chain's work does not
depend on heading or position, so run-to-run spread measures the program
and not the draw of an easier or harder clip.
Inputs are written with the library's own file writers, and the program
then sees nothing but those files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

HUMAN = "human_24"
NOISE_M = 0.005  # keypoint sensor noise, standard deviation in metres
CLIP_SEED = 20260117  # fixes the motion clip; not the workload seed
CODEBOOK_SIZE = 64
GEN_PAIRS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    fps: float
    amplitude: tuple  # per-DoF amplitude range, radians
    frequency: tuple  # per-DoF frequency range, Hz
    yaw_rate: float  # root yaw, radians per second
    robot: str | None  # None: no retarget stage
    correspondence: str | None
    warm_start: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("walk-h1", 30, 30.0, (0.05, 0.3), (0.3, 1.2), 0.0, "h1_like_19", "human_to_h1"),
        # At 5 fps, 1.5-3 Hz joint motion jumps up to 1.2 rad between frames:
        # about 36 iterations a frame, and one frame stops at the iteration cap.
        Workload(
            "leap-g1-cold", 12, 5.0, (0.3, 1.2), (1.5, 3.0), 2.0,
            "g1_like_21", "human_to_g1", warm_start=False,
        ),
        Workload("capture-bulk", 500, 30.0, (0.05, 0.3), (0.3, 1.2), 0.2, None, None),
    )
}


def smoke(workload):
    """A few-frame version of a workload, for the harness self-tests."""
    # metrics gen needs 2 * GEN_PAIRS feature rows for its disjoint pairs
    frames = 2 * GEN_PAIRS + 2 if workload.robot is None else 3
    return Workload(**{**workload.__dict__, "frames": frames})


def truth_values(skeleton, workload):
    """(T, DoF) joint values: sinusoids on every observable spherical joint."""
    clip = np.random.default_rng(CLIP_SEED)
    dof = skeleton.total_dof
    amp = clip.uniform(*workload.amplitude, size=dof)
    freq = clip.uniform(*workload.frequency, size=dof)
    phase = clip.uniform(0.0, 2.0 * np.pi, size=dof)
    # A leaf joint's rotation cannot be recovered from keypoints, so it stays 0.
    for i in range(len(skeleton.joints)):
        if i not in skeleton.parent_index:
            amp[skeleton.dof_slices[i]] = 0.0
    t = np.arange(workload.frames) / workload.fps
    return amp * np.sin(2.0 * np.pi * freq * t[:, None] + phase)


def make_inputs(rk, workload, seed, work_dir):
    """Write the workload's input files into work_dir; return their paths.

    rk is the imported retarget_kit package under test.
    """
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    human = rk.load_example_skeleton(HUMAN)
    values = truth_values(human, workload)
    t = np.arange(workload.frames) / workload.fps
    # The clip is built facing +z from the origin, noise included, and then
    # moved rigidly to the seed's heading and place.
    heading = rk.Rotation.from_axis_angle(np.array([0.0, 1.0, 0.0]), rng.uniform(-np.pi, np.pi))
    offset = np.array([rng.uniform(-5.0, 5.0), 0.0, rng.uniform(-5.0, 5.0)])
    y_axis = np.array([0.0, 1.0, 0.0])
    clip = [
        rk.Pose(
            np.array([0.0, 0.9 + 0.02 * np.sin(2.0 * np.pi * ti), 0.6 * ti]),
            rk.Rotation.from_axis_angle(y_axis, workload.yaw_rate * ti),
            v,
        )
        for ti, v in zip(t, values)
    ]
    keypoints = np.array([rk.fk(human, p).positions for p in clip])
    keypoints += np.random.default_rng(CLIP_SEED).normal(0.0, NOISE_M, size=keypoints.shape)
    keypoints = keypoints @ heading.matrix.T + offset
    poses = [
        rk.Pose(heading.matrix @ p.root_position + offset,
                rk.Rotation(heading.matrix @ p.root_orientation.matrix), p.joint_values)
        for p in clip
    ]
    truth = rk.JointTrajectory(fps=workload.fps, poses=poses, skeleton=human.name)
    labels = [j.name for j in human.joints]

    paths = {
        "human_skel": rk.asset_path(HUMAN),
        "truth": work_dir / "truth.motion",
        "keypoints": work_dir / "keypoints.motion",
    }
    rk.save_motion(rk.trajectory_motion(truth), paths["truth"])
    rk.save_motion(
        rk.keypoint_motion(keypoints, labels, workload.fps, skeleton=human.name),
        paths["keypoints"],
    )
    if workload.robot is not None:
        paths["robot_skel"] = rk.asset_path(workload.robot)
        paths["map"] = rk.asset_path(workload.correspondence)
    else:
        dim = rk.feature_dimension(human)
        rows = workload.frames - 1
        codebook = rk.Codebook.initialize(rng.normal(0.0, 1.0, size=(CODEBOOK_SIZE, dim)))
        paths["codebook"] = work_dir / "codebook.json"
        rk.save_codebook(codebook, paths["codebook"])
        for name in ("reference", "text"):
            paths[name] = work_dir / f"{name}.mat"
            rk.save_feature_matrix(
                rk.FeatureMatrix(rng.normal(0.0, 1.0, size=(rows, dim))), paths[name]
            )
    return paths


def stages(workload, paths, out_dir):
    """The chain as (stage name, argv, frames it handles, outputs)."""
    out_dir = Path(out_dir)
    out = {
        "recon": out_dir / "recon.motion",
        "robot": out_dir / "robot.motion",
        "retarget_report": out_dir / "retarget.report.json",
        "track_report": out_dir / "track.report.json",
        "rendered": out_dir / "rendered.motion",
        "features": out_dir / "features.mat",
        "tokens": out_dir / "tokens.json",
        "assign_report": out_dir / "assign.report.json",
        "gen_report": out_dir / "gen.report.json",
    }
    p = {k: str(v) for k, v in paths.items()}
    o = {k: str(v) for k, v in out.items()}
    n = workload.frames
    chain = [
        ("ik", ["ik", "--skel", p["human_skel"], "--motion", p["keypoints"], "--out", o["recon"]],
         n, ["recon"]),
    ]
    if workload.robot is not None:
        argv = [
            "retarget", "--human", o["recon"], "--human-skel", p["human_skel"],
            "--robot-skel", p["robot_skel"], "--map", p["map"],
            "--out", o["robot"], "--report", o["retarget_report"],
        ]
        if not workload.warm_start:
            argv.append("--no-warm-start")
        chain.append(("retarget", argv, n, ["robot", "retarget_report"]))
    else:
        chain += [
            ("fk", ["fk", "--skel", p["human_skel"], "--motion", o["recon"], "--out", o["rendered"]],
             n, ["rendered"]),
            ("features", ["features", "--skel", p["human_skel"], "--motion", o["recon"],
                          "--out", o["features"]], n, ["features"]),
            ("quantize-assign", ["quantize", "assign", "--codebook", p["codebook"],
                                 "--latents", o["features"], "--out", o["tokens"],
                                 "--report", o["assign_report"]], n - 1, ["tokens", "assign_report"]),
            ("metrics-gen", ["metrics", "gen", "--reference", p["reference"],
                             "--generated", o["features"], "--text", p["text"],
                             "--pairs", str(GEN_PAIRS), "--report", o["gen_report"]],
             n - 1, ["gen_report"]),
        ]
    chain.append(
        ("metrics-track", ["metrics", "track", "--ref", p["truth"], "--exec", o["recon"],
                           "--report", o["track_report"]], n, ["track_report"])
    )
    return chain, out
