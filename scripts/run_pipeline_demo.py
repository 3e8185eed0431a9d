#!/usr/bin/env python3
"""End-to-end demo on synthetic motion: keypoints -> pose -> robot -> metrics.

Builds a short synthetic human motion on the bundled 24-joint skeleton,
projects it to keypoints, reconstructs joint angles, retargets onto both
bundled robots, and prints tracking metrics plus feature/codebook stats.
Writes one file of every artifact layout to --out-dir: keypoint and
trajectory motions, a pose-feature matrix, codebooks inline and with
binary sidecars, token sequences and a report. One more motion comes from a
cold-started retarget onto g1_like_21, every frame solved from the zero
posture, so the solver's longest path is written out too.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from retarget_kit import (
    Codebook,
    FeatureMatrix,
    JointTrajectory,
    Pose,
    RetargetOptions,
    Rotation,
    TrajectoryPair,
    accel_err,
    assign,
    build_pose_features,
    ema_update,
    fk,
    keypoint_motion,
    load_example_correspondence,
    load_example_skeleton,
    mpjpe,
    reconstruct_sequence,
    retarget_sequence,
    save_codebook,
    save_feature_matrix,
    save_motion,
    save_report,
    save_tokens,
    trajectory_motion,
    vel_err,
)


def synthetic_human_motion(skeleton, frames, fps, rng):
    """Small sinusoidal joint motion plus a slow forward walk of the root."""
    t = np.arange(frames) / fps
    amp = rng.uniform(0.05, 0.3, size=skeleton.total_dof)
    freq = rng.uniform(0.3, 1.2, size=skeleton.total_dof)
    phase = rng.uniform(0, 2 * np.pi, size=skeleton.total_dof)
    values = amp * np.sin(2 * np.pi * freq * t[:, None] + phase)
    poses = [
        Pose(np.array([0.0, 0.9, 0.6 * ti]), Rotation.identity(), v)
        for ti, v in zip(t, values)
    ]
    return JointTrajectory(fps=fps, poses=poses, skeleton=skeleton.name)


CODEBOOK_SIZE = 8  # codebook entries, each initialized from a distinct robot frame


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=30)
    parser.add_argument("--fps", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.frames < CODEBOOK_SIZE:
        parser.error(f"--frames must be at least {CODEBOOK_SIZE}, one frame per codebook entry")

    rng = np.random.default_rng(args.seed)
    out_dir = args.out_dir or Path(tempfile.mkdtemp(prefix="retarget_demo_"))
    out_dir.mkdir(parents=True, exist_ok=True)

    human = load_example_skeleton("human_24")
    truth = synthetic_human_motion(human, args.frames, args.fps, rng)
    print(f"synthetic motion: {args.frames} frames on {human.name}")

    # project to keypoints, then reconstruct joint angles from them
    labels = tuple(j.name for j in human.joints)
    keypoints = fk(human, truth).positions
    save_motion(
        keypoint_motion(keypoints, labels, args.fps, skeleton=human.name),
        out_dir / "keypoints.motion",
    )
    recon = reconstruct_sequence(human, keypoints, labels, fps=args.fps)
    pair = TrajectoryPair(truth.values(), recon.values(), args.fps)
    print(
        f"keypoint reconstruction: MPJPE {mpjpe(pair) * 1000:.3f} mrad, "
        f"VEL {vel_err(pair):.4f} rad/s, ACCEL {accel_err(pair):.3f} rad/s^2"
    )
    save_motion(trajectory_motion(recon), out_dir / "reconstructed.motion")
    features = build_pose_features(human, recon, args.fps)
    save_feature_matrix(FeatureMatrix(features), out_dir / "features.mat")
    summary = {"frames": args.frames, "feature_dimension": features.shape[1], "robots": {}}

    for robot_name, map_name in (
        ("h1_like_19", "human_to_h1"),
        ("g1_like_21", "human_to_g1"),
    ):
        robot = load_example_skeleton(robot_name)
        corr = load_example_correspondence(map_name, human, robot)
        traj, reports = retarget_sequence(human, recon, robot, corr)
        max_pos = max(max(r.position_residuals.values()) for r in reports)
        print(
            f"retarget -> {robot_name}: scale {corr.scale:.3f}, "
            f"max marker residual {max_pos * 100:.2f} cm, "
            f"limit violations {sum(r.limit_violation_count for r in reports)}"
        )
        save_motion(trajectory_motion(traj), out_dir / f"{robot_name}.motion")

        # quantize the robot joint-value rows against a small codebook
        values = traj.values()
        cb = Codebook.initialize(values[rng.choice(len(values), CODEBOOK_SIZE, replace=False)])
        tokens = assign(cb, values)
        cb = ema_update(cb, values, tokens)
        used = len(np.unique(tokens.indices))
        print(f"  quantized {len(tokens)} frames into {used}/{CODEBOOK_SIZE} codebook entries")
        save_tokens(tokens, out_dir / f"{robot_name}.tokens.json")
        save_codebook(cb, out_dir / f"{robot_name}.codebook.json")
        save_codebook(cb, out_dir / f"{robot_name}.sidecar.codebook.json", binary_sidecar=True)
        summary["robots"][robot_name] = {
            "scale": corr.scale,
            "max_position_residual": max_pos,
            "objectives": [r.objective for r in reports],
            "codes_used": used,
        }

    robot = load_example_skeleton("g1_like_21")
    corr = load_example_correspondence("human_to_g1", human, robot)
    traj, reports = retarget_sequence(human, recon, robot, corr, RetargetOptions(warm_start=False))
    print(
        f"cold-started retarget -> {robot.name}: "
        f"{sum(r.iterations for r in reports) / len(reports):.1f} iterations a frame, "
        f"{sum(r.converged for r in reports)}/{len(reports)} converged"
    )
    save_motion(trajectory_motion(traj), out_dir / f"{robot.name}.cold.motion")
    summary["cold_start"] = {
        "robot": robot.name,
        "objectives": [r.objective for r in reports],
        "terminations": [r.termination for r in reports],
    }

    save_report(summary, out_dir / "demo.report.json")
    print(f"outputs written to {out_dir}")


if __name__ == "__main__":
    main()
