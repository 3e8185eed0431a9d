"""Batch command-line interface tying the pipeline together.

Subcommands: fk, ik, retarget, metrics (track/gen), quantize assign,
features. Every subcommand reads versioned JSON files, writes its outputs
atomically, and can emit a machine-readable report via --report. Exit
codes: 0 success, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import numpy as np

from . import features as features_mod
from . import io, metrics
from .errors import NumericError, ValidationError, check_number
from .ik import reconstruct_sequence
from .retarget import TERMINATIONS, RetargetOptions, retarget_sequence
from .skeleton import fk
from .vq import assign

def _require_kind(motion, kind, flag):
    if motion.kind != kind:
        raise ValidationError(f"{flag}: expected a {kind} motion, got {motion.kind}")


def _require_skeleton(motion, skel, flag):
    """A motion naming a skeleton must be paired with that skeleton; unnamed ones pass."""
    if motion.skeleton is not None and skel.name is not None and motion.skeleton != skel.name:
        raise ValidationError(
            f"{flag} is a motion of skeleton '{motion.skeleton}', "
            f"but the paired skeleton is '{skel.name}'"
        )


def _finite_rows(compute, what):
    """compute() without float warnings; a non-finite row is a numeric failure."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows = compute()
    bad = np.flatnonzero(~np.isfinite(rows.reshape(len(rows), -1)).all(axis=1))
    if len(bad):
        raise NumericError(f"{what} {bad[0]} is not finite")
    return rows


# --- subcommands -------------------------------------------------------


def cmd_fk(args):
    skel = io.load_skeleton(args.skel)
    motion = io.load_motion(args.motion)
    _require_kind(motion, "trajectory", "--motion")
    _require_skeleton(motion, skel, "--motion")
    frames = _finite_rows(lambda: fk(skel, motion.trajectory).positions, "fk: keypoint frame")
    labels = [j.name for j in skel.joints]
    io.save_motion(
        io.keypoint_motion(frames, labels, motion.fps, skeleton=skel.name), args.out
    )
    if args.report:
        io.save_report({"command": "fk", "frames": len(frames)}, args.report)
    return 0


def cmd_ik(args):
    skel = io.load_skeleton(args.skel)
    motion = io.load_motion(args.motion)
    _require_kind(motion, "keypoints", "--motion")
    _require_skeleton(motion, skel, "--motion")
    traj = reconstruct_sequence(
        skel, motion.keypoints, motion.labels, fps=motion.fps,
        hemisphere_continuity=not args.no_continuity,
    )
    io.save_motion(io.trajectory_motion(traj), args.out)
    if args.report:
        io.save_report({"command": "ik", "frames": len(traj)}, args.report)
    return 0


SOLVER_OPTIONS = (
    "limit_weight", "smoothness_weight", "reference_weight", "max_iterations", "gradient_tol",
)


def cmd_retarget(args):
    human_skel = io.load_skeleton(args.human_skel)
    robot_skel = io.load_skeleton(args.robot_skel)
    motion = io.load_motion(args.human)
    _require_kind(motion, "trajectory", "--human")
    _require_skeleton(motion, human_skel, "--human")
    corr = io.load_correspondence(args.map, human_skel, robot_skel)
    opts = RetargetOptions(
        **{name: getattr(args, name) for name in SOLVER_OPTIONS},
        warm_start=not args.no_warm_start,
    )
    traj, reports = retarget_sequence(
        human_skel, motion.trajectory, robot_skel, corr, opts, fps=motion.fps
    )
    io.save_motion(io.trajectory_motion(traj), args.out)
    if args.report:
        max_pos = max(
            (max(r.position_residuals.values(), default=0.0) for r in reports),
            default=0.0,
        )
        io.save_report(
            {
                "command": "retarget",
                "frames": len(reports),
                "scale": corr.scale,
                "max_position_residual": max_pos,
                "carried_forward": sum(r.carried_forward for r in reports),
                "limit_violations": sum(r.limit_violation_count for r in reports),
                "terminations": {
                    name: sum(r.termination == name for r in reports) for name in TERMINATIONS
                },
                "non_converged": [i for i, r in enumerate(reports) if not r.converged],
                "iterations_histogram": {
                    str(k): n for k, n in sorted(Counter(r.iterations for r in reports).items())
                },
                "per_frame": [
                    {
                        "objective": r.objective,
                        "iterations": r.iterations,
                        "converged": r.converged,
                        "termination": r.termination,
                        "damping": r.damping,
                        "projection_displacement": r.projection_displacement,
                        "residual_evals": r.residual_evals,
                        "jacobian_evals": r.jacobian_evals,
                        "position_residuals": r.position_residuals,
                        "orientation_residuals": r.orientation_residuals,
                    }
                    for r in reports
                ],
            },
            args.report,
        )
    return 0


def cmd_metrics_track(args):
    ref = io.load_motion(args.ref)
    exe = io.load_motion(args.exec)
    _require_kind(ref, "trajectory", "--ref")
    _require_kind(exe, "trajectory", "--exec")
    heights = exe.trajectory.root_positions[:, 1]
    pair = metrics.TrajectoryPair(
        ref.trajectory.values(), exe.trajectory.values(), ref.fps, heights
    )
    n = pair.reference.shape[0]
    rows = [
        ("MPJPE(mrad)", metrics.mpjpe(pair) * 1000.0, n),
        ("VEL(rad/s)", metrics.vel_err(pair), n),
        ("ACCEL(rad/s^2)", metrics.accel_err(pair), n),
    ]
    if args.height_threshold is not None:
        rows.append(
            ("SR", metrics.success_rate([pair], args.height_threshold), 1)
        )
    for name, value, count in rows:
        print(f"{name:16s} {value:.9g} n={count}")
    if args.report:
        io.save_report(
            {"command": "metrics-track", "metrics": {r[0]: r[1] for r in rows}},
            args.report,
        )
    return 0


def cmd_metrics_gen(args):
    seed = check_number("--seed", args.seed, ">= 0")
    a = io.load_feature_matrix(args.reference)
    b = io.load_feature_matrix(args.generated)
    n = b.values.shape[0]
    rows = [("FID", metrics.fid(a, b), n)]
    if args.pairs:
        rows.append(("DIV", metrics.diversity(b, args.pairs, seed=seed), n))
        if b.labels is not None:
            rows.append(
                ("MModality", metrics.multimodality(b, args.pairs, seed=seed), n)
            )
    if args.text:
        if args.pool < 2:
            raise ValidationError(f"--pool needs the match and a distractor, >= 2, got {args.pool}")
        text = io.load_feature_matrix(args.text)
        rows.append(("MM-Dist", metrics.mm_dist(text, b), n))
        ranks = metrics.retrieval_ranks(text, b, pool_size=args.pool, seed=seed)
        top = [k for k in (1, 2, 3) if k < args.pool]
        rows += [(f"R Top-{k}", metrics.top_k_share(ranks, k), n) for k in top]
    for name, value, count in rows:
        print(f"{name:16s} {value:.9g} n={count}")
    if args.report:
        io.save_report(
            {"command": "metrics-gen", "seed": seed, "metrics": {r[0]: r[1] for r in rows}},
            args.report,
        )
    return 0


def cmd_quantize_assign(args):
    codebook = io.load_codebook(args.codebook)
    latents = io.load_feature_matrix(args.latents)
    tokens = assign(codebook, latents.values, downsample_factor=args.downsample)
    io.save_tokens(tokens, args.out)
    if args.report:
        io.save_report(
            {
                "command": "quantize-assign",
                "tokens": len(tokens),
                "distinct_codes": int(len(np.unique(tokens.indices))),
            },
            args.report,
        )
    return 0


def cmd_features(args):
    skel = io.load_skeleton(args.skel)
    motion = io.load_motion(args.motion)
    _require_kind(motion, "trajectory", "--motion")
    _require_skeleton(motion, skel, "--motion")
    values = _finite_rows(
        lambda: features_mod.build_pose_features(
            skel,
            motion.trajectory,
            motion.fps,
            contact_threshold=args.contact_threshold,
        ),
        "features: feature row",
    )
    io.save_feature_matrix(metrics.FeatureMatrix(values), args.out)
    if args.report:
        io.save_report(
            {
                "command": "features",
                "frames": int(values.shape[0]),
                "dimension": int(values.shape[1]),
            },
            args.report,
        )
    return 0


# --- parser ------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="retarget-kit",
        description="Keypoint motion to robot joint trajectories, plus motion metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fk", help="forward kinematics: trajectory -> keypoints")
    p.add_argument("--skel", required=True)
    p.add_argument("--motion", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=cmd_fk)

    p = sub.add_parser("ik", help="reconstruct poses: keypoints -> trajectory")
    p.add_argument("--skel", required=True)
    p.add_argument("--motion", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.add_argument("--no-continuity", action="store_true")
    p.set_defaults(func=cmd_ik)

    p = sub.add_parser("retarget", help="human trajectory -> robot trajectory")
    p.add_argument("--human", required=True)
    p.add_argument("--human-skel", required=True)
    p.add_argument("--robot-skel", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    for name in SOLVER_OPTIONS:  # --limit-weight etc., defaults from RetargetOptions
        default = getattr(RetargetOptions, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p.add_argument("--no-warm-start", action="store_true")
    p.set_defaults(func=cmd_retarget)

    pm = sub.add_parser("metrics", help="tracking and generation metrics")
    msub = pm.add_subparsers(dest="mode", required=True)

    p = msub.add_parser("track", help="MPJPE/VEL/ACCEL between two trajectories")
    p.add_argument("--ref", required=True)
    p.add_argument("--exec", required=True)
    p.add_argument("--height-threshold", type=float, default=None)
    p.add_argument("--report")
    p.set_defaults(func=cmd_metrics_track)

    p = msub.add_parser("gen", help="FID/DIV/MModality/MM-Dist/R Top-k on features")
    p.add_argument("--reference", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--text")
    p.add_argument("--pairs", type=int, default=0)
    p.add_argument("--pool", type=int, default=32)
    p.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    p.add_argument("--report")
    p.set_defaults(func=cmd_metrics_gen)

    pq = sub.add_parser("quantize", help="codebook operations")
    qsub = pq.add_subparsers(dest="mode", required=True)
    p = qsub.add_parser("assign", help="nearest-entry token assignment")
    p.add_argument("--codebook", required=True)
    p.add_argument("--latents", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--downsample", type=int, default=None)
    p.add_argument("--report")
    p.set_defaults(func=cmd_quantize_assign)

    p = sub.add_parser("features", help="pose feature vectors from a trajectory")
    p.add_argument("--skel", required=True)
    p.add_argument("--motion", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--contact-threshold", type=float, default=features_mod.DEFAULT_CONTACT_THRESHOLD
    )
    p.add_argument("--report")
    p.set_defaults(func=cmd_features)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
