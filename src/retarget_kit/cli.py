"""Batch command-line interface tying the pipeline together.

Subcommands: fk, ik, retarget, metrics (track/gen), quantize assign,
features. Every subcommand reads versioned JSON files, each motion through
`_motion`, which checks its kind and skeleton. It writes its outputs
atomically and returns its report tree; `main` writes that tree to
--report, which every subcommand takes, after the outputs. Exit codes: 0
success, 2 validation error (a report or standard output that cannot be
written included), 3 numeric failure. A run builds only its own subcommand's
parser from COMMANDS; help and errors read as with the whole tree.
"""

from __future__ import annotations

import argparse
import contextlib
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


@contextlib.contextmanager
def standard_output():
    """Run the block, then flush standard output, also when the block exits, as
    argparse's --help does. A failed write or flush, a full disk or a closed pipe,
    is a validation error."""
    try:
        try:
            yield
        finally:
            sys.stdout.flush()
    except OSError as e:
        # the text it still holds would fail again at interpreter exit, as a second error
        sys.stdout = None
        raise ValidationError(f"cannot write standard output: {e.strerror or e}") from None


class Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help text, failing to write, raises: argparse's own
    drops the error, and with unbuffered output no flush is left to see it."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def _same_skeleton(flag, name, other, other_name):
    """Refuse `flag`'s motion of skeleton `name` when `other_name` is named too and
    differs; `other` says whose name that is. Unnamed ones pass."""
    if None not in (name, other_name) and name != other_name:
        raise ValidationError(
            f"{flag} is a motion of skeleton '{name}', but {other} '{other_name}'"
        )


def _motion(path, kind, flag, skel=None):
    """The motion at `path`, checked to be of `kind` and, when it and `skel` both
    name a skeleton, to be a motion of `skel`."""
    motion = io.load_motion(path)
    if motion.kind != kind:
        raise ValidationError(f"{flag}: expected a {kind} motion, got {motion.kind}")
    if skel is not None:
        _same_skeleton(flag, motion.skeleton, "the paired skeleton is", skel.name)
    return motion


def _finite_rows(compute, what):
    """compute() without float warnings; a non-finite row is a numeric failure."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows = compute()
    bad = np.flatnonzero(~np.isfinite(rows.reshape(len(rows), -1)).all(axis=1))
    if len(bad):
        raise NumericError(f"{what} {bad[0]} is not finite")
    return rows


# --- subcommands: each writes its outputs and returns its report ---------


def cmd_fk(args):
    skel = io.load_skeleton(args.skel)
    motion = _motion(args.motion, "trajectory", "--motion", skel)
    frames = _finite_rows(lambda: fk(skel, motion.trajectory).positions, "fk: keypoint frame")
    labels = [j.name for j in skel.joints]
    io.save_motion(
        io.keypoint_motion(frames, labels, motion.fps, skeleton=skel.name), args.out
    )
    return {"command": "fk", "frames": len(frames)}


def cmd_ik(args):
    skel = io.load_skeleton(args.skel)
    motion = _motion(args.motion, "keypoints", "--motion", skel)
    traj = reconstruct_sequence(
        skel, motion.keypoints, motion.labels, fps=motion.fps,
        hemisphere_continuity=not args.no_continuity,
    )
    io.save_motion(io.trajectory_motion(traj), args.out)
    return {"command": "ik", "frames": len(traj)}


SOLVER_OPTIONS = (
    "limit_weight", "smoothness_weight", "reference_weight", "max_iterations", "gradient_tol",
)
PER_FRAME_FIELDS = (  # the RetargetReport fields of each `per_frame` entry, in key order
    "objective", "iterations", "converged", "termination", "damping", "projection_displacement",
    "residual_evals", "jacobian_evals", "position_residuals", "orientation_residuals",
)


def cmd_retarget(args):
    human_skel = io.load_skeleton(args.human_skel)
    robot_skel = io.load_skeleton(args.robot_skel)
    motion = _motion(args.human, "trajectory", "--human", human_skel)
    corr = io.load_correspondence(args.map, human_skel, robot_skel)
    opts = RetargetOptions(
        **{name: getattr(args, name) for name in SOLVER_OPTIONS},
        warm_start=not args.no_warm_start,
    )
    traj, reports = retarget_sequence(human_skel, motion.trajectory, robot_skel, corr, opts)
    io.save_motion(io.trajectory_motion(traj), args.out)
    return {
        "command": "retarget",
        "frames": len(reports),
        "scale": corr.scale,
        "max_position_residual": max(
            (max(r.position_residuals.values(), default=0.0) for r in reports), default=0.0
        ),
        "limit_violations": sum(r.limit_violation_count for r in reports),
        "terminations": {
            name: sum(r.termination == name for r in reports) for name in TERMINATIONS
        },
        "non_converged": [i for i, r in enumerate(reports) if not r.converged],
        "iterations_histogram": {
            str(k): n for k, n in sorted(Counter(r.iterations for r in reports).items())
        },
        "per_frame": [{name: getattr(r, name) for name in PER_FRAME_FIELDS} for r in reports],
    }


def _metric_rows(command, rows, **fields):
    """Print each (name, value, count) row; the report of `command` holding them."""
    with standard_output():
        for name, value, count in rows:
            print(f"{name:16s} {value:.9g} n={count}")
    return {"command": command, **fields, "metrics": {name: value for name, value, _ in rows}}


def cmd_metrics_track(args):
    ref = _motion(args.ref, "trajectory", "--ref")
    exe = _motion(args.exec, "trajectory", "--exec")
    # VEL and ACCEL difference both motions at --ref's rate, so they must share it
    if exe.fps != ref.fps:
        raise ValidationError(f"--exec is at {exe.fps} fps, but --ref is at {ref.fps} fps")
    _same_skeleton("--exec", exe.skeleton, "--ref is a motion of skeleton", ref.skeleton)
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
        rows.append(("SR", metrics.success_rate([pair], args.height_threshold), 1))
    return _metric_rows("metrics-track", rows)


def cmd_metrics_gen(args):
    seed = check_number("--seed", args.seed, ">= 0")
    a = io.load_feature_matrix(args.reference)
    b = io.load_feature_matrix(args.generated)
    n = b.values.shape[0]
    rows = [("FID", metrics.fid(a, b), n)]
    if args.pairs:
        rows.append(("DIV", metrics.diversity(b, args.pairs, seed=seed), n))
        if b.labels is not None:
            rows.append(("MModality", metrics.multimodality(b, args.pairs, seed=seed), n))
    if args.text:
        if args.pool < 2:
            raise ValidationError(f"--pool needs the match and a distractor, >= 2, got {args.pool}")
        text = io.load_feature_matrix(args.text)
        rows.append(("MM-Dist", metrics.mm_dist(text, b), n))
        ranks = metrics.retrieval_ranks(text, b, pool_size=args.pool, seed=seed)
        top = [k for k in (1, 2, 3) if k < args.pool]
        rows += [(f"R Top-{k}", metrics.top_k_share(ranks, k), n) for k in top]
    return _metric_rows("metrics-gen", rows, seed=seed)


def cmd_quantize_assign(args):
    codebook = io.load_codebook(args.codebook)
    latents = io.load_feature_matrix(args.latents)
    tokens = assign(codebook, latents.values, downsample_factor=args.downsample)
    io.save_tokens(tokens, args.out)
    return {
        "command": "quantize-assign",
        "tokens": len(tokens),
        "distinct_codes": int(len(np.unique(tokens.indices))),
    }


def cmd_features(args):
    skel = io.load_skeleton(args.skel)
    motion = _motion(args.motion, "trajectory", "--motion", skel)
    values = _finite_rows(
        lambda: features_mod.build_pose_features(
            skel, motion.trajectory, motion.fps, contact_threshold=args.contact_threshold
        ),
        "features: feature row",
    )
    io.save_feature_matrix(metrics.FeatureMatrix(values), args.out)
    return {
        "command": "features", "frames": int(values.shape[0]), "dimension": int(values.shape[1])
    }


# --- parser ------------------------------------------------------------


def _typed(default):
    return {"type": type(default), "default": default}


_MOTION_IO = ("--skel", "--motion", "--out")
_FLAG = {"action": "store_true"}
GROUPS = {"metrics": "tracking and generation metrics", "quantize": "codebook operations"}
# Every subcommand, in help order: its words, function, help, required flags and other
# arguments, {flag: add_argument keywords}. Each takes --report as well.
COMMANDS = (
    (("fk",), cmd_fk, "forward kinematics: trajectory -> keypoints", _MOTION_IO, {}),
    (("ik",), cmd_ik, "reconstruct poses: keypoints -> trajectory", _MOTION_IO,
     {"--no-continuity": _FLAG}),
    (("retarget",), cmd_retarget, "human trajectory -> robot trajectory",
     ("--human", "--human-skel", "--robot-skel", "--map", "--out"),
     {**{"--" + name.replace("_", "-"): _typed(getattr(RetargetOptions, name))
         for name in SOLVER_OPTIONS}, "--no-warm-start": _FLAG}),
    (("metrics", "track"), cmd_metrics_track, "MPJPE/VEL/ACCEL between two trajectories",
     ("--ref", "--exec"), {"--height-threshold": {"type": float}}),
    (("metrics", "gen"), cmd_metrics_gen, "FID/DIV/MModality/MM-Dist/R Top-k on features",
     ("--reference", "--generated"),
     {"--text": {}, "--pairs": _typed(0), "--pool": _typed(32),
      "--seed": _typed(metrics.DEFAULT_SEED)}),
    (("quantize", "assign"), cmd_quantize_assign, "nearest-entry token assignment",
     ("--codebook", "--latents", "--out"), {"--downsample": {"type": int}}),
    (("features",), cmd_features, "pose feature vectors from a trajectory", _MOTION_IO,
     {"--contact-threshold": _typed(features_mod.DEFAULT_CONTACT_THRESHOLD)}),
)


def build_parser(argv=()):
    """The parser of `argv`: the root, the subcommand argv starts with and its group;
    every subcommand when argv names none."""
    chosen = [c for c in COMMANDS if tuple(argv[:len(c[0])]) == c[0]]
    parser = Parser(  # its subparsers are Parsers too, through add_subparsers' parser_class
        prog="retarget-kit",
        description="Keypoint motion to robot joint trajectories, plus motion metrics.",
    )
    actions = {}  # words of a parser -> its subparsers action, made on first use

    def subparsers(words):
        if words not in actions:
            p = parser
            if words:
                p = subparsers(words[:-1]).add_parser(words[-1], help=GROUPS[words[-1]])
            names = dict.fromkeys(w[len(words)] for w, *_ in COMMANDS if w[:len(words)] == words)
            # A partial tree names every choice in its usage lines. The whole tree leaves
            # that to argparse, whose errors would name the action by a metavar, not dest.
            actions[words] = p.add_subparsers(
                dest=("command", "mode")[len(words)], required=True,
                metavar="{%s}" % ",".join(names) if chosen else None,
            )
        return actions[words]

    for words, func, help, required, extra in chosen or COMMANDS:
        p = subparsers(words[:-1]).add_parser(words[-1], help=help)
        p.add_argument("--report", help="write a JSON report here, after the outputs")
        for flag in required:
            p.add_argument(flag, required=True)
        for flag, keywords in extra.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        with standard_output():
            args = build_parser(argv).parse_args(argv)
        report = args.func(args)
        if args.report:
            io.save_report(report, args.report)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
