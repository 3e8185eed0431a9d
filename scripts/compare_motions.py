#!/usr/bin/env python3
"""Compare two robot trajectory motions, and optionally their retarget reports.

    python scripts/compare_motions.py before.motion after.motion \
        [--reports before.report.json after.report.json] [--tol 1e-9]

Prints the largest joint-value change (radians) and the largest
root-position change over all frames. With the two `retarget --report`
files it also prints the frames whose solver iterations or termination
differ, and the change in the max and mean marker residual (the max and
the mean of every frame's position residuals).

Exit codes: 0 when the joint values and root positions agree within --tol
and no frame's iterations or termination differ; 1 when they do not; 2 when
the inputs cannot be read or compared, or standard output cannot be written.
"""

import argparse
import json
import sys

import numpy as np

from retarget_kit import load_motion
from retarget_kit.cli import Parser, standard_output
from retarget_kit.errors import ValidationError


def trajectory_arrays(path):
    """(T, DoF) joint values and (T, 3) root positions of a trajectory motion."""
    motion = load_motion(path)
    if motion.kind != "trajectory":
        raise ValidationError(f"{path}: expected a trajectory motion, got {motion.kind}")
    return motion.trajectory.joint_values, motion.trajectory.root_positions


def report_frames(path, frames):
    """Per-frame (iterations, termination, position residuals) of a retarget report."""
    try:
        with open(path, encoding="utf-8") as f:
            per_frame = json.load(f)["per_frame"]
        out = [
            (int(r["iterations"]), str(r["termination"]),
             [float(v) for v in r["position_residuals"].values()])
            for r in per_frame
        ]
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        raise ValidationError(f"{path}: not a retarget report: {e}") from None
    if len(out) != frames:
        raise ValidationError(f"{path}: {len(out)} report frames for {frames} motion frames")
    return out


def largest_change(a, b):
    """(largest absolute difference, (frame, column) where it is) of two equal-shape arrays."""
    if a.size == 0:
        return 0.0, (0, 0)
    diff = np.abs(a - b)
    at = np.unravel_index(np.argmax(diff), diff.shape)
    return float(diff[at]), tuple(int(i) for i in at)


def residual_summary(frames):
    residuals = [v for _, _, values in frames for v in values]
    if not residuals:
        return float("nan"), float("nan")
    return max(residuals), float(np.mean(residuals))


def compare(args):
    values_a, root_a = trajectory_arrays(args.before)
    values_b, root_b = trajectory_arrays(args.after)
    if values_a.shape != values_b.shape:
        raise ValidationError(
            f"joint values of shape {values_a.shape} and {values_b.shape} cannot be compared"
        )
    joint, (joint_frame, dof) = largest_change(values_a, values_b)
    root, (root_frame, _) = largest_change(root_a, root_b)
    print(f"frames: {len(values_a)}")
    print(f"max joint-value change: {joint:.3g} rad (frame {joint_frame}, DoF {dof})")
    print(f"max root-position change: {root:.3g} (frame {root_frame})")
    within = joint <= args.tol and root <= args.tol
    if args.reports:
        before = report_frames(args.reports[0], len(values_a))
        after = report_frames(args.reports[1], len(values_b))
        differ = [
            i for i, (a, b) in enumerate(zip(before, after)) if a[:2] != b[:2]
        ]
        print(f"frames with other iterations or termination: {differ or 'none'}")
        for i in differ:
            print(f"  frame {i}: {before[i][0]} {before[i][1]} -> {after[i][0]} {after[i][1]}")
        for name, a, b in zip(("max", "mean"), residual_summary(before), residual_summary(after)):
            print(f"{name} marker residual: {a:.9g} -> {b:.9g} (change {b - a:.3g})")
        within = within and not differ
    print(f"within tolerance {args.tol:g}: {'yes' if within else 'no'}")
    return 0 if within else 1


def main(argv=None):
    parser = Parser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--reports", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--tol", type=float, default=1e-9, help="radians (default 1e-9)")
    try:
        with standard_output():
            args = parser.parse_args(argv)
            if not (np.isfinite(args.tol) and args.tol >= 0):
                raise ValidationError(f"--tol must be a finite number >= 0, got {args.tol}")
            return compare(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
