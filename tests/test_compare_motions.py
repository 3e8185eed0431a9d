"""scripts/compare_motions.py on identical, perturbed and mismatched motion files."""

import importlib.util
import json
from pathlib import Path

import pytest

from retarget_kit import (
    CorrespondencePair,
    CorrespondenceSet,
    JointTrajectory,
    Pose,
    load_motion,
    save_correspondence,
    save_motion,
    save_skeleton,
    trajectory_motion,
)
from retarget_kit.cli import main as cli_main

from conftest import make_humanlike, twist_free_pose

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_motions.py"
spec = importlib.util.spec_from_file_location("compare_motions", SCRIPT)
compare_motions = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_motions)


@pytest.fixture
def solved(tmp_path, rng):
    """A retargeted motion and its report, from the CLI."""
    skel = make_humanlike(n_chains=2, chain_len=3)
    poses = [twist_free_pose(skel, rng, max_angle=0.4) for _ in range(3)]
    save_skeleton(skel, tmp_path / "skel.skel")
    save_motion(
        trajectory_motion(JointTrajectory(30.0, poses, skel.name)), tmp_path / "human.motion"
    )
    corr = CorrespondenceSet(
        tuple(CorrespondencePair(j.name, j.name, 1.0, 0.0) for j in skel.joints[1:])
    )
    save_correspondence(corr, tmp_path / "self.map")
    assert cli_main(
        [str(a) for a in (
            "retarget", "--human", tmp_path / "human.motion", "--human-skel",
            tmp_path / "skel.skel", "--robot-skel", tmp_path / "skel.skel",
            "--map", tmp_path / "self.map", "--out", tmp_path / "robot.motion",
            "--report", tmp_path / "robot.json",
        )]
    ) == 0
    return tmp_path / "robot.motion", tmp_path / "robot.json"


def perturbed(path, out, frame, joint=None, root=None):
    """A copy of a trajectory motion with one joint value or root coordinate moved."""
    traj = load_motion(path).trajectory
    poses = list(traj.poses)
    p = poses[frame]
    values, position = p.joint_values.copy(), p.root_position.copy()
    if joint is not None:
        values[joint[0]] += joint[1]
    if root is not None:
        position[root[0]] += root[1]
    poses[frame] = Pose(position, p.root_orientation, values)
    save_motion(trajectory_motion(JointTrajectory(traj.fps, poses, traj.skeleton)), out)
    return out


def run(capsys, *argv):
    code = compare_motions.main([str(a) for a in argv])
    return code, capsys.readouterr()


def test_identical(solved, capsys):
    motion, report = solved
    code, out = run(capsys, motion, motion, "--reports", report, report)
    assert code == 0
    assert "max joint-value change: 0 rad" in out.out
    assert "max root-position change: 0 " in out.out
    assert "frames with other iterations or termination: none" in out.out
    assert "(change 0)" in out.out
    assert "within tolerance 1e-09: yes" in out.out


@pytest.mark.parametrize("delta, code", [(1e-12, 0), (1e-6, 1)])
def test_perturbed_joint_value(solved, tmp_path, capsys, delta, code):
    motion, _ = solved
    moved = perturbed(motion, tmp_path / "moved.motion", frame=2, joint=(4, delta))
    got, out = run(capsys, motion, moved)
    assert got == code
    assert "(frame 2, DoF 4)" in out.out
    assert f"max joint-value change: {abs(delta):.3g} rad" in out.out
    assert run(capsys, motion, moved, "--tol", 2 * delta)[0] == 0


def test_perturbed_root(solved, tmp_path, capsys):
    motion, _ = solved
    moved = perturbed(motion, tmp_path / "moved.motion", frame=1, root=(1, 1e-3))
    code, out = run(capsys, motion, moved)
    assert code == 1
    assert "max root-position change: 0.001 (frame 1)" in out.out


def test_different_iterations(solved, tmp_path, capsys):
    motion, report = solved
    edited = json.loads(report.read_text())
    edited["per_frame"][1]["iterations"] += 1
    edited["per_frame"][1]["position_residuals"] = {
        k: v + 0.5 for k, v in edited["per_frame"][1]["position_residuals"].items()
    }
    (tmp_path / "edited.json").write_text(json.dumps(edited))
    code, out = run(capsys, motion, motion, "--reports", report, tmp_path / "edited.json")
    assert code == 1
    assert "frames with other iterations or termination: [1]" in out.out
    lines = [line for line in out.out.splitlines() if "marker residual" in line]
    change = [float(line.rsplit("change ", 1)[1][:-1]) for line in lines]
    assert change[0] == pytest.approx(0.5, rel=1e-6) and change[1] > 0


def test_mismatched_inputs(solved, tmp_path, capsys):
    motion, report = solved
    traj = load_motion(motion).trajectory
    short = tmp_path / "short.motion"
    save_motion(trajectory_motion(JointTrajectory(traj.fps, traj.poses[:2], traj.skeleton)), short)
    code, out = run(capsys, motion, short)
    assert code == 2 and "cannot be compared" in out.err
    code, out = run(capsys, motion, motion, "--reports", report, tmp_path / "missing.json")
    assert code == 2 and "not a retarget report" in out.err
    assert run(capsys, motion, motion, "--tol", "nan")[0] == 2
