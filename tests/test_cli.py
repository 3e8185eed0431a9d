import argparse
import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from retarget_kit import (
    Codebook,
    CorrespondencePair,
    CorrespondenceSet,
    FeatureMatrix,
    JointTrajectory,
    Pose,
    Rotation,
    asset_path,
    load_example_correspondence,
    load_example_skeleton,
    save_codebook,
    save_correspondence,
    save_feature_matrix,
    save_motion,
    save_skeleton,
    trajectory_motion,
)
from retarget_kit.cli import COMMANDS, Parser, build_parser, main
from retarget_kit.retarget import TERMINATIONS, RetargetOptions
from retarget_kit.skeleton import Joint, Marker, Skeleton

from conftest import make_humanlike, twist_free_pose

COMPARE_MOTIONS = str(Path(__file__).resolve().parents[1] / "scripts" / "compare_motions.py")


@pytest.fixture
def workdir(tmp_path, rng):
    """Skeleton file plus a short trajectory for it."""
    skel = make_humanlike(n_chains=3, chain_len=3)
    poses = [twist_free_pose(skel, rng, max_angle=0.4) for _ in range(4)]
    traj = JointTrajectory(fps=30.0, poses=poses, skeleton=skel.name)
    save_skeleton(skel, tmp_path / "skel.skel")
    save_motion(trajectory_motion(traj), tmp_path / "traj.motion")
    corr = CorrespondenceSet(
        tuple(CorrespondencePair(j.name, j.name, 1.0, 1.0) for j in skel.joints[1:]),
        scale=1.0,
    )
    save_correspondence(corr, tmp_path / "self.map")
    return tmp_path


def run(argv):
    return main([str(a) for a in argv])


class TestFkIk:
    def test_fk_then_ik_round_trip(self, workdir):
        assert run(
            ["fk", "--skel", workdir / "skel.skel", "--motion", workdir / "traj.motion",
             "--out", workdir / "kp.motion"]
        ) == 0
        assert run(
            ["ik", "--skel", workdir / "skel.skel", "--motion", workdir / "kp.motion",
             "--out", workdir / "rec.motion", "--report", workdir / "ik.json",
             "--no-continuity"]
        ) == 0
        orig = json.loads((workdir / "traj.motion").read_text())
        rec = json.loads((workdir / "rec.motion").read_text())
        for a, b in zip(orig["frames"], rec["frames"]):
            assert np.allclose(a["joint_values"], b["joint_values"], atol=1e-6)
        assert json.loads((workdir / "ik.json").read_text())["frames"] == 4

    def test_fk_rejects_keypoints_input(self, workdir, capsys):
        run(["fk", "--skel", workdir / "skel.skel", "--motion", workdir / "traj.motion",
             "--out", workdir / "kp.motion"])
        code = run(
            ["fk", "--skel", workdir / "skel.skel", "--motion", workdir / "kp.motion",
             "--out", workdir / "x.motion"]
        )
        assert code == 2
        assert "expected a trajectory" in capsys.readouterr().err

    def test_missing_file_is_validation_error(self, workdir):
        assert run(
            ["fk", "--skel", workdir / "nope.skel", "--motion", workdir / "traj.motion",
             "--out", workdir / "x.motion"]
        ) == 2


class TestRetarget:
    def test_self_retarget(self, workdir):
        code = run(
            ["retarget", "--human", workdir / "traj.motion",
             "--human-skel", workdir / "skel.skel", "--robot-skel", workdir / "skel.skel",
             "--map", workdir / "self.map", "--out", workdir / "robot.motion",
             "--report", workdir / "rt.json",
             "--smoothness-weight", 0, "--reference-weight", 0]
        )
        assert code == 0
        report = json.loads((workdir / "rt.json").read_text())
        assert report["frames"] == 4
        assert report["max_position_residual"] < 1e-6
        assert report["limit_violations"] == 0
        for frame in report["per_frame"]:
            assert frame["termination"] in TERMINATIONS
            assert frame["jacobian_evals"] == frame["iterations"]
            assert frame["residual_evals"] > frame["iterations"]
            assert 0 < frame["damping"] < np.inf

    @pytest.mark.parametrize("warm_start", [[], ["--no-warm-start"]])
    def test_non_finite_frame_exits_3(self, tmp_path, rng, capsys, warm_start):
        # Frame 2 once repeated frame 1's pose and root, and the run exited 0.
        human = load_example_skeleton("human_24")
        values = np.array([twist_free_pose(human, rng, 0.4).joint_values for _ in range(4)])
        values[2, 3] = 1e200  # a non-finite objective at the start of frame 2
        rotations = np.repeat(np.eye(3)[None], 4, axis=0)
        traj = JointTrajectory.from_arrays(30.0, np.zeros((4, 3)), rotations, values, "human_24")
        save_motion(trajectory_motion(traj), tmp_path / "human.motion")
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = run(
                ["retarget", "--human", tmp_path / "human.motion",
                 "--human-skel", asset_path("human_24"), "--robot-skel", asset_path("h1_like_19"),
                 "--map", asset_path("human_to_h1"), "--out", tmp_path / "robot.motion",
                 "--report", tmp_path / "rt.json", *warm_start]
            )
        assert code == 3
        assert capsys.readouterr().err.endswith(
            "numeric failure: frame 2: objective at start point is nan\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["human.motion"]

    @pytest.mark.parametrize("max_iterations", [1, 100])
    def test_report_summary(self, workdir, max_iterations):
        assert run(
            ["retarget", "--human", workdir / "traj.motion",
             "--human-skel", workdir / "skel.skel", "--robot-skel", workdir / "skel.skel",
             "--map", workdir / "self.map", "--out", workdir / "robot.motion",
             "--report", workdir / "rt.json", "--max-iterations", max_iterations]
        ) == 0
        report = json.loads((workdir / "rt.json").read_text())
        frames = report["per_frame"]
        assert list(report["terminations"]) == list(TERMINATIONS)
        assert report["terminations"] == {
            name: sum(f["termination"] == name for f in frames) for name in TERMINATIONS
        }
        assert report["non_converged"] == [i for i, f in enumerate(frames) if not f["converged"]]
        if max_iterations == 1:
            assert report["non_converged"] == [0, 1, 2, 3]
        else:
            assert report["non_converged"] == []

    def test_report_projection_and_histogram(self, workdir):
        argv = ["retarget", "--human", workdir / "traj.motion",
                "--human-skel", workdir / "skel.skel", "--robot-skel", workdir / "skel.skel",
                "--map", workdir / "self.map", "--out", workdir / "robot.motion",
                "--report", workdir / "rt.json"]
        assert run(argv) == 0
        text = (workdir / "rt.json").read_text()
        report = json.loads(text)
        frames = report["per_frame"]
        assert all(f["projection_displacement"] >= 0.0 for f in frames)
        assert all(list(f) == [
            "objective", "iterations", "converged", "termination", "damping",
            "projection_displacement", "residual_evals", "jacobian_evals",
            "position_residuals", "orientation_residuals",
        ] for f in frames)
        iterations = sorted(f["iterations"] for f in frames)
        histogram = report["iterations_histogram"]
        assert [int(k) for k in histogram] == sorted(set(iterations))
        assert histogram == {str(k): iterations.count(k) for k in sorted(set(iterations))}
        assert run(argv) == 0
        assert (workdir / "rt.json").read_text() == text

    def test_report_leaves_motion_unchanged(self, workdir):
        def argv(name, *extra):
            return ["retarget", "--human", workdir / "traj.motion",
                    "--human-skel", workdir / "skel.skel", "--robot-skel", workdir / "skel.skel",
                    "--map", workdir / "self.map", "--out", workdir / f"{name}.motion",
                    "--no-warm-start", *extra]

        assert run(argv("plain")) == 0
        assert run(argv("reported", "--report", workdir / "reported.json")) == 0
        plain = (workdir / "plain.motion").read_bytes()
        assert plain == (workdir / "reported.motion").read_bytes()

    @pytest.mark.parametrize(
        "robot_name, map_name, extra",
        [("h1_like_19", "human_to_h1", []), ("g1_like_21", "human_to_g1", ["--no-warm-start"])],
    )
    def test_report_leaves_bundled_robot_motion_unchanged(
        self, tmp_path, rng, robot_name, map_name, extra
    ):
        human = load_example_skeleton("human_24")
        robot = load_example_skeleton(robot_name)
        poses = [twist_free_pose(human, rng, max_angle=0.5) for _ in range(4)]
        clip = JointTrajectory(30.0, poses, human.name)
        save_motion(trajectory_motion(clip), tmp_path / "h.motion")
        save_skeleton(human, tmp_path / "human.skel")
        save_skeleton(robot, tmp_path / "robot.skel")
        save_correspondence(
            load_example_correspondence(map_name, human, robot), tmp_path / "robot.map"
        )

        def argv(name, *report):
            return ["retarget", "--human", tmp_path / "h.motion",
                    "--human-skel", tmp_path / "human.skel",
                    "--robot-skel", tmp_path / "robot.skel", "--map", tmp_path / "robot.map",
                    "--out", tmp_path / f"{name}.motion", *extra, *report]

        assert run(argv("plain")) == 0
        assert run(argv("reported", "--report", tmp_path / "reported.json")) == 0
        assert json.loads((tmp_path / "reported.json").read_text())["frames"] == 4
        plain = (tmp_path / "plain.motion").read_bytes()
        assert plain == (tmp_path / "reported.motion").read_bytes()

    def test_rerun_byte_identical(self, workdir):
        def argv(name):
            return ["retarget", "--human", workdir / "traj.motion",
                    "--human-skel", workdir / "skel.skel", "--robot-skel", workdir / "skel.skel",
                    "--map", workdir / "self.map", "--out", workdir / f"{name}.motion",
                    "--report", workdir / f"{name}.json"]

        assert run(argv("a")) == 0
        assert run(argv("b")) == 0
        for suffix in ("motion", "json"):
            assert (workdir / f"a.{suffix}").read_bytes() == (workdir / f"b.{suffix}").read_bytes()


class TestMetrics:
    def test_track_output(self, workdir, capsys):
        code = run(
            ["metrics", "track", "--ref", workdir / "traj.motion",
             "--exec", workdir / "traj.motion", "--report", workdir / "m.json"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MPJPE(mrad)" in out and "VEL(rad/s)" in out
        report = json.loads((workdir / "m.json").read_text())
        assert report["metrics"]["MPJPE(mrad)"] == 0.0

    def test_gen_metrics_and_seed_env(self, tmp_path, rng, capsys):
        a = FeatureMatrix(rng.normal(size=(64, 4)))
        b = FeatureMatrix(rng.normal(size=(64, 4)), labels=["g1"] * 32 + ["g2"] * 32)
        save_feature_matrix(a, tmp_path / "a.mat")
        save_feature_matrix(b, tmp_path / "b.mat")
        argv = ["metrics", "gen", "--reference", tmp_path / "a.mat",
                "--generated", tmp_path / "b.mat", "--pairs", 8,
                "--report", tmp_path / "r.json"]
        assert run(argv) == 0
        base = json.loads((tmp_path / "r.json").read_text())
        assert base["seed"] == 0
        assert run(argv + ["--seed", 7]) == 0
        seeded = json.loads((tmp_path / "r.json").read_text())
        assert seeded["seed"] == 7
        assert seeded["metrics"]["FID"] == base["metrics"]["FID"]
        assert seeded["metrics"]["DIV"] != base["metrics"]["DIV"]
        capsys.readouterr()

    def test_gen_retrieval_block(self, tmp_path, rng, capsys):
        t = rng.normal(size=(40, 4))
        save_feature_matrix(FeatureMatrix(t), tmp_path / "t.mat")
        save_feature_matrix(FeatureMatrix(t + 1e-9), tmp_path / "m.mat")
        save_feature_matrix(FeatureMatrix(rng.normal(size=(40, 4))), tmp_path / "ref.mat")
        code = run(
            ["metrics", "gen", "--reference", tmp_path / "ref.mat",
             "--generated", tmp_path / "m.mat", "--text", tmp_path / "t.mat",
             "--pool", 8]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "R Top-1" in out and "R Top-3" in out


class FailingStdout(io.StringIO):
    """Standard output whose writes, or only its flushes, fail with `code`."""

    def __init__(self, code, at):
        super().__init__()
        self.code, self.at = code, at

    def write(self, text):
        if self.at == "write":
            raise OSError(self.code, os.strerror(self.code))
        return super().write(text)

    def flush(self):
        raise OSError(self.code, os.strerror(self.code))


class TestStandardOutput:
    """A failed write to standard output, a full disk or a closed pipe, exits 2."""

    @pytest.mark.parametrize("at", ["write", "flush"])
    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EPIPE])
    def test_failed_write_exits_2(self, workdir, monkeypatch, capsys, code, at):
        monkeypatch.setattr(sys, "stdout", FailingStdout(code, at))
        assert run(["metrics", "track", "--ref", workdir / "traj.motion",
                    "--exec", workdir / "traj.motion", "--report", workdir / "m.json"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write standard output: {os.strerror(code)}\n"
        )
        assert not (workdir / "m.json").exists()

    @pytest.mark.parametrize("at", ["write", "flush"])
    def test_failed_help_exits_2(self, monkeypatch, capsys, at):
        # argparse drops the error of its own write, and the run once exited 0.
        monkeypatch.setattr(sys, "stdout", FailingStdout(errno.ENOSPC, at))
        assert run(["--help"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"
        )

    @pytest.mark.parametrize(
        "argv, unbuffered",
        [
            pytest.param(lambda motion: ["-m", "retarget_kit.cli", "metrics", "track",
                                         "--ref", motion, "--exec", motion], False, id="metrics"),
            pytest.param(lambda motion: ["-m", "retarget_kit.cli", "--help"], False, id="help"),
            pytest.param(lambda motion: ["-m", "retarget_kit.cli", "retarget", "--help"], False,
                         id="retarget_help"),
            pytest.param(lambda motion: [COMPARE_MOTIONS, motion, motion], False,
                         id="compare_motions"),
            pytest.param(lambda motion: ["-m", "retarget_kit.cli", "--help"], True,
                         id="help_unbuffered"),
            pytest.param(lambda motion: ["-m", "retarget_kit.cli", "metrics", "track", "--help"],
                         True, id="metrics_track_help_unbuffered"),
            pytest.param(lambda motion: [COMPARE_MOTIONS, "--help"], True,
                         id="compare_motions_help_unbuffered"),
        ],
    )
    def test_closed_pipe_gives_one_error_line(self, workdir, argv, unbuffered):
        # With buffered output, the text still held once failed again at interpreter
        # exit: an "Exception ignored" traceback and exit status 120. Unbuffered,
        # argparse dropped the error of its own help write, and --help exited 0.
        read, write = os.pipe()
        os.close(read)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            out = subprocess.run(
                [sys.executable, "-X", "dev", *argv(workdir / "traj.motion")],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (
            2, "error: cannot write standard output: Broken pipe\n"
        )


class TestQuantizeAndFeatures:
    @pytest.mark.parametrize("text", ["-1.0", "1e999", "-1e999", "NaN", '"0.1"', "true"])
    def test_assign_rejects_bad_stored_epsilon(self, tmp_path, rng, capsys, text):
        # A hand-edited codebook: the loader refuses it, and the command exits 2.
        save_codebook(Codebook.initialize(rng.normal(size=(4, 3))), tmp_path / "cb.json")
        stored = json.loads((tmp_path / "cb.json").read_text())["epsilon"]
        edited = (tmp_path / "cb.json").read_text().replace(
            f'"epsilon": {json.dumps(stored)}', f'"epsilon": {text}'
        )
        assert f'"epsilon": {text}' in edited
        (tmp_path / "cb.json").write_text(edited)
        save_feature_matrix(FeatureMatrix(rng.normal(size=(5, 3))), tmp_path / "z.mat")
        capsys.readouterr()
        code = run(
            ["quantize", "assign", "--codebook", tmp_path / "cb.json",
             "--latents", tmp_path / "z.mat", "--out", tmp_path / "tok.json"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if text != "NaN":  # NaN is refused by the JSON reader itself
            assert "/epsilon: epsilon must be a finite number >= 0" in err
        assert not (tmp_path / "tok.json").exists()

    @pytest.mark.parametrize("text", ['"x"', "null", "[1]", "true", "false", "-0.5", "1.5", "1e999"])
    def test_assign_rejects_bad_stored_decay(self, tmp_path, rng, capsys, text):
        save_codebook(Codebook.initialize(rng.normal(size=(4, 3))), tmp_path / "cb.json")
        edited = (tmp_path / "cb.json").read_text().replace('"decay": 0.99', f'"decay": {text}')
        assert f'"decay": {text}' in edited
        (tmp_path / "cb.json").write_text(edited)
        save_feature_matrix(FeatureMatrix(rng.normal(size=(5, 3))), tmp_path / "z.mat")
        capsys.readouterr()
        code = run(
            ["quantize", "assign", "--codebook", tmp_path / "cb.json",
             "--latents", tmp_path / "z.mat", "--out", tmp_path / "tok.json"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "cb.json: /decay: decay must be a number in [0, 1]" in err
        assert not (tmp_path / "tok.json").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_quantize_assign(self, tmp_path, rng):
        cb = Codebook.initialize(rng.normal(size=(16, 4)))
        save_codebook(cb, tmp_path / "cb.json")
        save_feature_matrix(FeatureMatrix(rng.normal(size=(50, 4))), tmp_path / "z.mat")
        code = run(
            ["quantize", "assign", "--codebook", tmp_path / "cb.json",
             "--latents", tmp_path / "z.mat", "--out", tmp_path / "tok.json",
             "--downsample", 4, "--report", tmp_path / "q.json"]
        )
        assert code == 0
        tok = json.loads((tmp_path / "tok.json").read_text())
        assert len(tok["indices"]) == 50
        assert tok["downsample_factor"] == 4

    def test_features_command(self, tmp_path):
        skel = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint("l_foot", "root", [0.1, -0.9, 0], dof="spherical"),
                Joint("r_foot", "root", [-0.1, -0.9, 0], dof="spherical"),
            ],
            [
                Marker("l_heel", "l_foot", [0, 0, -0.05]),
                Marker("l_toe", "l_foot", [0, 0, 0.1]),
                Marker("r_heel", "r_foot", [0, 0, -0.05]),
                Marker("r_toe", "r_foot", [0, 0, 0.1]),
            ],
            name="legs",
        )
        poses = [Pose(np.zeros(3), Rotation.identity(), np.zeros(6))] * 3
        traj = JointTrajectory(fps=30.0, poses=poses, skeleton="legs")
        save_skeleton(skel, tmp_path / "s.skel")
        save_motion(trajectory_motion(traj), tmp_path / "m.motion")
        code = run(
            ["features", "--skel", tmp_path / "s.skel", "--motion", tmp_path / "m.motion",
             "--out", tmp_path / "f.mat", "--report", tmp_path / "f.json"]
        )
        assert code == 0
        report = json.loads((tmp_path / "f.json").read_text())
        assert report["frames"] == 2
        assert report["dimension"] == 8 + 12 * 2


def bad_limit_arity(workdir, monkeypatch):
    skel = json.loads((workdir / "skel.skel").read_text())
    skel["joints"][1]["limits"] = [[-1.0, 0.0, 1.0]] * 3
    (workdir / "bad.skel").write_text(json.dumps(skel))
    argv = ["fk", "--skel", workdir / "bad.skel", "--motion", workdir / "traj.motion",
            "--out", workdir / "x.motion"]
    return argv, "limits must be [min, max] pairs"


def negative_seed(workdir, monkeypatch):
    # the seed once reached numpy, which raised a raw ValueError
    save_feature_matrix(FeatureMatrix(np.eye(8)), workdir / "a.mat")
    argv = ["metrics", "gen", "--reference", workdir / "a.mat", "--generated", workdir / "a.mat",
            "--pairs", 2, "--seed", -1]
    return argv, "--seed must be a finite number >= 0, got -1"


def bad_height_threshold(value):
    def bad_input(workdir, monkeypatch):
        motion = workdir / "traj.motion"
        argv = ["metrics", "track", "--ref", motion, "--exec", motion, "--height-threshold", value]
        return argv, f"height threshold must be finite, got {value}"

    bad_input.__name__ = f"height_threshold_{value}"
    return bad_input


def bad_contact_threshold(value):
    def bad_input(workdir, monkeypatch):
        argv = named_argv("features", workdir, "walker", "walker")
        return argv + ["--contact-threshold", value], (
            f"contact threshold must be a finite number >= 0, got {float(value)!r}"
        )

    bad_input.__name__ = f"contact_threshold_{value}"
    return bad_input


def bad_pool(value):
    def bad_input(workdir, monkeypatch):
        features = FeatureMatrix(np.random.default_rng(0).normal(size=(16, 2)))
        save_feature_matrix(features, workdir / "a.mat")
        a = workdir / "a.mat"
        argv = ["metrics", "gen", "--reference", a, "--generated", a, "--text", a, "--pool", value]
        return argv, f"--pool needs the match and a distractor, >= 2, got {value}"

    bad_input.__name__ = f"pool_{value}"
    return bad_input


def named_argv(command, workdir, motion_name, skel_name):
    """argv of `command` on copies of its motion and of skel.skel with these names.

    The skeleton copy also gets the foot contact markers `features` needs.
    """
    motion = "traj.motion"
    if command == "ik":
        motion = "kp.motion"
        assert run(["fk", "--skel", workdir / "skel.skel", "--motion", workdir / "traj.motion",
                    "--out", workdir / motion]) == 0
    obj = json.loads((workdir / motion).read_text())
    obj["skeleton"] = motion_name
    motion = workdir / f"named_{motion}"
    motion.write_text(json.dumps(obj))
    obj = json.loads((workdir / "skel.skel").read_text())
    obj["name"] = skel_name
    obj["markers"] += [
        {"name": name, "joint": "c1_2", "offset": [0.0, 0.0, 0.0]}
        for name in ("l_heel", "l_toe", "r_heel", "r_toe")
    ]
    skel = workdir / "named.skel"
    skel.write_text(json.dumps(obj))
    if command == "retarget":
        return ["retarget", "--human", motion, "--human-skel", skel,
                "--robot-skel", workdir / "skel.skel", "--map", workdir / "self.map",
                "--out", workdir / "x.motion"]
    suffix = "mat" if command == "features" else "motion"
    return [command, "--skel", skel, "--motion", motion, "--out", workdir / f"x.{suffix}"]


def skeleton_name_mismatch(command):
    def bad_input(workdir, monkeypatch):
        flag = "--human" if command == "retarget" else "--motion"
        argv = named_argv(command, workdir, "walker", "runner")
        return argv, f"{flag} is a motion of skeleton 'walker', but the paired skeleton is 'runner'"

    bad_input.__name__ = f"skeleton_name_mismatch_{command}"
    return bad_input


def retarget_argv(workdir, *extra, robot="skel.skel"):
    return ["retarget", "--human", workdir / "traj.motion", "--human-skel", workdir / "skel.skel",
            "--robot-skel", workdir / robot, "--map", workdir / "self.map",
            "--out", workdir / "x.motion", *extra]


def zero_dof_robot(workdir, monkeypatch):
    skel = json.loads((workdir / "skel.skel").read_text())
    skel["name"] = "statue"
    for joint in skel["joints"]:
        joint["dof"] = "fixed"
        joint.pop("limits", None)
    (workdir / "statue.skel").write_text(json.dumps(skel))
    return (retarget_argv(workdir, robot="statue.skel"),
            "skeleton 'statue' has no degrees of freedom to solve")


def empty_human_motion(workdir, monkeypatch):
    obj = json.loads((workdir / "traj.motion").read_text())
    obj["frames"] = []
    (workdir / "empty.motion").write_text(json.dumps(obj))
    argv = retarget_argv(workdir)
    argv[argv.index("--human") + 1] = workdir / "empty.motion"
    return argv, "empty.motion: /frames: expected a non-empty list of frames, got []"


def bad_solver_option(flag, value):
    def bad_input(workdir, monkeypatch):
        name = flag[2:].replace("-", "_")
        return (retarget_argv(workdir, flag, value),
                f"{name} must be a finite number >= 0, got {float(value)!r}")

    bad_input.__name__ = f"bad_option_{flag[2:].replace('-', '_')}_{value}"
    return bad_input


def unwritable_output(flag, target, reason):
    def bad_input(workdir, monkeypatch):
        assert run(["fk", "--skel", workdir / "skel.skel", "--motion", workdir / "traj.motion",
                    "--out", workdir / "kp.motion"]) == 0
        (workdir / "a_dir").mkdir()
        argv = ["ik", "--skel", workdir / "skel.skel", "--motion", workdir / "kp.motion",
                "--out", workdir / "rec.motion", "--report", workdir / "ik.json"]
        argv[argv.index(flag) + 1] = workdir / target
        return argv, f"cannot write {workdir / target}: {reason}"

    bad_input.__name__ = f"unwritable_{flag[2:]}_{target.split('/')[0]}"
    return bad_input


def bad_pairs(workdir, monkeypatch):
    features = FeatureMatrix(np.random.default_rng(0).normal(size=(16, 2)))
    save_feature_matrix(features, workdir / "a.mat")
    argv = ["metrics", "gen", "--reference", workdir / "a.mat", "--generated", workdir / "a.mat",
            "--pairs", -1]
    return argv, "pair_count must be an integer >= 1, got -1"


def rendered_keypoints(workdir):
    """The keypoint motion of traj.motion, as a JSON tree."""
    assert run(["fk", "--skel", workdir / "skel.skel", "--motion", workdir / "traj.motion",
                "--out", workdir / "kp.motion"]) == 0
    return json.loads((workdir / "kp.motion").read_text())


def collapsed_keypoints(frame_index, joints, onto, message):
    """ik on keypoints where `joints` sit on `onto` in one frame: zero-length bones."""

    def bad_input(workdir, monkeypatch):
        obj = rendered_keypoints(workdir)
        frame = obj["frames"][frame_index]
        for joint in joints:
            frame[obj["labels"].index(joint)] = frame[obj["labels"].index(onto)]
        (workdir / "bad.motion").write_text(json.dumps(obj))
        return ["ik", "--skel", workdir / "skel.skel", "--motion", workdir / "bad.motion",
                "--out", workdir / "x.motion"], message

    bad_input.__name__ = f"collapsed_{'_'.join(joints)}_frame_{frame_index}"
    return bad_input


MISSING = object()


def bad_motion_field(name, command, field, value, message):
    """`command` on a motion file whose `field` is replaced by `value` (or deleted)."""

    def bad_input(workdir, monkeypatch):
        if command == "ik":
            obj = rendered_keypoints(workdir)
        else:
            obj = json.loads((workdir / "traj.motion").read_text())
        if value is MISSING:
            del obj[field]
        else:
            obj[field] = value
        (workdir / "bad.motion").write_text(json.dumps(obj))
        suffix = "mat" if command == "features" else "motion"
        return [command, "--skel", workdir / "skel.skel", "--motion", workdir / "bad.motion",
                "--out", workdir / f"x.{suffix}"], f"bad.motion: /{field}: {message}"

    bad_input.__name__ = name
    return bad_input


def malformed_document(name, file, edit, message):
    """The command that reads `file` run on a copy of it changed by `edit`: fk for
    skel.skel, retarget for self.map, metrics gen for a.mat, quantize assign for cb.json."""

    def bad_input(workdir, monkeypatch):
        rng = np.random.default_rng(0)
        save_feature_matrix(FeatureMatrix(rng.normal(size=(16, 2))), workdir / "a.mat")
        save_codebook(Codebook.initialize(rng.normal(size=(4, 2))), workdir / "cb.json")
        obj = json.loads((workdir / file).read_text())
        edit(obj)
        bad = workdir / ("bad." + file.split(".")[1])
        bad.write_text(json.dumps(obj))
        argv = {
            "skel.skel": ["fk", "--skel", bad, "--motion", workdir / "traj.motion",
                          "--out", workdir / "x.motion"],
            "self.map": retarget_argv(workdir),
            "a.mat": ["metrics", "gen", "--reference", workdir / "a.mat", "--generated", bad],
            "cb.json": ["quantize", "assign", "--codebook", bad, "--latents", workdir / "a.mat",
                        "--out", workdir / "t.json"],
        }[file]
        if file == "self.map":
            argv[argv.index("--map") + 1] = bad
        return argv, f"{bad.name}: {message}"

    bad_input.__name__ = name
    return bad_input


def zero_dof_tracks(workdir, monkeypatch):
    # metrics track on zero-DoF trajectories once printed nan three times and exited 0
    arrays = np.zeros((4, 3)), np.stack([np.eye(3)] * 4), np.zeros((4, 0))
    still = workdir / "still.motion"
    save_motion(trajectory_motion(JointTrajectory.from_arrays(30.0, *arrays)), still)
    return (["metrics", "track", "--ref", still, "--exec", still],
            "trajectories must be (T, DoF), T, DoF >= 1, got (4, 0)")


def mismatched_track(field, ref_value, exec_value, message):
    """metrics track of two copies of the trajectory that differ in `field`: once it exited 0,
    with VEL and ACCEL that changed with the order of the arguments."""

    def bad_input(workdir, monkeypatch):
        argv = ["metrics", "track"]
        for flag, value in (("--ref", ref_value), ("--exec", exec_value)):
            obj = json.loads((workdir / "traj.motion").read_text())
            obj[field] = value
            (workdir / f"{flag[2:]}.motion").write_text(json.dumps(obj))
            argv += [flag, workdir / f"{flag[2:]}.motion"]
        return argv, message

    bad_input.__name__ = f"track_{field}_mismatch"
    return bad_input


def zero_quaternion(command):
    """`command` on a trajectory whose frames 2 and 3 store a zero root quaternion."""

    def bad_input(workdir, monkeypatch):
        obj = json.loads((workdir / "traj.motion").read_text())
        for frame in obj["frames"][2:]:
            frame["root_orientation"] = [0, 0, 0, 0]
        (workdir / "bad.motion").write_text(json.dumps(obj))
        message = "bad.motion: /frames/2/root_orientation: zero quaternion"
        return [command, "--skel", workdir / "skel.skel", "--motion", workdir / "bad.motion",
                "--out", workdir / "x.out"], message

    bad_input.__name__ = f"{command}_zero_quaternion"
    return bad_input


class TestExitCodes:
    @pytest.mark.parametrize(
        "bad_input",
        [bad_limit_arity, negative_seed, bad_pairs]
        + [skeleton_name_mismatch(c) for c in ("fk", "ik", "features", "retarget")]
        + [zero_dof_robot, empty_human_motion, zero_dof_tracks]
        + [
            mismatched_track("fps", 30.0, 60.0, "--exec is at 60.0 fps, but --ref is at 30.0 fps"),
            mismatched_track("skeleton", "walker", "runner",
                             "--exec is a motion of skeleton 'runner', "
                             "but --ref is a motion of skeleton 'walker'"),
        ]
        + [zero_quaternion(c) for c in ("fk", "features")]
        + [
            collapsed_keypoints(
                2, ["c1_1"], "c1_0", "frame 2, joint 'c1_0' → 'c1_1': bone norms"
            ),
            collapsed_keypoints(
                1, ["c0_0", "c1_0", "c2_0"], "root",
                "frame 1, joint 'root' → 'c0_0', 'c1_0', 'c2_0': cross-covariance rank < 2",
            ),
        ]
        + [
            bad_motion_field("fk_frames_not_a_list", "fk", "frames", 5,
                             "expected a non-empty list of frames, got 5"),
            bad_motion_field("features_frames_not_a_list", "features", "frames", 5,
                             "expected a non-empty list of frames, got 5"),
            bad_motion_field("fk_frames_empty", "fk", "frames", [],
                             "expected a non-empty list of frames, got []"),
            bad_motion_field("fk_frames_missing", "fk", "frames", MISSING,
                             "expected a non-empty list of frames, got None"),
            bad_motion_field("ik_labels_not_a_list", "ik", "labels", 5,
                             "labels must be a list or tuple of strings"),
            bad_motion_field("ik_labels_not_strings", "ik", "labels", [["root"]] * 10,
                             "labels must be a list or tuple of strings"),
            bad_motion_field("fk_fps_bool", "fk", "fps", True,
                             "fps must be positive, got True"),
            bad_motion_field("ik_fps_bool", "ik", "fps", True,
                             "fps must be positive, got True"),
            bad_motion_field("fk_skeleton_not_a_string", "fk", "skeleton", 5,
                             "expected a skeleton name, got 5"),
            bad_motion_field("ik_skeleton_not_a_string", "ik", "skeleton", ["walker"],
                             "expected a skeleton name, got ['walker']"),
        ]
        + [
            malformed_document("skel_joints_not_a_list", "skel.skel",
                               lambda o: o.update(joints=5),
                               "/joints: expected a list of objects, got 5"),
            malformed_document("skel_joint_a_string", "skel.skel",
                               lambda o: o["joints"].__setitem__(0, "root"),
                               "/joints/0: expected an object, got 'root'"),
            malformed_document("skel_name_a_number", "skel.skel",
                               lambda o: o.update(name=5),
                               "/name: expected a skeleton name, got 5"),
            malformed_document("skel_joint_name_a_list", "skel.skel",
                               lambda o: o["joints"][1].update(name=["c0_0"]),
                               "/joints/1: joint and parent names must be strings"),
            malformed_document("map_pairs_not_a_list", "self.map",
                               lambda o: o.update(pairs=4),
                               "/pairs: expected a list of objects, got 4"),
            malformed_document("map_pair_name_a_list", "self.map",
                               lambda o: o["pairs"][0].update(robot=["c0_0"]),
                               "/pairs/0: pair names must be strings"),
            malformed_document("map_weight_too_large", "self.map",
                               lambda o: o["pairs"][0].update(position_weight=10**400),
                               "/pairs/0: position_weight of pair c0_0->c0_0 must be a "
                               "finite number >= 0, got 10000"),
            malformed_document("map_scale_not_numeric", "self.map",
                               lambda o: o.update(scale="big"),
                               "/scale: scale must be positive, got 'big'"),
            malformed_document("map_scale_too_large", "self.map",
                               lambda o: o.update(scale=10**400),
                               "/scale: scale must be positive, got 10000"),
            malformed_document("map_scale_chain_unknown_joint", "self.map",
                               lambda o: o.update(scale=None, scale_chains={
                                   "human": ["root", "c0_0", "nope"],
                                   "robot": ["root", "c0_0", "c0_1"]}),
                               "/scale_chains: scale chain joint 'nope' is not in skeleton"),
            malformed_document("map_scale_chains_a_string", "self.map",
                               lambda o: o.update(scale=None, scale_chains="root"),
                               "/scale_chains: string indices must be integers"),
            malformed_document("features_labels_not_a_list", "a.mat",
                               lambda o: o.update(labels=5),
                               "/labels: 'int' object is not iterable"),
            malformed_document("features_label_a_list", "a.mat",
                               lambda o: o.update(labels=[["g"]] * 16),
                               "/: group labels must be strings or integers"),
            malformed_document("codebook_sidecar_path_a_number", "cb.json",
                               lambda o: o.update(entries={"binary": 5, "shape": [4, 2]}),
                               "/entries: bad sidecar reference"),
        ]
        + [
            unwritable_output("--out", "missing/rec.motion", "No such file or directory"),
            unwritable_output("--report", "missing/ik.json", "No such file or directory"),
            unwritable_output("--out", "a_dir", "Is a directory"),
        ]
        + [
            bad_solver_option(flag, value)
            for flag, value in (
                ("--limit-weight", "nan"),
                ("--smoothness-weight", "inf"),
                ("--gradient-tol", "nan"),
                ("--reference-weight", "nan"),
                ("--limit-weight", "-1"),
            )
        ]
        + [bad_height_threshold(v) for v in ("nan", "inf")]
        + [bad_contact_threshold(v) for v in ("nan", "-1")]
        + [bad_pool(v) for v in ("0", "-1", "1")],
        ids=lambda f: f.__name__,
    )
    def test_bad_input_exits_2(self, workdir, monkeypatch, capsys, bad_input):
        argv, message = bad_input(workdir, monkeypatch)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not list(workdir.rglob("*.tmp"))

    @pytest.mark.parametrize(
        "command, suffix, message",
        [("fk", "motion", "fk: keypoint frame 2 is not finite"),
         ("features", "mat", "features: feature row 1 is not finite")],
    )
    def test_overflowing_joint_values_exit_3(self, workdir, capsys, command, suffix, message):
        obj = json.loads((workdir / "traj.motion").read_text())
        for frame in obj["frames"][2:]:
            frame["joint_values"] = [1e300] * len(frame["joint_values"])
        (workdir / "huge.motion").write_text(json.dumps(obj))
        skel = "skel.skel"
        if command == "features":
            skel = "named.skel"
            named_argv(command, workdir, None, None)  # writes named.skel with contact markers
        out = workdir / f"out.{suffix}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, "--skel", workdir / skel, "--motion", workdir / "huge.motion",
                        "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists() and not list(workdir.rglob("*.tmp"))

    @pytest.mark.parametrize("command", ["fk", "ik", "features", "retarget"])
    @pytest.mark.parametrize(
        "motion_name, skel_name", [("walker", None), (None, "runner"), ("walker", "walker")]
    )
    def test_unnamed_or_matching_skeleton_runs(self, workdir, command, motion_name, skel_name):
        assert run(named_argv(command, workdir, motion_name, skel_name)) == 0


def keypoint_file(workdir):
    rendered_keypoints(workdir)
    return workdir / "kp.motion"


def feature_files(workdir):
    rng = np.random.default_rng(0)
    save_feature_matrix(FeatureMatrix(rng.normal(size=(16, 2))), workdir / "a.mat")
    save_codebook(Codebook.initialize(rng.normal(size=(4, 2))), workdir / "cb.json")
    return workdir / "a.mat", workdir / "cb.json"


# argv of a successful run of each leaf subcommand, and the output it writes
SUBCOMMAND_RUNS = {
    ("fk",): lambda w: (["fk", "--skel", w / "skel.skel", "--motion", w / "traj.motion",
                         "--out", w / "x.motion"], w / "x.motion"),
    ("ik",): lambda w: (["ik", "--skel", w / "skel.skel", "--motion", keypoint_file(w),
                         "--out", w / "x.motion"], w / "x.motion"),
    ("retarget",): lambda w: (retarget_argv(w), w / "x.motion"),
    ("metrics", "track"): lambda w: (["metrics", "track", "--ref", w / "traj.motion",
                                      "--exec", w / "traj.motion"], None),
    ("metrics", "gen"): lambda w: (["metrics", "gen", "--reference", feature_files(w)[0],
                                    "--generated", w / "a.mat"], None),
    ("quantize", "assign"): lambda w: (["quantize", "assign", "--codebook", feature_files(w)[1],
                                        "--latents", w / "a.mat", "--out", w / "t.json"],
                                       w / "t.json"),
    ("features",): lambda w: (named_argv("features", w, None, None), w / "x.mat"),
}


LEAVES = [words for words, *_ in COMMANDS]
ROOT_NAMES = ["fk", "ik", "retarget", "metrics", "quantize", "features"]
ROOT_CHOICES = "{fk,ik,retarget,metrics,quantize,features}"


def valid_argv(words):
    """argv of the leaf `words` with each of its required flags given "x"."""
    required = next(c[3] for c in COMMANDS if c[0] == words)
    return [*words, *(a for flag in required for a in (flag, "x"))]


class TestReportContract:
    @pytest.mark.parametrize("path", LEAVES, ids="-".join)
    def test_every_subcommand_writes_its_report_after_its_outputs(self, workdir, path):
        argv = valid_argv(path) + ["--report", "r.json"]
        assert build_parser(argv).parse_args(argv).report == "r.json"
        argv, out = SUBCOMMAND_RUNS[path](workdir)
        report = workdir / "report.json"
        assert run(argv + ["--report", report]) == 0
        assert json.loads(report.read_text())["command"] == "-".join(path)
        if out is not None:
            assert out.stat().st_mtime_ns <= report.stat().st_mtime_ns

    def test_every_subcommand_is_listed(self):
        # so that a new subcommand is run by the test above and held to the contract
        assert set(LEAVES) == set(SUBCOMMAND_RUNS)


def outcome(parse, argv, capsys):
    """(exit code, standard output, standard error, namespace) of parse(argv); the
    code is None when it returns."""
    try:
        code, namespace = None, parse(argv)
    except SystemExit as e:
        code, namespace = e.code, None
    return (code, *capsys.readouterr(), namespace)


@pytest.fixture
def built(monkeypatch):
    """The prog of every Parser made while the test runs, in order."""
    progs = []

    def init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        argparse.ArgumentParser.__init__(self, *args, **kwargs)

    monkeypatch.setattr(Parser, "__init__", init)
    return progs


def leaf_cases(words):
    """Help, a valid run, and a missing required flag, an unknown flag, a trailing flag
    with no value and each typed argument given a bad value."""
    valid = valid_argv(words)
    extra = next(c[4] for c in COMMANDS if c[0] == words)
    return [[*words, "--help"], valid, valid[:-2], valid + ["--bogus"], valid + ["extra"],
            valid + ["--report"], *(valid + [flag, "x"] for flag, k in extra.items() if "type" in k)]


class TestParserBuild:
    """A run builds only its own subcommand's parser, and reads as the whole tree does."""

    @pytest.mark.parametrize("argv", [argv for words in LEAVES for argv in leaf_cases(words)],
                             ids=" ".join)
    def test_leaf_parser_matches_whole_tree(self, capsys, argv):
        leaf = outcome(lambda a: build_parser(a).parse_args(a), argv, capsys)
        assert leaf == outcome(build_parser().parse_args, argv, capsys)
        assert leaf[0] in (None, 0, 2)

    @pytest.mark.parametrize("words", LEAVES, ids="-".join)
    def test_main_builds_the_root_and_its_leaf_only(self, monkeypatch, capsys, built, words):
        monkeypatch.setattr(sys, "argv", ["retarget-kit", *words, "--help"])
        assert outcome(lambda a: main(), None, capsys)[0] == 0
        assert built == [" ".join(("retarget-kit", *words[:i])) for i in range(len(words) + 1)]

    @pytest.mark.parametrize("words", LEAVES, ids="-".join)
    def test_unrecognized_argument_usage_names_every_subcommand(self, capsys, words):
        code, out, err, _ = outcome(main, valid_argv(words) + ["--bogus"], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"usage: retarget-kit [-h] {ROOT_CHOICES} ...",
                                    "retarget-kit: error: unrecognized arguments: --bogus"]

    @pytest.mark.parametrize(
        "argv, names, dest",
        [([], ROOT_NAMES, "command"), (["--help"], ROOT_NAMES, "command"),
         (["bogus"], ROOT_NAMES, "command"), (["metrics"], ["track", "gen"], "mode"),
         (["metrics", "--help"], ["track", "gen"], "mode"),
         (["metrics", "bogus"], ["track", "gen"], "mode"),
         (["quantize", "--help"], ["assign"], "mode")],
        ids=["empty", "help", "bogus", "metrics", "metrics-help", "metrics-bogus",
             "quantize-help"],
    )
    def test_no_leaf_builds_the_whole_tree(self, capsys, built, argv, names, dest):
        code, out, err, _ = outcome(main, argv, capsys)
        assert len(built) == 1 + len(LEAVES) + len({w[0] for w in LEAVES if len(w) > 1})
        help = "--help" in argv
        assert (code, bool(out), bool(err)) == ((0, True, False) if help else (2, False, True))
        assert "{%s}" % ",".join(names) in (out if help else err)
        if help:  # one line per choice, its name first
            assert [line.split()[0] for line in out.splitlines() if line.startswith(" " * 4)] \
                == names
        else:  # an error names the subparsers action by its dest
            last = err.splitlines()[-1]
            assert f"argument {dest}: " in last or last.endswith(f"required: {dest}")
        if "bogus" in argv:  # the invalid-choice error names every choice
            assert all(repr(name) in err.splitlines()[-1] for name in names)


class TestEntryPoint:
    def test_console_script_help(self):
        out = subprocess.run(
            [sys.executable, "-m", "retarget_kit.cli", "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "retarget" in out.stdout

    def test_retarget_defaults_are_retarget_options(self):
        args = build_parser().parse_args(
            ["retarget", "--human", "h", "--human-skel", "s", "--robot-skel", "r", "--map", "m",
             "--out", "o"]
        )
        defaults = RetargetOptions()
        for name in (field.name for field in dataclasses.fields(RetargetOptions)):
            given = not args.no_warm_start if name == "warm_start" else getattr(args, name)
            assert given == getattr(defaults, name)
            assert type(given) is type(getattr(defaults, name))

    def test_numpy_is_the_only_runtime_dependency(self, tmp_path):
        # scipy and hypothesis are test extras; importing the package and running the
        # CLI must not touch them, even behind a try/except.
        script = """
import sys
from importlib.abc import MetaPathFinder

attempts = []


class Block(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "hypothesis"):
            attempts.append(name)
            raise ImportError(f"{name} is not a runtime dependency")
        return None


sys.meta_path.insert(0, Block())
import numpy as np

import retarget_kit
from retarget_kit.cli import main

out = sys.argv[1]
skel = retarget_kit.load_example_skeleton("human_24")
values = 0.3 * np.random.default_rng(0).normal(size=(3, skel.total_dof))
traj = retarget_kit.JointTrajectory.from_arrays(
    30.0, np.zeros((3, 3)), np.broadcast_to(np.eye(3), (3, 3, 3)), values, skel.name
)
retarget_kit.save_motion(retarget_kit.trajectory_motion(traj), f"{out}/traj.motion")
skel_path = str(retarget_kit.asset_path("human_24"))
codes = [
    main(["fk", "--skel", skel_path, "--motion", f"{out}/traj.motion", "--out", f"{out}/kp.motion"]),
    main(["ik", "--skel", skel_path, "--motion", f"{out}/kp.motion", "--out", f"{out}/rec.motion"]),
]
print(codes, attempts)
"""
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[0, 0] []"
        assert (tmp_path / "rec.motion").exists()
