import json
import subprocess
import sys
import warnings

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
    save_codebook,
    save_correspondence,
    save_feature_matrix,
    save_motion,
    save_skeleton,
    trajectory_motion,
)
from retarget_kit.cli import main
from retarget_kit.retarget import TERMINATIONS
from retarget_kit.skeleton import Joint, Marker, Skeleton

from conftest import make_humanlike, twist_free_pose


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
        assert report["carried_forward"] == 0
        for frame in report["per_frame"]:
            assert frame["termination"] in TERMINATIONS
            assert frame["jacobian_evals"] == frame["iterations"]
            assert frame["residual_evals"] > frame["iterations"]
            assert 0 < frame["damping"] < np.inf

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

    def test_gen_metrics_and_seed_env(self, tmp_path, rng, monkeypatch, capsys):
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
        monkeypatch.setenv("RETARGET_KIT_SEED", "7")
        assert run(argv) == 0
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


def bad_seed_env(workdir, monkeypatch):
    save_feature_matrix(FeatureMatrix(np.eye(8)), workdir / "a.mat")
    monkeypatch.setenv("RETARGET_KIT_SEED", "1.5")
    argv = ["metrics", "gen", "--reference", workdir / "a.mat", "--generated", workdir / "a.mat"]
    return argv, "RETARGET_KIT_SEED must be an integer"


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
        [bad_limit_arity, bad_seed_env, bad_pairs]
        + [skeleton_name_mismatch(c) for c in ("fk", "ik", "features", "retarget")]
        + [zero_dof_robot]
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
                             "expected a list of joint names"),
            bad_motion_field("ik_labels_not_strings", "ik", "labels", [["root"]] * 10,
                             "expected a list of joint names"),
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
        ],
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


class TestEntryPoint:
    def test_console_script_help(self):
        out = subprocess.run(
            [sys.executable, "-m", "retarget_kit.cli", "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "retarget" in out.stdout
