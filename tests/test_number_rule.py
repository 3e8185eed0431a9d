"""The one number rule, `errors.check_number`, and every public numeric argument it guards."""

from fractions import Fraction

import numpy as np
import pytest

from retarget_kit import (
    Codebook,
    CorrespondencePair,
    CorrespondenceSet,
    FeatureMatrix,
    JointTrajectory,
    Motion,
    RetargetOptions,
    Rotation,
    TokenSequence,
    TrajectoryPair,
    build_pose_features,
    diversity,
    keypoint_motion,
    load_example_skeleton,
    multimodality,
    r_precision,
    reset_dead_codes,
    retrieval_ranks,
    success_rate,
    top_k_share,
)
from retarget_kit.cli import main
from retarget_kit.errors import ValidationError, check_number
from retarget_kit.io import save_codebook, save_feature_matrix
from retarget_kit.skeleton import Joint

BAD_VALUES = [True, float("nan"), float("inf"), float("-inf"), 10**400, "1", None]
BAD_IDS = ["true", "nan", "inf", "-inf", "10**400", "str", "none"]

GOOD = {
    "finite": [-1e308, -2, 0, 0.5, np.float64(-3.0), Fraction(1, 3)],
    ">= 0": [0, 0.0, 1e-300, 7, np.float32(2.5), np.int64(4)],
    "> 0": [1e-300, 1, 30.0, np.float64(24.0)],
    "[0, 1]": [0, 0.0, 0.99, 1, np.float64(1.0)],
    "int >= 1": [1, 32, np.int64(5), 2**60],
}
REFUSED = {  # "finite" has no bounds beyond the ones every rule has
    ">= 0": [-1e-300, -1],
    "> 0": [0, 0.0, -1.0],
    "[0, 1]": [-1e-9, 1.0000001, 2],
    "int >= 1": [0, -3, 2.0, 2.5, np.float64(3.0)],
}


@pytest.mark.parametrize("rule", sorted(GOOD))
def test_rule_accepts_its_numbers_unchanged(rule):
    for value in GOOD[rule]:
        assert check_number("x", value, rule) is value


@pytest.mark.parametrize("rule", sorted(GOOD))
@pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
def test_no_rule_accepts_a_bool_a_non_finite_a_huge_or_a_non_number(rule, value):
    with pytest.raises(ValidationError, match=r"^x must be .*, got "):
        check_number("x", value, rule)


@pytest.mark.parametrize("rule", sorted(REFUSED))
def test_rule_refuses_numbers_out_of_its_bounds(rule):
    for value in REFUSED[rule]:
        with pytest.raises(ValidationError):
            check_number("x", value, rule)


def test_message_names_the_value_in_at_most_40_characters():
    with pytest.raises(ValidationError) as e:
        check_number("pool_size", 10**400, "int >= 1")
    assert str(e.value) == f"pool_size must be an integer >= 1, got {str(10**400)[:40]}"


def _arrays(fps, frames=3, dof=2):
    return fps, np.zeros((frames, 3)), np.stack([np.eye(3)] * frames), np.zeros((frames, dof))


def _features(labels=None):
    return FeatureMatrix(np.random.default_rng(0).normal(size=(8, 3)), labels)


def _pose_features(**kwargs):
    human = load_example_skeleton("human_24")
    args = dict(fps=30.0, contact_threshold=1e-3) | kwargs
    trajectory = JointTrajectory.from_arrays(*_arrays(30.0, dof=human.total_dof))
    return build_pose_features(human, trajectory, **args)


def _pair(**kwargs):
    return CorrespondencePair("a", "b", **kwargs)


# (name in the message, call with the argument set to the value, a value it accepts)
PUBLIC_NUMBER_ARGUMENTS = {
    "success_rate.height_threshold": (
        "height threshold",
        lambda v: success_rate([TrajectoryPair(np.zeros((2, 1)), np.zeros((2, 1)), 30.0,
                                               np.ones(2))], v),
        0.5,
    ),
    "CorrespondencePair.position_weight": (
        "position_weight of pair a->b", lambda v: _pair(position_weight=v), 2,
    ),
    "CorrespondencePair.orientation_weight": (
        "orientation_weight of pair a->b", lambda v: _pair(orientation_weight=v), 0.0,
    ),
    "CorrespondenceSet.scale": ("scale", lambda v: CorrespondenceSet((_pair(),), v), 0.8),
    **{
        f"RetargetOptions.{name}": (name, lambda v, name=name: RetargetOptions(**{name: v}), 0)
        for name in ("limit_weight", "smoothness_weight", "reference_weight", "gradient_tol")
    },
    "RetargetOptions.max_iterations": (
        "max_iterations", lambda v: RetargetOptions(max_iterations=v), 1,
    ),
    "Codebook.epsilon": ("epsilon", lambda v: Codebook.initialize(np.eye(2), epsilon=v), 0),
    "Codebook.decay": ("decay", lambda v: Codebook.initialize(np.eye(2), decay=v), 1),
    "build_pose_features.contact_threshold": (
        "contact threshold", lambda v: _pose_features(contact_threshold=v), 0,
    ),
    # the trajectory's own rate, as an int: another rate is refused as a mismatch
    "build_pose_features.fps": ("fps", lambda v: _pose_features(fps=v), 30),
    "JointTrajectory.fps": ("fps", lambda v: JointTrajectory(v, ()), 30.0),
    "JointTrajectory.from_arrays.fps": (
        "fps", lambda v: JointTrajectory.from_arrays(*_arrays(v)), 30.0,
    ),
    "Motion.fps": (
        "fps", lambda v: Motion(v, "keypoints", labels=("a",), keypoints=np.zeros((2, 1, 3))), 30.0,
    ),
    "keypoint_motion.fps": ("fps", lambda v: keypoint_motion(np.zeros((2, 1, 3)), ["a"], v), 5),
    "TrajectoryPair.fps": ("fps", lambda v: TrajectoryPair(np.zeros((2, 1)), np.zeros((2, 1)), v),
                           30.0),
    "diversity.pair_count": ("pair_count", lambda v: diversity(_features(), v), 4),
    "multimodality.pairs_per_group": (
        "pairs_per_group", lambda v: multimodality(_features(labels=[0] * 4 + [1] * 4), v), 2,
    ),
    "retrieval_ranks.pool_size": (
        "pool_size", lambda v: retrieval_ranks(_features(), _features(), pool_size=v), 8,
    ),
    "r_precision.pool_size": (
        "pool_size", lambda v: r_precision(_features(), _features(), pool_size=v), 2,
    ),
    "r_precision.top_k": (
        "top_k", lambda v: r_precision(_features(), _features(), pool_size=8, top_k=v), 7,
    ),
    "TokenSequence.downsample_factor": (
        "downsample_factor", lambda v: TokenSequence([0, 1], v), 4,
    ),
    "top_k_share.top_k": ("top_k", lambda v: top_k_share([1, 2, 3], v), 2),
    "Joint.limits": (
        "limit of joint 'a'",
        lambda v: Joint("a", None, [0, 0, 0], "revolute", axis=[0, 0, 1], limits=[(v, 1.0)]),
        -1,
    ),
    "Rotation.from_axis_angle.angle": (
        "angle", lambda v: Rotation.from_axis_angle([0, 1, 0], v), -0.5,
    ),
    "reset_dead_codes.usage_threshold": (
        "usage_threshold", lambda v: reset_dead_codes(Codebook.initialize(np.eye(2)), np.eye(2), v),
        0.5,
    ),
}
# Arguments where None is a valid value meaning "not given", not a bad number.
NONE_MEANS_NOT_GIVEN = {"TokenSequence.downsample_factor"}


@pytest.mark.parametrize("argument", PUBLIC_NUMBER_ARGUMENTS)
def test_public_argument_accepts_a_valid_number(argument):
    _, call, good = PUBLIC_NUMBER_ARGUMENTS[argument]
    call(good)


@pytest.mark.parametrize("value", BAD_VALUES, ids=BAD_IDS)
@pytest.mark.parametrize("argument", PUBLIC_NUMBER_ARGUMENTS)
def test_public_argument_refuses_a_bad_number(argument, value):
    name, call, _ = PUBLIC_NUMBER_ARGUMENTS[argument]
    if value is None and argument in NONE_MEANS_NOT_GIVEN:
        call(value)  # no downsampling: accepted, and written as null
        return
    with pytest.raises(ValidationError, match=f"^{name} must be "):
        call(value)


@pytest.mark.parametrize("factor", [0, -3])
def test_quantize_assign_refuses_a_downsample_factor_below_1(tmp_path, capsys, factor):
    codebook, latents = tmp_path / "cb.json", tmp_path / "z.mat"
    save_codebook(Codebook.initialize(np.eye(2)), codebook)
    save_feature_matrix(FeatureMatrix(np.eye(2)), latents)
    out = tmp_path / "tokens.json"
    argv = ["quantize", "assign", "--codebook", codebook, "--latents", latents, "--out", out,
            "--downsample", factor]
    assert main([str(a) for a in argv]) == 2
    assert "downsample_factor must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()
