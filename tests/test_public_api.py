"""The package's public names, the parameter names of its callables and its exception
classes, pinned: adding or removing a name, an option or an exception class edits these pins
in the same diff."""

import inspect

import retarget_kit
from retarget_kit import errors

PUBLIC_API = [
    "Codebook",
    "CorrespondencePair",
    "CorrespondenceSet",
    "FeatureMatrix",
    "Joint",
    "JointTrajectory",
    "KeypointFrame",
    "Marker",
    "Motion",
    "Pose",
    "RetargetOptions",
    "RetargetReport",
    "Rotation",
    "Skeleton",
    "TokenSequence",
    "TrajectoryPair",
    "accel_err",
    "asset_path",
    "assign",
    "build_pose_features",
    "check_limits",
    "diversity",
    "ema_update",
    "errors",
    "feature_dimension",
    "fid",
    "fk",
    "keypoint_motion",
    "load_codebook",
    "load_correspondence",
    "load_example_correspondence",
    "load_example_skeleton",
    "load_feature_matrix",
    "load_motion",
    "load_skeleton",
    "load_tokens",
    "mm_dist",
    "mpjpe",
    "multimodality",
    "procrustes",
    "r_precision",
    "reconstruct_frame",
    "reconstruct_sequence",
    "reset_dead_codes",
    "retarget_frame",
    "retarget_sequence",
    "retrieval_ranks",
    "save_codebook",
    "save_correspondence",
    "save_feature_matrix",
    "save_motion",
    "save_report",
    "save_skeleton",
    "save_tokens",
    "success_rate",
    "top_k_share",
    "trajectory_motion",
    "vel_err",
]

# A subclass exists only where package code catches it by type or reads an attribute it carries.
ERROR_CLASSES = ["NumericError", "ParseError", "RetargetKitError", "ValidationError"]

# The parameter names of every public function and of every public class's constructor.
PARAMETERS = {
    "Codebook": ("entries", "ema_counts", "ema_sums", "decay", "epsilon", "usage"),
    "CorrespondencePair": ("human", "robot", "position_weight", "orientation_weight"),
    "CorrespondenceSet": ("pairs", "scale"),
    "FeatureMatrix": ("values", "labels"),
    "Joint": ("name", "parent", "offset", "dof", "axis", "limits", "meta"),
    "JointTrajectory": ("fps", "poses", "skeleton"),
    "KeypointFrame": ("positions", "labels"),
    "Marker": ("name", "joint", "offset"),
    "Motion": ("fps", "kind", "skeleton", "labels", "keypoints", "trajectory"),
    "Pose": ("root_position", "root_orientation", "joint_values"),
    "RetargetOptions": (
        "limit_weight", "smoothness_weight", "reference_weight", "max_iterations", "gradient_tol",
        "warm_start",
    ),
    "RetargetReport": (
        "objective", "iterations", "termination", "residual_evals", "jacobian_evals",
        "position_residuals", "orientation_residuals", "limit_violation_count", "objective_trace",
        "damping", "projection_displacement",
    ),
    "Rotation": ("matrix",),
    "Skeleton": ("joints", "markers", "name"),
    "TokenSequence": ("indices", "downsample_factor"),
    "TrajectoryPair": ("reference", "executed", "fps", "heights"),
    "accel_err": ("pair",),
    "asset_path": ("name",),
    "assign": ("codebook", "latents", "downsample_factor"),
    "build_pose_features": ("skeleton", "poses", "fps", "contact_threshold"),
    "check_limits": ("skeleton", "pose"),
    "diversity": ("features", "pair_count", "seed"),
    "ema_update": ("codebook", "latents", "assignments"),
    "feature_dimension": ("skeleton",),
    "fid": ("a", "b"),
    "fk": ("skeleton", "pose"),
    "keypoint_motion": ("frames", "labels", "fps", "skeleton"),
    "load_codebook": ("path",),
    "load_correspondence": ("path", "human_skeleton", "robot_skeleton"),
    "load_example_correspondence": ("name", "human_skeleton", "robot_skeleton"),
    "load_example_skeleton": ("name",),
    "load_feature_matrix": ("path",),
    "load_motion": ("path",),
    "load_skeleton": ("path",),
    "load_tokens": ("path",),
    "mm_dist": ("text_features", "motion_features"),
    "mpjpe": ("pair",),
    "multimodality": ("features", "pairs_per_group", "seed"),
    "procrustes": ("template_cols", "observed_cols"),
    "r_precision": ("text_features", "motion_features", "pool_size", "top_k", "seed"),
    "reconstruct_frame": ("skeleton", "frame"),
    "reconstruct_sequence": ("skeleton", "frames", "labels", "fps", "hemisphere_continuity"),
    "reset_dead_codes": ("codebook", "latents", "usage_threshold"),
    "retarget_frame": (
        "human_skeleton", "human_pose", "robot_skeleton", "corr", "opts", "warm_start", "smooth_to",
    ),
    "retarget_sequence": ("human_skeleton", "human_poses", "robot_skeleton", "corr", "opts"),
    "retrieval_ranks": ("text_features", "motion_features", "pool_size", "seed"),
    "save_codebook": ("codebook", "path", "binary_sidecar"),
    "save_correspondence": ("corr", "path"),
    "save_feature_matrix": ("features", "path", "binary_sidecar"),
    "save_motion": ("motion", "path"),
    "save_report": ("report", "path"),
    "save_skeleton": ("skeleton", "path"),
    "save_tokens": ("tokens", "path"),
    "success_rate": ("pairs", "height_threshold"),
    "top_k_share": ("ranks", "top_k"),
    "trajectory_motion": ("trajectory",),
    "vel_err": ("pair",),
}


def test_all_is_the_pinned_list():
    assert sorted(retarget_kit.__all__) == PUBLIC_API


def test_all_has_no_duplicates():
    assert len(set(retarget_kit.__all__)) == len(retarget_kit.__all__)


def test_every_public_name_resolves():
    missing = [name for name in retarget_kit.__all__ if not hasattr(retarget_kit, name)]
    assert missing == []


def test_parameter_names_are_pinned():
    public = {name: getattr(retarget_kit, name) for name in retarget_kit.__all__}
    got = {
        name: tuple(inspect.signature(obj).parameters)
        for name, obj in public.items() if not inspect.ismodule(obj)
    }
    assert got == PARAMETERS


def test_error_classes_are_pinned():
    got = [
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    ]
    assert sorted(got) == ERROR_CLASSES


def test_every_error_has_one_exit_code():
    # The CLI exits 2 on a ValidationError and 3 on a NumericError; a class that is
    # neither, or both, would have no exit code or two.
    for name in ERROR_CLASSES:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.RetargetKitError), name
        if cls is not errors.RetargetKitError:
            families = [issubclass(cls, f) for f in (errors.ValidationError, errors.NumericError)]
            assert families.count(True) == 1, name
