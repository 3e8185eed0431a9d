"""The package's public names, pinned: adding or removing one edits this list in the same diff."""

import retarget_kit

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


def test_all_is_the_pinned_list():
    assert sorted(retarget_kit.__all__) == PUBLIC_API


def test_all_has_no_duplicates():
    assert len(set(retarget_kit.__all__)) == len(retarget_kit.__all__)


def test_every_public_name_resolves():
    missing = [name for name in retarget_kit.__all__ if not hasattr(retarget_kit, name)]
    assert missing == []
