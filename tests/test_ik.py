import numpy as np
import pytest

from retarget_kit import (
    KeypointFrame,
    Pose,
    Rotation,
    load_example_skeleton,
    reconstruct_frame,
    reconstruct_sequence,
)
from retarget_kit import ik
from retarget_kit.errors import ValidationError
from retarget_kit.ik import _rotvec_quat
from retarget_kit.rotations import _exp_stack, _rotvec_stack
from retarget_kit.skeleton import Joint, JointTrajectory, Skeleton, fk

from conftest import (
    joint_walk_reconstruct,
    joint_walk_sequence,
    make_humanlike,
    make_random_tree,
    random_rotation,
    scalar_procrustes,
    scalar_rodrigues_align,
    twist_free_pose,
    zero_pose,
)


# --- frame-by-frame reference --------------------------------------------
# The per-joint, per-frame reconstruction and continuity loop that the
# batched code replaced. Its float operations are what every batched output
# must reproduce bit for bit.


def frame_walk_reconstruct(skeleton, frame):
    row = {label: i for i, label in enumerate(frame.labels)}
    kp = frame.positions[[row[j.name] for j in skeleton.joints]]
    nj = len(skeleton.joints)
    children = [[c for c in range(nj) if skeleton.parent_index[c] == i] for i in range(nj)]
    world = np.tile(np.eye(3), (nj, 1, 1))
    values = np.zeros(skeleton.total_dof)
    root_orientation = Rotation.identity()
    for i, joint in enumerate(skeleton.joints):
        ch = children[i]
        p = skeleton.parent_index[i]
        parent_world = world[p] if p >= 0 else np.eye(3)
        if not ch:
            world[i] = parent_world
            continue
        templates = np.column_stack([skeleton.joints[c].offset for c in ch])
        observed = np.column_stack([parent_world.T @ (kp[c] - kp[i]) for c in ch])
        if len(ch) == 1:
            local = scalar_rodrigues_align(templates[:, 0], observed[:, 0])
        else:
            local = scalar_procrustes(templates, observed)
        world[i] = parent_world @ local.matrix
        if p < 0:
            root_orientation = local
        else:
            values[skeleton.dof_slices[i]] = local.as_rotvec()
    return Pose(kp[0], root_orientation, values)


def scalar_rotvec_quat(v):
    angle = np.linalg.norm(v)
    if angle < 1e-12:
        return np.array([1.0, 0.0, 0.0, 0.0])
    half = angle / 2.0
    return np.concatenate([[np.cos(half)], np.sin(half) / angle * v])


def scalar_flip_rotvec(v):
    angle = np.linalg.norm(v)
    if angle < 1e-12:
        return v
    return (angle - 2.0 * np.pi) / angle * v


def spherical_cols_below_root(skeleton):
    """The (S, 3) value columns of every spherical joint below the root, which
    `frame_walk_continuity` walks."""
    return np.array([
        range(sl.start, sl.stop) for j, p, sl in
        zip(skeleton.joints, skeleton.parent_index, skeleton.dof_slices)
        if j.dof == "spherical" and p >= 0
    ])


def frame_walk_continuity(skeleton, values, quat=scalar_rotvec_quat):
    """The frame-by-frame hemisphere pass over (T, DoF) values, in place."""
    for i, joint in enumerate(skeleton.joints):
        if joint.dof != "spherical" or skeleton.parent_index[i] < 0:
            continue
        sl = skeleton.dof_slices[i]
        prev = quat(values[0, sl])
        for v in values[1:, sl]:
            q = quat(v)
            if np.dot(prev, q) < 0:
                v[...] = scalar_flip_rotvec(v)
                q = -q
            prev = q


def frame_walk_sequence(skeleton, frames, continuity=True):
    poses = [frame_walk_reconstruct(skeleton, f) for f in frames]
    values = np.array([p.joint_values for p in poses])
    if continuity:
        frame_walk_continuity(skeleton, values)
    return [Pose(p.root_position, p.root_orientation, v) for p, v in zip(poses, values)]


def assert_poses_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.root_position, b.root_position)
        assert np.array_equal(a.root_orientation.matrix, b.root_orientation.matrix)
        assert np.array_equal(a.joint_values, b.joint_values)


def keypoints_of(skeleton, pose):
    res = fk(skeleton, pose)
    return KeypointFrame(res.positions, tuple(j.name for j in skeleton.joints))


def reconstruct_frames(skeleton, frames, **kwargs):
    """`reconstruct_sequence` of KeypointFrames that share one label order."""
    kp = np.array([f.positions for f in frames])
    return reconstruct_sequence(skeleton, kp, frames[0].labels, **kwargs)


def bone_direction_errors(skeleton, pose, frame):
    """Max angle between FK-predicted and observed bone directions."""
    res = fk(skeleton, pose)
    kp = {label: p for label, p in zip(frame.labels, frame.positions)}
    worst = 0.0
    for i, joint in enumerate(skeleton.joints[1:], start=1):
        p = skeleton.parent_index[i]
        obs = kp[joint.name] - kp[skeleton.joints[p].name]
        pred = res.positions[i] - res.positions[p]
        if np.linalg.norm(obs) < 1e-8:
            continue
        cosang = np.dot(obs, pred) / (np.linalg.norm(obs) * np.linalg.norm(pred))
        worst = max(worst, np.arccos(np.clip(cosang, -1, 1)))
    return worst


class TestReconstructFrame:
    def test_zero_pose_round_trip(self):
        skel = make_humanlike()
        pose = reconstruct_frame(skel, keypoints_of(skel, zero_pose(skel)))
        assert np.allclose(pose.root_position, 0)
        assert np.allclose(pose.root_orientation.matrix, np.eye(3), atol=1e-9)
        assert np.allclose(pose.joint_values, 0, atol=1e-9)

    def test_recovers_twist_free_pose(self, rng):
        skel = make_humanlike(n_chains=4, chain_len=3)
        for _ in range(20):
            pose = twist_free_pose(skel, rng)
            rec = reconstruct_frame(skel, keypoints_of(skel, pose))
            assert np.max(np.abs(rec.joint_values - pose.joint_values)) <= 1e-6

    def test_multi_child_procrustes_rotation(self, rng):
        skel = make_humanlike(n_chains=3)
        r0 = random_rotation(rng)
        kp = keypoints_of(skel, zero_pose(skel))
        # rigidly rotate everything about the root
        rotated = KeypointFrame(kp.positions @ r0.matrix.T, kp.labels)
        rec = reconstruct_frame(skel, rotated)
        # the rotation angle of R^T R0 in [0, pi]
        cos = (np.trace(rec.root_orientation.matrix.T @ r0.matrix) - 1.0) / 2.0
        assert np.arccos(np.clip(cos, -1.0, 1.0)) <= 1e-9
        assert np.allclose(rec.joint_values, 0, atol=1e-9)

    def test_direction_fidelity_on_mismatched_lengths(self, rng):
        # Observed bones longer than the rest offsets: directions still match.
        skel = make_humanlike()
        pose = twist_free_pose(skel, rng)
        res = fk(skel, pose)
        scaled = KeypointFrame(
            res.positions[0] + 1.7 * (res.positions - res.positions[0]),
            tuple(j.name for j in skel.joints),
        )
        rec = reconstruct_frame(skel, scaled)
        assert bone_direction_errors(skel, rec, scaled) <= 1e-6

    def test_translation_invariance(self, rng):
        skel = make_humanlike()
        pose = twist_free_pose(skel, rng)
        frame = keypoints_of(skel, pose)
        shift = rng.normal(size=3)
        shifted = KeypointFrame(frame.positions + shift, frame.labels)
        a = reconstruct_frame(skel, frame)
        b = reconstruct_frame(skel, shifted)
        assert np.allclose(b.root_position - a.root_position, shift, atol=1e-12)
        assert np.allclose(a.joint_values, b.joint_values, atol=1e-12)

    def test_rotation_about_root_changes_only_orientation(self, rng):
        skel = make_humanlike()
        pose = twist_free_pose(skel, rng)
        frame = keypoints_of(skel, pose)
        q = random_rotation(rng)
        rotated = KeypointFrame(
            (frame.positions - frame.positions[0]) @ q.matrix.T + frame.positions[0],
            frame.labels,
        )
        a = reconstruct_frame(skel, frame)
        b = reconstruct_frame(skel, rotated)
        assert np.allclose(a.joint_values, b.joint_values, atol=1e-9)
        assert (
            np.linalg.norm((q @ a.root_orientation).matrix - b.root_orientation.matrix)
            <= 1e-9
        )

    def test_degenerate_bone(self):
        skel = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint("a", "root", [0, 1, 0], dof="spherical"),
            ]
        )
        frame = KeypointFrame(np.zeros((2, 3)), ("root", "a"))
        with pytest.raises(ValidationError, match=r"^frame 0, joint 'root' → 'a': bone norms"):
            reconstruct_frame(skel, frame)

    def test_collinear_children_rank_deficient(self):
        skel = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint("a", "root", [0, 1, 0], dof="spherical"),
                Joint("b", "root", [0, 2, 0], dof="spherical"),
            ]
        )
        frame = KeypointFrame(
            np.array([[0, 0, 0], [0, 1, 0], [0, 2, 0]], dtype=float), ("root", "a", "b")
        )
        with pytest.raises(ValidationError, match="'a', 'b': cross-covariance rank < 2"):
            reconstruct_frame(skel, frame)


class TestReconstructSequence:
    def test_constant_sequence(self, rng):
        skel = make_humanlike()
        pose = twist_free_pose(skel, rng)
        frames = [keypoints_of(skel, pose)] * 5
        traj = reconstruct_frames(skel, frames)
        assert traj.fps == 30.0  # the default
        poses = traj.poses
        for p in poses:
            assert np.allclose(p.joint_values, poses[0].joint_values)

    def test_empty_raises(self):
        skel = make_humanlike()
        with pytest.raises(ValidationError, match="^empty keypoint sequence$"):
            reconstruct_sequence(skel, np.zeros((0, len(skel.joints), 3)), labels_of(skel))

    @pytest.mark.parametrize("fps", [float("nan"), 0.0, -30.0, True])
    def test_fps_checked_before_the_walk(self, rng, monkeypatch, fps):
        def walk(*args):
            raise AssertionError("walked the keypoints")

        monkeypatch.setattr(ik, "_reconstruct", walk)
        skel = make_humanlike()
        frames = [keypoints_of(skel, twist_free_pose(skel, rng)) for _ in range(3)]
        with pytest.raises(ValidationError, match="^fps must be positive, got "):
            reconstruct_frames(skel, frames, fps=fps)

    def test_fk_round_trip_per_frame(self, rng):
        skel = make_humanlike(n_chains=4)
        frames = []
        truth = []
        for _ in range(10):
            pose = twist_free_pose(skel, rng)
            truth.append(pose)
            frames.append(keypoints_of(skel, pose))
        poses = reconstruct_frames(skel, frames, hemisphere_continuity=False).poses
        for rec, ref in zip(poses, truth):
            assert np.max(np.abs(rec.joint_values - ref.joint_values)) <= 1e-6

    def test_double_cover_continuity(self):
        # One joint swinging through pi: raw per-frame angles jump hemisphere.
        skel = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint("a", "root", [1, 0, 0], dof="spherical"),
                Joint("b", "root", [0, 1, 0], dof="spherical"),
                Joint("c", "a", [0, 1, 0], dof="spherical"),
            ]
        )
        frames = []
        for angle in np.linspace(0.0, 1.9 * np.pi, 40):
            values = np.zeros(skel.total_dof)
            values[skel.dof_slices[skel.index["a"]]] = [angle, 0, 0]
            pose = Pose(np.zeros(3), Rotation.identity(), values)
            frames.append(keypoints_of(skel, pose))
        poses = reconstruct_frames(skel, frames).poses
        sl = skel.dof_slices[skel.index["a"]]
        quats = [_rotvec_quat(p.joint_values[sl]) for p in poses]
        for qa, qb in zip(quats, quats[1:]):
            assert np.dot(qa, qb) >= 0

    def test_idempotence_through_fk(self, rng):
        skel = make_humanlike(n_chains=4)
        pose = twist_free_pose(skel, rng)
        frame = keypoints_of(skel, pose)
        rec = reconstruct_frame(skel, frame)
        res = fk(skel, rec)
        assert np.max(np.linalg.norm(res.positions - frame.positions, axis=1)) <= 1e-6


def labels_of(skeleton):
    return tuple(j.name for j in skeleton.joints)


def random_frames(skeleton, rng, n, scale, noise=0.01):
    """Noisy keypoints of random poses; large scales reach every quaternion branch."""
    frames = []
    for _ in range(n):
        values = scale * rng.normal(size=skeleton.total_dof)
        pose = Pose(rng.normal(size=3), random_rotation(rng), values)
        pos = fk(skeleton, pose).positions
        frames.append(KeypointFrame(pos + noise * rng.normal(size=pos.shape), labels_of(skeleton)))
    return frames


def swinging_frames(skeleton, rng, n, amplitude):
    """Smooth joint motion swinging through pi, so the continuity pass flips hemispheres."""
    phase = rng.uniform(0.0, 2.0 * np.pi, size=skeleton.total_dof)
    root = random_rotation(rng)
    return [
        KeypointFrame(
            fk(skeleton, Pose(np.zeros(3), root, amplitude * np.sin(0.2 * t + phase))).positions,
            labels_of(skeleton),
        )
        for t in range(n)
    ]


def oracle_skeleton(name, rng):
    if name == "human_24":
        return load_example_skeleton(name)
    if name == "humanlike":
        return make_humanlike(n_chains=4, chain_len=3)
    return make_random_tree(rng, 14)


def stick():
    """root -> a -> b -> c -> d, every bone of the rest pose along +y but the last."""
    return Skeleton(
        [
            Joint("root", None, [0, 0, 0]),
            Joint("a", "root", [0, 1, 0], dof="spherical"),
            Joint("b", "a", [0, 1, 0], dof="spherical"),
            Joint("c", "b", [0, 1, 0], dof="spherical"),
            Joint("d", "c", [1, 0, 0], dof="spherical"),
        ]
    )


class TestBatchedMatchesFrameWalk:
    @pytest.mark.parametrize("continuity", [True, False])
    @pytest.mark.parametrize("name", ["human_24", "humanlike", "random_tree"])
    def test_sequence(self, rng, name, continuity):
        skel = oracle_skeleton(name, rng)
        frames = swinging_frames(skel, rng, 40, 2.8) + random_frames(skel, rng, 30, 1.5)
        got = reconstruct_frames(skel, frames, hemisphere_continuity=continuity).poses
        assert_poses_equal(got, frame_walk_sequence(skel, frames, continuity))

    @pytest.mark.parametrize("name", ["human_24", "humanlike", "random_tree"])
    def test_single_frame(self, rng, name):
        skel = oracle_skeleton(name, rng)
        for frame in random_frames(skel, rng, 10, 2.0):
            want = frame_walk_reconstruct(skel, frame)
            assert_poses_equal([reconstruct_frame(skel, frame)], [want])

    def test_exactly_parallel_and_antiparallel_bones(self, rng):
        skel = stick()
        labels = labels_of(skel)
        crafted = [
            # root and a see their bones exactly parallel; b sees its bone exactly reversed
            [[0, 0, 0], [0, 1, 0], [0, 2, 0], [0, 1, 0], [0, 1, 1]],
            # the root's own bone reversed, the rest straight on from there
            [[0, 0, 0], [0, -1, 0], [0, -2, 0], [0, -3, 0], [0.5, -3, 0]],
            # the rest pose: every bone parallel, every rotation the identity
            [[0, 0, 0], [0, 1, 0], [0, 2, 0], [0, 3, 0], [1, 3, 0]],
            # an exactly reversed bone that is not along a coordinate axis
            [[0, 0, 0], [0, 1, 0], [0.6, 1.8, 0], [0, 1, 0], [0, 0, 0.3]],
        ]
        frames = [KeypointFrame(np.array(kp, dtype=float), labels) for kp in crafted]
        frames += random_frames(skel, rng, 4, 1.0, noise=0.0)
        frames = frames + frames[::-1]
        for continuity in (True, False):
            got = reconstruct_frames(skel, frames, hemisphere_continuity=continuity).poses
            assert_poses_equal(got, frame_walk_sequence(skel, frames, continuity))
        rec = reconstruct_frame(skel, frames[0])
        assert np.array_equal(rec.root_orientation.matrix, np.eye(3))
        assert np.array_equal(rec.joint_values[:3], np.zeros(3))  # joint a: bone a -> b parallel
        assert np.linalg.norm(rec.joint_values[3:6]) == pytest.approx(np.pi)  # b: reversed


def joint_order_keypoints(skeleton, rng, n, scale=1.0):
    """(n, J, 3) noisy keypoints of random poses, in skeleton joint order."""
    trajectory = JointTrajectory.from_arrays(
        30.0,
        rng.normal(size=(n, 3)),
        _exp_stack(rng.normal(size=(n, 3))),
        scale * rng.normal(size=(n, skeleton.total_dof)),
    )
    kp = fk(skeleton, trajectory).positions
    return kp + 0.01 * rng.normal(size=kp.shape)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def assert_matches_joint_walk(skel, kp):
    root, values = ik._reconstruct(skel, kp)
    want_root, want_values = joint_walk_reconstruct(skel, kp)
    assert np.array_equal(bits(root), bits(want_root))
    assert np.array_equal(bits(values), bits(want_values))


class TestLevelWalkMatchesJointWalk:
    """The level walk against the joint-by-joint walk it replaced, bit for bit."""

    @pytest.mark.parametrize("frames", [1, 12, 30, 500])
    @pytest.mark.parametrize("name", ["human_24", "humanlike", "random_tree", "stick"])
    def test_bit_for_bit(self, rng, name, frames):
        skel = stick() if name == "stick" else oracle_skeleton(name, rng)
        assert_matches_joint_walk(skel, joint_order_keypoints(skel, rng, frames, scale=1.5))

    def test_random_trees(self, rng):
        for tree in make_random_tree, with_mixed_leaves:
            for size in [1, 2, 3, 5, 8, 13, 21, 30]:
                skel = tree(rng, size)
                assert_matches_joint_walk(skel, joint_order_keypoints(skel, rng, 7, scale=2.0))


    def test_leaves_keep_the_identity_without_a_conversion(self, rng, monkeypatch):
        # human_24 has 23 spherical joints below the root, 5 of them leaves: only
        # the 18 with children are converted to rotation vectors, per frame.
        skel, seen = load_example_skeleton("human_24"), []

        def rotvec_stack(m):
            seen.append(len(m))
            return _rotvec_stack(m)

        monkeypatch.setattr(ik, "_rotvec_stack", rotvec_stack)
        for frames in (1, 7):
            assert_matches_joint_walk(skel, joint_order_keypoints(skel, rng, frames))
        assert seen == [18, 18 * 7]


def with_mixed_leaves(rng, size):
    """A random tree with a spherical root and each leaf fixed, revolute or spherical
    at random: every leaf keeps the identity, and only spherical ones have values."""
    skel, joints = make_random_tree(rng, size), []
    for i, j in enumerate(skel.joints):
        dof = "spherical"
        if i and i not in skel.parent_index:
            dof = str(rng.choice(["fixed", "revolute", "spherical"]))
        axis = rng.normal(size=3)
        axis = axis / np.linalg.norm(axis) if dof == "revolute" else None
        joints.append(Joint(j.name, j.parent, j.offset, dof, axis))
    return Skeleton(joints)


def branching_chain():
    """root -> a -> b -> c -> d and root -> x -> y: c is deeper than x but first in
    skeleton order."""
    return Skeleton(
        [
            Joint("root", None, [0, 0, 0]),
            Joint("a", "root", [0, 1, 0], dof="spherical"),
            Joint("b", "a", [0, 1, 0.2], dof="spherical"),
            Joint("c", "b", [0.2, 1, 0], dof="spherical"),
            Joint("d", "c", [0, 1, 0], dof="spherical"),
            Joint("x", "root", [1, 0, 0], dof="spherical"),
            Joint("y", "x", [1, 0, 0.3], dof="spherical"),
        ]
    )


def collapsed(skel, kp, t, joint):
    """Keypoints with joint's keypoint at frame t moved onto its parent's."""
    kp = kp.copy()
    kp[t, skel.index[joint]] = kp[t, skel.parent_index[skel.index[joint]]]
    return kp


def error_of(call):
    with pytest.raises(ValidationError, match="bone norms|cross-covariance rank") as e:
        call()
    return e.type, str(e.value)


class TestLevelWalkErrors:
    """The level walk's errors are the joint-by-joint walk's, byte for byte."""

    def test_deeper_joint_first_in_skeleton_order(self, rng):
        skel = branching_chain()
        kp = joint_order_keypoints(skel, rng, 5, scale=0.3)
        kp = collapsed(skel, kp, 3, "d")  # joint c (depth 3) fails ...
        kp = collapsed(skel, kp, 3, "y")  # ... and so does joint x (depth 1), met first
        kp = collapsed(skel, kp, 4, "b")
        want = error_of(lambda: joint_walk_sequence(skel, kp))
        assert want[1].startswith("frame 3, joint 'c' → 'd': bone norms ")
        assert error_of(lambda: reconstruct_sequence(skel, kp, labels_of(skel))) == want
        frame = KeypointFrame(kp[3], labels_of(skel))
        assert error_of(lambda: reconstruct_frame(skel, frame)) == error_of(
            lambda: joint_walk_sequence(skel, kp[3:4])
        )

    @pytest.mark.parametrize("name", ["human_24", "humanlike", "random_tree", "branching"])
    def test_random_collapses(self, rng, name):
        skel = branching_chain() if name == "branching" else oracle_skeleton(name, rng)
        labels, failed = labels_of(skel), 0
        for _ in range(25):
            kp = joint_order_keypoints(skel, rng, 6, scale=0.5)
            for _ in range(rng.integers(1, 5)):
                joint = skel.joints[rng.integers(1, len(skel.joints))].name
                kp = collapsed(skel, kp, rng.integers(6), joint)
            try:
                root, values = joint_walk_sequence(skel, kp)
            except ValidationError as e:
                want = type(e), str(e)
                assert error_of(lambda: reconstruct_sequence(skel, kp, labels)) == want
                failed += 1
            else:  # the collapsed bones left every joint observable
                got = reconstruct_sequence(skel, kp, labels, hemisphere_continuity=False)
                assert np.array_equal(bits(got.root_rotations), bits(root))
                assert np.array_equal(bits(got.joint_values), bits(values))
        assert failed >= 10


class TestArrayInput:
    def test_matches_keypoint_frames(self, rng):
        skel = load_example_skeleton("human_24")
        frames = swinging_frames(skel, rng, 20, 2.8) + random_frames(skel, rng, 10, 1.5)
        perm = rng.permutation(len(skel.joints))
        labels = tuple(labels_of(skel)[i] for i in perm)
        kp = np.array([f.positions[perm] for f in frames])
        for continuity in (True, False):
            got = reconstruct_sequence(
                skel, kp, labels, fps=12.5, hemisphere_continuity=continuity
            )
            assert (got.fps, got.skeleton) == (12.5, skel.name)
            assert_poses_equal(got.poses, frame_walk_sequence(skel, frames, continuity))
        kp[0, 0] = 99.0
        assert got.root_positions[0, 0] != 99.0  # the trajectory holds its own copy

    def test_labels_follow_the_label_rule(self):
        # A missing or list-valued label tuple once raised a raw ValueError or TypeError.
        skel = stick()
        kp = np.zeros((2, len(skel.joints), 3))
        message = "^labels must be a list or tuple of strings, got "
        with pytest.raises(ValidationError, match=message + "None$"):
            reconstruct_sequence(skel, kp, None)
        with pytest.raises(ValidationError, match=message):
            reconstruct_sequence(skel, kp, [[name] for name in labels_of(skel)])
        with pytest.raises(ValidationError, match=message):
            KeypointFrame(np.zeros((2, 3)), [["a"], ["b"]])
        assert KeypointFrame(np.zeros((1, 3)), ["a"]).labels == ("a",)

    @pytest.mark.parametrize(
        "shape, labels, message",
        [
            ((0, 4, 3), 4, "empty keypoint sequence"),
            ((2, 4, 3), 3, r"keypoints: expected shape \(None, 3, 3\), got \(2, 4, 3\)"),
            ((2, 4, 2), 4, r"keypoints: expected shape \(None, 4, 3\)"),
            ((4, 3), 4, r"keypoints: expected shape \(None, 4, 3\)"),
        ],
    )
    def test_shape_checks(self, shape, labels, message):
        skel = stick()
        with pytest.raises(ValidationError, match=message):
            reconstruct_sequence(skel, np.zeros(shape), labels_of(skel)[:labels])

    def test_non_finite_and_unknown_labels(self, rng):
        skel = stick()
        kp = np.array([f.positions for f in random_frames(skel, rng, 3, 1.0)])
        labels = labels_of(skel)
        bad = kp.copy()
        bad[2, 1, 0] = np.nan
        with pytest.raises(ValidationError, match="keypoints contains NaN or infinity"):
            reconstruct_sequence(skel, bad, labels)
        with pytest.raises(ValidationError, match="missing joint 'd'"):
            reconstruct_sequence(skel, kp, labels[:-1] + ("e",))

    def test_errors_name_frame_and_joint(self, rng):
        skel = make_humanlike()
        frames = humanlike_frames(skel, rng, 6)
        frames[4] = collapse(frames[4], skel, "c1_1", "c1_0")
        kp = np.array([f.positions for f in frames])
        with pytest.raises(ValidationError, match=r"^frame 4, joint 'c1_0' → 'c1_1': bone norms"):
            reconstruct_sequence(skel, kp, labels_of(skel))


class TestContinuityPass:
    def test_matches_frame_walk_on_crafted_vectors(self, rng):
        skel = make_humanlike(n_chains=2, chain_len=3)
        crafted = [
            np.zeros(3),
            np.array([1e-13, -2e-13, 0.0]),  # shorter than 1e-12: quaternion (1, 0, 0, 0)
            np.array([0.0, 0.0, 5e-13]),
            np.array([np.pi, 0.0, 0.0]),
            np.array([0.0, -np.pi, 0.0]),
            np.array([np.nextafter(np.pi, 0.0), 0.0, 0.0]),
            np.array([0.0, 0.0, np.nextafter(np.pi, 4.0)]),
            np.array([-np.pi + 1e-9, 0.0, 0.0]),
            np.array([2.0, 2.0, 1.0]),  # longer than pi
            np.array([-0.1, 0.2, 0.3]),
        ]
        picks = rng.integers(len(crafted), size=(60, skel.total_dof // 3))
        values = np.array([np.concatenate([crafted[k] for k in row]) for row in picks])
        values[20:40] += 1e-3 * rng.normal(size=values[20:40].shape)
        got, want = values.copy(), values.copy()
        ik._hemisphere_continuity(got, spherical_cols_below_root(skel))
        frame_walk_continuity(skel, want)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, values)  # some vectors were flipped

    def test_matches_frame_walk_on_500_random_frames(self, rng):
        skel = load_example_skeleton("human_24")
        values = 2.5 * rng.normal(size=(500, skel.total_dof))  # quaternions in either hemisphere
        values[100:200] = np.cumsum(0.3 * rng.normal(size=(100, skel.total_dof)), axis=0)
        values[300:310] = 0.0
        got, want = values.copy(), values.copy()
        ik._hemisphere_continuity(got, spherical_cols_below_root(skel))
        frame_walk_continuity(skel, want)
        assert np.array_equal(bits(got), bits(want))
        assert not np.array_equal(got, values)

    def test_raw_dot_of_exactly_zero_flips_neither_way(self, monkeypatch):
        # cos and sin give no rotation vectors with exactly orthogonal quaternions,
        # so stand-in quaternions (v, 1/2) make the exact dots: v = (-1, 0, 0)
        # against (1/4, 0, 0) gives -1/4 + 1/4 = 0, with the previous frame flipped.
        def quat(v):
            v = np.asarray(v, dtype=float)
            return np.concatenate([v, np.full(v.shape[:-1] + (1,), 0.5)], axis=-1)

        skel = stick()
        x = [0.5, -1.0, 0.25, 0.25, -2.0, 0.0, -0.25, 1.0, -0.25]
        values = np.zeros((len(x), skel.total_dof))
        values[:, 0] = x  # joint a
        values[:, 3] = x[::-1]  # joint b
        raw = [np.dot(quat([a, 0, 0]), quat([b, 0, 0])) for a, b in zip(x, x[1:])]
        assert 0.0 in raw and min(raw) < 0
        monkeypatch.setattr(ik, "_rotvec_quat", quat)
        got, want = values.copy(), values.copy()
        ik._hemisphere_continuity(got, spherical_cols_below_root(skel))
        frame_walk_continuity(skel, want, quat=quat)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, values)

    def test_reads_the_columns_the_walk_converts(self, rng, monkeypatch):
        # human_24 has 23 spherical joints below the root, and the walk converts
        # the 18 with children; the 5 leaves stay zero, so the pass reads 18.
        skel, seen = load_example_skeleton("human_24"), []

        def quat(v):
            seen.append(v.shape)
            return _rotvec_quat(v)

        monkeypatch.setattr(ik, "_rotvec_quat", quat)
        kp = joint_order_keypoints(skel, rng, 7, scale=2.0)
        got = reconstruct_sequence(skel, kp, labels_of(skel)).joint_values
        assert seen == [(7, 18, 3)]
        want = ik._reconstruct(skel, kp)[1]
        frame_walk_continuity(skel, want)
        assert np.array_equal(bits(got), bits(want))


def humanlike_frames(skel, rng, n):
    return [
        KeypointFrame(fk(skel, twist_free_pose(skel, rng)).positions, labels_of(skel))
        for _ in range(n)
    ]


def collapse(frame, skel, joint, onto):
    """The frame with one joint's keypoint moved onto another's: a zero-length bone."""
    pos = frame.positions.copy()
    pos[skel.index[joint]] = pos[skel.index[onto]]
    return KeypointFrame(pos, frame.labels)


class TestErrorsNameFrameAndJoint:
    def test_degenerate_bone(self, rng):
        skel = make_humanlike()
        frames = humanlike_frames(skel, rng, 10)
        frames[7] = collapse(frames[7], skel, "c1_1", "c1_0")
        with pytest.raises(ValidationError, match=r"^frame 7, joint 'c1_0' → 'c1_1': bone norms"):
            reconstruct_frames(skel, frames)

    def test_earliest_frame_then_first_joint(self, rng):
        skel = make_humanlike()
        frames = humanlike_frames(skel, rng, 8)
        # The batched walk meets joint c0_0 (frame 5) first; a frame walk meets frame 3.
        frames[5] = collapse(frames[5], skel, "c0_1", "c0_0")
        frames[3] = collapse(frames[3], skel, "c2_2", "c2_1")
        frames[3] = collapse(frames[3], skel, "c1_1", "c1_0")
        with pytest.raises(ValidationError, match=r"^frame 3, joint 'c1_0' → 'c1_1': bone norms"):
            reconstruct_frames(skel, frames)

    def test_rank_deficient(self, rng):
        skel = make_humanlike()
        frames = humanlike_frames(skel, rng, 4)
        for child in ("c0_0", "c1_0", "c2_0"):
            frames[2] = collapse(frames[2], skel, child, "root")
        with pytest.raises(
            ValidationError,
            match=r"^frame 2, joint 'root' → 'c0_0', 'c1_0', 'c2_0': cross-covariance rank < 2",
        ):
            reconstruct_frames(skel, frames)

    def test_single_frame_names_the_joint(self, rng):
        skel = make_humanlike()
        frame = collapse(humanlike_frames(skel, rng, 1)[0], skel, "c0_2", "c0_1")
        with pytest.raises(ValidationError, match=r"^frame 0, joint 'c0_1' → 'c0_2': bone norms"):
            reconstruct_frame(skel, frame)

    def test_spherical_joints_checked_before_any_work(self):
        skel = Skeleton(
            [
                Joint("root", None, [0, 0, 0]),
                Joint("a", "root", [0, 1, 0], dof="spherical"),
                Joint("b", "a", [0, 1, 0], dof="revolute", axis=[0, 0, 1]),
                Joint("c", "b", [0, 1, 0], dof="spherical"),
            ]
        )
        # The root's bone is degenerate, but the skeleton is checked first.
        frame = KeypointFrame(np.zeros((4, 3)), labels_of(skel))
        with pytest.raises(ValidationError, match="joint 'b' has dof 'revolute'"):
            reconstruct_frames(skel, [frame])
