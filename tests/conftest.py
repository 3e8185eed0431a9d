import numpy as np
import pytest
from hypothesis import settings

from retarget_kit import Rotation, rodrigues_align
from retarget_kit.errors import DegenerateBone, RankDeficient
from retarget_kit.rotations import _rodrigues_matrix
from retarget_kit.skeleton import Joint, Marker, Pose, Skeleton

# The same bounded examples on every run, locally and in CI: a property test
# either passes or fails, it does not come and go with the draw.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def random_rotation(rng):
    v = rng.normal(size=3)
    angle = rng.uniform(0, np.pi * 0.999)
    return Rotation.from_axis_angle(v / np.linalg.norm(v), angle)


def make_chain(offsets, dof="revolute", axis=(0, 0, 1), limits=None):
    """Simple serial chain root -> j1 -> j2 ... with the given offsets."""
    joints = [Joint("root", None, [0, 0, 0])]
    prev = "root"
    for i, off in enumerate(offsets):
        name = f"j{i + 1}"
        if dof == "revolute":
            joints.append(
                Joint(name, prev, off, dof="revolute", axis=axis, limits=limits or ())
            )
        else:
            joints.append(Joint(name, prev, off, dof=dof, limits=limits or ()))
        prev = name
    return Skeleton(joints)


def make_random_tree(rng, n_joints, dof="spherical"):
    """Random joint tree with parents drawn from earlier joints."""
    joints = [Joint("root", None, [0, 0, 0])]
    for i in range(1, n_joints):
        parent = joints[rng.integers(0, i)].name
        offset = rng.normal(size=3)
        offset /= np.linalg.norm(offset)
        offset *= rng.uniform(0.2, 0.5)
        joints.append(Joint(f"j{i}", parent, offset, dof=dof))
    return Skeleton(joints)


def make_humanlike(n_chains=3, chain_len=3, seg=0.3):
    """Small all-spherical tree: a root with several multi-joint limbs.

    Every internal joint has a non-collinear grandchild bone, so all
    rotations are observable from keypoint positions alone.
    """
    directions = [
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, -1.0, 0.0]),
        np.array([0.0, 0.3, 1.0]) / np.linalg.norm([0.0, 0.3, 1.0]),
        np.array([-1.0, 0.2, 0.0]) / np.linalg.norm([-1.0, 0.2, 0.0]),
    ]
    bend = [
        np.array([0.2, 0.0, 1.0]),
        np.array([1.0, 0.2, 0.0]),
        np.array([0.0, 1.0, 0.3]),
    ]
    joints = [Joint("root", None, [0, 0, 0])]
    for c in range(n_chains):
        prev = "root"
        d = directions[c % len(directions)]
        for k in range(chain_len):
            name = f"c{c}_{k}"
            off = seg * (d if k == 0 else bend[k % len(bend)] / np.linalg.norm(bend[k % len(bend)]))
            joints.append(Joint(name, prev, off, dof="spherical"))
            prev = name
    markers = [Marker("tip0", joints[-1].name, [0.05, 0, 0])]
    return Skeleton(joints, markers)


def twist_free_pose(skeleton, rng, max_angle=0.6):
    """Random pose recoverable from keypoints: multi-child joints get
    arbitrary rotations, single-child joints pure swing, leaves stay zero."""
    values = np.zeros(skeleton.total_dof)
    children = [[] for _ in skeleton.joints]
    for i, p in enumerate(skeleton.parent_index):
        if p >= 0:
            children[p].append(i)
    for i, joint in enumerate(skeleton.joints):
        if skeleton.parent_index[i] < 0 or joint.dof != "spherical":
            continue
        ch = children[i]
        if len(ch) == 1:
            t = skeleton.joints[ch[0]].offset
            target = random_rotation(rng).apply(t)
            values[skeleton.dof_slices[i]] = rodrigues_align(t, target).as_rotvec()
        elif len(ch) > 1:
            values[skeleton.dof_slices[i]] = rng.normal(size=3) * max_angle
    return Pose(rng.normal(size=3), random_rotation(rng), values)


# One-pair bone alignment and Procrustes as written before they became the
# n = 1 case of their stacked forms: the float operations those must keep.


def scalar_rodrigues_align(t, p, tol=1e-8):
    nt, np_ = np.linalg.norm(t), np.linalg.norm(p)
    if nt <= tol or np_ <= tol:
        raise DegenerateBone(f"bone norms {nt:.3e}, {np_:.3e} below {tol:.0e}")
    t_hat, p_hat = t / nt, p / np_
    c = float(np.clip(np.dot(t_hat, p_hat), -1.0, 1.0))
    cross = np.cross(t_hat, p_hat)
    s = np.linalg.norm(cross)
    if s < tol:
        if c > 0:
            return Rotation.identity()
        e = np.eye(3)[int(np.argmin(np.abs(t_hat)))]
        axis = e - np.dot(t_hat, e) * t_hat
        axis /= np.linalg.norm(axis)
        return Rotation(_rodrigues_matrix(axis, np.pi))
    return Rotation(_rodrigues_matrix(cross / s, np.arccos(c)))


def scalar_from_quat(q):
    """`Rotation.from_quat` as written before it became the n = 1 case of `_matrix_stack`."""
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def scalar_procrustes(t, p, rank_tol=1e-9):
    u, s, vt = np.linalg.svd(p @ t.T)
    if s[1] <= rank_tol * max(s[0], 1.0):
        raise RankDeficient(f"cross-covariance rank < 2 (singular values {s})")
    d = np.linalg.det(u @ vt)
    return Rotation((u * np.array([1.0, 1.0, d])) @ vt)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
