"""The solver's analytic Jacobian against central differences of its residual."""

import numpy as np
import pytest

from retarget_kit import (
    CorrespondencePair,
    CorrespondenceSet,
    Pose,
    Rotation,
    RetargetOptions,
    load_example_correspondence,
    load_example_skeleton,
    retarget_frame,
)
from retarget_kit import retarget
from retarget_kit.skeleton import Joint, Skeleton

from conftest import make_humanlike, twist_free_pose

FD_STEP = 1e-6
REL_TOL = 1e-6
ONE_STEP = RetargetOptions(max_iterations=1)


def solver_functions(monkeypatch, *args, **kwargs):
    """(residual, jacobian) closures that retarget_frame(*args) hands the solver."""
    captured = {}
    real = retarget._gauss_newton

    def spy(residual_fn, jacobian_fn, x0, opts):
        captured["fns"] = residual_fn, jacobian_fn
        return real(residual_fn, jacobian_fn, x0, opts)

    monkeypatch.setattr(retarget, "_gauss_newton", spy)
    retarget_frame(*args, **kwargs)
    return captured["fns"]


def central_differences(residual_fn, x):
    cols = []
    for i in range(len(x)):
        h = np.zeros(len(x))
        h[i] = FD_STEP
        cols.append((residual_fn(x + h) - residual_fn(x - h)) / (2.0 * FD_STEP))
    return np.array(cols).T


def assert_matches_oracle(residual_fn, jacobian_fn, x):
    jac = jacobian_fn(x)
    oracle = central_differences(residual_fn, x)
    assert jac.shape == oracle.shape == (len(residual_fn(x)), len(x))
    assert np.max(np.abs(jac - oracle)) <= REL_TOL * np.max(np.abs(jac))
    return jac


def self_corr(skeleton, orientation_weight):
    return CorrespondenceSet(
        tuple(
            CorrespondencePair(j.name, j.name, 1.0, orientation_weight)
            for j in skeleton.joints[1:]
        ),
        scale=1.0,
    )


def orientation_errors(residual_fn, x, weight, n_terms):
    """Per-term orientation error norms; each term has 3 position and 3 orientation rows."""
    rows = residual_fn(x)[: 6 * n_terms].reshape(n_terms, 6)
    return np.linalg.norm(rows[:, 3:], axis=1) / np.sqrt(weight)


@pytest.mark.parametrize(
    "robot_name, map_name", [("h1_like_19", "human_to_h1"), ("g1_like_21", "human_to_g1")]
)
def test_bundled_robots(monkeypatch, rng, robot_name, map_name):
    # Wrist orientation terms from the map, plus smoothness and reference rows.
    human = load_example_skeleton("human_24")
    robot = load_example_skeleton(robot_name)
    corr = load_example_correspondence(map_name, human, robot)
    assert any(p.orientation_weight > 0 for p in corr.pairs)
    human_pose = Pose(
        rng.normal(size=3),
        Rotation.from_rotvec(rng.normal(size=3)),
        rng.normal(scale=0.4, size=human.total_dof),
    )
    residual_fn, jacobian_fn = solver_functions(
        monkeypatch, human, human_pose, robot, corr, ONE_STEP,
        smooth_to=rng.normal(size=robot.total_dof),
    )
    # position and orientation rows, two barrier rows per (limited) DoF,
    # then one smoothness and one reference row per DoF
    n_orientation = sum(p.orientation_weight > 0 for p in corr.pairs)
    n_rows = 3 * (len(corr.pairs) + n_orientation) + 4 * robot.total_dof
    assert len(residual_fn(np.zeros(robot.total_dof))) == n_rows
    for _ in range(3):
        assert_matches_oracle(residual_fn, jacobian_fn, rng.uniform(-2.5, 2.5, robot.total_dof))


def test_spherical_orientation_on_every_joint(monkeypatch, rng):
    skel = make_humanlike(n_chains=3, chain_len=3)
    residual_fn, jacobian_fn = solver_functions(
        monkeypatch, skel, twist_free_pose(skel, rng), skel, self_corr(skel, 0.7), ONE_STEP
    )
    for _ in range(3):
        assert_matches_oracle(residual_fn, jacobian_fn, rng.normal(size=skel.total_dof))


@pytest.mark.parametrize("root_dof", ["revolute", "spherical"])
def test_root_joint_with_dof(monkeypatch, rng, root_dof):
    axis = [0.0, 0.0, 1.0] if root_dof == "revolute" else None
    skel = Skeleton(
        [
            Joint("root", None, [0, 0, 0], dof=root_dof, axis=axis),
            Joint("a", "root", [0.3, 0.1, 0], dof="spherical"),
            Joint("b", "a", [0, 0.4, 0], dof="revolute", axis=[1, 0, 0]),
            Joint("c", "b", [0.1, 0.3, 0.2]),
        ]
    )
    corr = CorrespondenceSet(
        (
            CorrespondencePair("root", "root", 1.0, 0.5),
            CorrespondencePair("a", "a", 1.0, 0.5),
            CorrespondencePair("c", "c", 1.0, 0.5),
        ),
        scale=1.0,
    )
    human_pose = Pose(
        rng.normal(size=3), Rotation.from_rotvec(rng.normal(size=3)),
        rng.normal(size=skel.total_dof),
    )
    residual_fn, jacobian_fn = solver_functions(
        monkeypatch, skel, human_pose, skel, corr, ONE_STEP
    )
    jac = assert_matches_oracle(residual_fn, jacobian_fn, rng.normal(size=skel.total_dof))
    assert np.any(jac[:, : skel.joints[0].dof_count])


def test_revolute_barrier_at_both_limits(monkeypatch, rng):
    limits = ((-0.5, 0.5),)
    skel = Skeleton(
        [
            Joint("root", None, [0, 0, 0]),
            Joint("a", "root", [0, 1, 0], dof="revolute", axis=[0, 0, 1], limits=limits),
            Joint("b", "a", [0, 1, 0], dof="revolute", axis=[1, 0, 0], limits=limits),
            Joint("c", "b", [0, 1, 0]),
        ]
    )
    corr = CorrespondenceSet((CorrespondencePair("c", "c", 1.0),), scale=1.0)
    human_pose = Pose(np.zeros(3), Rotation.identity(), [1.2, -1.0])
    residual_fn, jacobian_fn = solver_functions(
        monkeypatch, skel, human_pose, skel, corr, ONE_STEP
    )
    x = np.array([0.7, -0.8])  # past the upper limit of a and the lower limit of b
    jac = assert_matches_oracle(residual_fn, jacobian_fn, x)
    w = np.sqrt(RetargetOptions().limit_weight)
    barrier = jac[3:7]  # rows: a upper, a lower, b upper, b lower
    assert np.array_equal(barrier, [[w, 0], [0, 0], [0, 0], [0, -w]])
    # An active lower row is -w times a gradient: -0.0 off its own column.
    assert np.array_equal(np.signbit(barrier), [[0, 0], [0, 0], [0, 0], [1, 1]])


def test_euler_limited_spherical_past_limits(monkeypatch, rng):
    limits = ((-0.3, 0.3), (-0.2, 0.2), (-0.1, 0.1))
    skel = Skeleton(
        [
            Joint("root", None, [0, 0, 0]),
            Joint("s", "root", [0, 1, 0], dof="spherical", limits=limits),
            Joint("tip", "s", [0.2, 1, 0]),
        ]
    )
    corr = CorrespondenceSet((CorrespondencePair("tip", "tip", 1.0),), scale=1.0)
    residual_fn, jacobian_fn = solver_functions(
        monkeypatch, skel, twist_free_pose(skel, rng), skel, corr, ONE_STEP
    )
    # intrinsic XYZ Euler angles (0.5, -0.4, 0.3): every DoF past its limit
    m = (
        Rotation.from_axis_angle([1, 0, 0], 0.5).matrix
        @ Rotation.from_axis_angle([0, 1, 0], -0.4).matrix
        @ Rotation.from_axis_angle([0, 0, 1], 0.3).matrix
    )
    jac = assert_matches_oracle(
        residual_fn, jacobian_fn, Rotation.from_matrix(m).as_rotvec()
    )
    assert np.all(np.any(jac[3:9].reshape(3, 2, 3) != 0, axis=(1, 2)))
    # (0.5, 0.1, 0): only the first angle is past its barrier, the other rows stay zero
    m = (
        Rotation.from_axis_angle([1, 0, 0], 0.5).matrix
        @ Rotation.from_axis_angle([0, 1, 0], 0.1).matrix
    )
    jac = assert_matches_oracle(
        residual_fn, jacobian_fn, Rotation.from_matrix(m).as_rotvec()
    )
    assert np.array_equal(np.any(jac[3:9].reshape(3, 2, 3) != 0, axis=(1, 2)), [1, 0, 0])


@pytest.mark.parametrize("angle", [1e-5, np.pi - 1e-3])
def test_orientation_error_near_zero_and_pi(monkeypatch, rng, angle):
    skel = Skeleton(
        [
            Joint("root", None, [0, 0, 0]),
            Joint("s", "root", [0, 1, 0], dof="spherical"),
            Joint("b", "s", [0, 1, 0], dof="revolute", axis=[0, 0, 1]),
            Joint("tip", "b", [0, 1, 0]),
        ]
    )
    corr = self_corr(skel, 0.5)
    truth = rng.normal(size=skel.total_dof)
    residual_fn, jacobian_fn = solver_functions(
        monkeypatch, skel, Pose(np.zeros(3), Rotation.identity(), truth), skel, corr, ONE_STEP
    )
    # Turn joint s away from the truth by `angle`, so every frame error has that size.
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    turned = Rotation.from_rotvec(truth[:3]).matrix @ Rotation.from_axis_angle(axis, angle).matrix
    x = truth.copy()
    x[:3] = Rotation(turned).as_rotvec()
    errors = orientation_errors(residual_fn, x, 0.5, len(corr.pairs))
    assert np.allclose(errors, angle, rtol=1e-6)
    assert_matches_oracle(residual_fn, jacobian_fn, x)
