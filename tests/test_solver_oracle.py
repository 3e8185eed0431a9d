"""The solver's whole-array residual and Jacobian against the term-by-term reference.

`ReferenceTerms`, `reference_barrier_residual` and `reference_barrier_jacobian`
keep the solver's earlier code: orientation errors from one scalar
`as_rotvec` per framed term, scalar right Jacobians, the position rows as
nine per-component lever products, and limit values and Euler-angle
gradients joint by joint. The solver now builds the same term rows from
whole-array products and a float-level log map, so those agree to
rounding, not bit for bit; its limit rows must match bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retarget_kit import (
    CorrespondencePair,
    Pose,
    Rotation,
    fk,
    load_example_correspondence,
    load_example_skeleton,
)
from retarget_kit.retarget import (
    EULER_STEP,
    LIMIT_MARGIN,
    RetargetOptions,
    _Objective,
    _project_to_limits,
)
from retarget_kit.rotations import _log_floats, _right_jacobian, _right_jacobian_inv
from retarget_kit.skeleton import Joint, Skeleton, resolve_marker

from conftest import (
    barrier_objective,
    barrier_rows,
    joint_walk_limited_dofs,
    joint_walk_projection,
    objective_rows,
    random_rotation,
    scalar_as_rotvec,
    scalar_from_rotvec,
    scalar_hat,
    scalar_intrinsic_xyz_euler,
    scalar_rodrigues_matrix,
    twist_free_pose,
)

REL_TOL = 1e-12
EYE = np.eye(3)


def scalar_right_jacobian(phi):
    theta = np.linalg.norm(phi)
    k = scalar_hat(phi)
    if theta < 1e-4:
        a = 0.5 - theta * theta / 24.0
        b = 1.0 / 6.0 - theta * theta / 120.0
    else:
        a = (1.0 - np.cos(theta)) / (theta * theta)
        b = (theta - np.sin(theta)) / theta**3
    return EYE - a * k + b * (k @ k)


def scalar_right_jacobian_inv(phi):
    theta = np.linalg.norm(phi)
    k = scalar_hat(phi)
    if theta < 1e-4:
        c = 1.0 / 12.0 + theta * theta / 720.0
    else:
        c = 1.0 / (theta * theta) - 1.0 / (2.0 * theta * np.tan(0.5 * theta))
    return EYE + 0.5 * k + c * (k @ k)


class ReferenceTerms:
    """The term layout, residual and Jacobian as the solver computed them term by term."""

    def __init__(self, skeleton, terms):
        keep = []
        framed = []
        for t, (pair, _, _, frame) in enumerate(terms):
            if pair.position_weight > 0:
                keep += [6 * t, 6 * t + 1, 6 * t + 2]
            if frame is not None:
                keep += [6 * t + 3, 6 * t + 4, 6 * t + 5]
                framed.append((t, np.sqrt(pair.orientation_weight), frame))
        self.plan = skeleton._plan
        self.joint = np.array([marker[0] for _, marker, _, _ in terms], dtype=int)
        self.offset = np.array([marker[1] for _, marker, _, _ in terms]).reshape(-1, 3)
        self.point = np.array([point for _, _, point, _ in terms]).reshape(-1, 3)
        self.position_scale = np.sqrt([pair.position_weight for pair, *_ in terms])
        self.framed = tuple(framed)
        self.keep = np.array(keep, dtype=int)
        self.mask = self.plan.moves[self.joint]
        self.position_mask = self.mask * self.position_scale[:, None]

    def errors(self, res):
        rot = res.rotations[self.joint]
        position = res.positions[self.joint] + (rot @ self.offset[:, :, None])[..., 0]
        orientation = [scalar_as_rotvec(rot[t].T @ frame) for t, _, frame in self.framed]
        return position - self.point, orientation

    def residual(self, position, orientation):
        out = np.zeros((len(self.joint), 6))
        out[:, :3] = self.position_scale[:, None] * position
        for (t, w, _), e in zip(self.framed, orientation):
            out[t, 3:] = w * e
        return out.reshape(-1)[self.keep]

    def jacobian(self, res, orientation, values):
        plan, n = self.plan, len(values)
        rates = np.empty((n, 3))
        rates[plan.revolute_col] = np.einsum("cij,cj->ci", res.rotations[plan.revolute], plan.axes)
        for i, cols in zip(plan.spherical, plan.spherical_cols):
            rates[cols] = (res.rotations[i] @ scalar_right_jacobian(values[cols])).T
        markers = res.positions[self.joint] + np.einsum(
            "tij,tj->ti", res.rotations[self.joint], self.offset
        )
        lever = markers[:, None, :] - res.positions[plan.col_joint]
        out = np.zeros((len(self.joint), 6, n))
        w0, w1, w2 = rates.T
        out[:, 0] = w1 * lever[..., 2] - w2 * lever[..., 1]
        out[:, 1] = w2 * lever[..., 0] - w0 * lever[..., 2]
        out[:, 2] = w0 * lever[..., 1] - w1 * lever[..., 0]
        out[:, :3] *= self.position_mask[:, None, :]
        for (t, w, frame), e in zip(self.framed, orientation):
            out[t, 3:] = (-w * scalar_right_jacobian_inv(e) @ frame.T) @ (rates.T * self.mask[t])
        return out.reshape(-1, n)[self.keep]


def scalar_euler_jacobian(values):
    """`_euler_jacobian` of one rotation vector, one perturbed vector at a time."""
    jac = np.empty((3, 3))
    for m in range(3):
        h = np.zeros(3)
        h[m] = EULER_STEP
        up = scalar_intrinsic_xyz_euler(scalar_from_rotvec(values + h))
        down = scalar_intrinsic_xyz_euler(scalar_from_rotvec(values - h))
        jac[:, m] = (up - down) / (2.0 * EULER_STEP)
    return jac


def euler_blocks(skeleton):
    """(first limited-value row, value slice) of each Euler-limited spherical joint."""
    blocks, row = [], 0
    for joint, sl in zip(skeleton.joints, skeleton.dof_slices):
        if joint.limits and joint.dof == "spherical":
            blocks.append((row, sl))
        row += len(joint.limits)
    return blocks


def reference_limited_values(skeleton, values):
    return np.array([v for _, _, v, _, _ in joint_walk_limited_dofs(skeleton, values)])


def barrier_bounds(plan):
    margin = np.minimum(LIMIT_MARGIN, 0.25 * (plan.hi - plan.lo))
    return plan.lo + margin, plan.hi - margin


def reference_barrier_residual(skeleton, w, values):
    lo, hi = barrier_bounds(skeleton._plan)
    v = reference_limited_values(skeleton, values)
    rows = np.stack([v - hi, lo - v], axis=1)
    return (w * np.where(rows > 0.0, rows, 0.0)).reshape(-1)


def reference_barrier_jacobian(skeleton, w, values):
    plan = skeleton._plan
    lo, hi = barrier_bounds(plan)
    v = reference_limited_values(skeleton, values)
    upper, lower = v > hi, v < lo
    grad = np.zeros((len(v), len(values)))
    grad[np.arange(len(v)), plan.limit_col] = 1.0
    for first, sl in euler_blocks(skeleton):
        if np.any((upper | lower)[first : first + 3]):
            grad[first : first + 3, sl] = scalar_euler_jacobian(values[sl])
    out = np.zeros((len(v), 2, len(values)))
    out[upper, 0] = w * grad[upper]
    out[lower, 1] = -w * grad[lower]
    return out.reshape(-1, len(values)), upper, lower


def assert_close(new, old):
    assert new.shape == old.shape
    assert np.max(np.abs(new - old), initial=0.0) <= REL_TOL * np.max(np.abs(old), initial=0.0)


def frame_terms(robot, pairs, targets):
    """Solver terms of the pairs toward the target skeleton's FkResult."""
    terms = []
    for pair in pairs:
        j, offset = resolve_marker(targets[0], pair.human)
        frame = targets[1].rotations[j] if pair.orientation_weight > 0 else None
        terms.append((pair, resolve_marker(robot, pair.robot), targets[1].point(j, offset), frame))
    return terms


def solver_objective(robot, terms, root, limit_weight):
    """The solver's objective of the terms' pairs, aimed at the root and the terms' targets."""
    pairs = [pair for pair, *_ in terms]
    objective = _Objective(robot, pairs, RetargetOptions(limit_weight=limit_weight))
    objective.aim(
        root[0],
        root[1].matrix,
        np.array([point for *_, point, _ in terms]).reshape(-1, 3),
        np.array([frame for *_, frame in terms if frame is not None]).reshape(-1, 3, 3),
    )
    return objective


def assert_matches_reference(robot, terms, root, values_list, limit_weight=10.0):
    objective = solver_objective(robot, terms, root, limit_weight)
    reference = ReferenceTerms(robot, terms)
    w = np.sqrt(limit_weight)
    term_rows = slice(objective.terms_end)
    barrier = slice(objective.terms_end, objective.barrier_end)
    for values in values_list:
        res = fk(robot, Pose(root[0], root[1], values))
        residual, jacobian = objective_rows(objective, values)
        _, _, markers, orientation, _ = objective.evaluate(values)
        position, ref_orientation = reference.errors(res)
        assert np.array_equal(markers - objective.points, position)
        assert_close(orientation, np.array(ref_orientation).reshape(-1, 3))
        assert_close(residual[term_rows], reference.residual(position, ref_orientation))
        assert_close(jacobian[term_rows], reference.jacobian(res, ref_orientation, values))
        barrier_residual, new = residual[barrier], jacobian[barrier]
        assert np.array_equal(barrier_residual, reference_barrier_residual(robot, w, values))
        expected, _, _ = reference_barrier_jacobian(robot, w, values)
        assert_close(new, expected)
        # the zero signs of inactive columns reach the step, so they must match too
        assert np.array_equal(np.signbit(new[new == 0.0]), np.signbit(expected[new == 0.0]))


@pytest.mark.parametrize(
    "robot_name, map_name", [("h1_like_19", "human_to_h1"), ("g1_like_21", "human_to_g1")]
)
def test_bundled_robots(rng, robot_name, map_name):
    human = load_example_skeleton("human_24")
    robot = load_example_skeleton(robot_name)
    corr = load_example_correspondence(map_name, human, robot)
    human_fk = fk(human, twist_free_pose(human, rng))
    terms = frame_terms(robot, corr.pairs, (human, human_fk))
    assert any(frame is not None for *_, frame in terms)
    values = [rng.normal(size=robot.total_dof) * s for s in (0.0, 1e-3, 0.3, 1.0, 2.5)]
    assert_matches_reference(robot, terms, (rng.normal(size=3), random_rotation(rng)), values)


def mixed_robot():
    """Revolute and spherical joints, a spherical root, and Euler-limited spherical joints."""
    return Skeleton(
        [
            Joint("root", None, [0, 0, 0], dof="spherical", limits=((-0.5, 0.5),) * 3),
            Joint("a", "root", [0, 0.3, 0], dof="revolute", axis=[0, 0, 1], limits=((-0.4, 0.3),)),
            Joint(
                "s", "a", [0, 0.3, 0], dof="spherical",
                limits=((-0.3, 0.3), (-0.2, 0.25), (0, 0.1)),
            ),
            Joint("free", "s", [0.1, 0.2, 0], dof="spherical"),
            Joint("b", "free", [0, 0.3, 0], dof="revolute", axis=[1, 0, 0]),
            Joint("c", "root", [0.2, 0, 0], dof="revolute", axis=[0, 1, 0], limits=((-1.0, 2.0),)),
            Joint(
                "t", "c", [0, 0, 0.2], dof="spherical",
                limits=((-2, 2), (-0.05, 0.05), (-0.9, 0.9)),
            ),
            Joint("tip", "t", [0, 0.2, 0]),
        ]
    )


def test_mixed_skeleton_past_both_limits(rng):
    robot = mixed_robot()
    pairs = [
        CorrespondencePair(name, name, weight, orientation)
        for name, weight, orientation in (
            ("a", 1.0, 0.0), ("s", 0.5, 2.0), ("b", 1.0, 0.3), ("t", 0.0, 1.0), ("tip", 2.0, 0.0),
        )
    ]
    target = Pose(rng.normal(size=3), random_rotation(rng), rng.normal(size=robot.total_dof))
    terms = frame_terms(robot, pairs, (robot, fk(robot, target)))
    values = [rng.normal(size=robot.total_dof) * s for s in (0.05, 0.4, 0.8, 1.5) for _ in range(6)]
    # the draws must push Euler-limited rows past both the upper and the lower barrier
    w = np.sqrt(10.0)
    euler_rows = np.concatenate([np.arange(first, first + 3) for first, _ in euler_blocks(robot)])
    upper = lower = False
    for v in values:
        _, up, down = reference_barrier_jacobian(robot, w, v)
        upper |= bool(up[euler_rows].any())
        lower |= bool(down[euler_rows].any())
    assert upper and lower
    root = (rng.normal(size=3), random_rotation(rng))
    assert_matches_reference(robot, terms, root, values)


def euler_rotvec(angles):
    """Rotation vector of Rx(a) Ry(b) Rz(c)."""
    m = np.eye(3)
    for axis, angle in zip(np.eye(3), angles):
        m = m @ scalar_rodrigues_matrix(axis, angle)
    return scalar_as_rotvec(m)


@pytest.mark.parametrize("active", [0, 1, 2])
def test_one_active_euler_joint_matches_joint_walks(rng, active):
    # Three Euler-limited spherical joints; only the one at `active` leaves its barrier.
    robot = mixed_robot()
    plan, w = robot._plan, np.sqrt(10.0)
    lo, hi = barrier_bounds(plan)
    barrier = barrier_objective(robot)
    blocks = euler_blocks(robot)
    assert len(blocks) == 3
    rows = [np.arange(first, first + 3) for first, _ in blocks]
    for draw in range(24):
        values = np.zeros(robot.total_dof)
        values[robot.dof_slices[robot.index["free"]]] = 2.0 * rng.normal(size=3)
        for j, ((_, sl), r) in enumerate(zip(blocks, rows)):
            if j != active:
                span = hi[r] - lo[r]
                values[sl] = euler_rotvec(rng.uniform(lo[r] + 0.2 * span, hi[r] - 0.2 * span))
        (_, sl), r = blocks[active], rows[active]
        while True:
            values[sl] = euler_rotvec(rng.uniform(plan.lo[r] - 0.3, plan.hi[r] + 0.3))
            if draw % 2:  # the same rotation off the principal branch
                values[sl] *= 1.0 + 2.0 * np.pi / np.linalg.norm(values[sl])
            _, upper, lower = reference_barrier_jacobian(robot, w, values)
            active_rows = (upper | lower)[np.concatenate(rows)].reshape(3, 3).any(axis=1)
            if active_rows[active]:
                break
        assert active_rows.tolist() == [j == active for j in range(3)]
        for got, expected in (
            (plan.limited_values(values), reference_limited_values(robot, values)),
            (barrier_rows(barrier, values)[1], reference_barrier_jacobian(robot, w, values)[0]),
            (_project_to_limits(robot, values), joint_walk_projection(robot, values)),
        ):
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


ANGLES = st.one_of(
    st.floats(0.0, 1e-6),
    st.floats(1e-6, np.pi - 1e-6),
    st.floats(np.pi - 1e-6, np.pi),
    st.sampled_from([0.0, 1e-4, np.pi]),
)
AXES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: np.linalg.norm(a) > 1e-3)


def rotvec(axis, angle):
    axis = np.asarray(axis)
    return axis / np.linalg.norm(axis) * angle


@given(AXES, ANGLES)
@settings(max_examples=400, deadline=None)
def test_log_floats_matches_as_rotvec(axis, angle):
    m = Rotation.from_rotvec(rotvec(axis, angle)).matrix
    expected = Rotation(m).as_rotvec()
    got = np.array(_log_floats(m.tolist()))
    # Only the summation order of the two norms differs.
    assert np.max(np.abs(got - expected)) <= 4e-15 * max(np.max(np.abs(expected)), 1e-300)


@given(st.lists(st.tuples(AXES, ANGLES), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_stacked_right_jacobians_match_scalar(rows):
    phi = np.array([rotvec(axis, angle) for axis, angle in rows])
    for stacked, scalar in (
        (_right_jacobian, scalar_right_jacobian),
        (_right_jacobian_inv, scalar_right_jacobian_inv),
    ):
        got = stacked(phi)
        assert got.shape == (len(phi), 3, 3)
        for g, p in zip(got, phi):
            assert np.max(np.abs(g - scalar(p))) <= REL_TOL * np.max(np.abs(scalar(p)))


def test_stacked_right_jacobians_empty():
    assert _right_jacobian(np.zeros((0, 3))).shape == (0, 3, 3)
    assert _right_jacobian_inv(np.zeros((0, 3))).shape == (0, 3, 3)
