"""The retarget answer against scipy's least-squares solver on the same objective.

The other solver tests check the residual and its Jacobian; these check
where the solver stops. For every frame of a small clip on both bundled
robots, and for one solve on a two-finger hand with no smoothing target, no
reference posture and no orientation terms, `scipy.optimize.least_squares`
(MINPACK's Levenberg-Marquardt, tolerances at 1e-15) minimizes the same
residual and Jacobian methods of the objective `_gauss_newton` is handed, from
the same start, with the same smoothing target. The solver's answer is compared before the limit
projection, which scipy does not do.
"""

import numpy as np
import pytest
from scipy.optimize import least_squares

from retarget_kit import (
    CorrespondencePair,
    RetargetOptions,
    load_example_correspondence,
    load_example_skeleton,
    retarget_sequence,
)
from retarget_kit import retarget

from conftest import random_rotation, twist_free_pose, two_finger_hand

# Frames with a smoothing target have smoothness_weight * I = 0.1 * I in J^T J: the
# objective is strongly convex near the answer, so both solvers end at one point.
# Frame 0 and the hand have no smoothing target; J^T J at their answers has
# eigenvalues down to 1e-3 (0 on the hand: a finger stretched toward an unreachable
# target), the answer lies in a valley and scipy may stop at another local minimum,
# so only the objective is compared there, and one-sided.
WELL_CONDITIONED = 0.05  # smallest eigenvalue of J^T J at a smoothed frame's answer
# The solver stops once an accepted step lowers the objective by less than
# RELATIVE_DECREASE_TOL = 1e-5 of it, which leaves it short of scipy's minimum.
# Probed on this clip and hand (the rng fixture's draw, seed 12345): on smoothed
# frames, joint gaps up to 0.021 rad and objective gaps up to 2.4e-5 relative;
# without a smoothing target the solver's objective was above scipy's by up to
# 1.0e-3. Each tolerance below is 2.5 to 5 times that. Draws from rng seeds 0-9
# gave larger gaps on single frames, where the stop comes early in a curved
# valley; two of them are kept below as expected failures until the stop rule
# is mended. On frames without a smoothing target, some draws gave answers up
# to 32% below scipy's objective, in another valley. Tolerances wide enough for
# the early stops would not check the answer.
JOINT_TOL = 0.05  # radians, largest joint gap on a smoothed frame
OBJECTIVE_TOL = 1e-4  # relative objective gap on a smoothed frame, either way
UNSMOOTHED_TOL = 5e-3  # relative excess of the solver's objective over scipy's
# First-order test (Madsen, Nielsen & Tingleff, "Methods for non-linear least
# squares problems", IMM 2004), with the start as the reference: the
# solver must bring ||J^T r||_inf down from its start value. Probed: to at most
# 3.6e-3 of it on this clip, and 4.1e-2 on the draws from seeds 0-9.
GRADIENT_FRACTION = 1e-2


def solve_both(monkeypatch, run):
    """run() with each `_gauss_newton` call followed by scipy on the same objective.

    Returns one record per solve: the start, the solver's answer before
    projection, scipy's answer, both objectives, J^T J's smallest eigenvalue
    at the answer and ||J^T r||_inf at the start and at the answer.
    """
    records = []
    real = retarget._gauss_newton

    def spy(objective, x0, opts):
        out = real(objective, x0, opts)
        # the objective holds this frame's targets only until the next frame's solve
        residual_fn, jacobian_fn = objective.residual, objective.jacobian
        fit = least_squares(
            residual_fn, x0, jac=lambda x: jacobian_fn(x).copy(), method="lm",
            ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=100000,
        )

        def gradient(x):
            return np.max(np.abs(jacobian_fn(x).T @ residual_fn(x)))

        x = out[0]
        r, jac = residual_fn(x), jacobian_fn(x)
        records.append({
            "x0": np.array(x0, dtype=float), "x": x, "scipy": fit.x,
            "f": float(r @ r), "f_scipy": float(fit.fun @ fit.fun),
            "min_eig": float(np.linalg.eigvalsh(jac.T @ jac)[0]),
            "gradient": gradient(x), "gradient_start": gradient(np.array(x0, dtype=float)),
        })
        return out

    monkeypatch.setattr(retarget, "_gauss_newton", spy)
    run()
    return records


def assert_answers_match(records, smoothed, frames=None):
    for t in range(len(records)) if frames is None else frames:
        rec = records[t]
        assert rec["gradient"] <= GRADIENT_FRACTION * rec["gradient_start"], t
        if t in smoothed:
            assert rec["min_eig"] >= WELL_CONDITIONED, t
            assert np.max(np.abs(rec["x"] - rec["scipy"])) <= JOINT_TOL, t
            assert abs(rec["f"] - rec["f_scipy"]) <= OBJECTIVE_TOL * rec["f_scipy"], t
        else:
            assert rec["f"] <= (1.0 + UNSMOOTHED_TOL) * rec["f_scipy"], t


# h1_like_19 frames where the small-decrease stop ends the solve short of scipy's
# minimum (probed: seed 8 frame 4 is 0.196 rad from scipy at an objective 1.5e-4
# above it; seed 5 frame 3 keeps 4.1e-2 of its start gradient, 0.060 rad away).
EARLY_STOP = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the solver's small-decrease stop comes early in a curved valley",
)


@pytest.mark.parametrize(
    "robot_name, map_name, seed, frames",
    [
        pytest.param("h1_like_19", "human_to_h1", 12345, None, id="h1_like_19-human_to_h1"),
        pytest.param("g1_like_21", "human_to_g1", 12345, None, id="g1_like_21-human_to_g1"),
        pytest.param("h1_like_19", "human_to_h1", 8, [4], marks=EARLY_STOP, id="h1-seed8-frame4"),
        pytest.param("h1_like_19", "human_to_h1", 5, [3], marks=EARLY_STOP, id="h1-seed5-frame3"),
    ],
)
def test_clip_answers_match_scipy(monkeypatch, robot_name, map_name, seed, frames):
    rng = np.random.default_rng(seed)
    human = load_example_skeleton("human_24")
    robot = load_example_skeleton(robot_name)
    corr = load_example_correspondence(map_name, human, robot)
    a, b = (twist_free_pose(human, rng, max_angle=0.6) for _ in range(2))
    poses = [
        type(a)((1 - s) * a.root_position + s * b.root_position, a.root_orientation,
                (1 - s) * a.joint_values + s * b.joint_values)
        for s in np.linspace(0.0, 1.0, 5)
    ]
    records = solve_both(
        monkeypatch, lambda: retarget_sequence(human, poses, robot, corr, RetargetOptions())
    )
    assert len(records) == 5
    assert_answers_match(records, smoothed=range(1, 5), frames=frames)


def test_hand_answer_matches_scipy(monkeypatch, rng):
    hand = two_finger_hand()
    pairs = [CorrespondencePair("-", "a_tip", 1.0), CorrespondencePair("-", "b_tip", 0.5)]
    wrist = (rng.normal(size=3), random_rotation(rng))
    targets = [wrist[0] + wrist[1].matrix @ (rng.normal(size=3) * 0.05 + [0.1, 0, 0]) for _ in pairs]
    objective = retarget._Objective(hand, pairs, RetargetOptions(reference_weight=0.0))
    points, frames, x0 = np.array(targets), np.zeros((0, 3, 3)), np.zeros(hand.total_dof)
    records = solve_both(
        monkeypatch, lambda: objective.solve(wrist[0], wrist[1].matrix, points, frames, x0)
    )
    assert len(records) == 1
    assert_answers_match(records, smoothed=())
