import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from retarget_kit import Rotation, procrustes
from retarget_kit.errors import ValidationError
from retarget_kit.rotations import (
    _align_stack,
    _exp_stack,
    _matrix_stack,
    _procrustes_stack,
    _quat_stack,
    _rot6d_stack,
    _rotvec_stack,
)
from retarget_kit.skeleton import _intrinsic_xyz_euler

from conftest import (
    random_rotation,
    scalar_as_quat,
    scalar_as_rotvec,
    scalar_from_quat,
    scalar_from_rotvec,
    scalar_intrinsic_xyz_euler,
    scalar_procrustes,
    scalar_rodrigues_align,
    scalar_rodrigues_matrix,
)

rotvecs = st.tuples(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)
).map(np.array)


def align(t, p):
    """The one-pair case of `_align_stack`, as a Rotation; a refused pair raises its reason."""
    t, p = (np.asarray(v, dtype=float).reshape(1, 3) for v in (t, p))
    rot, refused, why = _align_stack(t, p)
    if refused[0]:
        raise ValidationError(why(0))
    return Rotation(rot[0])


def assert_so3(r, tol=1e-9):
    m = r.matrix
    assert np.linalg.norm(m.T @ m - np.eye(3)) <= tol
    assert abs(np.linalg.det(m) - 1.0) <= tol


class TestRotationType:
    def test_identity(self):
        assert np.allclose(Rotation.identity().matrix, np.eye(3))

    def test_from_matrix_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValidationError, match="matrix not in SO.3.: orthonormality"):
            Rotation.from_matrix(m)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Rotation.from_matrix(np.full((3, 3), np.nan)), "rotation matrix contains NaN"),
            (lambda: Rotation.from_quat([np.nan, 0, 0, 0]), "quaternion contains NaN"),
            (lambda: Rotation.from_axis_angle([1, 0, 0], np.nan), "angle must be finite"),
            (lambda: Rotation.from_axis_angle([np.inf, 0, 0], 1.0), "axis contains NaN"),
            (lambda: Rotation.from_rotvec([0, np.nan, 0]), "rotation vector contains NaN"),
        ],
        ids=["matrix", "quat", "angle", "axis", "rotvec"],
    )
    def test_constructors_refuse_non_finite_input(self, make, message):
        # Each once returned a rotation of NaN: NaN fails neither SO(3) tolerance test.
        with pytest.raises(ValidationError, match=f"^{message}"):
            make()

    def test_quat_hemisphere(self, rng):
        for _ in range(100):
            assert random_rotation(rng).as_quat()[0] >= 0

    def test_axis_angle_analytic(self):
        r = Rotation.from_axis_angle([0, 0, 1], np.pi / 2)
        q = r.as_quat()
        assert np.allclose(q, [np.sqrt(2) / 2, 0, 0, np.sqrt(2) / 2], atol=1e-12)
        axis, angle = r.as_axis_angle()
        assert np.allclose(axis, [0, 0, 1], atol=1e-12)
        assert angle == pytest.approx(np.pi / 2, abs=1e-12)

    def test_zero_angle_conventions(self):
        r = Rotation.from_axis_angle([0, 0, 1], 0.0)
        assert np.allclose(r.matrix, np.eye(3))
        assert np.allclose(r.as_quat(), [1, 0, 0, 0])
        assert np.allclose(r.as_rotvec(), np.zeros(3))

    @given(rotvecs)
    @settings(max_examples=200, deadline=None)
    def test_round_trips_close(self, v):
        r = Rotation.from_rotvec(v)
        assert_so3(r)
        # matrix -> quat -> axis-angle -> matrix closes
        q = r.as_quat()
        axis, angle = Rotation.from_quat(q).as_axis_angle()
        back = Rotation.from_axis_angle(axis, angle)
        assert np.linalg.norm(back.matrix - r.matrix) <= 1e-9
        assert 0.0 <= angle <= np.pi + 1e-12

    def test_round_trip_bulk_against_scipy(self, rng):
        for _ in range(1000):
            r = random_rotation(rng)
            sp = ScipyRotation.from_matrix(r.matrix)
            assert np.linalg.norm(sp.as_matrix() - Rotation.from_quat(r.as_quat()).matrix) <= 1e-9
            v = r.as_rotvec()
            assert np.linalg.norm(sp.as_rotvec() - v) <= 1e-8 or np.linalg.norm(
                Rotation.from_rotvec(v).matrix - r.matrix
            ) <= 1e-9

    def test_rot6d_identity(self):
        v = _rot6d_stack(Rotation.identity().matrix)
        assert np.allclose(v, [1, 0, 0, 0, 1, 0])

    def test_rot6d_round_trip_bulk(self, rng):
        for _ in range(1000):
            r = random_rotation(rng)
            v = _rot6d_stack(r.matrix)
            back = np.column_stack([v[:3], v[3:], np.cross(v[:3], v[3:])])
            assert np.linalg.norm(back - r.matrix) <= 1e-9


class TestRodriguesAlign:
    def test_same_direction_is_identity(self):
        r = align([1, 0, 0], [1, 0, 0])
        assert np.allclose(r.matrix, np.eye(3))

    def test_quarter_turn(self):
        r = align([1, 0, 0], [0, 1, 0])
        axis, angle = r.as_axis_angle()
        assert np.allclose(axis, [0, 0, 1], atol=1e-12)
        assert angle == pytest.approx(np.pi / 2, abs=1e-12)

    def test_antiparallel_fallback(self):
        t = np.array([1.0, 0.0, 0.0])
        r = align(t, -t)
        assert_so3(r)
        assert np.allclose(r.matrix @ t, -t, atol=1e-9)

    def test_degenerate_raises(self):
        with pytest.raises(ValidationError, match="^bone norms 0.000e[+]00, 1.000e[+]00 below"):
            align([0, 0, 0], [1, 0, 0])
        with pytest.raises(ValidationError, match="^bone norms 1.000e[+]00, 1.000e-09 below"):
            align([1, 0, 0], [1e-9, 0, 0])

    def test_maps_template_to_observed(self, rng):
        for _ in range(500):
            t = rng.normal(size=3)
            p = rng.normal(size=3)
            r = align(t, p)
            assert_so3(r)
            t_hat = t / np.linalg.norm(t)
            p_hat = p / np.linalg.norm(p)
            assert np.linalg.norm(r.matrix @ t_hat - p_hat) <= 1e-9

    def test_minimality(self, rng):
        for _ in range(500):
            t = rng.normal(size=3)
            p = rng.normal(size=3)
            angle = np.arccos(
                np.clip(
                    np.dot(t, p) / (np.linalg.norm(t) * np.linalg.norm(p)), -1, 1
                )
            )
            if angle > np.pi - 1e-3:
                continue
            r = align(t, p)
            # the rotation angle of r, in [0, pi]
            turned = np.arccos(np.clip((np.trace(r.matrix) - 1.0) / 2.0, -1.0, 1.0))
            assert turned == pytest.approx(angle, abs=1e-9)


def sampled_rotations(n, seed=7):
    rng = np.random.default_rng(seed)
    rs = []
    for _ in range(n):
        v = rng.normal(size=3)
        angle = rng.uniform(0, np.pi)
        rs.append(Rotation.from_axis_angle(v / np.linalg.norm(v), angle).matrix)
    return np.array(rs)


class TestProcrustes:
    def test_identity_on_equal_inputs(self, rng):
        t = rng.normal(size=(3, 4))
        r = procrustes(t, t)
        assert np.linalg.norm(r.matrix - np.eye(3)) <= 1e-9

    def test_recovers_known_rotation(self):
        r0 = Rotation.from_axis_angle([0, 0, 1], np.pi / 2)
        t = np.column_stack([np.array([1.0, 0, 0]), np.array([0, 1.0, 0])])
        p = r0.matrix @ t
        r = procrustes(t, p)
        assert np.linalg.norm(r.matrix - r0.matrix) <= 1e-9
        obj = np.linalg.norm(r.matrix @ t - p) ** 2
        obj0 = np.linalg.norm(r0.matrix @ t - p) ** 2
        assert obj <= obj0 + 1e-12

    def test_beats_random_sampling(self, rng):
        samples = sampled_rotations(10000)
        for _ in range(20):
            t = rng.normal(size=(3, 4))
            p = rng.normal(size=(3, 4))
            r = procrustes(t, p)
            assert_so3(r)
            obj = np.sum((r.matrix @ t - p) ** 2)
            best = np.min(np.sum((samples @ t - p[None]) ** 2, axis=(1, 2)))
            assert obj <= best + 1e-9

    def test_reflection_corrected(self, rng):
        # Near-planar data tends to tempt the reflection solution.
        t = rng.normal(size=(3, 4))
        t[2] *= 1e-3
        p = -t.copy()
        r = procrustes(t, p)
        assert_so3(r)

    def test_rank_deficient_raises(self):
        t = np.column_stack([[1.0, 0, 0], [2.0, 0, 0]])
        with pytest.raises(ValidationError, match="^cross-covariance rank < 2"):
            procrustes(t, t)
        with pytest.raises(ValidationError, match="^need at least 2 correspondence columns$"):
            procrustes(np.ones((3, 1)), np.ones((3, 1)))


def bits(a):
    """The bytes of a float array: equal bits, zero signs included."""
    return np.ascontiguousarray(a, dtype=float).tobytes()


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def branch_matrices(rng):
    """Rotations reaching every branch of `as_quat`: a positive trace, and a
    trace <= 0 with each diagonal entry the largest, ties included."""
    ms = [np.eye(3)] + [np.diag(d) for d in ([1, -1, -1], [-1, 1, -1], [-1, -1, 1])]
    near_pi = (np.nextafter(np.pi, 0.0), np.pi - 1e-9, np.pi - 1e-6, np.pi)
    for axis in np.eye(3):
        for angle in (0.3, 2.0, 2.5) + near_pi:
            ms.append(Rotation.from_axis_angle(axis, angle).matrix)
    for axis in ([1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1], [1, -1, 0]):
        ms += [Rotation.from_axis_angle(unit(axis), angle).matrix for angle in near_pi]
    ms += [random_rotation(rng).matrix for _ in range(200)]
    ms += [Rotation.from_rotvec(unit(rng.normal(size=3)) * rng.uniform(np.pi - 1e-6, np.pi)).matrix
           for _ in range(100)]
    return np.array(ms)


class TestStackedViews:
    def test_every_branch_is_reached(self, rng):
        ms = branch_matrices(rng)
        trace = np.trace(ms, axis1=1, axis2=2)
        largest = np.argmax(np.diagonal(ms, axis1=1, axis2=2), axis=1)
        assert (trace > 0).any()
        assert set(largest[trace <= 0]) == {0, 1, 2}

    def test_quat_and_rotvec_match_scalar_views(self, rng):
        ms = branch_matrices(rng)
        quats, rotvecs = _quat_stack(ms), _rotvec_stack(ms)
        for m, q, v in zip(ms, quats, rotvecs):
            for got, expected in (
                (q, scalar_as_quat(m)),
                (Rotation(m).as_quat(), scalar_as_quat(m)),
                (v, scalar_as_rotvec(m)),
                (Rotation(m).as_rotvec(), scalar_as_rotvec(m)),
            ):
                assert bits(got) == bits(expected)

    def test_exp_matches_scalar_from_rotvec(self, rng):
        v = [rng.normal(size=(200, 3)) * s for s in (1e-13, 1e-6, 1.0, 3.0, 10.0)]
        tiny = rng.normal(size=(50, 3))
        tiny *= rng.uniform(0.0, 1e-12, size=(50, 1)) / np.linalg.norm(tiny, axis=1)[:, None]
        edges = [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-12, 0.0, 0.0], [0.0, -1e-13, 0.0]]
        v = np.concatenate(v + [tiny, edges])
        assert (np.linalg.norm(v, axis=1) < 1e-12).sum() > 50
        got = _exp_stack(v)
        assert got.shape == (len(v), 3, 3)
        assert bits(_exp_stack(v.reshape(-1, 2, 3))) == bits(got.reshape(-1, 2, 3, 3))
        for row, m in zip(v, got):
            assert bits(m) == bits(scalar_from_rotvec(row))
            assert bits(Rotation.from_rotvec(row).matrix) == bits(scalar_from_rotvec(row))

    def test_from_axis_angle_matches_scalar(self, rng):
        for _ in range(300):
            axis = rng.normal(size=3)
            angle = rng.uniform(-4.0, 4.0)
            expected = scalar_rodrigues_matrix(axis / np.linalg.norm(axis), angle)
            assert bits(Rotation.from_axis_angle(axis, angle).matrix) == bits(expected)

    def test_euler_map_matches_scalar(self, rng):
        # Rotations about y by pi/2 - d put |m02| = cos(d) on both sides of 1 - 1e-9.
        gimbal = [
            scalar_rodrigues_matrix(np.array([1.0, 0, 0]), a)
            @ scalar_rodrigues_matrix(np.array([0, 1.0, 0]), sign * (np.pi / 2 - d))
            @ scalar_rodrigues_matrix(np.array([0, 0, 1.0]), c)
            for a, c in rng.uniform(-np.pi, np.pi, size=(8, 2))
            for sign in (1.0, -1.0)
            for d in (0.0, 1e-9, 1e-6, 4.4e-5, 4.5e-5, 1e-4)
        ]
        ms = np.concatenate([branch_matrices(rng), gimbal])
        locked = np.abs(ms[:, 0, 2]) >= 1.0 - 1e-9
        assert 0 < locked.sum() < len(ms)
        got = _intrinsic_xyz_euler(ms)
        two = _intrinsic_xyz_euler(np.stack([ms, ms[::-1]]))
        assert bits(two) == bits(np.stack([got, got[::-1]]))
        for m, e in zip(ms, got):
            assert bits(e) == bits(scalar_intrinsic_xyz_euler(m))

    def test_rot6d_stack_matches_columns(self, rng):
        ms = branch_matrices(rng)[:200]
        got = _rot6d_stack(ms)
        assert got.shape == (len(ms), 6)
        assert bits(_rot6d_stack(ms.reshape(-1, 2, 3, 3))) == bits(got.reshape(-1, 2, 6))
        for m, v in zip(ms, got):
            assert bits(v) == bits(np.concatenate([m[:, 0], m[:, 1]]))
            assert bits(_rot6d_stack(m)) == bits(v)  # one matrix, unstacked

    def test_matrix_stack_matches_scalar_from_quat(self, rng):
        quats = [_quat_stack(branch_matrices(rng))]
        quats += [scale * rng.normal(size=(2000, 4)) for scale in (1e-3, 1.0, 1e3)]
        signed = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-9])
        quats.append(signed[rng.integers(len(signed), size=(500, 4))])
        quats = np.concatenate(quats)
        quats = quats[np.linalg.norm(quats, axis=1) >= 1e-8]
        got, refused, _ = _matrix_stack(quats)
        assert not refused.any()
        for q, m in zip(quats, got):
            assert np.array_equal(m.view(np.int64), scalar_from_quat(q).view(np.int64))
            assert np.array_equal(m.view(np.int64), Rotation.from_quat(q).matrix.view(np.int64))

    def test_matrix_stack_refuses_zero_rows_with_the_identity(self):
        quats = np.array([[1.0, 0, 0, 0], [0, 0, 0, 0], [0, 1.0, 0, 0], [1e-9, 0, 0, 0]])
        got, refused, why = _matrix_stack(quats)
        assert refused.tolist() == [False, True, False, True]
        assert bits(got[refused]) == bits(np.tile(np.eye(3), (2, 1, 1)))
        assert why(1) == why(3) == "zero quaternion"
        with pytest.raises(ValidationError, match="^zero quaternion$"):
            Rotation.from_quat([0.0, 0.0, 0.0, 0.0])

    def test_matrix_stack_rows_beside_a_zero_one_keep_their_bits(self, rng):
        quats = rng.normal(size=(200, 4))
        quats[[0, 57, 199]] = 0.0
        got, refused, _ = _matrix_stack(quats)
        assert np.flatnonzero(refused).tolist() == [0, 57, 199]
        # each kept row as the array with no zero row gives it, and as the scalar form
        kept, none_refused, _ = _matrix_stack(quats[~refused])
        assert not none_refused.any()
        assert bits(got[~refused]) == bits(kept)
        for q, m in zip(quats[~refused], got[~refused]):
            assert bits(m) == bits(scalar_from_quat(q))

    def test_align_matches_scalar(self, rng):
        t = rng.normal(size=(300, 3))
        p = rng.normal(size=(300, 3))
        p[:40] = 2.5 * t[:40]  # exactly parallel
        p[40:80] = -0.5 * t[40:80]  # exactly antiparallel
        t[80:90], p[80:90] = [1.0, 1.0, 0.5], [-2.0, -2.0, -1.0]  # reversed, tied fallback axis
        p[90:120] = t[90:120] + 1e-9 * rng.normal(size=(30, 3))  # nearly parallel
        got, refused, _ = _align_stack(t, p)
        assert not refused.any()
        for ti, pi, m in zip(t, p, got):
            want = scalar_rodrigues_align(ti, pi).matrix
            assert np.array_equal(m, want)

    @pytest.mark.parametrize("reversed_rows", [0, 1, 7])
    def test_align_with_and_without_reversed_bones(self, rng, reversed_rows):
        # With no reversed bone the half-turn branch is skipped; the floats stay the same.
        for n in (1, 4, 60, 300):
            t = rng.normal(size=(n, 3))
            p = rng.normal(size=(n, 3))
            k = min(reversed_rows, n)
            p[:k] = -rng.uniform(0.5, 2.0, size=(k, 1)) * t[:k]
            p[k : k + n // 4] = 2.0 * t[k : k + n // 4]  # exactly parallel
            got, refused, _ = _align_stack(t, p)
            assert not refused.any()
            for ti, pi, m in zip(t, p, got):
                want = scalar_rodrigues_align(ti, pi).matrix
                assert np.array_equal(m.view(np.int64), want.view(np.int64))

    def test_refused_pairs_leave_the_others_alone(self, rng):
        t = rng.normal(size=(50, 3))
        p = rng.normal(size=(50, 3))
        p[10:15] = -t[10:15]
        t[3], p[7], p[12] = 0.0, 1e-9, 0.0
        got, refused, _ = _align_stack(t, p)
        assert np.flatnonzero(refused).tolist() == [3, 7, 12]
        for i, (ti, pi, m) in enumerate(zip(t, p, got)):
            want = np.eye(3) if refused[i] else scalar_rodrigues_align(ti, pi).matrix
            assert np.array_equal(m.view(np.int64), want.view(np.int64))

    def test_procrustes_matches_scalar(self, rng):
        template = rng.normal(size=(3, 4))
        observed = np.array([random_rotation(rng).matrix @ template for _ in range(100)])
        observed[:50] += 0.1 * rng.normal(size=(50, 3, 4))
        observed[50:60] = -observed[50:60]  # reflections: determinant correction
        got, refused, _ = _procrustes_stack(template, observed)
        assert not refused.any()
        for p, m in zip(observed, got):
            want = scalar_procrustes(template, p).matrix
            assert np.array_equal(m, want)
            assert np.array_equal(procrustes(template, p).matrix, want)

    def test_stacked_errors_name_the_first_bad_item(self):
        # The kernels refuse bad items instead of raising: the identity in their
        # place, and the reason for each as a message.
        t = np.array([[0.0, 1.0, 0.0]] * 3)
        p = np.array([[0.0, 1.0, 0.0], [0.0, 3e-9, 0.0], [0.0, 0.0, 0.0]])
        got, refused, why = _align_stack(t, p)
        assert refused.tolist() == [False, True, True]
        assert np.array_equal(got, np.tile(np.eye(3), (3, 1, 1)))
        assert why(np.argmax(refused)) == "bone norms 1.000e+00, 3.000e-09 below 1e-08"
        template = np.eye(3)[:, :2]
        observed = np.array([template, np.zeros((3, 2))])
        got, refused, why = _procrustes_stack(template, observed)
        assert refused.tolist() == [False, True]
        assert np.array_equal(got[1], np.eye(3))
        assert why(1) == "cross-covariance rank < 2 (singular values [0. 0. 0.])"
        with pytest.raises(ValidationError, match=r"^cross-covariance rank < 2 \(singular"):
            procrustes(template, observed[1])
