import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from retarget_kit import Rotation, geodesic_distance, procrustes, rodrigues_align
from retarget_kit.errors import DegenerateBone, DegenerateFrame, RankDeficient
from retarget_kit.rotations import (
    _align_stack,
    _matrix_stack,
    _procrustes_stack,
    _quat_stack,
    _rotvec_stack,
)

from conftest import (
    random_rotation,
    scalar_from_quat,
    scalar_procrustes,
    scalar_rodrigues_align,
)

rotvecs = st.tuples(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)
).map(np.array)


def assert_so3(r, tol=1e-9):
    m = r.matrix
    assert np.linalg.norm(m.T @ m - np.eye(3)) <= tol
    assert abs(np.linalg.det(m) - 1.0) <= tol


class TestRotationType:
    def test_identity(self):
        assert np.allclose(Rotation.identity().matrix, np.eye(3))

    def test_from_matrix_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(DegenerateFrame):
            Rotation.from_matrix(m)

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
        v = Rotation.identity().as_rot6d()
        assert np.allclose(v, [1, 0, 0, 0, 1, 0])
        assert np.allclose(Rotation.from_rot6d(v).matrix, np.eye(3))

    def test_rot6d_gram_schmidt(self):
        r = Rotation.from_rot6d([2, 0, 0, 1, 1, 0])
        assert np.allclose(r.matrix[:, 0], [1, 0, 0], atol=1e-12)
        assert np.allclose(r.matrix[:, 1], [0, 1, 0], atol=1e-12)
        assert_so3(r)

    def test_rot6d_round_trip_bulk(self, rng):
        for _ in range(1000):
            r = random_rotation(rng)
            back = Rotation.from_rot6d(r.as_rot6d())
            assert np.linalg.norm(back.matrix - r.matrix) <= 1e-9

    def test_rot6d_degenerate(self):
        with pytest.raises(DegenerateFrame):
            Rotation.from_rot6d([0, 0, 0, 1, 0, 0])
        with pytest.raises(DegenerateFrame):
            Rotation.from_rot6d([1, 0, 0, 2, 0, 0])


class TestRodriguesAlign:
    def test_same_direction_is_identity(self):
        r = rodrigues_align([1, 0, 0], [1, 0, 0])
        assert np.allclose(r.matrix, np.eye(3))

    def test_quarter_turn(self):
        r = rodrigues_align([1, 0, 0], [0, 1, 0])
        axis, angle = r.as_axis_angle()
        assert np.allclose(axis, [0, 0, 1], atol=1e-12)
        assert angle == pytest.approx(np.pi / 2, abs=1e-12)

    def test_antiparallel_fallback(self):
        t = np.array([1.0, 0.0, 0.0])
        r = rodrigues_align(t, -t)
        assert_so3(r)
        assert np.allclose(r.apply(t), -t, atol=1e-9)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateBone):
            rodrigues_align([0, 0, 0], [1, 0, 0])
        with pytest.raises(DegenerateBone):
            rodrigues_align([1, 0, 0], [1e-9, 0, 0])

    def test_maps_template_to_observed(self, rng):
        for _ in range(500):
            t = rng.normal(size=3)
            p = rng.normal(size=3)
            r = rodrigues_align(t, p)
            assert_so3(r)
            t_hat = t / np.linalg.norm(t)
            p_hat = p / np.linalg.norm(p)
            assert np.linalg.norm(r.apply(t_hat) - p_hat) <= 1e-9

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
            r = rodrigues_align(t, p)
            assert geodesic_distance(Rotation.identity(), r) == pytest.approx(
                angle, abs=1e-9
            )


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
        with pytest.raises(RankDeficient):
            procrustes(t, t)
        with pytest.raises(RankDeficient):
            procrustes(np.ones((3, 1)), np.ones((3, 1)))


class TestGeodesic:
    def test_zero_on_equal(self, rng):
        r = random_rotation(rng)
        assert geodesic_distance(r, r) == pytest.approx(0.0, abs=1e-7)

    def test_analytic_quarter_turn(self):
        assert geodesic_distance(
            Rotation.identity(), Rotation.from_axis_angle([0, 0, 1], np.pi / 2)
        ) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_matches_quaternion_path(self, rng):
        for _ in range(500):
            a, b = random_rotation(rng), random_rotation(rng)
            d = geodesic_distance(a, b)
            _, angle = (a.inverse() @ b).as_axis_angle()
            assert d == pytest.approx(angle, abs=1e-9)

    def test_metric_properties(self, rng):
        for _ in range(200):
            a, b, c = (random_rotation(rng) for _ in range(3))
            assert geodesic_distance(a, b) == geodesic_distance(b, a)
            assert geodesic_distance(a, c) <= (
                geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-9
            )


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
            assert np.array_equal(q, Rotation(m).as_quat())
            assert np.array_equal(v, Rotation(m).as_rotvec())

    def test_matrix_stack_matches_scalar_from_quat(self, rng):
        quats = [_quat_stack(branch_matrices(rng))]
        quats += [scale * rng.normal(size=(2000, 4)) for scale in (1e-3, 1.0, 1e3)]
        signed = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-9])
        quats.append(signed[rng.integers(len(signed), size=(500, 4))])
        quats = np.concatenate(quats)
        quats = quats[np.linalg.norm(quats, axis=1) >= 1e-8]
        got = _matrix_stack(quats)
        for q, m in zip(quats, got):
            assert np.array_equal(m.view(np.int64), scalar_from_quat(q).view(np.int64))
            assert np.array_equal(m.view(np.int64), Rotation.from_quat(q).matrix.view(np.int64))

    def test_matrix_stack_names_the_first_zero_row(self):
        quats = np.array([[1.0, 0, 0, 0], [0, 0, 0, 0], [0, 1.0, 0, 0], [1e-9, 0, 0, 0]])
        with pytest.raises(DegenerateFrame, match="zero quaternion") as e:
            _matrix_stack(quats)
        assert e.value.row == 1
        with pytest.raises(DegenerateFrame) as e:
            _matrix_stack(quats[2:])
        assert e.value.row == 1
        with pytest.raises(DegenerateFrame, match="zero quaternion"):
            Rotation.from_quat([0.0, 0.0, 0.0, 0.0])

    def test_align_matches_scalar(self, rng):
        t = rng.normal(size=(300, 3))
        p = rng.normal(size=(300, 3))
        p[:40] = 2.5 * t[:40]  # exactly parallel
        p[40:80] = -0.5 * t[40:80]  # exactly antiparallel
        t[80:90], p[80:90] = [1.0, 1.0, 0.5], [-2.0, -2.0, -1.0]  # reversed, tied fallback axis
        p[90:120] = t[90:120] + 1e-9 * rng.normal(size=(30, 3))  # nearly parallel
        got = _align_stack(t, p)
        for ti, pi, m in zip(t, p, got):
            want = scalar_rodrigues_align(ti, pi).matrix
            assert np.array_equal(m, want)
            assert np.array_equal(rodrigues_align(ti, pi).matrix, want)

    def test_procrustes_matches_scalar(self, rng):
        template = rng.normal(size=(3, 4))
        observed = np.array([random_rotation(rng).matrix @ template for _ in range(100)])
        observed[:50] += 0.1 * rng.normal(size=(50, 3, 4))
        observed[50:60] = -observed[50:60]  # reflections: determinant correction
        got = _procrustes_stack(template, observed)
        for p, m in zip(observed, got):
            want = scalar_procrustes(template, p).matrix
            assert np.array_equal(m, want)
            assert np.array_equal(procrustes(template, p).matrix, want)

    def test_stacked_errors_name_the_first_bad_item(self):
        t = np.array([[0.0, 1.0, 0.0]] * 3)
        p = np.array([[0.0, 1.0, 0.0], [0.0, 3e-9, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateBone, match="bone norms 1.000e[+]00, 3.000e-09"):
            _align_stack(t, p)
        template = np.eye(3)[:, :2]
        observed = np.array([template, np.zeros((3, 2))])
        with pytest.raises(RankDeficient, match=r"singular values \[0. 0. 0.\]"):
            _procrustes_stack(template, observed)
