"""Projection, perturbation rotations, keypoint transfer, box rectification."""

import math

import numpy as np
import pytest

from camperturb import (
    BehindCamera,
    Box3D,
    CameraIntrinsics,
    CameraPoint,
    DegenerateBox,
    ExtrinsicPerturbation,
    ImagePoint,
    NonPositiveDepth,
    NotARotation,
    OutOfRange,
    SingularHomography,
    backproject,
    box_corners,
    ensure_rotation,
    image_homography,
    keypoint_transfer,
    perturbation_matrix,
    perturbation_matrix_literal,
    project,
    rectify_center,
    rectify_center_inverse,
    rot_x,
    rot_z,
    transfer_matrix,
    transform_box,
)
from camperturb.geometry import ROTATION_TOL, _perturbation_matrices, _rotation_fault

from helpers import DEFAULT_K, make_box
from oracles import apply3, matmul3

K = DEFAULT_K


def explicit_rot_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    return [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]


def explicit_rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]


# ---------------------------------------------------------------------------
# types


class TestTypes:
    def test_intrinsics_reject_nonpositive_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=700.0, cx=600.0, cy=180.0)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=700.0, fy=-1.0, cx=600.0, cy=180.0)

    def test_intrinsics_reject_nonfinite(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=700.0, fy=700.0, cx=math.nan, cy=180.0)

    def test_inverse_matrix_is_analytic_inverse(self):
        k = CameraIntrinsics(fx=720.0, fy=680.0, cx=610.0, cy=170.0, skew=2.5)
        product = k.matrix() @ k.inverse_matrix()
        assert np.abs(product - np.eye(3)).max() < 1e-12

    def test_inverse_matrix_sends_principal_point_to_axis(self):
        k = CameraIntrinsics(fx=720.0, fy=680.0, cx=610.0, cy=170.0, skew=2.5)
        ray = k.inverse_matrix() @ np.array([k.cx, k.cy, 1.0])
        assert ray == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_from_projection(self):
        p = np.array(
            [[700.0, 0.0, 600.0, 0.0], [0.0, 700.0, 180.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
        )
        k = CameraIntrinsics.from_projection(p)
        assert (k.fx, k.fy, k.cx, k.cy, k.skew) == (700.0, 700.0, 600.0, 180.0, 0.0)
        with pytest.raises(ValueError, match=r"^projection matrix must be 3x4, got \(3, 3\)$"):
            CameraIntrinsics.from_projection(p[:, :3])

    def test_perturbation_angle_bounds(self):
        ExtrinsicPerturbation(pitch=1.5, roll=-1.5)
        with pytest.raises(OutOfRange):
            ExtrinsicPerturbation(pitch=math.pi / 2, roll=0.0)
        with pytest.raises(OutOfRange):
            ExtrinsicPerturbation(pitch=0.0, roll=-math.pi / 2)

    def test_box_rejects_degenerate_dimensions(self):
        with pytest.raises(DegenerateBox):
            Box3D(center=CameraPoint(0, 0, 10), height=0.0, width=1.0, length=1.0, yaw=0.0)

    def test_box_rejects_out_of_range_yaw(self):
        with pytest.raises(OutOfRange):
            Box3D(center=CameraPoint(0, 0, 10), height=1.0, width=1.0, length=1.0, yaw=4.0)


# ---------------------------------------------------------------------------
# perturbation_matrix


class TestPerturbationMatrix:
    def test_zero_angles_give_identity(self):
        assert np.array_equal(perturbation_matrix(ExtrinsicPerturbation(0.0, 0.0)), np.eye(3))

    def test_pure_pitch_thirty_degrees(self):
        r = perturbation_matrix(ExtrinsicPerturbation(pitch=math.pi / 6, roll=0.0))
        expected = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, math.sqrt(3) / 2, -0.5],
                [0.0, 0.5, math.sqrt(3) / 2],
            ]
        )
        assert np.abs(r - expected).max() < 1e-15

    def test_matches_independent_product_and_is_orthogonal(self):
        p = ExtrinsicPerturbation(pitch=0.05, roll=0.02)
        r = perturbation_matrix(p)
        expected = matmul3(explicit_rot_x(0.05), explicit_rot_z(0.02))
        assert np.abs(r - expected).max() < 1e-15
        assert np.abs(r @ r.T - np.eye(3)).max() < 1e-12

    def test_axis_factors(self):
        p = ExtrinsicPerturbation(pitch=0.3, roll=0.0)
        assert np.array_equal(perturbation_matrix(p), rot_x(0.3))
        p = ExtrinsicPerturbation(pitch=0.0, roll=-0.2)
        assert np.array_equal(perturbation_matrix(p), rot_z(-0.2))

    def test_orthogonality_over_random_angles(self):
        rng = np.random.default_rng(7)
        eye = np.eye(3)
        for _ in range(10_000):
            pitch, roll = rng.uniform(-math.pi / 2, math.pi / 2, size=2)
            pitch = min(max(pitch, -1.5707), 1.5707)
            roll = min(max(roll, -1.5707), 1.5707)
            r = perturbation_matrix(ExtrinsicPerturbation(pitch, roll))
            assert np.linalg.norm(r @ r.T - eye) < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12


class TestLiteralMatrix:
    def test_zero_angles_give_identity(self):
        m = perturbation_matrix_literal(ExtrinsicPerturbation(0.0, 0.0))
        assert np.array_equal(m, np.eye(3))

    def test_quarter_roll_is_singular(self):
        m = perturbation_matrix_literal(ExtrinsicPerturbation(pitch=0.0, roll=math.pi / 4))
        h = math.sqrt(2) / 2
        expected = np.array([[h, h, 0.0], [h, h, 0.0], [0.0, 0.0, 1.0]])
        assert np.abs(m - expected).max() < 1e-15
        assert abs(np.linalg.det(m)) < 1e-12

    def test_small_angles_fail_orthogonality(self):
        m = perturbation_matrix_literal(ExtrinsicPerturbation(pitch=0.05, roll=0.02))
        assert np.linalg.norm(m @ m.T - np.eye(3)) > 1e-3

    def test_determinant_is_cos_of_twice_roll(self):
        for roll in (0.1, 0.3, -0.25, 0.7):
            m = perturbation_matrix_literal(ExtrinsicPerturbation(pitch=0.2, roll=roll))
            assert np.linalg.det(m) == pytest.approx(math.cos(2 * roll), abs=1e-12)


class TestEnsureRotation:
    def test_accepts_canonical_rotation(self):
        r = perturbation_matrix(ExtrinsicPerturbation(0.2, -0.1))
        assert np.array_equal(ensure_rotation(r), r)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotARotation):
            ensure_rotation(np.eye(3) * 1.001)

    def test_rejects_reflection(self):
        with pytest.raises(NotARotation):
            ensure_rotation(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_a_negative_tolerance(self):
        with pytest.raises(ValueError, match="^tol must be non-negative, got -1$"):
            ensure_rotation(np.eye(3), tol=-1)

    def test_rejects_wrong_shape_and_nonfinite(self):
        with pytest.raises(NotARotation):
            ensure_rotation(np.eye(2))
        bad = np.eye(3)
        bad[0, 0] = math.nan
        with pytest.raises(NotARotation):
            ensure_rotation(bad)

    def test_stacked_check_names_the_first_failing_matrix(self):
        nan = np.eye(3)
        nan[1, 2] = math.nan
        for m in (np.eye(3) * 1.001, np.diag([1.0, -1.0, 1.0]), nan):
            stack = np.stack([rot_x(0.3), rot_z(-0.2), m, np.eye(3) * 1.5])
            with pytest.raises(NotARotation) as exc:
                ensure_rotation(m, tol=ROTATION_TOL)
            assert _rotation_fault(stack, ROTATION_TOL) == (2, str(exc.value))
        assert _rotation_fault(np.stack([rot_x(0.3), rot_z(-0.2)]), ROTATION_TOL) is None
        assert _rotation_fault(np.empty((0, 3, 3)), ROTATION_TOL) is None

    def test_stacked_perturbation_matrices_equal_rot_x_times_rot_z(self):
        rng = np.random.default_rng(53)
        pitch, roll = rng.uniform(-1.5, 1.5, (2, 500))
        for p, r, m in zip(pitch, roll, _perturbation_matrices(pitch, roll)):
            assert np.array_equal(m, rot_x(p) @ rot_z(r))


# ---------------------------------------------------------------------------
# project / backproject


class TestProject:
    def test_principal_ray(self):
        pt = project(K, CameraPoint(0.0, 0.0, 10.0))
        assert (pt.u, pt.v, pt.depth) == (600.0, 180.0, 10.0)

    def test_offset_point(self):
        pt = project(K, CameraPoint(1.0, 0.0, 10.0))
        assert (pt.u, pt.v, pt.depth) == (670.0, 180.0, 10.0)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(NonPositiveDepth):
            project(K, CameraPoint(0.0, 0.0, -1.0))
        with pytest.raises(NonPositiveDepth):
            project(K, CameraPoint(0.0, 0.0, 0.0))

    def test_skew_contributes_to_u(self):
        k = CameraIntrinsics(fx=700.0, fy=700.0, cx=600.0, cy=180.0, skew=10.0)
        pt = project(k, CameraPoint(0.0, 2.0, 10.0))
        assert pt.u == pytest.approx(600.0 + 10.0 * 2.0 / 10.0, abs=1e-12)


class TestBackproject:
    def test_principal_ray_inverse(self):
        cam = backproject(K, ImagePoint(600.0, 180.0), 10.0)
        assert (cam.x, cam.y, cam.z) == (0.0, 0.0, 10.0)

    def test_offset_inverse(self):
        cam = backproject(K, ImagePoint(670.0, 180.0), 10.0)
        assert (cam.x, cam.y, cam.z) == (1.0, 0.0, 10.0)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(NonPositiveDepth):
            backproject(K, ImagePoint(600.0, 180.0), 0.0)
        with pytest.raises(NonPositiveDepth):
            backproject(K, ImagePoint(600.0, 180.0), -3.0)

    def test_round_trip_on_random_points(self):
        rng = np.random.default_rng(11)
        k = CameraIntrinsics(fx=720.0, fy=680.0, cx=610.0, cy=170.0, skew=1.5)
        for _ in range(1000):
            u = rng.uniform(-200.0, 1400.0)
            v = rng.uniform(-200.0, 600.0)
            z = rng.uniform(0.5, 80.0)
            pt = project(k, backproject(k, ImagePoint(u, v), z))
            assert abs(pt.u - u) < 1e-9
            assert abs(pt.v - v) < 1e-9
            assert pt.depth == z


# ---------------------------------------------------------------------------
# keypoint_transfer / transfer_matrix


class TestKeypointTransfer:
    def test_identity_is_a_fixed_point(self):
        pt = keypoint_transfer(K, K, np.eye(3), ImagePoint(623.0, 201.0), 10.0)
        assert (pt.u, pt.v, pt.depth) == (623.0, 201.0, 10.0)

    def test_small_pitch_moves_principal_point_up(self):
        # Independent oracle: backproject -> explicit R_x product -> project.
        pt = keypoint_transfer(K, K, rot_x(0.01), ImagePoint(600.0, 180.0), 10.0)
        cam = apply3(explicit_rot_x(0.01), [0.0, 0.0, 10.0])
        expected_v = 700.0 * cam[1] / cam[2] + 180.0
        assert pt.u == 600.0
        assert pt.v == pytest.approx(expected_v, abs=1e-12)
        assert pt.v == pytest.approx(180.0 - 700.0 * math.tan(0.01), abs=1e-9)

    def test_large_pitch_pushes_point_behind_camera(self):
        # v far above the principal point => strongly negative y; rotating by
        # 1.5 rad makes z' = sin(1.5)*y + cos(1.5)*z negative.
        with pytest.raises(BehindCamera):
            keypoint_transfer(K, K, rot_x(1.5), ImagePoint(600.0, -6820.0), 10.0)

    def test_composition_with_inverse_returns_original(self):
        rng = np.random.default_rng(13)
        k_other = CameraIntrinsics(fx=650.0, fy=640.0, cx=590.0, cy=190.0)
        for _ in range(200):
            r = perturbation_matrix(
                ExtrinsicPerturbation(*rng.uniform(-0.2, 0.2, size=2))
            )
            u = rng.uniform(300.0, 900.0)
            v = rng.uniform(50.0, 310.0)
            z = rng.uniform(2.0, 60.0)
            fwd = keypoint_transfer(K, k_other, r, ImagePoint(u, v), z)
            back = keypoint_transfer(k_other, K, r.T, ImagePoint(fwd.u, fwd.v), fwd.depth)
            assert abs(back.u - u) < 1e-9
            assert abs(back.v - v) < 1e-9

    def test_depth_invariance_under_pure_rotation(self):
        r = perturbation_matrix(ExtrinsicPerturbation(0.07, -0.04))
        results = [
            keypoint_transfer(K, K, r, ImagePoint(650.0, 200.0), z)
            for z in (0.5, 5.0, 500.0)
        ]
        for pt in results[1:]:
            assert abs(pt.u - results[0].u) < 1e-9
            assert abs(pt.v - results[0].v) < 1e-9

    def test_transfer_matrix_reproduces_keypoint_transfer(self):
        rng = np.random.default_rng(17)
        k_other = CameraIntrinsics(fx=650.0, fy=640.0, cx=590.0, cy=190.0, skew=0.7)
        for _ in range(100):
            r = perturbation_matrix(
                ExtrinsicPerturbation(*rng.uniform(-0.2, 0.2, size=2))
            )
            u = rng.uniform(300.0, 900.0)
            v = rng.uniform(50.0, 310.0)
            z = rng.uniform(2.0, 60.0)
            pt = keypoint_transfer(K, k_other, r, ImagePoint(u, v), z)
            m = transfer_matrix(K, k_other, r, z, pt.depth)
            w = m @ np.array([u, v, 1.0])
            assert w[2] == pytest.approx(1.0, abs=1e-12)
            assert abs(w[0] / w[2] - pt.u) < 1e-9
            assert abs(w[1] / w[2] - pt.v) < 1e-9

    def test_transfer_matrix_rejects_nonpositive_depths(self):
        with pytest.raises(NonPositiveDepth):
            transfer_matrix(K, K, np.eye(3), 0.0, 1.0)
        with pytest.raises(NonPositiveDepth):
            transfer_matrix(K, K, np.eye(3), 1.0, -2.0)


# ---------------------------------------------------------------------------
# image_homography


class TestImageHomography:
    def test_identity_rotation_gives_exact_identity(self):
        assert np.array_equal(image_homography(K, np.eye(3)), np.eye(3))

    def test_pure_roll_fixes_principal_point(self):
        for angle in (0.05, -0.3, 1.0):
            h = image_homography(K, rot_z(angle))
            w = h @ np.array([K.cx, K.cy, 1.0])
            assert abs(w[0] / w[2] - K.cx) < 1e-9
            assert abs(w[1] / w[2] - K.cy) < 1e-9

    def test_normalized_bottom_right_entry(self):
        h = image_homography(K, perturbation_matrix(ExtrinsicPerturbation(0.1, 0.05)))
        assert h[2, 2] == 1.0

    def test_matches_keypoint_transfer_at_multiple_depths(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            k = CameraIntrinsics(
                fx=rng.uniform(400.0, 900.0),
                fy=rng.uniform(400.0, 900.0),
                cx=rng.uniform(400.0, 800.0),
                cy=rng.uniform(100.0, 300.0),
            )
            r = perturbation_matrix(
                ExtrinsicPerturbation(*rng.uniform(-0.15, 0.15, size=2))
            )
            h = image_homography(k, r)
            u = rng.uniform(k.cx - 300.0, k.cx + 300.0)
            v = rng.uniform(k.cy - 120.0, k.cy + 120.0)
            w = h @ np.array([u, v, 1.0])
            mapped_u, mapped_v = w[0] / w[2], w[1] / w[2]
            for z in (1.0, 5.0, 50.0):
                pt = keypoint_transfer(k, k, r, ImagePoint(u, v), z)
                assert abs(pt.u - mapped_u) < 1e-9
                assert abs(pt.v - mapped_v) < 1e-9

    def test_rejects_wrong_shape(self):
        with pytest.raises(NotARotation):
            image_homography(K, np.eye(4))

    def test_rejects_a_singular_matrix(self):
        with pytest.raises(SingularHomography, match="^homography is singular"):
            image_homography(K, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# transform_box / box_corners


class TestTransformBox:
    def test_identity_leaves_box_unchanged(self):
        box = make_box(x=1.0, y=1.7, z=20.0, yaw=0.4)
        out = transform_box(np.eye(3), box)
        assert out.center == box.center
        assert (out.height, out.width, out.length) == (box.height, box.width, box.length)
        assert out.yaw == pytest.approx(box.yaw, abs=1e-15)

    def test_half_turn_about_optical_axis(self):
        box = make_box(x=1.0, y=2.0, z=10.0, yaw=0.0)
        out = transform_box(rot_z(math.pi), box)
        assert out.center.x == pytest.approx(-1.0, abs=1e-12)
        assert out.center.y == pytest.approx(-2.0, abs=1e-12)
        assert out.center.z == pytest.approx(10.0, abs=1e-12)
        assert out.yaw == pytest.approx(0.0, abs=1e-12)

    def test_pitch_rotation_center_against_matrix_oracle(self):
        box = make_box(x=0.0, y=1.7, z=20.0, yaw=0.0)
        out = transform_box(rot_x(0.1), box)
        expected = apply3(explicit_rot_x(0.1), [0.0, 1.7, 20.0])
        assert out.center.x == pytest.approx(expected[0], abs=1e-12)
        assert out.center.y == pytest.approx(expected[1], abs=1e-12)
        assert out.center.z == pytest.approx(expected[2], abs=1e-12)
        assert out.yaw == pytest.approx(0.0, abs=1e-12)

    def test_preserves_dimensions_and_center_distance(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            box = make_box(
                x=rng.uniform(-10, 10),
                y=rng.uniform(-2, 3),
                z=rng.uniform(1, 60),
                height=rng.uniform(0.5, 3),
                width=rng.uniform(0.5, 3),
                length=rng.uniform(0.5, 8),
                yaw=rng.uniform(-math.pi, math.pi),
            )
            r = perturbation_matrix(
                ExtrinsicPerturbation(*rng.uniform(-0.4, 0.4, size=2))
            )
            out = transform_box(r, box)
            assert (out.height, out.width, out.length) == (
                box.height,
                box.width,
                box.length,
            )
            before = np.linalg.norm(box.center.as_array())
            after = np.linalg.norm(out.center.as_array())
            assert abs(before - after) < 1e-12

    def test_yaw_follows_rotated_heading(self):
        box = make_box(x=0.0, y=1.7, z=20.0, yaw=0.3)
        r = rot_z(0.25)
        out = transform_box(r, box)
        heading = apply3(explicit_rot_z(0.25), [math.sin(0.3), 0.0, math.cos(0.3)])
        assert out.yaw == pytest.approx(math.atan2(heading[0], heading[2]), abs=1e-15)


class TestBoxCorners:
    def test_axis_aligned_corner_coordinates(self):
        box = make_box(x=0.0, y=1.0, z=10.0, height=2.0, width=2.0, length=4.0, yaw=0.0)
        corners = box_corners(box)
        assert corners.shape == (8, 3)
        # yaw 0: length along +z, width along +x
        assert set(np.round(corners[:, 0], 12)) == {-1.0, 1.0}
        assert set(np.round(corners[:, 1], 12)) == {-1.0, 1.0}
        assert set(np.round(corners[:, 2], 12)) == {8.0, 12.0}
        # bottom face first (y = center.y), then top (y = center.y - height)
        assert np.all(corners[:4, 1] == 1.0)
        assert np.all(corners[4:, 1] == -1.0)

    def test_quarter_turn_swaps_axes(self):
        box = make_box(x=0.0, y=0.0, z=10.0, height=1.0, width=2.0, length=4.0, yaw=math.pi / 2)
        corners = box_corners(box)
        xs = np.round(corners[:, 0], 9)
        zs = np.round(corners[:, 2], 9)
        assert set(xs) == {-2.0, 2.0}
        assert set(zs) == {9.0, 11.0}


# ---------------------------------------------------------------------------
# rectify_center


class TestRectifyCenter:
    def test_identity_leaves_point_unchanged(self):
        c = CameraPoint(1.0, -2.0, 15.0)
        out = rectify_center(np.eye(3), c)
        assert (out.x, out.y, out.z) == (1.0, -2.0, 15.0)

    def test_pitch_rotation_against_matrix_oracle(self):
        out = rectify_center(rot_x(0.1), CameraPoint(0.0, 0.0, 10.0))
        expected = apply3(explicit_rot_x(0.1), [0.0, 0.0, 10.0])
        assert out.x == pytest.approx(expected[0], abs=1e-15)
        assert out.y == pytest.approx(expected[1], abs=1e-15)
        assert out.z == pytest.approx(expected[2], abs=1e-15)
        # under the y-down frame, tipping the axis down lifts the point: y < 0
        assert out.y == pytest.approx(-10.0 * math.sin(0.1), abs=1e-12)
        assert out.z == pytest.approx(10.0 * math.cos(0.1), abs=1e-12)

    def test_inverse_round_trip_on_random_inputs(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            r = perturbation_matrix(
                ExtrinsicPerturbation(*rng.uniform(-1.2, 1.2, size=2))
            )
            c = CameraPoint(*rng.uniform(-50.0, 50.0, size=3))
            out = rectify_center(r, rectify_center_inverse(r, c))
            assert abs(out.x - c.x) < 1e-12
            assert abs(out.y - c.y) < 1e-12
            assert abs(out.z - c.z) < 1e-12
