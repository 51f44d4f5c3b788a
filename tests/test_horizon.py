"""Horizon/vanishing-point <-> perturbation mapping and the angular-error metric."""

import math

import numpy as np
import pytest

from camperturb import (
    ExtrinsicPerturbation,
    HorizonLine,
    NotARotation,
    VanishingPoint,
    angular_error,
    extrinsics_from_horizon_vp,
    horizon_vp_from_extrinsics,
    perturbation_matrix,
    rot_x,
    rot_z,
)
from camperturb.horizon import _angular_errors

from helpers import DEFAULT_K
from oracles import apply3, matmul3, pairwise_angle_deg, rotation_angle_deg

K = DEFAULT_K


class TestTypes:
    def test_horizon_line_evaluates_about_principal_column(self):
        line = HorizonLine(slope=0.5, intercept_v=100.0)
        assert line.v_at(K.cx, K.cx) == 100.0
        assert line.v_at(K.cx + 10.0, K.cx) == 105.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            HorizonLine(slope=math.inf, intercept_v=0.0)
        with pytest.raises(ValueError):
            VanishingPoint(u=0.0, v=math.nan)


class TestExtrinsicsFromHorizonVp:
    def test_unperturbed_reference(self):
        p = extrinsics_from_horizon_vp(
            HorizonLine(slope=0.0, intercept_v=K.cy), VanishingPoint(K.cx, K.cy), K
        )
        assert p.pitch == 0.0
        assert p.roll == 0.0

    def test_pitch_from_vertical_vp_offset(self):
        # The forward ray under a 0.01 rad downward tip projects to
        # v = cy - fy*tan(0.01); a VP 7 px above cy therefore means
        # pitch = atan(7/700) = atan(0.01).
        p = extrinsics_from_horizon_vp(
            HorizonLine(slope=0.0, intercept_v=K.cy - 7.0),
            VanishingPoint(K.cx, K.cy - 7.0),
            K,
        )
        assert p.pitch == pytest.approx(math.atan(0.01), abs=1e-15)
        assert p.pitch == pytest.approx(0.0099997, abs=1e-7)
        assert p.roll == 0.0

    def test_roll_from_slope(self):
        p = extrinsics_from_horizon_vp(
            HorizonLine(slope=math.tan(0.02), intercept_v=K.cy),
            VanishingPoint(K.cx, K.cy),
            K,
        )
        assert p.roll == pytest.approx(0.02, abs=1e-12)


class TestHorizonVpFromExtrinsics:
    def test_zero_perturbation(self):
        line, vp = horizon_vp_from_extrinsics(ExtrinsicPerturbation(0.0, 0.0), K)
        assert line.slope == 0.0
        assert (vp.u, vp.v) == (K.cx, K.cy)

    def test_small_pitch_vp_against_homography_oracle(self):
        line, vp = horizon_vp_from_extrinsics(ExtrinsicPerturbation(0.01, 0.0), K)
        # Independent oracle: w = K * R_x(0.01) * K^-1 * (cx, cy, 1).
        c, s = math.cos(0.01), math.sin(0.01)
        r = [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]
        h = matmul3(matmul3(K.matrix(), r), K.inverse_matrix())
        w = apply3(h, [K.cx, K.cy, 1.0])
        assert vp.u == pytest.approx(w[0] / w[2], abs=1e-12)
        assert vp.v == pytest.approx(w[1] / w[2], abs=1e-12)
        assert vp.u == pytest.approx(600.0, abs=1e-9)
        assert vp.v == pytest.approx(173.0, abs=1e-3)

    def test_round_trip_over_random_perturbations(self):
        rng = np.random.default_rng(31)
        for _ in range(10_000):
            pitch, roll = rng.uniform(-0.3, 0.3, size=2)
            p = ExtrinsicPerturbation(pitch, roll)
            line, vp = horizon_vp_from_extrinsics(p, K)
            back = extrinsics_from_horizon_vp(line, vp, K)
            assert abs(back.pitch - pitch) < 1e-9
            assert abs(back.roll - roll) < 1e-9

    def test_pitch_only_keeps_slope_exactly_zero(self):
        for pitch in (0.001, 0.05, -0.2, 0.29):
            line, _ = horizon_vp_from_extrinsics(ExtrinsicPerturbation(pitch, 0.0), K)
            assert line.slope == 0.0

    def test_roll_only_keeps_vp_on_horizon(self):
        for roll in (0.001, 0.05, -0.2, 0.29):
            line, vp = horizon_vp_from_extrinsics(ExtrinsicPerturbation(0.0, roll), K)
            assert abs(line.v_at(vp.u, K.cx) - vp.v) < 1e-9

    def test_positive_pitch_moves_vp_up(self):
        _, vp = horizon_vp_from_extrinsics(ExtrinsicPerturbation(0.05, 0.0), K)
        assert vp.v < K.cy

    def test_positive_roll_gives_positive_image_slope(self):
        line, _ = horizon_vp_from_extrinsics(ExtrinsicPerturbation(0.0, 0.05), K)
        assert line.slope > 0.0
        assert line.slope == pytest.approx(math.tan(0.05), abs=1e-15)


class TestAngularError:
    def test_identical_rotations(self):
        r = perturbation_matrix(ExtrinsicPerturbation(0.2, -0.1))
        assert angular_error(r, r) == 0.0

    def test_tenth_radian_pitch(self):
        err = angular_error(rot_x(0.1), np.eye(3))
        assert err == pytest.approx(5.72958, abs=1e-5)
        assert err == pytest.approx(math.degrees(0.1), abs=1e-9)

    def test_small_angle_known_answer(self):
        # The trace/acos oracle cannot resolve this angle: cos(1e-8) == 1.0.
        err = angular_error(rot_x(1e-8), np.eye(3))
        assert err == pytest.approx(math.degrees(1e-8), rel=1e-6)

    def test_opposing_pitches(self):
        err = angular_error(rot_x(0.1), rot_x(-0.1))
        assert err == pytest.approx(11.45916, abs=1e-5)
        assert err == pytest.approx(math.degrees(0.2), abs=1e-9)

    def test_symmetric_in_arguments(self):
        a = perturbation_matrix(ExtrinsicPerturbation(0.2, 0.1))
        b = perturbation_matrix(ExtrinsicPerturbation(-0.1, 0.3))
        assert angular_error(a, b) == angular_error(b, a)

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            a = perturbation_matrix(ExtrinsicPerturbation(*rng.uniform(-1.0, 1.0, 2)))
            b = perturbation_matrix(ExtrinsicPerturbation(*rng.uniform(-1.0, 1.0, 2)))
            expected = rotation_angle_deg(np.asarray(a).T @ np.asarray(b))
            assert angular_error(a, b) == pytest.approx(expected, abs=1e-9)

    def test_rejects_non_rotation(self):
        with pytest.raises(NotARotation):
            angular_error(np.eye(3) * 1.001, np.eye(3))
        with pytest.raises(NotARotation):
            angular_error(np.eye(3), np.diag([1.0, -1.0, 1.0]))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            rots = [
                perturbation_matrix(ExtrinsicPerturbation(*rng.uniform(-1.0, 1.0, 2)))
                for _ in range(3)
            ]
            ab = angular_error(rots[0], rots[1])
            bc = angular_error(rots[1], rots[2])
            ac = angular_error(rots[0], rots[2])
            assert ac <= ab + bc + 1e-9

    def test_invariant_under_common_left_multiplication(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            a = perturbation_matrix(ExtrinsicPerturbation(*rng.uniform(-1.0, 1.0, 2)))
            b = perturbation_matrix(ExtrinsicPerturbation(*rng.uniform(-1.0, 1.0, 2)))
            g = perturbation_matrix(ExtrinsicPerturbation(*rng.uniform(-1.0, 1.0, 2)))
            assert angular_error(g @ a, g @ b) == pytest.approx(
                angular_error(a, b), abs=1e-9
            )

    def test_equals_stacked_kernel_bit_for_bit(self):
        rng = np.random.default_rng(47)
        q, _ = np.linalg.qr(rng.normal(size=(1000, 3, 3)))
        est = q * np.sign(np.linalg.det(q))[:, None, None]
        q, _ = np.linalg.qr(rng.normal(size=(500, 3, 3)))
        far = q * np.sign(np.linalg.det(q))[:, None, None]
        near = [r @ (rot_x(1e-8) if i % 2 else rot_z(-1e-8)) for i, r in enumerate(est[500:])]
        gt = np.concatenate([far, near])
        expected = [pairwise_angle_deg(a, b) for a, b in zip(est, gt)]
        assert _angular_errors(est, gt) == expected
        assert [angular_error(a, b) for a, b in zip(est, gt)] == expected
        assert all(e == pytest.approx(math.degrees(1e-8), rel=1e-6) for e in expected[500:])
