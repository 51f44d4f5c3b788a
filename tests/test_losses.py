"""Gram matrices, content/style losses, weighted totals, closed-form gradients."""

import math

import numpy as np
import pytest

from camperturb import (
    ChannelMismatch,
    FeatureTensor,
    ShapeMismatch,
    content_loss,
    gram,
    loss_gradients,
    style_loss,
    total_loss,
)

from oracles import finite_difference_gradient, naive_gram


def tensor(values):
    return FeatureTensor(data=np.asarray(values, dtype=float))


def random_tensor(rng, c=None, h=None, w=None, scale=1.0):
    c = c or int(rng.integers(1, 5))
    h = h or int(rng.integers(1, 5))
    w = w or int(rng.integers(1, 5))
    return FeatureTensor(data=rng.normal(0.0, scale, size=(c, h, w)))


class TestFeatureTensor:
    def test_properties(self):
        t = tensor(np.zeros((2, 3, 4)))
        assert (t.channels, t.height, t.width, t.size) == (2, 3, 4, 24)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            tensor(np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_rejects_a_zero_length_axis(self, shape):
        with pytest.raises(ValueError, match=r"^feature tensor axes must be >= 1, got \("):
            tensor(np.zeros(shape))

    def test_rejects_nonfinite(self):
        bad = np.zeros((1, 1, 2))
        bad[0, 0, 0] = math.inf
        with pytest.raises(ValueError):
            tensor(bad)

    def test_data_is_immutable_copy(self):
        src = np.ones((1, 2, 2))
        t = FeatureTensor(data=src)
        src[0, 0, 0] = 99.0
        assert t.data[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 5.0


class TestGram:
    def test_two_channel_single_pixel(self):
        g = gram(tensor([[[2.0]], [[3.0]]]))
        expected = np.array([[2.0, 3.0], [3.0, 4.5]])
        assert np.array_equal(g, expected)

    def test_zero_tensor(self):
        g = gram(tensor(np.zeros((3, 2, 2))))
        assert np.array_equal(g, np.zeros((3, 3)))

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(137)
        for _ in range(50):
            t = random_tensor(rng)
            assert np.abs(gram(t) - naive_gram(t.data)).max() < 1e-12

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(139)
        for _ in range(100):
            g = gram(random_tensor(rng, scale=10.0))
            assert np.array_equal(g, g.T)
            eigenvalues = np.linalg.eigvalsh(g)
            assert eigenvalues.min() >= -1e-9

    def test_scale_covariance(self):
        rng = np.random.default_rng(149)
        t = random_tensor(rng)
        lam = 3.7
        scaled = FeatureTensor(data=lam * t.data)
        assert np.abs(gram(scaled) - lam**2 * gram(t)).max() < 1e-9


class TestContentLoss:
    def test_equal_tensors(self):
        t = tensor(np.ones((2, 3, 3)))
        assert content_loss(t, t) == 0.0

    def test_uniform_difference(self):
        d = 0.75
        a = tensor(np.zeros((3, 4, 4)))
        b = tensor(np.full((3, 4, 4), d))
        assert content_loss(a, b) == pytest.approx(d * d, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch) as exc:
            content_loss(tensor(np.zeros((3, 4, 4))), tensor(np.zeros((3, 4, 5))))
        assert "(3, 4, 4)" in str(exc.value)
        assert "(3, 4, 5)" in str(exc.value)

    def test_metric_squared_properties(self):
        rng = np.random.default_rng(151)
        for _ in range(50):
            a = random_tensor(rng, c=2, h=3, w=3)
            b = random_tensor(rng, c=2, h=3, w=3)
            ab = content_loss(a, b)
            assert ab >= 0.0
            assert ab == content_loss(b, a)
            assert content_loss(a, a) == 0.0

    def test_scale_covariance(self):
        rng = np.random.default_rng(157)
        a = random_tensor(rng, c=2, h=2, w=2)
        b = random_tensor(rng, c=2, h=2, w=2)
        lam = 2.5
        scaled = content_loss(
            FeatureTensor(data=lam * a.data), FeatureTensor(data=lam * b.data)
        )
        assert scaled == pytest.approx(lam**2 * content_loss(a, b), rel=1e-12)


class TestStyleLoss:
    def test_identical_tensors(self):
        t = tensor(np.arange(8, dtype=float).reshape(2, 2, 2))
        assert style_loss(t, t) == 0.0

    def test_frobenius_norm_against_zero_target(self):
        t = tensor([[[2.0]], [[3.0]]])
        zero = tensor(np.zeros((2, 1, 1)))
        # gram(t) = [[2, 3], [3, 4.5]]; squared Frobenius norm = 42.25
        assert style_loss(t, zero) == pytest.approx(42.25, abs=1e-12)

    def test_channel_mismatch(self):
        with pytest.raises(ChannelMismatch):
            style_loss(tensor(np.zeros((2, 2, 2))), tensor(np.zeros((3, 2, 2))))

    def test_different_spatial_sizes_allowed(self):
        a = tensor(np.ones((2, 2, 2)))
        b = tensor(np.ones((2, 5, 3)))
        assert style_loss(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_invariant_under_spatial_permutation(self):
        rng = np.random.default_rng(163)
        for _ in range(30):
            t = random_tensor(rng, c=3, h=4, w=4)
            base = style_loss(t, random_tensor(rng, c=3))
            flat = t.data.reshape(3, -1)
            perm = rng.permutation(flat.shape[1])
            shuffled = FeatureTensor(data=flat[:, perm].reshape(t.data.shape))
            assert abs(style_loss(shuffled, t) - 0.0) < 1e-12
            assert gram(shuffled) == pytest.approx(gram(t), abs=1e-12)
            del base


class TestTotalLoss:
    def test_zero_weights(self):
        rng = np.random.default_rng(167)
        out = random_tensor(rng, c=2, h=3, w=3)
        target = random_tensor(rng, c=2, h=3, w=3)
        styles = [random_tensor(rng, c=2)]
        assert total_loss(out, target, styles, gamma_content=0.0, gamma_style=0.0) == 0.0

    def test_content_only(self):
        rng = np.random.default_rng(173)
        out = random_tensor(rng, c=2, h=3, w=3)
        target = random_tensor(rng, c=2, h=3, w=3)
        got = total_loss(out, target, [], gamma_content=2.5, gamma_style=0.0)
        assert got == pytest.approx(2.5 * content_loss(out, target), rel=1e-15)

    def test_linearity_in_content_weight(self):
        rng = np.random.default_rng(179)
        out = random_tensor(rng, c=2, h=3, w=3)
        target = random_tensor(rng, c=2, h=3, w=3)
        styles = [random_tensor(rng, c=2) for _ in range(3)]

        def total(g1, g2):
            return total_loss(out, target, styles, gamma_content=g1, gamma_style=g2)

        base = total(0.0, 1.0)
        assert total(2.0, 1.0) - base == pytest.approx(
            2.0 * (total(1.0, 1.0) - base), rel=1e-9
        )

    def test_style_layers_sum(self):
        rng = np.random.default_rng(181)
        out = random_tensor(rng, c=3, h=2, w=2)
        target = random_tensor(rng, c=3, h=2, w=2)
        styles = [random_tensor(rng, c=3) for _ in range(3)]
        expected = content_loss(out, target) + sum(style_loss(out, s) for s in styles)
        assert total_loss(out, target, styles) == pytest.approx(expected, rel=1e-12)

    def test_rejects_negative_weights(self):
        t = tensor(np.zeros((1, 1, 1)))
        with pytest.raises(ValueError):
            total_loss(t, t, [], gamma_content=-1.0)
        with pytest.raises(ValueError, match="^gamma_style must be >= 0, got -1$"):
            total_loss(t, t, [t], gamma_style=-1)


class TestLossGradients:
    def test_zero_at_content_minimum(self):
        rng = np.random.default_rng(191)
        t = random_tensor(rng, c=3, h=3, w=3)
        grad = loss_gradients(t, t, [], gamma_content=1.0, gamma_style=0.0)
        assert np.array_equal(grad.data, np.zeros_like(t.data))

    def test_zero_weights_zero_gradient(self):
        rng = np.random.default_rng(193)
        out = random_tensor(rng, c=2, h=2, w=2)
        target = random_tensor(rng, c=2, h=2, w=2)
        styles = [random_tensor(rng, c=2)]
        grad = loss_gradients(out, target, styles, gamma_content=0.0, gamma_style=0.0)
        assert np.array_equal(grad.data, np.zeros_like(out.data))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            loss_gradients(
                tensor(np.zeros((2, 2, 2))), tensor(np.zeros((2, 2, 3))), []
            )

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(197)
        for _ in range(100):
            c = int(rng.integers(1, 5))
            out = random_tensor(rng, c=c, h=int(rng.integers(1, 5)), w=int(rng.integers(1, 5)))
            target = FeatureTensor(data=rng.normal(size=out.data.shape))
            styles = [
                FeatureTensor(
                    data=rng.normal(size=(c, int(rng.integers(1, 5)), int(rng.integers(1, 5))))
                )
                for _ in range(int(rng.integers(0, 3)))
            ]
            g1 = float(rng.uniform(0.0, 2.0))
            g2 = float(rng.uniform(0.0, 2.0))

            def objective(values):
                return total_loss(
                    FeatureTensor(data=values),
                    target,
                    styles,
                    gamma_content=g1,
                    gamma_style=g2,
                )

            analytic = loss_gradients(
                out, target, styles, gamma_content=g1, gamma_style=g2
            ).data
            numeric = finite_difference_gradient(objective, np.array(out.data), step=1e-4)
            denom = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-12)
            assert np.abs(analytic - numeric).max() / denom < 1e-5
