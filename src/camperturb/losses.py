"""Feature-map loss kernels: content, Gram-matrix style, and their gradients.

A feature map is a (channels, height, width) float64 tensor.  Losses are
normalized by n = channels * height * width:

    content(out, target) = ||out - target||^2 / n
    gram(t)              = psi psi^T / n          (psi: channels x (h*w))
    style(out, target)   = ||gram(out) - gram(target)||_F^2
    total                = gamma_content * content + gamma_style * sum(style_i)

Gram matrices are symmetrized after the product so the result is exactly
symmetric despite floating-point accumulation order.  Closed-form
gradients with respect to ``out`` are provided; they match central finite
differences to first order in the step size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChannelMismatch, ShapeMismatch


@dataclass(frozen=True)
class FeatureTensor:
    """An immutable (channels, height, width) float64 feature map."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 3:
            raise ValueError(
                f"feature tensor must be (c, h, w), got shape {data.shape}"
            )
        if min(data.shape) < 1:
            raise ValueError(f"feature tensor axes must be >= 1, got {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("feature tensor contains non-finite values")
        data = data.copy()
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def size(self) -> int:
        return self.data.size


def _gram(data: np.ndarray) -> np.ndarray:
    """:func:`gram` of a (c, h, w) array."""
    psi = data.reshape(data.shape[0], -1)
    g = (psi @ psi.T) / data.size
    return (g + g.T) / 2.0


def gram(t: FeatureTensor) -> np.ndarray:
    """Normalized Gram matrix psi psi^T / (c*h*w), exactly symmetric PSD.

    psi is the tensor flattened to (channels, height*width); entry (i, j)
    is the correlation of channels i and j over all spatial positions.
    """
    return _gram(t.data)


def _require_same_shape(out: FeatureTensor, target: FeatureTensor) -> None:
    if out.data.shape != target.data.shape:
        raise ShapeMismatch(
            f"content loss needs equal shapes, got {out.data.shape} "
            f"and {target.data.shape}"
        )


def _content_loss(out: np.ndarray, target: np.ndarray, diff=None) -> float:
    """:func:`content_loss` of two arrays of one shape; ``diff``, if given, is
    ``(out - target).ravel()``, kept by the caller."""
    diff = (out - target).ravel() if diff is None else diff
    return float(diff @ diff) / out.size


def content_loss(out: FeatureTensor, target: FeatureTensor) -> float:
    """Mean squared difference ||out - target||^2 / (c*h*w).

    Shapes must match exactly; raises :class:`ShapeMismatch` (with both
    shapes in the message) otherwise.
    """
    _require_same_shape(out, target)
    return _content_loss(out.data, target.data)


def _target_grams(out: FeatureTensor, style_targets) -> list[np.ndarray]:
    """Gram matrix of each style target, in order, each checked against ``out``'s channels."""
    grams = []
    for target in style_targets:
        if out.channels != target.channels:
            raise ChannelMismatch(
                f"style loss needs equal channel counts, got {out.channels} "
                f"and {target.channels}"
            )
        grams.append(gram(target))
    return grams


def _style_losses(out: np.ndarray, target_grams) -> list[float]:
    """Style loss of the ``out`` array against each target, given the targets' Gram matrices."""
    if not target_grams:
        return []
    g_out = _gram(out)
    losses = []
    for g_target in target_grams:
        diff = g_out - g_target
        losses.append(float(np.sum(diff * diff)))
    return losses


def style_loss(out: FeatureTensor, target: FeatureTensor) -> float:
    """Squared Frobenius distance between the two Gram matrices.

    Only the channel counts must agree (spatial sizes may differ, each
    Gram is normalized by its own c*h*w); raises
    :class:`ChannelMismatch` otherwise.
    """
    return _style_losses(out.data, _target_grams(out, [target]))[0]


def _loss_args(out, content_target, style_targets, gamma_content, gamma_style):
    """The arguments of :func:`total_loss` and :func:`loss_gradients`, checked, as the
    ``(out, content_target, target_grams, gamma_content, gamma_style)`` of their kernels."""
    if not np.isfinite(gamma_content) or gamma_content < 0:
        raise ValueError(f"gamma_content must be >= 0, got {gamma_content}")
    if not np.isfinite(gamma_style) or gamma_style < 0:
        raise ValueError(f"gamma_style must be >= 0, got {gamma_style}")
    _require_same_shape(out, content_target)
    target_grams = _target_grams(out, style_targets)
    return out.data, content_target.data, target_grams, gamma_content, gamma_style


def total_loss(
    out: FeatureTensor,
    content_target: FeatureTensor,
    style_targets,
    gamma_content: float = 1.0,
    gamma_style: float = 1.0,
) -> float:
    """Weighted sum gamma_content * content + gamma_style * sum of styles."""
    return _total_loss(*_loss_args(out, content_target, style_targets, gamma_content, gamma_style))


def _total_loss(
    out: np.ndarray,
    content_target: np.ndarray,
    target_grams,
    gamma_content: float,
    gamma_style: float,
    diff=None,
) -> float:
    """:func:`total_loss` of checked arrays, given the style targets' Gram matrices;
    styles added in order.  ``diff`` as for :func:`_content_loss`."""
    total = gamma_content * _content_loss(out, content_target, diff)
    for style in _style_losses(out, target_grams):
        total += gamma_style * style
    return total


def loss_gradients(
    out: FeatureTensor,
    content_target: FeatureTensor,
    style_targets,
    gamma_content: float = 1.0,
    gamma_style: float = 1.0,
) -> FeatureTensor:
    """Gradient of :func:`total_loss` with respect to ``out``.

    Content term: 2 (out - target) / n.  Each style term: with
    D = gram(out) - gram(target) and psi the flattened output,
    (4 / n) D psi reshaped back to (c, h, w); n = c*h*w of ``out``.
    """
    args = _loss_args(out, content_target, style_targets, gamma_content, gamma_style)
    return FeatureTensor(data=_loss_gradients(*args))


def _loss_gradients(
    out: np.ndarray,
    content_target: np.ndarray,
    target_grams,
    gamma_content: float,
    gamma_style: float,
) -> np.ndarray:
    """:func:`loss_gradients` of checked arrays, given the style targets' Gram matrices."""
    n = out.size
    grad = gamma_content * 2.0 * (out - content_target) / n
    if target_grams:
        psi = out.reshape(out.shape[0], -1)
        g_out = _gram(out)
        for g_target in target_grams:
            diff = g_out - g_target
            grad = grad + gamma_style * (4.0 / n) * (diff @ psi).reshape(out.shape)
    return grad
