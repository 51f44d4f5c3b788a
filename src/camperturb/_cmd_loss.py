"""``camperturb loss``: content/style loss kernels over serialized feature tensors."""

import math
from pathlib import Path

import numpy as np

from . import losses, tensorio
from .cli import _emit_report, _json_dumps, _parse_file, _UsageError

#: Gradient check probes every coordinate up to this tensor size, then strides.
_GRAD_CHECK_FULL_SIZE = 512
_GRAD_CHECK_SAMPLES = 64


def _finite_difference_check(out, content, target_grams, gamma_c, gamma_s, step):
    """Central finite differences vs. analytic gradient on probe coordinates.

    The style targets enter through their Gram matrices, computed once by
    the caller; each probe moves one coordinate of one scratch copy of the
    output, and of the content difference kept with it, and computes the
    loss, and so the Gram matrix, of that copy.  A probe whose loss leaves
    the float range is a usage error: ``step`` is too large for the tensor.
    ``out`` and ``content`` are feature tensors.
    """
    analytic = losses._loss_gradients(out.data, content.data, target_grams, gamma_c, gamma_s)
    scratch = out.data.copy()
    flat, target = scratch.reshape(-1), content.data.reshape(-1)
    with np.errstate(over="ignore"):  # the content loss has warned of it
        diff = flat - target  # scratch - content, as each probe moves it
    size = flat.size
    if size <= _GRAD_CHECK_FULL_SIZE:
        coords = range(size)
    else:
        stride = max(1, size // _GRAD_CHECK_SAMPLES)
        coords = range(0, size, stride)

    def loss_moved(idx: int, value: float) -> float:
        flat[idx], diff[idx] = value, value - target[idx]
        return losses._total_loss(scratch, content.data, target_grams, gamma_c, gamma_s, diff)

    fd_values = []
    for idx in coords:
        x = flat[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            h = step * max(1.0, abs(x))
            fd = (loss_moved(idx, x + h) - loss_moved(idx, x - h)) / (2.0 * h)
            flat[idx], diff[idx] = x, x - target[idx]
        if not math.isfinite(fd):
            coordinate = tuple(int(i) for i in np.unravel_index(idx, scratch.shape))
            raise _UsageError(
                f"--fd-step {step!r}: the probe of output coordinate {coordinate} leaves "
                "the float range; use a smaller step"
            )
        fd_values.append(fd)
    fd, an = np.array(fd_values), analytic.reshape(-1)[coords]
    scale = max(float(np.abs(fd).max()), float(np.abs(an).max()), 1e-12)
    max_rel = float(np.abs(an - fd).max() / scale)
    return {
        "coords_checked": len(fd_values),
        "step": step,
        "max_relative_error": max_rel,
    }


def run(cfg) -> None:
    def load(path: str, what: str):
        path = Path(path)
        check = lambda d: tensorio._check_sidecar(path, tensorio.tensor_from_bytes(d))  # noqa: E731
        return _parse_file(path, what, check)

    out_tensor = load(cfg.output, "output tensor")
    content_tensor = load(cfg.content, "content tensor")
    style_tensors = [load(p, "style tensor") for p in cfg.style]
    content_value = losses.content_loss(out_tensor, content_tensor)
    target_grams = losses._target_grams(out_tensor, style_tensors)
    style_values = losses._style_losses(out_tensor.data, target_grams)
    total_value = losses._total_loss(
        out_tensor.data, content_tensor.data, target_grams, cfg.gamma_content, cfg.gamma_style
    )
    if not math.isfinite(total_value):  # the losses of float32 tensors are finite
        terms = {"gamma-content": [content_value], "gamma-style": style_values}
        weights = {name: getattr(cfg, name.replace("-", "_")) for name in terms}
        blamed = [n for n, t in terms.items() if not math.isfinite(weights[n] * sum(t))]
        raise _UsageError(
            f"{' and '.join(f'--{n} {weights[n]!r}' for n in blamed or terms)}: the weighted "
            "total loss leaves the float range; use a smaller weight"
        )
    report = {
        "content_loss": content_value,
        "style_losses": style_values,
        "style_loss_sum": sum(style_values),
        "total_loss": total_value,
        "gamma_content": cfg.gamma_content,
        "gamma_style": cfg.gamma_style,
    }
    if cfg.grad_check:
        report["grad_check"] = _finite_difference_check(
            out_tensor,
            content_tensor,
            target_grams,
            cfg.gamma_content,
            cfg.gamma_style,
            cfg.fd_step,
        )
    _emit_report(_json_dumps(report), cfg.report)
