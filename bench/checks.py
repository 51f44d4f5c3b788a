"""Output checks for the benchmark workloads.

Every expectation is derived here from the generated inputs (``synth.py``)
or from a property the method must have; nothing is compared against a
stored copy of an earlier run, and nothing calls into camperturb.  Each
check returns a list of problems; an empty list means the outputs are
correct.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

import synth

QUANTUM = 0.01  # labels are written with two decimals
KITTI_BINS = {  # min 2D height (px), max occlusion, max truncation
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}
AP_METRICS = ("ap2d", "apbev", "ap3d", "aos")
NUSCENES = ("nuscenes_ate", "nuscenes_ase", "nuscenes_aoe")


def read_labels(path: Path) -> list[tuple[str, list[float]]]:
    rows = []
    for line in path.read_text().splitlines():
        tokens = line.split()
        if tokens:
            rows.append((tokens[0], [float(t) for t in tokens[1:]]))
    return rows


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def rotation(pitch: float, roll: float) -> np.ndarray:
    """Rx(pitch) @ Rz(roll), written out independently of camperturb.geometry."""
    cp, sp, cr, sr = math.cos(pitch), math.sin(pitch), math.cos(roll), math.sin(roll)
    return np.array([[cr, -sr, 0.0], [cp * sr, cp * cr, -sp], [sp * sr, sp * cr, cp]])


def intrinsics(cam) -> np.ndarray:
    fx, cx, cy = cam
    return np.array([[fx, 0.0, cx], [0.0, fx, cy], [0.0, 0.0, 1.0]])


def frame_summary(stdout: str) -> dict[str, int]:
    found = dict(re.findall(r"^(frames processed|objects dropped|frame failures): (\d+)$",
                            stdout, flags=re.M))
    return {key: int(value) for key, value in found.items()}


# ---------------------------------------------------------------------------
# eval-ab


def _difficulty(values: list[float]) -> str | None:
    """Hardest-first KITTI bin of a GT object, or None when it fits no bin."""
    trunc, occ = values[0], values[1]
    height = values[6] - values[4]
    for name in ("easy", "moderate", "hard"):
        min_h, max_occ, max_trunc = KITTI_BINS[name]
        if height >= min_h and occ <= max_occ and trunc <= max_trunc:
            return name
    return None


def _in_bin_counts(gt_dir: Path) -> dict[tuple[str, str], int]:
    order = ("easy", "moderate", "hard")
    counts: dict[tuple[str, str], int] = {}
    for path in gt_dir.glob("*.txt"):
        for name, values in read_labels(path):
            if name == "DontCare":
                continue
            own = _difficulty(values)
            if own is None:
                continue
            for bin_ in order[order.index(own):]:  # bins are cumulative
                counts[(name, bin_)] = counts.get((name, bin_), 0) + 1
    return counts


def check_eval_ab(report_path: Path, inputs: Path, frames: int, match_radius: float) -> list[str]:
    problems = []
    report = json.loads(report_path.read_text())
    if report.get("parameters", {}).get("frames") != frames:
        problems.append(f"report covers {report.get('parameters', {}).get('frames')} frames, "
                        f"expected {frames}")
    cells = {}
    for cell in report.get("cells", []):
        key = (cell["metric"], cell["class"], cell["difficulty"])
        if key in cells:
            problems.append(f"duplicate cell {key}")
        cells[key] = cell
    expected = [(m, c, d) for m in AP_METRICS for c in synth.EVAL_CLASSES
                for d in ("easy", "moderate", "hard")]
    expected += [(m, c, "all") for m in NUSCENES for c in synth.EVAL_CLASSES]
    missing = [k for k in expected if k not in cells]
    extra = [k for k in cells if k not in expected]
    if missing or extra:
        return problems + [f"missing cells {missing[:5]}, unexpected cells {extra[:5]}"]
    in_bin = _in_bin_counts(inputs / "gt")
    control = synth.CONTROL_CLASS
    for key in expected:
        metric, cls, diff = key
        cell = cells[key]
        orig, dist, dec = cell["original"], cell["disturbed"], cell["decrease"]
        if metric in AP_METRICS and in_bin.get((cls, diff), 0) == 0:
            if (orig, dist, dec) != ("n/a", "n/a", "n/a"):
                problems.append(f"{key}: class has no in-bin GT but reads {orig}/{dist}")
            continue
        if "n/a" in (orig, dist):
            if metric in AP_METRICS or cls == control or dec != "n/a":
                problems.append(f"{key}: unexpected n/a ({orig}, {dist}, {dec})")
            continue
        if abs(dec - (dist - orig)) > 1e-9:
            problems.append(f"{key}: decrease {dec} != disturbed - original {dist - orig}")
        for value in (orig, dist):
            if metric in AP_METRICS and not 0.0 <= value <= 100.0:
                problems.append(f"{key}: {value} outside [0, 100]")
            if metric == "nuscenes_ate" and not 0.0 <= value <= match_radius:
                problems.append(f"{key}: ATE {value} outside [0, {match_radius}]")
            if metric == "nuscenes_ase" and not 0.0 <= value <= 1.0:
                problems.append(f"{key}: ASE {value} outside [0, 1]")
            if metric == "nuscenes_aoe" and not 0.0 <= value <= math.pi:
                problems.append(f"{key}: AOE {value} outside [0, pi]")
        if metric == "aos":
            ap = cells[("ap2d", cls, diff)]
            for which in ("original", "disturbed"):
                if cell[which] > ap[which] + 1e-9:
                    problems.append(f"{key}: AOS {cell[which]} > AP2D {ap[which]} ({which})")
        if cls == control:
            want = 100.0 if metric in AP_METRICS else 0.0
            if abs(orig - want) > 1e-9 or abs(dist - want) > 1e-9:
                problems.append(f"{key}: control class reads {orig}/{dist}, expected {want}")
    return problems


# ---------------------------------------------------------------------------
# label transforms shared by simulate-images and perturb-rectify


def _match_subsequence(expected: list[np.ndarray], got: list[np.ndarray], tol: float):
    """Indices of ``expected`` that the ``got`` centers match, in order; None if any fails."""
    matched, j = [], 0
    for center in got:
        while j < len(expected) and np.abs(expected[j] - center).max() > tol:
            j += 1
        if j == len(expected):
            return None
        matched.append(j)
        j += 1
    return matched


def check_moved_labels(before: Path, after: Path, rot: np.ndarray, tol: float, what: str):
    """Every surviving object's center is ``rot`` times its input center.

    Returns (objects dropped, problems).  DontCare rows must pass through,
    dimensions must be unchanged, and an object whose rotated box reaches
    behind the camera must be among the dropped ones.
    """
    problems = []
    src = read_labels(before)
    out = read_labels(after)
    src_objs = [v for n, v in src if n != "DontCare"]
    out_objs = [v for n, v in out if n != "DontCare"]
    src_dc = [v for n, v in src if n == "DontCare"]
    out_dc = [v for n, v in out if n == "DontCare"]
    if len(src_dc) != len(out_dc) or any(
        np.abs(np.subtract(a, b)).max() > 1e-9 for a, b in zip(src_dc, out_dc)
    ):
        problems.append(f"{what}: DontCare rows changed")
    expected = [rot @ np.array(v[10:13]) for v in src_objs]
    matched = _match_subsequence(expected, [np.array(v[10:13]) for v in out_objs], tol)
    if matched is None:
        return 0, problems + [f"{what}: an output center is not a moved input center"]
    for i, v in zip(matched, out_objs):
        if np.abs(np.subtract(v[7:10], src_objs[i][7:10])).max() > 1e-9:
            problems.append(f"{what}: dimensions of object {i} changed")
    kept = set(matched)
    for i, v in enumerate(src_objs):
        corners = synth.box_corners(*v[10:13], *v[7:10], v[13]) @ rot.T
        if corners[:, 2].min() < -1e-6 and i in kept:
            problems.append(f"{what}: object {i} reaches behind the camera but was kept")
    return len(src_objs) - len(out_objs), problems


# ---------------------------------------------------------------------------
# simulate-images


def read_ppm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    match = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", data)
    if not match:
        raise ValueError(f"{path}: not an 8-bit binary PPM")
    w, h = int(match.group(1)), int(match.group(2))
    return np.frombuffer(data, np.uint8, w * h * 3, match.end()).reshape(h, w, 3)


def check_warp(src: np.ndarray, out: np.ndarray, cam, pitch, roll, fill, rng) -> list[str]:
    """Sampled pixels against a bilinear sampler of K Rx(pitch) Rz(roll) K^-1.

    Output pixel (u, v) samples the source at H^-1 (u, v, 1).  Inside the
    image the value must lie within 1 LSB of the bilinear value; outside it
    must equal ``fill``.  Pixels whose source lies within 1e-6 px of the
    image border are skipped, since either answer is right there.
    """
    h, w = src.shape[:2]
    if out.shape != src.shape:
        return [f"warped image has shape {out.shape}, expected {src.shape}"]
    k = intrinsics(cam)
    h_inv = k @ rotation(pitch, roll).T @ np.linalg.inv(k)
    n = 4000
    us = rng.integers(0, w, n)
    vs = rng.integers(0, h, n)
    sx, sy, sw = h_inv @ np.vstack([us, vs, np.ones(n)])
    x, y = sx / sw, sy / sw
    margin = 1e-6
    inside = (sw > 0) & (x >= margin) & (x <= w - 1 - margin) & (y >= margin) & (y <= h - 1 - margin)
    outside = (sw <= 0) | (x < -margin) | (x > w - 1 + margin) | (y < -margin) | (y > h - 1 + margin)
    problems = []
    got = out[vs, us].astype(float)
    if (got[outside] != fill).any():
        problems.append(f"{int((got[outside] != fill).any(axis=1).sum())} pixels with an "
                        f"out-of-image source do not hold fill {fill}")
    xi, yi = x[inside], y[inside]
    x0, y0 = np.floor(xi).astype(int), np.floor(yi).astype(int)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    fx, fy = (xi - x0)[:, None], (yi - y0)[:, None]
    img = src.astype(float)
    want = (img[y0, x0] * (1 - fx) * (1 - fy) + img[y0, x1] * fx * (1 - fy)
            + img[y1, x0] * (1 - fx) * fy + img[y1, x1] * fx * fy)
    err = np.abs(got[inside] - want)
    if err.size and err.max() > 1.0:
        problems.append(f"warped pixel differs from bilinear reference by {err.max():.3f} LSB")
    if inside.sum() < n // 2:
        problems.append(f"only {int(inside.sum())} of {n} sampled pixels map inside the source")
    return problems


def check_simulate(inputs: Path, out: Path, stdout: str, facts: dict, fill: int | None,
                   seed: int) -> tuple[int, list[str]]:
    """Shared simulate checks; returns (frames that failed, problems)."""
    problems = []
    cams = facts["cameras"]
    summary = frame_summary(stdout)
    failed = summary.get("frame failures", len(cams))
    if summary.get("frames processed") != len(cams) - failed:
        problems.append(f"simulate summary {summary} does not add up to {len(cams)} frames")
    sidecar = {r["frame_id"]: r for r in read_jsonl(out / "perturbations.jsonl")}
    if sorted(sidecar) != sorted(cams):
        return failed, problems + ["sidecar frame ids differ from the input frames"]
    clamp = math.radians(10.0)
    dropped = 0
    rng = np.random.default_rng(seed)
    for fid, cam in sorted(cams.items()):
        pitch, roll = sidecar[fid]["pitch"], sidecar[fid]["roll"]
        if not (abs(pitch) <= clamp and abs(roll) <= clamp and (pitch, roll) != (0.0, 0.0)):
            problems.append(f"frame {fid}: sampled angles ({pitch}, {roll}) out of range")
        n, p = check_moved_labels(inputs / "label_2" / f"{fid}.txt", out / "labels" / f"{fid}.txt",
                                  rotation(pitch, roll), QUANTUM, f"frame {fid}")
        dropped += n
        problems += p
        if fill is not None:
            src = read_ppm(inputs / "image_2" / f"{fid}.ppm")
            warped = read_ppm(out / "images" / f"{fid}.ppm")
            problems += [f"frame {fid}: {m}" for m in
                         check_warp(src, warped, cam, pitch, roll, fill, rng)]
    if summary.get("objects dropped") != dropped:
        problems.append(f"simulate reports {summary.get('objects dropped')} objects dropped, "
                        f"labels show {dropped}")
    if dropped == 0:
        problems.append("no object was dropped, so the drop path went unexercised")
    return failed, problems


# ---------------------------------------------------------------------------
# perturb-rectify


def horizon_annotations(sidecar: Path, cams: dict, path: Path) -> None:
    """Write what the horizon of each perturbed frame shows, in closed form.

    slope = tan(roll); the vanishing point of the forward axis sits on the
    principal column at v = cy - fy tan(pitch).
    """
    lines = []
    for record in read_jsonl(sidecar):
        fx, cx, cy = cams[record["frame_id"]]
        vp_v = cy - fx * math.tan(record["pitch"])
        lines.append(json.dumps({"frame_id": record["frame_id"], "slope": math.tan(record["roll"]),
                                 "intercept_v": vp_v, "vp_u": cx, "vp_v": vp_v}))
    synth.write_lines(path, lines)


def truth_sidecar(sidecar: Path, errors: dict[str, float], path: Path) -> None:
    """The applied angles with a known roll error added to each frame."""
    lines = []
    for record in read_jsonl(sidecar):
        fid = record["frame_id"]
        lines.append(json.dumps({"frame_id": fid, "pitch": record["pitch"],
                                 "roll": record["roll"] + errors[fid]}))
    synth.write_lines(path, lines)


def check_rectify(inputs: Path, out: Path, report_path: Path, stdout: str, cams: dict,
                  errors: dict[str, float]) -> tuple[int, list[str]]:
    problems = []
    summary = frame_summary(stdout)
    failed = summary.get("frame failures", len(cams))
    report = json.loads(report_path.read_text())
    if report.get("direction") != "undo" or report.get("frames_processed") != len(cams) - failed:
        problems.append(f"rectify report: direction {report.get('direction')}, "
                        f"{report.get('frames_processed')} frames processed")
    per_frame = report.get("angular_error", {}).get("per_frame_deg", [])
    if sorted(e["frame_id"] for e in per_frame) != sorted(cams):
        return failed, problems + ["rectify angular errors do not cover every frame"]
    worst = max(abs(e["deg"] - math.degrees(abs(errors[e["frame_id"]]))) for e in per_frame)
    if worst > 1e-7:
        problems.append(f"rectify angular error differs from the injected error by {worst:.3e} deg")
    want_mean = sum(math.degrees(abs(errors[f])) for f in cams) / len(cams)
    if abs(report["angular_error"]["mean_deg"] - want_mean) > 1e-9 * want_mean + 1e-12:
        problems.append(f"rectify mean error {report['angular_error']['mean_deg']} != {want_mean}")
    for fid in sorted(cams):
        _, p = check_moved_labels(inputs / "label_2" / f"{fid}.txt", out / f"{fid}.txt",
                                  np.eye(3), 2 * QUANTUM, f"rectified frame {fid}")
        problems += p
    return failed, problems


def check_pose_error(report_path: Path, facts: dict) -> list[str]:
    report = json.loads(report_path.read_text())
    want = facts["pose_error_deg"]
    got = report.get("per_frame_deg", [])
    if report.get("frames") != len(want) or len(got) != len(want):
        return [f"pose-error covers {report.get('frames')} frames, expected {len(want)}"]
    problems = []
    worst = float(np.abs(np.subtract(got, want)).max())
    if worst > 1e-7:
        problems.append(f"pose-error per-frame error differs from closed form by {worst:.3e} deg")
    mean = float(np.mean(want))
    path = facts["path_length_m"]
    for key, value in (("mean_angular_error_deg", mean), ("max_angular_error_deg", max(want)),
                       ("path_length_m", path), ("angular_error_deg_per_m", mean / path)):
        if abs(report.get(key, math.inf) - value) > 1e-8 * abs(value):
            problems.append(f"pose-error {key} {report.get(key)} != closed form {value}")
    return problems


# ---------------------------------------------------------------------------
# loss-gradcheck


def read_ftb(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if data[:4] != b"FTB1":
        raise ValueError(f"{path}: bad magic")
    c, h, w = np.frombuffer(data, "<u4", 3, 4)
    return np.frombuffer(data, "<f4", offset=16).reshape(c, h, w).astype(np.float64)


def _gram(t: np.ndarray) -> np.ndarray:
    psi = t.reshape(t.shape[0], -1)
    return np.einsum("ik,jk->ij", psi, psi) / t.size


def check_loss(report_path: Path, inputs: Path, styles: int, gamma_c: float,
               gamma_s: float) -> list[str]:
    report = json.loads(report_path.read_text())
    out = read_ftb(inputs / "output.ftb")
    content = float(np.mean((out - read_ftb(inputs / "content.ftb")) ** 2))
    g_out = _gram(out)
    style = [float(np.sum((g_out - _gram(read_ftb(inputs / f"style{k}.ftb"))) ** 2))
             for k in range(styles)]
    problems = []

    def close(a, b, rel):
        return abs(a - b) <= rel * abs(b)

    if not close(report["content_loss"], content, 1e-9):
        problems.append(f"content loss {report['content_loss']} != reference {content}")
    if len(report["style_losses"]) != styles or not all(
        close(a, b, 1e-9) for a, b in zip(report["style_losses"], style)
    ):
        problems.append(f"style losses {report['style_losses']} != reference {style}")
    weighted = gamma_c * report["content_loss"] + gamma_s * sum(report["style_losses"])
    if not close(report["total_loss"], weighted, 1e-12):
        problems.append(f"total {report['total_loss']} != weighted sum {weighted}")
    grad = report.get("grad_check", {})
    if not grad.get("coords_checked") or not grad.get("max_relative_error", 1.0) <= 1e-5:
        problems.append(f"gradient check failed: {grad}")
    return problems
