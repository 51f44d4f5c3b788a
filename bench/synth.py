"""Seeded synthetic inputs for the camperturb benchmark.

Everything here is written with the benchmark's own code (formatting,
projection, tensor layout), never with the package under test, so the
checks in ``checks.py`` can compare the program's outputs against values
that were fixed before the program ran.

The same ``(workload, seed)`` always produces byte-identical files.

Regenerate the inputs of one workload::

    python3 bench/synth.py --workload score --seed 1 --out /tmp/score
"""

from __future__ import annotations

import argparse
import json
import math
import struct
from pathlib import Path

import numpy as np

#: Inputs come in four parts, each feeding one stage of the experiment loop.
PARTS = ("eval-ab", "simulate-images", "perturb-rectify", "loss-gradcheck")
#: Each benchmark workload runs two parts: scoring (metrics and losses) or
#: perturbation (images, label transforms, rectification, pose error).
WORKLOADS = {"score": ("eval-ab", "loss-gradcheck"), "perturb": ("simulate-images", "perturb-rectify")}

IMAGE_W, IMAGE_H = 1242, 375

#: Frame counts and tensor shapes per part; see README.md for the reasons.
SIZES = {
    "eval-ab": {"frames": 20},
    "simulate-images": {"frames": 16},
    "perturb-rectify": {"frames": 1000, "poses": 23201},
    "loss-gradcheck": {
        "output": (64, 24, 78),
        "styles": ((64, 24, 78), (64, 12, 39), (64, 48, 156)),
    },
}

#: Classes scored by eval-ab.  ``Tram`` is the control class: its
#: detections are exact copies of its ground truth.
CONTROL_CLASS = "Tram"
EVAL_CLASSES = ("Car", "Pedestrian", "Cyclist", CONTROL_CLASS)

#: Mean (height, width, length) in metres per class.
_DIMS = {"Car": (1.53, 1.63, 3.88), "Pedestrian": (1.76, 0.66, 0.84), "Cyclist": (1.74, 0.60, 1.76)}
#: Objects take their class from this cycle: Car/Pedestrian/Cyclist 70/20/10.
_CLASS_CYCLE = ("Car", "Pedestrian", "Car", "Car", "Cyclist", "Car", "Pedestrian", "Car", "Car", "Car")
_TRAM_DIMS = (3.50, 2.60, 14.00)

#: P2 (fx, cx, cy) of three KITTI drives; fy = fx.  Each frame picks one.
_CAMERAS = (
    (721.5377, 609.5593, 172.854),
    (718.856, 607.1928, 185.2157),
    (707.0493, 604.0814, 180.5066),
)

def rng_for(part: str, seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, PARTS.index(part), *stream])


def frame_id(index: int) -> str:
    return f"{index:06d}"


# ---------------------------------------------------------------------------
# geometry (kept independent of camperturb.geometry on purpose)


def box_corners(x, y, z, h, w, l, ry) -> np.ndarray:
    """(8, 3) corners of an upright box; (x, y, z) is the bottom-face center."""
    c, s = math.cos(ry), math.sin(ry)
    fwd = np.array([s, 0.0, c]) * (l / 2)
    lat = np.array([c, 0.0, -s]) * (w / 2)
    base = np.array([x, y, z])
    bottom = np.array([base + fwd + lat, base + fwd - lat, base - fwd - lat, base - fwd + lat])
    top = bottom - np.array([0.0, h, 0.0])
    return np.vstack([bottom, top])


def raw_bbox(cam, corners):
    """Unclamped image hull of the corners in front of the camera, or None."""
    fx, cx, cy = cam
    front = corners[corners[:, 2] > 0.1]
    if len(front) == 0:
        return None
    u = fx * front[:, 0] / front[:, 2] + cx
    v = fx * front[:, 1] / front[:, 2] + cy
    return float(u.min()), float(v.min()), float(u.max()), float(v.max())


def wrap(angle: float) -> float:
    return (angle + math.pi) % (2 * math.pi) - math.pi


def fmt(value: float) -> str:
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


class Obj:
    """One label line; values are held exactly as written (two decimals)."""

    def __init__(self, name, trunc, occ, alpha, bbox, dims, loc, ry, score=None):
        self.name = name
        self.fields = [fmt(trunc), str(int(occ)), fmt(alpha), *map(fmt, bbox),
                       *map(fmt, dims), *map(fmt, loc), fmt(ry)]
        if score is not None:
            self.fields.append(fmt(score))

    def line(self) -> str:
        return " ".join([self.name, *self.fields])

    def with_score(self, score: float) -> "Obj":
        copy = Obj.__new__(Obj)
        copy.name = self.name
        copy.fields = self.fields[:14] + [fmt(score)]
        return copy


def make_object(rng, cam, name, dims, loc, ry, occ=None, score=None, keep_truncated=True):
    """Project a box, clamp its 2D hull to the image and derive truncation."""
    h, w, l = dims
    x, y, z = loc
    corners = box_corners(x, y, z, h, w, l, ry)
    hull = raw_bbox(cam, corners)
    if hull is None:
        return None
    left, top, right, bottom = hull
    cl = min(max(left, 0.0), IMAGE_W - 1.0)
    cr = min(max(right, 0.0), IMAGE_W - 1.0)
    ct = min(max(top, 0.0), IMAGE_H - 1.0)
    cb = min(max(bottom, 0.0), IMAGE_H - 1.0)
    if cr - cl < 2.0 or cb - ct < 2.0:
        return None
    area = (right - left) * (bottom - top)
    trunc = min(1.0, max(0.0, 1.0 - (cr - cl) * (cb - ct) / area))
    if not keep_truncated and trunc > 0:
        return None
    if occ is None:
        occ = rng.choice(3, p=(0.6, 0.3, 0.1))
    alpha = wrap(ry - math.atan2(x, z))
    return Obj(name, trunc, occ, alpha, (cl, ct, cr, cb), dims, loc, ry, score)


def _jitter_dims(rng, dims, rel=0.08):
    return tuple(max(0.3, d * (1 + rng.normal(0, rel))) for d in dims)


def random_object(rng, cam, name, score=None):
    """A GT-like object of class ``name`` somewhere in the camera's view."""
    while True:
        dims = _DIMS[name]
        z = rng.uniform(5.0, 60.0)
        x = rng.uniform(-0.7, 0.7) * z
        y = 1.65 + rng.normal(0, 0.08)
        ry = rng.uniform(-math.pi, math.pi)
        dims = _jitter_dims(rng, dims)
        obj = make_object(rng, cam, name, dims, (x, y, z), ry, score=score)
        if obj is not None:
            return obj, (name, dims, (x, y, z), ry)


def near_camera_object(rng, cam):
    """A car beside the camera whose box straddles the principal plane."""
    while True:
        z = rng.uniform(0.6, 1.4)
        x = rng.choice((-1, 1)) * rng.uniform(2.5, 4.0)
        ry = rng.normal(0, 0.15)
        obj = make_object(rng, cam, "Car", (1.52, 1.62, 3.90), (x, 1.65, z), ry, occ=0)
        if obj is not None:
            return obj


def border_object(rng, cam):
    """A car whose image hull overlaps the right or left edge by a few pixels."""
    dims = (1.52, 1.62, 3.90)
    while True:
        side = rng.choice((-1, 1))
        z = rng.uniform(8.0, 30.0)
        ry = rng.uniform(-math.pi, math.pi)
        target = rng.uniform(2.5, 8.0)  # visible width in pixels

        def visible(x):
            hull = raw_bbox(cam, box_corners(x, 1.65, z, *dims, ry))
            return (IMAGE_W - 1.0 - hull[0]) if side > 0 else hull[2]

        lo, hi = 0.0, 2.0 * z
        for _ in range(25):  # visible width shrinks as |x| grows
            mid = 0.5 * (lo + hi)
            if visible(side * mid) > target:
                lo = mid
            else:
                hi = mid
        obj = make_object(rng, cam, "Car", dims, (side * lo, 1.65, z), ry, occ=0)
        if obj is not None:
            return obj


def dontcare_region(rng) -> str:
    left = rng.uniform(0, IMAGE_W - 130)
    top = rng.uniform(140, 200)
    right = left + rng.uniform(30, 120)
    bottom = top + rng.uniform(20, 60)
    box = " ".join(fmt(v) for v in (left, top, right, bottom))
    return f"DontCare -1 -1 -10 {box} -1 -1 -1 -1000 -1000 -1000 -10"


def layouts(n: int, extras: bool) -> list[dict]:
    """The make-up of n frames, the same for every seed.

    Frame k of n holds 3-11 GT objects and 5-19 distractors, rising with
    k, with classes taken in turn from the 70/20/10 cycle and 1-3
    detections per GT object.  With ``extras`` every other frame also holds
    an object beside the camera (always dropped by a non-zero rotation) and
    every other pair of frames one barely inside the image border (dropped
    when the rotation pushes it out).  Seeds only move, size, turn and
    shuffle objects, so each seed asks the program for the same work.
    """
    out, turn = [], 0
    for k in range(n):
        n_gt, n_fp = 3 + 9 * k // n, 5 + 15 * k // n
        names = [_CLASS_CYCLE[(turn + j) % len(_CLASS_CYCLE)] for j in range(n_gt + n_fp)]
        out.append({"gt": names[:n_gt], "fp": names[n_gt:],
                    "dets": [1 + (turn + j) % 3 for j in range(n_gt)],
                    "near": extras and k % 2 == 0, "border": extras and k // 2 % 2 == 0})
        turn += n_gt + n_fp
    return out


def shuffled_layouts(part: str, seed: int, n: int, extras: bool) -> list[dict]:
    order = rng_for(part, seed, 10**6 + 1).permutation(n)
    plan = layouts(n, extras)
    return [plan[k] for k in order]


def ground_truth(rng, cam, layout):
    """The frame's GT objects; ``params`` holds the unrounded boxes of the regular ones."""
    objs, params = [], []
    for name in layout["gt"]:
        obj, p = random_object(rng, cam, name)
        objs.append(obj)
        params.append(p)
    if layout["near"]:
        objs.append(near_camera_object(rng, cam))
    if layout["border"]:
        objs.append(border_object(rng, cam))
    return objs, params


def detections(rng, cam, params, layout, noise):
    """Jittered detections of each GT object plus the frame's distractors."""
    dets = []
    for (name, dims, (x, y, z), ry), count in zip(params, layout["dets"]):
        sigma = noise * (0.05 + 0.005 * z)
        while count:
            loc = (x + rng.normal(0, sigma), y + rng.normal(0, 0.05), z + rng.normal(0, 2 * sigma))
            obj = make_object(
                rng, cam, name, _jitter_dims(rng, dims, 0.05 * noise), loc,
                wrap(ry + rng.normal(0, 0.1 * noise)), score=rng.uniform(0.2, 0.99),
            )
            if obj is not None:
                dets.append(obj)
                count -= 1
    for name in layout["fp"]:
        obj, _ = random_object(rng, cam, name, score=rng.uniform(0.05, 0.7))
        dets.append(obj)
    return dets


def tram(rng, cam):
    """A fully visible, unoccluded control object: in-bin for every difficulty."""
    while True:
        z = rng.uniform(25.0, 45.0)
        x = rng.uniform(-4.0, 4.0)
        obj = make_object(
            rng, cam, CONTROL_CLASS, _TRAM_DIMS, (x, 1.65, z),
            rng.uniform(-math.pi, math.pi), occ=0, keep_truncated=False,
        )
        if obj is not None:
            return obj


# ---------------------------------------------------------------------------
# files


def calib_text(cam) -> str:
    fx, cx, cy = cam
    p2 = (fx, 0.0, cx, 44.85728, 0.0, fx, cy, 0.2163791, 0.0, 0.0, 1.0, 0.002745884)
    p0 = (fx, 0.0, cx, 0.0, 0.0, fx, cy, 0.0, 0.0, 0.0, 1.0, 0.0)
    row = lambda values: " ".join(f"{v:.12e}" for v in values)  # noqa: E731
    lines = [f"P0: {row(p0)}", f"P1: {row(p0)}", f"P2: {row(p2)}", f"P3: {row(p2)}",
             f"R0_rect: {row((1, 0, 0, 0, 1, 0, 0, 0, 1))}",
             f"Tr_velo_to_cam: {row((0, -1, 0, 0, 0, 0, -1, -0.08, 1, 0, 0, -0.27))}"]
    return "\n".join(lines) + "\n"


def camera_of(rng):
    fx, cx, cy = _CAMERAS[int(rng.integers(len(_CAMERAS)))]
    # the values the program will parse back from the 13-digit calib text
    return tuple(float(f"{v:.12e}") for v in (fx, cx, cy))


def write_lines(path: Path, lines) -> None:
    path.write_text("".join(f"{line}\n" for line in lines))


def labelled_frames(out: Path, part: str, seed: int, n: int, extras: bool):
    """label_2/ and calib/ for n frames; returns {frame_id: (fx, cx, cy)}."""
    (out / "label_2").mkdir(parents=True, exist_ok=True)
    (out / "calib").mkdir(parents=True, exist_ok=True)
    cams = {}
    plan = shuffled_layouts(part, seed, n, extras)
    for i in range(n):
        rng = rng_for(part, seed, i)
        fid = frame_id(i)
        cam = camera_of(rng)
        objs, _ = ground_truth(rng, cam, plan[i])
        write_lines(out / "label_2" / f"{fid}.txt", [o.line() for o in objs] + [dontcare_region(rng)])
        (out / "calib" / f"{fid}.txt").write_text(calib_text(cam))
        cams[fid] = cam
    return cams


def make_eval_ab(out: Path, seed: int) -> dict:
    """GT plus an original and a disturbed (noisier) detection set."""
    n = SIZES["eval-ab"]["frames"]
    for sub in ("gt", "det", "det_disturbed"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    plan = shuffled_layouts("eval-ab", seed, n, extras=False)
    for i in range(n):
        rng = rng_for("eval-ab", seed, i)
        fid = frame_id(i)
        cam = camera_of(rng)
        objs, params = ground_truth(rng, cam, plan[i])
        control = tram(rng, cam)
        gt = [o.line() for o in objs] + [control.line(), dontcare_region(rng)]
        write_lines(out / "gt" / f"{fid}.txt", gt)
        # distinct control scores across the whole set
        copy = control.with_score(0.99 - 0.01 * (i % 90))
        for sub, noise, stream in (("det", 1.0, 1), ("det_disturbed", 2.0, 2)):
            det_rng = rng_for("eval-ab", seed, i, stream)
            dets = [d.line() for d in detections(det_rng, cam, params, plan[i], noise)]
            write_lines(out / sub / f"{fid}.txt", dets + [copy.line()])
    return {"frames": n}


def make_simulate_images(out: Path, seed: int) -> dict:
    n = SIZES["simulate-images"]["frames"]
    cams = labelled_frames(out, "simulate-images", seed, n, extras=True)
    (out / "image_2").mkdir(parents=True, exist_ok=True)
    header = b"P6\n%d %d\n255\n" % (IMAGE_W, IMAGE_H)
    for i in range(n):
        rng = rng_for("simulate-images", seed, i, 7)
        pixels = rng.integers(0, 256, size=(IMAGE_H, IMAGE_W, 3), dtype=np.uint8)
        (out / "image_2" / f"{frame_id(i)}.ppm").write_bytes(header + pixels.tobytes())
    return {"frames": n, "cameras": cams}


def roll_errors(seed: int, frame_ids) -> dict[str, float]:
    """Injected roll error (radians) per frame: 0.1-2 degrees, either sign."""
    out = {}
    for fid in frame_ids:
        rng = rng_for("perturb-rectify", seed, int(fid), 3)
        out[fid] = float(rng.choice((-1, 1)) * math.radians(rng.uniform(0.1, 2.0)))
    return out


def _rot(pitch: float, roll: float) -> np.ndarray:
    cp, sp, cr, sr = math.cos(pitch), math.sin(pitch), math.cos(roll), math.sin(roll)
    rx = np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    rz = np.array([[cr, -sr, 0], [sr, cr, 0], [0, 0, 1]])
    return rx @ rz


def make_perturb_rectify(out: Path, seed: int) -> dict:
    """Labels + calib for simulate/rectify, and a pose trajectory for pose-error.

    Ground-truth pose i has rotation Rx(p_i) Rz(r_i + d_i) while the
    estimate file holds (p_i, r_i), so the angular error of frame i is
    |d_i| exactly and the path length is the sum of the step lengths.
    """
    sizes = SIZES["perturb-rectify"]
    cams = labelled_frames(out, "perturb-rectify", seed, sizes["frames"], extras=True)
    rng = rng_for("perturb-rectify", seed, 10**6)
    n = sizes["poses"]
    pitch = np.clip(rng.normal(0, math.radians(1), n), -0.17, 0.17)
    roll = np.clip(rng.normal(0, math.radians(1), n), -0.17, 0.17)
    delta = rng.choice((-1.0, 1.0), n) * np.radians(rng.uniform(0.1, 2.0, n))
    heading = np.cumsum(rng.normal(0, 0.01, n))
    step = rng.uniform(0.3, 1.5, n)
    step[0] = 0.0
    xs = np.cumsum(step * np.sin(heading))
    zs = np.cumsum(step * np.cos(heading))
    pose_lines, est_lines = [], []
    for i in range(n):
        rot = _rot(float(pitch[i]), float(roll[i] + delta[i]))
        values = [*rot[0], float(xs[i]), *rot[1], 0.0, *rot[2], float(zs[i])]
        pose_lines.append(" ".join(repr(float(v)) for v in values))
        est_lines.append(json.dumps({"frame_id": frame_id(i), "pitch": float(pitch[i]),
                                     "roll": float(roll[i])}))
    write_lines(out / "poses.txt", pose_lines)
    write_lines(out / "estimates.jsonl", est_lines)
    path = float(np.sum(step[1:]))
    errors = np.degrees(np.abs(delta))
    return {
        "frames": sizes["frames"],
        "cameras": cams,
        "poses": n,
        "pose_error_deg": [float(e) for e in errors],
        "path_length_m": path,
    }


def write_tensor(path: Path, data: np.ndarray) -> None:
    c, h, w = data.shape
    path.write_bytes(b"FTB1" + struct.pack("<III", c, h, w) + data.astype("<f4").tobytes())
    meta = {"channels": c, "height": h, "width": w, "dtype": "float32", "layout": "chw"}
    path.with_name(path.name + ".json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def make_loss_gradcheck(out: Path, seed: int) -> dict:
    """Output/content tensors of one shape and three style targets.

    Style targets carry different channel scales than the output so every
    style loss is well away from zero.
    """
    sizes = SIZES["loss-gradcheck"]
    rng = rng_for("loss-gradcheck", seed)
    shape = sizes["output"]
    write_tensor(out / "output.ftb", np.abs(rng.normal(0.5, 0.3, shape)))
    write_tensor(out / "content.ftb", np.abs(rng.normal(0.5, 0.3, shape)))
    for k, style_shape in enumerate(sizes["styles"]):
        scale = rng.uniform(0.2, 1.5, (style_shape[0], 1, 1))
        write_tensor(out / f"style{k}.ftb", np.abs(rng.normal(0.4, 0.4, style_shape)) * scale)
    return {"styles": len(sizes["styles"])}


MAKERS = {
    "eval-ab": make_eval_ab,
    "simulate-images": make_simulate_images,
    "perturb-rectify": make_perturb_rectify,
    "loss-gradcheck": make_loss_gradcheck,
}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write each part of a workload's inputs under ``out/<part>``.

    Returns ``{part: facts}``, the facts being what the checks need to know.
    """
    facts = {}
    for part in WORKLOADS[workload]:
        (out / part).mkdir(parents=True, exist_ok=True)
        facts[part] = MAKERS[part](out / part, seed)
    return facts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    facts = generate(args.workload, args.seed, args.out)
    (args.out / "facts.json").write_text(json.dumps(facts) + "\n")


if __name__ == "__main__":
    main()
