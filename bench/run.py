"""Benchmark of the camperturb CLI: perturb -> evaluate -> rectify, and the loss kernels.

Run from the root of a source checkout::

    python3 bench/run.py --workload score --seed 1 --seconds 55 --trace 0

``--trace 0`` generates the workload's inputs from the seed, measures the
set-up time of the CLI, then runs whole rounds of the workload, one CLI
process at a time (a closed loop with one client), until ``--seconds``
have passed.  Every round's outputs are checked.  ``--trace 1`` runs the
workloads in this process instead, with every layer wrapped in spans,
and reports per-layer figures.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the CLI's own --jobs threads are the only parallelism
# measured, and the figures do not depend on how busy the other core is.
# Set before NumPy is first imported, here and in every CLI process.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"

SETUP_PROCESSES = 11
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import camperturb.cli as cli; cli.build_parser(); "
    "print(time.perf_counter() - t, cli.__file__)"
)
CLI_SNIPPET = "from camperturb.cli import run; run()"

FILL = 77            # simulate-images: a fill byte the random content rarely matches
GAMMA_CONTENT = 0.75
GAMMA_STYLE = 2.5
MATCH_RADIUS = 2.0


class BenchError(Exception):
    """The benchmark cannot run here (no sources, or the CLI cannot start)."""


@dataclass
class Call:
    """One CLI invocation: what it was given and what it cost."""

    step: str  # the subcommand, or a name for this use of it
    frames: int
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    failed_frames: int = 0


# ---------------------------------------------------------------------------
# running the CLI


def cli_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CAMPERTURB_SEED"}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> list[float]:
    """Import camperturb.cli and build its parser in fresh processes.

    One untimed process first compiles the bytecode; the figures are the
    in-process times of the next ``SETUP_PROCESSES``.
    """
    times = []
    for i in range(SETUP_PROCESSES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=cli_env(), cwd=WORK,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise BenchError(f"cannot import camperturb.cli:\n{done.stderr}")
        seconds, where = done.stdout.split()
        if Path(where).resolve().parent.parent != SRC:
            raise BenchError(f"camperturb imported from {where}, not from {SRC}")
        if i:
            times.append(float(seconds))
    return times


class ProcessRunner:
    """Runs each CLI invocation as its own process and waits for it."""

    def __init__(self, logs: Path):
        self.logs = logs
        self.env = cli_env()
        self.calls: list[Call] = []

    def __call__(self, sub: str, argv: list[str], frames: int, step: str = "") -> Call:
        n = len(self.calls)
        out_path, err_path = self.logs / f"{n}.out", self.logs / f"{n}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", CLI_SNIPPET, sub, *argv],
                                    stdout=out, stderr=err, env=self.env, cwd=WORK)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        call = Call(step or sub, frames, proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    out_path.read_text())
        if call.code:
            sys.stderr.write(err_path.read_text())
        self.calls.append(call)
        return call


class InProcessRunner:
    """Calls ``camperturb.cli.main`` directly, inside a root span when traced."""

    def __init__(self, cli, recorder: spans.Recorder | None = None):
        self.cli = cli
        self.recorder = recorder
        self.calls: list[Call] = []

    def __call__(self, sub: str, argv: list[str], frames: int, step: str = "") -> Call:
        out, err = io.StringIO(), io.StringIO()
        root = self.recorder.root_span(f"cli.{sub}") if self.recorder else contextlib.nullcontext()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), root:
            code = self.cli.main([sub, *argv])
        call = Call(step or sub, frames, code, time.perf_counter() - start, 0.0, out.getvalue())
        if code:
            sys.stderr.write(err.getvalue())
        self.calls.append(call)
        return call


# ---------------------------------------------------------------------------
# parts: each runs its CLI steps and checks what they wrote


@dataclass
class Part:
    """One part of a workload's inputs, with the facts the checks need."""

    name: str
    seed: int
    inputs: Path
    facts: dict


def run_eval_ab(p: Part, call, out: Path) -> list[str]:
    frames = p.facts["frames"]
    report = out / "report.json"
    c = call("evaluate", [
        "--gt", str(p.inputs / "gt"), "--det", str(p.inputs / "det"),
        "--det-disturbed", str(p.inputs / "det_disturbed"),
        "--classes", ",".join(synth.EVAL_CLASSES), "--metrics", "ap2d,apbev,ap3d,aos,nuscenes",
        "--difficulties", "easy,moderate,hard", "--match-radius", str(MATCH_RADIUS),
        "--jobs", "1", "--out", str(report),
    ], frames)
    if c.code:
        return [f"evaluate exited with {c.code}"]
    return checks.check_eval_ab(report, p.inputs, frames, MATCH_RADIUS)


def run_loss_gradcheck(p: Part, call, out: Path) -> list[str]:
    styles = [str(p.inputs / f"style{k}.ftb") for k in range(p.facts["styles"])]
    c = call("loss", [
        "--output", str(p.inputs / "output.ftb"), "--content", str(p.inputs / "content.ftb"),
        "--style", ",".join(styles), "--gamma-content", str(GAMMA_CONTENT),
        "--gamma-style", str(GAMMA_STYLE), "--grad-check", "--report", str(out / "loss.json"),
    ], 0)
    if c.code:
        return [f"loss exited with {c.code}"]
    return checks.check_loss(out / "loss.json", p.inputs, p.facts["styles"], GAMMA_CONTENT,
                             GAMMA_STYLE)


def run_simulate_images(p: Part, call, out: Path, jobs: int = 2) -> list[str]:
    c = call("simulate", [
        "--labels", str(p.inputs / "label_2"), "--calib", str(p.inputs / "calib"),
        "--images", str(p.inputs / "image_2"), "--out", str(out),
        "--seed", str(p.seed), "--fill", str(FILL), "--jobs", str(jobs),
    ], p.facts["frames"], step="simulate-images")
    if c.code:
        return [f"simulate exited with {c.code}"]
    c.failed_frames, problems = checks.check_simulate(p.inputs, out, c.stdout, p.facts, FILL, p.seed)
    return problems


def run_perturb_rectify(p: Part, call, out: Path) -> list[str]:
    cams, frames = p.facts["cameras"], p.facts["frames"]
    sim = call("simulate", [
        "--labels", str(p.inputs / "label_2"), "--calib", str(p.inputs / "calib"),
        "--out", str(out / "sim"), "--seed", str(p.seed), "--jobs", "1",
    ], frames)
    if sim.code:
        return [f"simulate exited with {sim.code}"]
    sim.failed_frames, problems = checks.check_simulate(p.inputs, out / "sim", sim.stdout,
                                                        p.facts, None, p.seed)
    sidecar = out / "sim" / "perturbations.jsonl"
    errors = synth.roll_errors(p.seed, cams)
    checks.horizon_annotations(sidecar, cams, out / "horizon.jsonl")
    checks.truth_sidecar(sidecar, errors, out / "truth.jsonl")
    rec = call("rectify", [
        "--det", str(out / "sim" / "labels"), "--calib", str(p.inputs / "calib"),
        "--out", str(out / "rectified"), "--horizon", str(out / "horizon.jsonl"),
        "--truth-sidecar", str(out / "truth.jsonl"), "--direction", "undo",
        "--report", str(out / "rectify.json"), "--jobs", "1",
    ], frames)
    if rec.code:
        return problems + [f"rectify exited with {rec.code}"]
    rec.failed_frames, more = checks.check_rectify(p.inputs, out / "rectified",
                                                   out / "rectify.json", rec.stdout, cams, errors)
    problems += more
    pe = call("pose-error", [
        "--est", str(p.inputs / "estimates.jsonl"), "--gt-poses", str(p.inputs / "poses.txt"),
        "--report", str(out / "pose_error.json"),
    ], p.facts["poses"])
    if pe.code:
        return problems + [f"pose-error exited with {pe.code}"]
    return problems + checks.check_pose_error(out / "pose_error.json", p.facts)


PART_STEPS = {
    "eval-ab": run_eval_ab,
    "loss-gradcheck": run_loss_gradcheck,
    "simulate-images": run_simulate_images,
    "perturb-rectify": run_perturb_rectify,
}


class Session:
    """Runs rounds, keeps their calls, and counts operations and problems."""

    def __init__(self, work: Path):
        self.work = work
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_round(self, parts: list[Part], runner, step=None) -> list[Call]:
        """One round: the CLI steps of ``parts`` in order, each output checked.

        ``step`` replaces the parts' own steps.
        """
        out = self.work / f"round-{self.rounds}"
        first = len(runner.calls)
        for p in parts:
            (out / p.name).mkdir(parents=True)
            problems = (step or PART_STEPS[p.name])(p, runner, out / p.name)
            self.problems += [f"{p.name} round {self.rounds}: {m}" for m in problems]
        calls = runner.calls[first:]
        for c in calls:
            self.attempted += 1 + c.frames
            self.failed += (1 + c.frames) if c.code else c.failed_frames
        self.rounds += 1
        shutil.rmtree(out)
        return calls


def prepare(workload: str, seed: int, work: Path) -> list[Part]:
    inputs = work / "inputs" / workload
    facts = synth.generate(workload, seed, inputs)
    return [Part(name, seed, inputs / name, facts[name]) for name in synth.WORKLOADS[workload]]


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics, CLI processes


def measure_end_to_end(workload: str, seed: int, seconds: float, work: Path, session: Session):
    setup = measure_setup()
    start = time.perf_counter()
    parts = prepare(workload, seed, work)
    generated = time.perf_counter() - start
    runner = ProcessRunner(work)
    rounds = []
    start = now = time.perf_counter()
    # whole rounds only; stop before a round that would end after `seconds`
    while not rounds or now - start + last <= seconds:
        rounds.append(session.run_round(parts, runner))
        now, last = time.perf_counter(), time.perf_counter() - now
    wall = [sum(c.wall_s for c in r) for r in rounds]
    rss = [max(c.rss_mb for c in r) for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(wall), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    steps = {}
    for c in rounds[0]:
        times = [sum(x.wall_s for x in r if x.step == c.step) for r in rounds]
        steps[f"{c.step.replace('-', '_')}_s"] = (statistics.median(times), "s")
    print(f"workload {workload}: seed {seed}, {len(rounds)} rounds, inputs generated in "
          f"{generated:.2f} s, set-up measured in {len(setup)} processes")
    print("  round wall times (s): " + " ".join(f"{t:.3f}" for t in wall))
    for key, (value, unit) in {**metrics, **steps}.items():
        print(f"  {key:<24} {value:12.4f} {unit}")
    for p in parts:
        for line in reference_figures(p, steps):
            print(f"  {line}")
    return metrics


def reference_figures(p: Part, steps: dict) -> list[str]:
    """ROADMAP-style per-item figures at this benchmark's sizes (process start included)."""
    f = p.facts
    if p.name == "eval-ab":
        return [f"evaluate per frame per detection set: "
                f"{steps['evaluate_s'][0] / (2 * f['frames']) * 1e3:.1f} ms"]
    if p.name == "simulate-images":
        return [f"simulate per image frame (--jobs 2): "
                f"{steps['simulate_images_s'][0] / f['frames'] * 1e3:.1f} ms"]
    if p.name == "perturb-rectify":
        return [f"labels-only simulate per frame: {steps['simulate_s'][0] / f['frames'] * 1e3:.2f} ms",
                f"rectify per frame: {steps['rectify_s'][0] / f['frames'] * 1e3:.2f} ms",
                f"pose-error per pose: {steps['pose_error_s'][0] / f['poses'] * 1e6:.1f} us"]
    return []


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics, in this process


def import_cli():
    sys.path.insert(0, str(SRC))
    import camperturb.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise BenchError(f"camperturb imported from {cli.__file__}, not from {SRC}")
    return cli


def retained_mb_per_frame(trace: spans.Trace) -> float:
    """Slope of peak traced memory against frames completed, in MB per frame."""
    done = sorted(trace.of("simulate.simulate_frame"), key=lambda s: s[3])
    peaks = np.array([s[6][1] for s in done], dtype=float) / 1e6
    return float(np.polyfit(np.arange(1, len(peaks) + 1), peaks, 1)[0])


def measure_layers(workload: str, seed: int, seconds: float, work: Path, session: Session):
    """Trace a round of every workload; time the selected one with and without spans.

    Each layer metric comes from the workload whose end-to-end figures it
    should move, so every traced run reports every layer.  ``cli.self_s``
    and ``trace.overhead_s`` belong to the selected workload.
    """
    cli = import_cli()
    os.environ.pop("CAMPERTURB_SEED", None)
    loads = {n: prepare(n, seed, work) for n in synth.WORKLOADS}
    recorders = {n: spans.Recorder() for n in loads}
    untraced, traced = [], []
    start = now = time.perf_counter()
    while not traced or now - start + last <= seconds:
        for n, parts in loads.items():
            if n == workload:
                untraced.append(sum(c.wall_s for c in session.run_round(parts, InProcessRunner(cli))))
            with spans.instrument(recorders[n]):
                calls = session.run_round(parts, InProcessRunner(cli, recorders[n]))
            recorders[n].trace.rounds += 1
            if n == workload:
                traced.append(sum(c.wall_s for c in calls))
                untraced.append(sum(c.wall_s for c in session.run_round(parts, InProcessRunner(cli))))
        now, last = time.perf_counter(), time.perf_counter() - now
    # One frame at a time, so no other frame's temporaries overlap the samples.
    memory = spans.Recorder()
    images = [p for p in loads["perturb"] if p.name == "simulate-images"]
    tracemalloc.start()
    try:
        with spans.instrument(memory, layers=("simulate",)):
            session.run_round(images, InProcessRunner(cli, memory),
                              step=functools.partial(run_simulate_images, jobs=1))
    finally:
        tracemalloc.stop()

    score, perturb = recorders["score"].trace, recorders["perturb"].trace
    iou = ("metrics.iou_2d", "metrics.iou_bev", "metrics.iou_3d")
    own = recorders[workload].trace
    roots = dict.fromkeys(s[1] for s in own.spans if s[4] is None)
    metrics = {
        "cli.self_s": (own.self_time(*roots), "s"),
        "cli.retained_mb_per_frame": (retained_mb_per_frame(memory.trace), "MB/frame"),
        "kitti.parse_label_file.lines": (score.units("kitti.parse_label_file"), "count"),
        "kitti.parse_label_file.us_per_line":
            (score.per_unit("kitti.parse_label_file", 1e6), "us/line"),
        "kitti.difficulty_of.calls": (score.calls("kitti.difficulty_of"), "count"),
        "kitti.write_label_file.us_per_line":
            (perturb.per_unit("kitti.write_label_file", 1e6), "us/line"),
        "kitti.parse_odometry_poses.us_per_line":
            (perturb.per_unit("kitti.parse_odometry_poses", 1e6), "us/line"),
        "metrics.match_frame.calls": (score.calls("metrics.match_frame"), "count"),
        "metrics.match_frame.self_s": (score.self_time("metrics.match_frame"), "s"),
        "metrics.match_frame.repeat_ratio": (score.repeat_ratio("metrics.match_frame"), "ratio"),
        "metrics.iou.calls": (sum(score.calls(n) for n in iou), "count"),
        "metrics.iou.repeat_ratio": (score.repeat_ratio(*iou), "ratio"),
        "metrics.iou_2d.us_per_call": (score.per_unit("metrics.iou_2d", 1e6), "us/call"),
        "metrics.iou_bev.us_per_call": (score.per_unit("metrics.iou_bev", 1e6), "us/call"),
        "metrics.iou_3d.us_per_call": (score.per_unit("metrics.iou_3d", 1e6), "us/call"),
        "metrics.sweep.self_s": (score.self_time("metrics.average_precision_40",
                                                 "metrics.average_orientation_similarity"), "s"),
        "metrics.nuscenes_errors.self_s": (score.self_time("metrics.nuscenes_errors"), "s"),
        "simulate.warp_image.ms_per_mpix": (perturb.per_unit("simulate.warp_image", 1e3), "ms/Mpix"),
        "netpbm.read_image.ms_per_mpix": (perturb.per_unit("netpbm.read_image", 1e3), "ms/Mpix"),
        "netpbm.write_image.ms_per_mpix": (perturb.per_unit("netpbm.write_image", 1e3), "ms/Mpix"),
        "simulate.transform_labels.us_per_object":
            (perturb.per_unit("simulate.transform_labels", 1e6), "us/object"),
        "geometry.project.calls": (perturb.calls("geometry.project"), "count"),
        "geometry.transform_box.calls": (perturb.calls("geometry.transform_box"), "count"),
        "horizon.extrinsics_from_horizon_vp.calls":
            (perturb.calls("horizon.extrinsics_from_horizon_vp"), "count"),
        "horizon.angular_error.us_per_call":
            (perturb.per_unit("horizon.angular_error", 1e6), "us/call"),
        "losses.gram.calls": (score.calls("losses.gram"), "count"),
        "losses.gram.repeat_ratio": (score.repeat_ratio("losses.gram"), "ratio"),
        "losses.gram.ms_per_call": (score.per_unit("losses.gram", 1e3), "ms/call"),
        "losses.total_loss.calls": (score.calls("losses.total_loss"), "count"),
        "tensorio.load_tensor.ms_per_mb": (score.per_unit("tensorio.load_tensor", 1e3), "ms/MB"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    }
    print(f"traced run: seed {seed}, selected workload {workload}, {len(traced)} traced and "
          f"{len(untraced)} untraced in-process rounds of it")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<42} {value:14.4f} {unit}")
    return metrics


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(synth.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "camperturb" / "cli.py").is_file():
        print(f"error: no camperturb sources under {SRC}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    session = Session(work)
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(args.workload, args.seed, args.seconds, work, session)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    for problem in session.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
