"""Command-line front end: reproducible perturbation experiments.

Subcommands
-----------
simulate    sample per-frame pitch/roll, rewrite labels, warp images
evaluate    AP40 / AOS / center-distance metric tables, optional A/B diff
rectify     move detections between camera viewports given extrinsics
pose-error  geodesic angular error of estimated extrinsics vs. pose truth
loss        content/style loss kernels over serialized feature tensors

Conventions
-----------
* All angles on the command line are **radians**; reports additionally
  show degrees where an angle is reported.
* Every run is deterministic given its inputs and flags: reports carry no
  timestamps, map keys are sorted, and ``--jobs N`` produces artifacts
  byte-identical to ``--jobs 1``.
* ``--jobs N`` runs N worker threads (``--jobs 1``: one).  They take chunks
  of frames and do all of a chunk's work: read, move or score, and write.
  The main thread gathers the outcomes in id order with at most 2 x N
  chunks in flight, so memory does not grow with the number of frames;
  ``evaluate`` keeps only the records its report is built from.
  Chunks hold 64 frames: labels-only ``simulate`` and ``rectify`` move
  a chunk as one batch, and ``evaluate`` scores it into one tally.
  ``simulate --images`` takes one frame at a time.
* An output path that holds a regular file gets a new file: the old one is
  unlinked first, never truncated in place.  Any other path (a symlink, a
  device such as ``/dev/stdout``, a FIFO) is opened and written through.
* A flat ``key=value`` config file (``--config``) may supply any flag of
  its subcommand, spelled without the leading dashes; explicit flags win.
  The ``CAMPERTURB_SEED`` environment variable overrides the seed from
  either source (master override for CI matrices).
* Exit codes: 0 success, 1 usage/config error, 2 I/O or data error.
"""

import argparse
import csv
import importlib
import io
import json
import math
import os
import stat
import sys
from pathlib import Path

from . import DEFAULT_CLAMP, DEFAULT_SIGMA
from .errors import CamPerturbError, ChannelMismatch, ShapeMismatch

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2

SEED_ENV_VAR = "CAMPERTURB_SEED"


class _UsageError(Exception):
    """Bad flags or config values: reported on stderr, exit code 1."""


class _IOFailure(Exception):
    """Missing or unreadable inputs: reported on stderr, exit code 2."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# config file / flag resolution


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _read_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment, blank lines skipped."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise _UsageError(
                f"config file {path} line {line_no}: expected key=value, got {raw!r}"
            )
        values[key.strip()] = value.strip()
    return values


class _Option:
    """One option of a subcommand: name, converter, help text, default.

    A subcommand's ``_Option`` table is the only place its options are
    declared: ``build_parser`` makes one flag per entry, and the entry
    names are exactly the keys its config file accepts.
    """

    def __init__(self, name, convert, help, default=None, required=False):
        self.name = name            # flag without "--" and config-file key
        self.dest = name.replace("-", "_")
        self.convert = convert
        self.help = help
        self.default = default
        self.required = required


def _resolve_options(args: argparse.Namespace, options: list[_Option]):
    """Merge flag values over config-file values over defaults.

    ``CAMPERTURB_SEED`` then overrides the seed of a subcommand that has one.
    """
    config: dict[str, str] = {}
    if args.config:
        config = _read_config_file(args.config)
        known = {opt.name for opt in options}
        unknown = sorted(set(config) - known)
        if unknown:
            raise _UsageError(
                f"unknown config key(s) {', '.join(unknown)}; "
                f"known keys: {', '.join(sorted(known))}"
            )
    resolved = {}
    for opt in options:
        value = getattr(args, opt.dest)
        if value is None and opt.name in config:
            try:
                value = opt.convert(config[opt.name])
            except (ValueError, TypeError) as exc:
                raise _UsageError(
                    f"config key {opt.name}: {exc}"
                ) from exc
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise _UsageError(f"--{opt.name} is required")
        resolved[opt.dest] = value
    raw_seed = os.environ.get(SEED_ENV_VAR)
    if "seed" in resolved and raw_seed is not None:
        try:
            resolved["seed"] = _seed_value(raw_seed)
        except ValueError as exc:
            raise _UsageError(f"{SEED_ENV_VAR}: {exc}") from exc
    return argparse.Namespace(**resolved)


def _flag_type(convert):
    """Wrap a converter so argparse reports failures as usage errors."""

    def parse(text):
        try:
            return convert(text)
        except (ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _checked(convert, holds, message: str):
    """Converter: ``convert(text)``, which must satisfy ``holds``; otherwise
    ``message``, formatted with ``text`` and ``value``, is the error."""

    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise ValueError(message.format(text=text, value=value))
        return value

    return parse


_nonneg_angle = _checked(
    float, lambda v: 0 <= v < math.inf, "angle must be finite and >= 0, got {text!r}"
)
_seed_value = _checked(
    int, lambda v: 0 <= v < 2**64, "seed must be an unsigned 64-bit integer, got {value}"
)
_jobs_value = _checked(int, lambda v: v >= 1, "jobs must be >= 1, got {value}")
_fill_value = _checked(
    int, lambda v: 0 <= v <= 255, "fill must be a byte value 0..255, got {value}"
)
_threshold_value = _checked(
    float, lambda v: 0 < v <= 1, "iou threshold must lie in (0, 1], got {value}"
)
_positive_float = _checked(
    float, lambda v: 0 < v < math.inf, "expected a positive number, got {text!r}"
)
_nonneg_float = _checked(
    float, lambda v: 0 <= v < math.inf, "expected a non-negative number, got {text!r}"
)


def _comma_list(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise ValueError(f"expected a comma-separated list, got {text!r}")
    return items


def _one_of(what: str, choices: tuple[str, ...]):
    """Converter that accepts one of ``choices``; ``what`` names it in errors."""
    message = f"unknown {what} {{text!r}}; choose from {', '.join(choices)}"
    return _checked(str, choices.__contains__, message)


def _list_of(convert):
    """Converter for a comma list whose every item passes ``convert``."""

    def parse(text: str) -> tuple[str, ...]:
        return tuple(convert(item) for item in _comma_list(text))

    return parse


_JOBS_OPTION = _Option(
    "jobs", _jobs_value, "worker threads; frames stream through a window of 2 x jobs", 1
)
_CALIB_OPTION = _Option(
    "calib", str, "calibration file, or directory of per-frame files", required=True
)


# ---------------------------------------------------------------------------
# shared I/O helpers


def _require(path: str, what: str, kind: str = "directory") -> Path:
    """``path`` as a Path; it must exist as a "directory" or as any "path"."""
    p = Path(path)
    if not {"directory": p.is_dir, "path": p.exists}[kind]():
        raise _IOFailure(f"{what} {kind} does not exist: {p}")
    return p


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _IOFailure(f"cannot create output directory: {exc}") from exc


def _write(path: Path, data: bytes | str, what: str) -> None:
    """Write ``data`` to ``path``; a regular file there is replaced, not truncated.

    A rerun into a filled directory then creates its files as a run into an
    empty one does, instead of truncating files written moments before, and
    a hard link to an old output keeps the old bytes.  Anything else at the
    path (a symlink, a device, a FIFO) is opened and written through.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        try:
            replace = stat.S_ISREG(os.lstat(path).st_mode)
        except FileNotFoundError:
            replace = True
        if replace:
            path.unlink(missing_ok=True)
        with open(path, "xb" if replace else "wb") as f:
            f.write(data)
    except OSError as exc:
        raise _IOFailure(f"cannot write {what} {path}: {exc}") from exc


def _read_bytes(path: Path, what: str) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise _IOFailure(f"cannot read {what} {path}: {exc}") from exc


def _parse_file(path: Path, what: str, parse):
    """``parse(data)`` of the file at ``path``; a parse error names the file."""
    data = _read_bytes(path, what)
    try:
        return parse(data)
    except CamPerturbError as exc:
        raise _IOFailure(f"{what} {path}: {exc}") from exc


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit_report(text: str, out_path: str | None) -> None:
    if out_path:
        path = Path(out_path)
        _make_dir(path.parent)
        _write(path, text, "report")
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# option tables


_SIMULATE_OPTIONS = [
    _Option("labels", str, "directory of KITTI label .txt files", required=True),
    _CALIB_OPTION,
    _Option("images", str, "optional directory of .ppm/.pgm images"),
    _Option("out", str, "output directory", required=True),
    _Option(
        "sigma-pitch", _nonneg_angle,
        f"pitch sampling sigma in radians (default {DEFAULT_SIGMA:.6f} = 1 deg)",
        DEFAULT_SIGMA,
    ),
    _Option(
        "sigma-roll", _nonneg_angle,
        f"roll sampling sigma in radians (default {DEFAULT_SIGMA:.6f} = 1 deg)",
        DEFAULT_SIGMA,
    ),
    _Option(
        "clamp", _nonneg_angle,
        f"symmetric clamp in radians (default {DEFAULT_CLAMP:.6f} = 10 deg)",
        DEFAULT_CLAMP,
    ),
    _Option(
        "seed", _seed_value, f"unsigned 64-bit seed (default 0); {SEED_ENV_VAR} overrides", 0
    ),
    _Option("fill", _fill_value, "byte value for out-of-view warp samples (default 0)", 0),
    _JOBS_OPTION,
]


#: The difficulty names; each is a ``DifficultyBin`` member's name in lower case.
_DIFFICULTIES = ("easy", "moderate", "hard")
_METRIC_CHOICES = ("ap2d", "apbev", "ap3d", "aos", "nuscenes")
_FORMAT_OPTION = _Option(
    "format", _one_of("format", ("json", "csv")), "report format: json (default) or csv",
    "json",
)

_EVALUATE_OPTIONS = [
    _Option("gt", str, "ground-truth label directory", required=True),
    _Option("det", str, "detection label directory (16-field files)", required=True),
    _Option(
        "det-disturbed", str,
        "second detection directory: emit original/disturbed/decrease rows",
    ),
    _Option("out", str, "report file (default: stdout)"),
    _Option("classes", _comma_list, "comma list (default Car)", ("Car",)),
    _Option(
        "metrics", _list_of(_one_of("metric", _METRIC_CHOICES)),
        f"comma list from {{{','.join(_METRIC_CHOICES)}}} (default ap3d)",
        ("ap3d",),
    ),
    _Option(
        "difficulties", _list_of(_one_of("difficulty", _DIFFICULTIES)),
        "comma list from {easy,moderate,hard} (default all three)",
        _DIFFICULTIES,
    ),
    _Option(
        "iou-threshold", _threshold_value,
        "IoU threshold for AP/AOS matching (default 0.7)", 0.7,
    ),
    _Option(
        "match-radius", _positive_float,
        "BEV center-distance radius in metres for nuscenes (default 2.0)", 2.0,
    ),
    _FORMAT_OPTION,
    _JOBS_OPTION,
]


_RECTIFY_OPTIONS = [
    _Option("det", str, "detection label directory", required=True),
    _CALIB_OPTION,
    _Option("out", str, "output label directory", required=True),
    _Option("sidecar", str, "{frame_id,pitch,roll} JSON-lines extrinsics"),
    _Option("horizon", str, "{frame_id,slope,intercept_v,vp_u,vp_v} JSON-lines annotations"),
    _Option(
        "truth-sidecar", str, "optional truth extrinsics; reports per-frame angular error"
    ),
    _Option(
        "direction", _one_of("direction", ("undo", "apply")),
        "undo: rotate by the inverse (default); apply: rotate forward", "undo",
    ),
    _Option("report", str, "optional JSON report file"),
    _JOBS_OPTION,
]


_POSE_ERROR_OPTIONS = [
    _Option(
        "est", str, "estimates: pitch/roll JSON-lines sidecar or 3x4 pose file",
        required=True,
    ),
    _Option("gt-poses", str, "ground-truth 3x4 pose file", required=True),
    _Option("report", str, "report file (default: stdout)"),
    _FORMAT_OPTION,
]


_LOSS_OPTIONS = [
    _Option("output", str, "serialized output/generated feature tensor", required=True),
    _Option("content", str, "serialized content-target tensor", required=True),
    _Option("style", _comma_list, "comma list of serialized style-target tensors", ()),
    _Option("gamma-content", _nonneg_float, "content weight (default 1.0)", 1.0),
    _Option("gamma-style", _nonneg_float, "style weight (default 1.0)", 1.0),
    _Option(
        "grad-check", _parse_bool,
        "verify analytic gradients against central finite differences", False,
    ),
    _Option(
        "fd-step", _positive_float, "finite-difference relative step (default 1e-4)", 1e-4
    ),
    _Option("report", str, "report file (default: stdout)"),
]

# ---------------------------------------------------------------------------
# parser


#: (name, one-line help, option table) of each subcommand; ``main`` runs one
#: by importing its module, ``camperturb._cmd_<name>``, and calling its ``run``,
#: which raises on failure.
_SUBCOMMANDS = (
    ("simulate", "perturb a labeled dataset with sampled pitch/roll", _SIMULATE_OPTIONS),
    ("evaluate", "detection metric tables (AP40/AOS/nuScenes)", _EVALUATE_OPTIONS),
    ("rectify", "move detections between viewports given extrinsics", _RECTIFY_OPTIONS),
    ("pose-error", "angular error of estimated extrinsics vs pose truth", _POSE_ERROR_OPTIONS),
    ("loss", "content/style loss kernels over tensors", _LOSS_OPTIONS),
)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="camperturb",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, summary, options in _SUBCOMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key=value config file; flags win")
        for opt in options:
            if opt.convert is _parse_bool:
                p.add_argument(
                    f"--{opt.name}", action="store_const", const=True, help=opt.help
                )
            else:
                p.add_argument(
                    f"--{opt.name}", type=_flag_type(opt.convert), help=opt.help
                )
        p.set_defaults(options=options)
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            raise _UsageError("a subcommand is required (see --help)")
        cfg = _resolve_options(args, args.options)
        command = args.subcommand.replace("-", "_")
        importlib.import_module(f"{__package__}._cmd_{command}").run(cfg)
        return EXIT_OK
    except (_UsageError, ShapeMismatch, ChannelMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_IOFailure, CamPerturbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """Console-script wrapper."""
    raise SystemExit(main())


if __name__ == "__main__":  # the commands raise the exception classes of camperturb.cli
    importlib.import_module("camperturb.cli").run()
