"""What a process imports: the lazy package namespace and each subcommand's layers.

Each import budget runs in a fresh interpreter, since this test process has
every layer loaded already.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import camperturb
from camperturb import FeatureTensor, RasterImage, save_tensor, write_image
from camperturb.cli import main

SRC = Path(camperturb.__file__).resolve().parent.parent

LAYERS = ("errors", "geometry", "horizon", "kitti", "losses", "metrics", "netpbm", "simulate",
          "tensorio")


def run_fresh(code: str, cwd: Path | None = None) -> list[str]:
    """The stdout lines of ``code`` run by a fresh interpreter that imports this tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def loaded_after(code: str, cwd: Path) -> set[str]:
    """The camperturb layers, and ``concurrent.futures``, loaded once ``code`` ran."""
    last = run_fresh(f"{code}\nimport sys\nprint(' '.join(sys.modules))", cwd)[-1].split()
    return {name.removeprefix("camperturb.") for name in last
            if name.startswith("camperturb.") or name == "concurrent.futures"}


def loaded_by(argv: list[str], cwd: Path) -> set[str]:
    """What a fresh process loads to build the parser and run ``argv``.

    Building the parser loads no subcommand module, and the run loads its
    own subcommand's module and no other's.
    """
    loaded = loaded_after(
        "import sys\nfrom camperturb.cli import build_parser, main\nbuild_parser()\n"
        "assert not [m for m in sys.modules if m.startswith('camperturb._cmd_')]\n"
        f"assert main({argv!r}) == 0", cwd)
    assert {name for name in loaded if name.startswith("_cmd_")} == {
        "_cmd_" + argv[0].replace("-", "_")
    }
    return loaded


LABEL = "Car 0.00 0 -1.57 100.00 100.00 200.00 200.00 1.50 1.60 3.90 0.00 1.65 20.00 0.00"
CALIB = "P2: 700 0 600 0 0 700 180 0 0 0 1 0\n"

#: The layers, shared modules and pool that labels-only simulate and rectify load.
LABEL_MOVERS = {"cli", "errors", "_extrinsics", "_frames", "geometry", "kitti", "simulate",
                "netpbm", "concurrent.futures"}


def write_frame(root: Path) -> None:
    """One frame: ``labels/000000.txt``, ``calib.txt`` and a sidecar that tilts it."""
    (root / "labels").mkdir()
    (root / "labels" / "000000.txt").write_text(LABEL + "\n")
    (root / "calib.txt").write_text(CALIB)
    (root / "tilt.jsonl").write_text('{"frame_id": "000000", "pitch": 0.01, "roll": 0.0}\n')


# ---------------------------------------------------------------------------
# import budgets


def test_building_the_parser_imports_no_layer_but_errors(tmp_path):
    loaded = loaded_after("import camperturb.cli as cli\ncli.build_parser()", tmp_path)
    assert loaded == {"cli", "errors"}


def test_loss_imports_only_its_layers(tmp_path):
    rng = np.random.default_rng(3)
    for name in ("out", "content", "style"):
        save_tensor(tmp_path / f"{name}.ftb", FeatureTensor(data=rng.normal(size=(2, 3, 4))))
    loaded = loaded_by([
        "loss", "--output", "out.ftb", "--content", "content.ftb", "--style", "style.ftb",
        "--grad-check", "--report", "loss.json",
    ], tmp_path)
    assert loaded == {"cli", "errors", "losses", "tensorio", "_cmd_loss"}


def test_evaluate_imports_only_its_layers(tmp_path):
    for name, line in (("gt", LABEL), ("det", f"{LABEL} 0.9")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "000000.txt").write_text(line + "\n")
    loaded = loaded_by([
        "evaluate", "--gt", "gt", "--det", "det", "--metrics", "ap2d,ap3d,nuscenes",
        "--jobs", "2", "--out", "report.json",
    ], tmp_path)
    assert loaded & {"simulate", "netpbm", "losses", "tensorio", "horizon", "_extrinsics"} == set()
    assert {"kitti", "metrics", "_frames", "concurrent.futures"} <= loaded


def test_pose_error_imports_only_its_layers(tmp_path):
    pose = "1 0 0 {} 0 1 0 0 0 0 1 0\n"
    (tmp_path / "poses.txt").write_text("".join(pose.format(k) for k in range(3)))
    (tmp_path / "est.jsonl").write_text('{"pitch": 0.01, "roll": 0.0}\n' * 3)
    for est in ("est.jsonl", "poses.txt"):
        loaded = loaded_by([
            "pose-error", "--est", est, "--gt-poses", "poses.txt", "--report", "pe.json",
        ], tmp_path)
        assert loaded == {"cli", "errors", "geometry", "horizon", "kitti", "_extrinsics",
                          "_cmd_pose_error"}


@pytest.mark.parametrize("images", [False, True])
def test_simulate_imports_only_its_layers(tmp_path, images):
    write_frame(tmp_path)
    argv = ["simulate", "--labels", "labels", "--calib", "calib.txt", "--out", "out"]
    if images:
        (tmp_path / "images").mkdir()
        image = RasterImage(data=np.zeros((3, 4, 1), np.uint8))
        (tmp_path / "images" / "000000.pgm").write_bytes(write_image(image))
        argv += ["--images", "images"]
    assert loaded_by(argv, tmp_path) == LABEL_MOVERS | {"_cmd_simulate"}


@pytest.mark.parametrize("source", ["sidecar", "horizon"])
def test_rectify_imports_only_its_layers(tmp_path, source):
    write_frame(tmp_path)
    (tmp_path / "horizon.jsonl").write_text(
        '{"frame_id": "000000", "slope": 0.0, "intercept_v": 180.0, "vp_u": 600.0, "vp_v": 180.0}\n'
    )
    loaded = loaded_by([
        "rectify", "--det", "labels", "--calib", "calib.txt", "--out", "out",
        f"--{source}", f"{source if source == 'horizon' else 'tilt'}.jsonl",
    ], tmp_path)
    assert loaded == LABEL_MOVERS | {"horizon", "_cmd_rectify"}


def test_command_modules_bind_no_layer_function():
    """The subcommand and shared modules reach layer functions through the
    layer modules, at call time: what patches a layer module's attribute (a
    test, the benchmark's tracer) then reaches every caller, and a name bound
    while a patch was in place would keep the patched function."""
    for path in sorted((SRC / "camperturb").glob("_[a-z]*.py")):
        module = importlib.import_module(f"camperturb.{path.stem}")
        bound = [name for name, value in vars(module).items() if inspect.isfunction(value)
                 and value.__module__.removeprefix("camperturb.") in LAYERS]
        assert bound == [], (path.stem, bound)


def test_no_function_imports_but_the_dispatch_and_the_lazy_namespace():
    """Every module imports at its top.  Inside a function, only ``cli.main``
    (which runs the subcommand's module) and the package's ``__getattr__``
    (the lazy namespace) import, and they do it by ``importlib.import_module``."""
    found = []
    for path in sorted((SRC / "camperturb").glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = f"{path.stem}.{getattr(function, 'name', 'lambda')}"
            for node in ast.walk(function):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((name, node.lineno, ast.unparse(node)))
                elif isinstance(node, ast.Call) and ast.unparse(node.func) in (
                    "importlib.import_module", "__import__", "import_module"
                ):
                    found.append((name, node.lineno, ast.unparse(node.func)))
    assert sorted({(name, call) for name, _, call in found}) == [
        ("__init__.__getattr__", "importlib.import_module"),
        ("cli.main", "importlib.import_module"),
    ], found


def test_json_is_parsed_only_by_the_readers_that_name_their_input():
    """``json.loads`` and ``json.load`` are called only in ``_extrinsics._json_lines``
    and ``tensorio._check_sidecar``, which turn every parse failure (not UTF-8,
    not JSON, nested too deeply) into an input error naming the file, so no JSON
    input ends a run in a traceback.  No module imports from ``json`` by name,
    which would hide a call from this check."""
    found = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.ImportFrom) and child.module == "json":
                found.append((where, ast.unparse(child)))
            elif isinstance(child, ast.Call) and ast.unparse(child.func) in (
                "json.load", "json.loads"
            ):
                found.append((where, ast.unparse(child.func)))
            visit(child, where)

    for path in sorted((SRC / "camperturb").glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    assert sorted(found) == [
        ("_extrinsics._json_lines", "json.loads"),
        ("tensorio._check_sidecar", "json.loads"),
    ], found


# ---------------------------------------------------------------------------
# the lazy namespace


def test_every_exported_name_is_its_layer_module_object():
    for name in camperturb.__all__:
        value = getattr(camperturb, name)
        if name in LAYERS:
            assert value is sys.modules[f"camperturb.{name}"]
        else:
            assert value.__module__ in {f"camperturb.{layer}" for layer in LAYERS}
            assert value is getattr(sys.modules[value.__module__], name)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from camperturb import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == camperturb.__all__
    assert all(namespace[name] is getattr(camperturb, name) for name in namespace)


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'camperturb' has no attribute 'nope'$"):
        camperturb.nope  # noqa: B018
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from camperturb import nope  # noqa: F401


def test_dir_covers_the_exported_names():
    assert set(camperturb.__all__) <= set(dir(camperturb))


def test_names_resolve_lazily_in_a_fresh_process():
    lines = run_fresh(
        "import sys\n"
        "import camperturb\n"
        "print(sorted(m for m in sys.modules if m.startswith('camperturb.')))\n"
        "from camperturb import kitti\n"
        "camperturb.iou_bev\n"
        "print(sorted(m for m in sys.modules if m.startswith('camperturb.')))\n"
        "print(set(camperturb.__all__) <= set(dir(camperturb)), kitti is camperturb.kitti)\n"
    )
    assert lines[0] == "[]"
    assert lines[1] == "['camperturb.errors', 'camperturb.geometry', 'camperturb.kitti', " \
                       "'camperturb.metrics']"
    assert lines[2] == "True True"


def test_threads_that_first_touch_one_name_together_get_one_object():
    lines = run_fresh(
        "import sys, threading\n"
        "import camperturb\n"
        "assert 'camperturb.metrics' not in sys.modules\n"
        "sys.setswitchinterval(1e-6)\n"
        "barrier, seen = threading.Barrier(8), []\n"
        "def touch():\n"
        "    barrier.wait()\n"
        "    seen.append(camperturb.match_frame)\n"
        "threads = [threading.Thread(target=touch) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join()\n"
        "from camperturb.metrics import match_frame\n"
        "print(len(seen), all(f is match_frame for f in seen))\n"
    )
    assert lines == ["8 True"]


# ---------------------------------------------------------------------------
# help text


#: sha256 (first 32 hex digits) of each ``--help`` text with its whitespace
#: collapsed, so that the terminal width does not matter.
HELP_DIGESTS = {
    "": "101fe3dfdd2e0f7db8ba45c34c40e663",
    "simulate": "0f32223b18de413dc2cf8d9cc964c6ef",
    "evaluate": "a1f8181c22067261c0262b72114b4398",
    "rectify": "9e107dff970b7cc7e8d81c2a180445d3",
    "pose-error": "f5451deaef812b88165b50d72a16c3a9",
    "loss": "25f7b87dea1ec101438fce3f98060ae7",
}


def help_text(subcommand: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as excinfo:
        main([subcommand, "--help"] if subcommand else ["--help"])
    assert excinfo.value.code == 0
    return " ".join(out.getvalue().split())


@pytest.mark.parametrize("subcommand", sorted(HELP_DIGESTS))
def test_help_text_is_pinned(subcommand):
    digest = hashlib.sha256(help_text(subcommand).encode()).hexdigest()[:32]
    assert digest == HELP_DIGESTS[subcommand]


def test_simulate_help_shows_the_sampling_defaults():
    from camperturb.simulate import PerturbationSpec

    text = help_text("simulate")
    for flag in ("pitch", "roll"):
        assert f"{flag} sampling sigma in radians (default 0.017453 = 1 deg)" in text
    assert "symmetric clamp in radians (default 0.174533 = 10 deg)" in text
    spec = PerturbationSpec()
    assert (spec.sigma_pitch, spec.sigma_roll, spec.clamp) == (
        camperturb.DEFAULT_SIGMA, camperturb.DEFAULT_SIGMA, camperturb.DEFAULT_CLAMP
    )
