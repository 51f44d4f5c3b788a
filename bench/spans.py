"""In-process span recording around camperturb's layers.

``instrument`` replaces every public function of each layer module with a
wrapper that records a span (id, name, start, end, parent id) plus the
amount of work the call did.  The wrapper is installed under every name
that camperturb's modules use to reach the function, because modules
such as ``cli`` and ``metrics`` bind imported names at import time.
Spans stay in memory; ``Trace`` turns them into per-layer figures.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

#: The package's modules, one layer each.  ``cli`` is the root span.
LAYERS = ("cli", "kitti", "netpbm", "tensorio", "geometry", "horizon", "simulate",
          "metrics", "losses")


def _len_result(args, kwargs, result):
    return len(result), None


def _len_first(args, kwargs, result):
    return len(args[0]), None


def _megapixels_result(args, kwargs, result):
    return result.width * result.height / 1e6, None


def _megapixels_first(args, kwargs, result):
    return args[0].width * args[0].height / 1e6, None


def _tensor_mb(args, kwargs, result):
    return result.size * 4 / 1e6, None


def _match_key(args, kwargs, result):
    frame = args[0]
    return 1, (frame.frame_id, id(frame.detections), args[1:], tuple(sorted(kwargs.items())))


def _iou_key(args, kwargs, result):
    return 1, hash((args[0], args[1]))


def _gram_key(args, kwargs, result):
    return 1, hashlib.blake2b(args[0].data.tobytes(), digest_size=16).digest()


def _peak_memory(args, kwargs, result):
    """Peak traced allocation so far; non-zero only while tracemalloc runs."""
    return 1, tracemalloc.get_traced_memory()[1]


#: How much work a call did, and a key naming its inputs (for repeat ratios).
#: Functions not listed count one unit per call and carry no key.
WORK = {
    "kitti.parse_label_file": _len_result,
    "kitti.write_label_file": _len_first,
    "kitti.parse_odometry_poses": _len_result,
    "netpbm.read_image": _megapixels_result,
    "netpbm.write_image": _megapixels_first,
    "simulate.warp_image": _megapixels_first,
    "simulate.transform_labels": _len_first,
    "tensorio.load_tensor": _tensor_mb,
    "metrics.match_frame": _match_key,
    "metrics.iou_2d": _iou_key,
    "metrics.iou_bev": _iou_key,
    "metrics.iou_3d": _iou_key,
    "losses.gram": _gram_key,
    "simulate.simulate_frame": _peak_memory,
}


@dataclass
class Trace:
    """Spans of ``rounds`` traced rounds of one workload, as recorded.

    Counts and self times are given per round.
    """

    spans: list = field(default_factory=list)  # (id, name, start, end, parent, units, key)
    rounds: int = 0

    def of(self, name: str) -> list:
        return [s for s in self.spans if s[1] == name]

    def calls(self, name: str) -> float:
        return len(self.of(name)) / self.rounds

    def busy(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.of(name))

    def units(self, name: str) -> float:
        return sum(s[5] for s in self.of(name)) / self.rounds

    def per_unit(self, name: str, scale: float) -> float:
        units = self.units(name) * self.rounds
        return scale * self.busy(name) / units if units else 0.0

    def repeat_ratio(self, *names: str) -> float:
        spans = [s for n in names for s in self.of(n)]
        distinct = len({(s[1], s[6]) for s in spans})
        return len(spans) / distinct if distinct else 0.0

    def self_time(self, *names: str) -> float:
        """Duration of the named spans minus the time their child spans cover.

        Children of one span may run on several threads at once, so the
        covered time is the length of the union of their intervals.
        """
        children: dict[int, list] = {}
        for s in self.spans:
            children.setdefault(s[4], []).append((s[2], s[3]))
        total = 0.0
        for s in (s for n in names for s in self.of(n)):
            covered, reach = 0.0, s[2]
            for start, end in sorted(children.get(s[0], [])):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            total += (s[3] - s[2]) - covered
        return total / self.rounds


class Recorder:
    """Collects spans from wrapped functions; span ids are unique per recorder."""

    def __init__(self):
        self.trace = Trace()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.root: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        work = WORK.get(name)
        spans = self.trace.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span_id, name, start, time.perf_counter(), parent, 0, None))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            units, key = work(args, kwargs, result) if work else (1, None)
            # keys are compared within one CLI invocation only: ids get reused
            spans.append((span_id, name, start, end, parent, units, (self.root, key)))
            return result

        return traced

    @contextmanager
    def root_span(self, name: str):
        """The span of one CLI invocation; worker threads' spans hang off it."""
        span_id = next(self._ids)
        self.root = span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.trace.spans.append((span_id, name, start, time.perf_counter(), None, 1, None))
            self.root = None


@contextmanager
def instrument(recorder: Recorder, layers=LAYERS[1:]):
    """Wrap each public function of ``layers`` wherever camperturb refers to it."""
    wrappers = {}
    for layer in layers:
        module = importlib.import_module(f"camperturb.{layer}")
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not attr.startswith("_")):
                wrappers[id(value)] = (value, recorder.wrap(f"{layer}.{attr}", value))
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "camperturb" and not mod_name.startswith("camperturb."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                setattr(module, attr, wrappers[id(value)][1])
                patched.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
