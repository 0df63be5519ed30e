"""Span recorder for the traced run.

Layer calls are timed from outside the program: `Tracer.install` replaces
module attributes of `geofilter` with timing wrappers, and `Tracer.span`
times the calls the benchmark makes itself (file I/O, detection, synthesis).
Spans (id, parent, name, start, end) are kept in memory and written once, when
the run ends. Time is summed per group; a call nested in a call of the same
group is counted once, through its outermost span.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, group). Wrapping the module attribute also catches calls
# made inside the same module, because Python looks module globals up at call
# time. `pipeline` imports `predict_normal_edge` by name, so its copy there is
# the one wrapped.
WRAPPED = (
    ("pipeline", "step", "pipeline.step"),
    ("line_expert", "apply_ignorance", "line_expert.ignorance"),
    ("line_expert", "group_edges", "line_expert.group"),
    ("pipeline", "predict_normal_edge", "kinematics.predict"),
    ("circle_expert", "classify_edge", "circle_expert.classify"),
    ("circle_expert", "update_rebel_alignment", "circle_expert.alignment"),
    ("circle_expert", "group_normal_circle", "circle_expert.group"),
    ("circle_expert", "group_and_match_rebel_circle", "circle_expert.group"),
    ("circle_expert", "match_normal_circle", "circle_expert.match"),
    ("circle_expert", "circle_overlap_percentage", "circle_expert.match"),
    ("circle_expert", "estimate_normal_edge", "circle_expert.estimate"),
    ("circle_expert", "estimate_rebel_edge", "circle_expert.estimate"),
    ("circle_expert", "estimate_trusted", "circle_expert.estimate"),
    ("circle_expert", "estimate_trusted_angle", "circle_expert.estimate"),
    ("square_expert", "match_couple_case1", "square_expert.couple"),
    ("square_expert", "shrink_dt", "square_expert.couple"),
    ("square_expert", "match_case2", "square_expert.couple"),
    ("square_expert", "build_mean_square", "square_expert.couple"),
    ("square_expert", "include_minor_circle", "square_expert.couple"),
    ("square_expert", "predict_square", "square_expert.predict"),
    ("square_expert", "match_square", "square_expert.fuse"),
    ("square_expert", "estimate_square", "square_expert.fuse"),
)

# counts taken from the arguments and results at a wrapped boundary
OBSERVERS = {
    "line_expert.apply_ignorance": lambda args, out: {
        "line_expert.edges_in": len(args[0]),
        "line_expert.edges_suppressed": out[1]},
    "line_expert.group_edges": lambda args, out: {
        "line_expert.collectors": len(out[0])},
    "circle_expert.update_rebel_alignment": lambda args, out: {
        "circle_expert.alpha_rows": len(out[0]),
        "circle_expert.rebels_confirmed": len(out[1])},
}

# recorded spans are capped; calls past the cap are still timed and counted
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id or -1, name, start, end)
        self.n_spans = 0
        self.group_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()  # per qualified function name
        self.counts = Counter()  # observed work counts
        self.absent = []
        self._stack = []  # [group, span id, time spent in child spans]
        self._restore = []

    def install(self):
        """Wrap every function in WRAPPED; a missing one is noted as absent."""
        self.absent = []
        for mod_name, attr, group in WRAPPED:
            module = importlib.import_module(f"geofilter.{mod_name}")
            fn = getattr(module, attr, None)
            name = f"{mod_name}.{attr}"
            if fn is None:
                self.absent.append(name)
                continue
            setattr(module, attr, self._wrap(fn, name, group))
            self._restore.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, fn, name, group):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = self._enter(group)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(entry, name, t0, time.perf_counter())
            if observe is not None:
                self.counts.update(observe(args, out))
            return out
        return wrapper

    @contextmanager
    def span(self, name):
        """Time a block of benchmark code as one span of its own group."""
        entry = self._enter(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(entry, name, t0, time.perf_counter())

    def _enter(self, group):
        entry = [group, self.n_spans, 0.0]
        self.n_spans += 1
        self._stack.append(entry)
        return entry

    def _exit(self, entry, name, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        self.calls[name] += 1
        self.self_s[entry[0]] += dur - entry[2]
        if parent is None or parent[0] != entry[0]:
            self.group_s[entry[0]] += dur
        if parent is not None:
            parent[2] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((entry[1], parent[1] if parent else -1, name,
                               t0, t1))

    def write(self, path: Path):
        """Write the recorded spans as CSV, times in microseconds."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_us,end_us\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{name},{t0 * 1e6:.1f},{t1 * 1e6:.1f}\n")
