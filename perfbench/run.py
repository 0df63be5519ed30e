#!/usr/bin/env python3
"""geofilter benchmark: replays a seeded workload through `geofilter run`'s
calls, checks the outputs and prints the metrics.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A run sets the workload up several times (synthesis, rendering, input files),
then replays all of its clips in whole rounds until `--seconds` have passed
and at least MIN_FRAMES frames are timed. `--trace 0` prints the end-to-end
metrics; `--trace 1` alternates untraced and traced rounds and prints the
per-layer metrics with the tracing overhead. The last line of standard output
is one JSON object. `--smoke` runs every workload at a tiny size, traced,
with all of its checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

if not (SRC / "geofilter" / "__init__.py").is_file():
    sys.exit(f"error: no geofilter sources at {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS, SETUP_S = 5, 6.0  # set-ups per run, at least, and for at least
# this many seconds; setup_s is their median
MIN_FRAMES = 100  # timed frames per run, so that ten lie beyond the p90

# per-layer time per frame -> the tracer group it sums
LAYER_TIMES = {
    "pipeline.step_ms": "pipeline.step",
    "line_expert.ignorance_ms": "line_expert.ignorance",
    "line_expert.group_ms": "line_expert.group",
    "kinematics.predict_ms": "kinematics.predict",
    "circle_expert.classify_ms": "circle_expert.classify",
    "circle_expert.alignment_ms": "circle_expert.alignment",
    "circle_expert.group_ms": "circle_expert.group",
    "circle_expert.match_ms": "circle_expert.match",
    "circle_expert.estimate_ms": "circle_expert.estimate",
    "square_expert.couple_ms": "square_expert.couple",
    "square_expert.predict_ms": "square_expert.predict",
    "square_expert.fuse_ms": "square_expert.fuse",
    "formats.parse_ms": "formats.parse",
    "formats.write_ms": "formats.write",
    "detect.fast9_ms": "detect.fast9",
}
# per-layer call counts -> the wrapped functions whose calls they count
LAYER_CALLS = {
    "kinematics.predict_calls": ("pipeline.predict_normal_edge",),
    "circle_expert.classify_calls": ("circle_expert.classify_edge",),
    "circle_expert.group_calls": ("circle_expert.group_normal_circle",
                                  "circle_expert.group_and_match_rebel_circle"),
    "square_expert.couple_calls": ("square_expert.match_couple_case1",),
    "square_expert.shrink_dt_calls": ("square_expert.shrink_dt",),
}
# per-layer counts observed at a wrapped boundary
LAYER_COUNTS = ("line_expert.edges_in", "line_expert.edges_suppressed",
                "line_expert.collectors", "circle_expert.alpha_rows",
                "circle_expert.rebels_confirmed")
# per-frame means of the report `step` returns
REPORT_FIELDS = {
    "pipeline.comparisons": "comparisons", "square_expert.squares": "s",
    "state.e_n": "e_n", "state.e_r": "e_r", "state.c_n": "c_n",
    "state.c_r": "c_r", "state.psi": "psi", "state.alpha": "alpha",
}


class Runner:
    def __init__(self, name, seed, smoke):
        self.wl = workloads.workload(name, smoke)
        self.name, self.seed = name, seed
        self.out = OUT / name
        self.problems = []
        self.movers = []  # per-mover confirmation on seeded clips
        self.truth = {}  # clip index -> ground truth, where failures count
        self.totals = None  # per-clip report totals of the first round
        self.baselines = []  # per clip: (accumulative at the end, last-8 mean)

    def set_up(self, setups, seconds):
        """Set the workload up `setups` times, and more until `seconds` have
        passed; return the clips of the last set-up."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.setup_s, self.generate_s = [], []
        while len(self.setup_s) < setups or sum(self.setup_s) < seconds:
            tracer = tracing.Tracer()
            t0 = time.perf_counter()
            clips = workloads.set_up(self.wl, self.seed, self.out, tracer)
            self.setup_s.append(time.perf_counter() - t0)
            self.generate_s.append(tracer.group_s["scene_synth.generate"])
        self.truth = {i: c.truth() for i, c in enumerate(clips)
                      if c.fault or self.wl.fixed_seed is not None}
        return clips

    def round(self, clips, tracer=None):
        """Replay every clip once; time it; check it; count the operations
        and failures. A clip's states are dropped before the next clip is
        replayed, as `geofilter run` holds one clip's states."""
        first = self.totals is None
        if first:
            self.totals = []
        summary = {"frames": 0, "wall": 0.0, "cpu": 0.0, "latency": [],
                   "reports": [], "edges": 0, "attempted": 0, "failed": 0}
        for i, clip in enumerate(clips):
            if tracer is not None:
                tracer.install()
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                run = workloads.replay(self.wl, clip, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            summary["wall"] += time.perf_counter() - t0
            summary["cpu"] += time.process_time() - c0
            summary["frames"] += len(run.frames)
            summary["latency"] += run.frame_s
            summary["reports"] += run.reports
            summary["edges"] += sum(len(e) for e in run.edges)
            summary["attempted"] += len(run.frames)
            if i in self.truth:
                ops, failed = checks.fault_operations(clip, self.truth[i],
                                                      run)
                summary["attempted"] += ops
                summary["failed"] += failed
            totals = [r.total for r in run.reports]
            if first:
                self.totals.append(totals)
                self._check(clip, run)
            elif totals != self.totals[i]:
                self.problems.append(f"{clip.directory.name}: a replay "
                                     f"differs from the first round")
        return summary

    def _check(self, clip, run):
        self.problems += checks.state_file(clip, run)
        self.problems += checks.grouping(clip, run, 10, self.wl.config.mu_0)
        if self.name == "crowd":
            self.problems += checks.below_last8(clip, run)
        self.baselines.append(checks.baselines(run))
        truth = clip.truth()
        if self.wl.images:
            self.problems += checks.camera(clip, truth, run, 10)
        if not clip.fault:
            self.movers += checks.mover_confirmations(truth, run)

    def measure(self, seconds, trace, smoke):
        """Replay whole rounds until `seconds` have passed and MIN_FRAMES
        frames are timed; with `trace`, every second round is traced."""
        clips = self.set_up(*((1, 0.0) if smoke else (SETUPS, SETUP_S)))
        plain, traced = [], []
        tracer = tracing.Tracer() if trace else None
        start = time.perf_counter()
        while not (plain and len(traced) == trace * len(plain)
                   and time.perf_counter() - start >= seconds
                   and (smoke or sum(r["frames"] for r in plain)
                        >= MIN_FRAMES)):
            if len(traced) < trace * len(plain):
                traced.append(self.round(clips, tracer))
            else:
                plain.append(self.round(clips))
        rounds = plain + traced
        result = {
            "correct": not self.problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "end_to_end": self.end_to_end(plain),
        }
        if trace:
            result["per_layer"] = self.per_layer(plain, traced, tracer)
            result["absent"] = tracer.absent
            tracer.write(self.out / "spans.csv")
        return result

    def end_to_end(self, rounds):
        latency = sorted(s for r in rounds for s in r["latency"])
        totals = [t for clip in self.totals for t in clip]
        frames = sum(r["frames"] for r in rounds)
        return {
            "frames_per_s": frames / sum(r["wall"] for r in rounds),
            "frame_ms_p50": statistics.median(latency) * 1e3,
            "frame_ms_p90": statistics.quantiles(latency, n=10)[-1] * 1e3,
            "cpu_ms_per_frame": sum(r["cpu"] for r in rounds) / frames * 1e3,
            "state_mean": statistics.fmean(totals),
            "state_peak": max(totals),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(self.setup_s),
        }

    def per_layer(self, plain, traced, tracer):
        frames = sum(r["frames"] for r in traced)
        reports = [rep for r in traced for rep in r["reports"]]
        out = {name: tracer.group_s[group] / frames * 1e3
               for name, group in LAYER_TIMES.items()}
        out["pipeline.self_ms"] = tracer.self_s["pipeline.step"] / frames * 1e3
        for name, fns in LAYER_CALLS.items():
            out[name] = sum(tracer.calls[f] for f in fns) / frames
        for name in LAYER_COUNTS:
            out[name] = tracer.counts[name] / frames
        out["detect.corners"] = (sum(r["edges"] for r in traced) / frames
                                 if self.wl.images else 0.0)
        for name, field in REPORT_FIELDS.items():
            out[name] = statistics.fmean(getattr(r, field) for r in reports)
        state_bytes = sum(f.stat().st_size
                          for f in self.out.glob("*/state.jsonl"))
        out["formats.state_bytes"] = state_bytes / (frames / len(traced))
        out["scene_synth.generate_s"] = statistics.median(self.generate_s)
        out["circle_expert.mover_recall_pct"] = (
            100.0 * sum(self.movers) / len(self.movers) if self.movers else 0.0)
        out["trace.overhead_pct"] = statistics.median(
            (t["wall"] / t["frames"]) / (p["wall"] / p["frames"]) - 1.0
            for p, t in zip(plain, traced)) * 100.0
        return out


def _metrics(values, listed):
    """The metrics BENCHMARK.json lists, in its order and with its units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size, traced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = workloads.WORKLOADS if args.smoke else (args.workload,)
    ok = True
    for name in names:
        runner = Runner(name, args.seed, args.smoke)
        res = runner.measure(0.0 if args.smoke else args.seconds,
                             int(args.trace or args.smoke), args.smoke)
        for problem in runner.problems:
            print(f"CHECK FAILED {name}: {problem}", file=sys.stderr)
        for fn in res.get("absent", ()):
            print(f"absent: {fn} (its metrics read 0)")
        metrics = {}
        if args.smoke or not args.trace:
            metrics.update(_metrics(res["end_to_end"], listed["end_to_end"]))
        if args.smoke or args.trace:
            metrics.update(_metrics(res["per_layer"], listed["per_layer"]))
        for key, m in metrics.items():
            print(f"{name} {key} {m['value']:.6g} {m['unit']}")
        acc, last8 = (statistics.fmean(b) for b in zip(*runner.baselines))
        print(f"{name} raw-edge baselines per clip: accumulative {acc:.0f} "
              f"at the end, last-8 {last8:.0f} on average")
        ok &= res["correct"]
        print(json.dumps({"correct": res["correct"],
                          "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
