"""Workload scenes, their set-up (synthesis, rendering, input files) and the
replay of `geofilter run` over them.

Every workload is a set of clips. A clip is one continuous scene from
`scene_synth.generate`, written to disk the way `geofilter synth` writes it,
and replayed from an empty filter state the way `geofilter run` replays it:
parse the inputs, call `step` once per frame, write `state.jsonl` and
`metrics.csv`. The filter only ever sees the files.

Most clips are drawn from the run's seed. `crowd` and `movers` also hold one
fault clip whose inputs do not depend on the seed: a known fault shows on it
the same way on every run, so the operations it fails are counted.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from geofilter import cli, core, detect, formats, pipeline, scene_synth
from geofilter.core import CameraModel, FilterState, PixelPoint
from geofilter.scene_synth import MoverSpec, SceneSpec

FAST_THRESHOLD = 20.0
BACKGROUND, MARK = 40, 200  # PGM intensities of the camera workload


@dataclass
class Workload:
    config: core.FilterConfig
    clip_specs: Callable[[int], List[SceneSpec]]  # seed -> one spec per clip
    images: bool = False  # render PGM frames and detect with FAST-9
    fault: Optional[Tuple[int, SceneSpec]] = None  # (scene seed, spec)
    fixed_seed: Optional[int] = None  # draw the clips from this, not --seed


@dataclass
class Clip:
    directory: Path
    seed: int
    spec: SceneSpec
    fault: bool = False  # the workload's fixed fault clip

    def truth(self) -> scene_synth.SceneTruth:
        """The clip's ground truth, synthesized again: keeping every clip's
        truth in memory would dwarf the filter's own state."""
        return scene_synth.generate(self.seed, self.spec)


@dataclass
class ClipRun:
    """What one replay of one clip produced."""
    frames: List[int]
    edges: List[List[PixelPoint]]  # what `step` received
    states: List[FilterState]
    reports: List[pipeline.DimensionalityReport]
    frame_s: List[float]  # per-frame latency


# -- scenes ------------------------------------------------------------------

CAMERA = CameraModel(f=250.0, principal=PixelPoint(160.0, 120.0),
                     width=320.0, height=240.0)
CAMERA_640 = core.default_config().camera


def _static_specs(n_clips: int, frames: int, n_points: int,
                  camera: CameraModel, noise: float, omega: float):
    return [SceneSpec(n_points=n_points, frames=frames, camera=camera,
                      depth_range=(150.0, 2000.0),
                      lateral_range=(-400.0, 400.0),
                      noise_sigma=noise, omega_noise=omega)] * n_clips


def _stream(rng, starts):
    """Movers that enter the lower-right quadrant at x 430-520, y 300-340 px
    and cross it against the outward flow, one per start frame."""
    return [MoverSpec(start=(float(rng.uniform(430, 520)),
                             float(rng.uniform(300, 340))),
                      velocity=(float(rng.uniform(-30, -20)),
                                float(rng.uniform(25, 35))),
                      start_frame=s) for s in starts]


def _sector_scene(frames: int, movers) -> SceneSpec:
    """40 background points in the upper-left sector, and the movers."""
    return SceneSpec(n_points=40, frames=frames,
                     camera=CAMERA_640, depth_range=(200.0, 2000.0),
                     lateral_range=(-250.0, -40.0), movers=tuple(movers))


def _movers_specs(seed: int, n_clips: int, frames: int, period: int):
    """Bursts of one, two and three movers in turn, one burst every `period`
    frames, each mover one frame after the last."""
    specs = []
    for c in range(n_clips):
        rng = np.random.default_rng([seed, c, 1])
        movers = []
        for burst, start in enumerate(range(2, frames - 8, period)):
            movers += _stream(rng, range(start, start + burst % 3 + 1))
        specs.append(_sector_scene(frames, movers))
    return specs


# Fault clips, on inputs that do not depend on the seed. `crowd`: clip 2 of
# seed 17, the largest runaway of the 80 clips of seeds 1-20; nothing in it
# moves, yet frames 53-55 end with 3,837 confirmed rebel edges. `movers`: a
# continuous stream, one mover every 3 frames (one to three in view), over
# scene seed 10, the first of 0, 1, 2, ... whose alignment matrix runs away
# within 60 frames (`e_r` 2,386 on frames 49-51).
CROWD_FAULT = (1730044256, _static_specs(1, 60, 1100, CAMERA_640, 1.0,
                                         0.002)[0])
STREAM_FAULT = (10, _sector_scene(
    60, _stream(np.random.default_rng(0), range(2, 57, 3))))
# `camera`: clip 1 of seed 11, the largest runaway of the 64 clips of seeds
# 1-16; its last frame ends with 3,098 rebel edges.
CAMERA_FAULT = (693047345, _static_specs(1, 20, 450, CAMERA, 0.0, 0.0)[0])


def workload(name: str, smoke: bool = False) -> Workload:
    """The named workload at full size, or tiny for the smoke run."""
    default = core.default_config()
    if name == "crowd":
        clips, frames, points = (1, 12, 300) if smoke else (4, 60, 1100)
        return Workload(default, lambda s: _static_specs(
            clips, frames, points, CAMERA_640, 1.0, 0.002),
            fault=CROWD_FAULT)
    if name == "movers":
        clips, frames = (1, 24) if smoke else (16, 60)
        return Workload(default, lambda s: _movers_specs(
            s, clips, frames, 10), fault=STREAM_FAULT)
    if name == "camera":
        clips, frames = (1, 4) if smoke else (4, 20)
        return Workload(replace(default, camera=CAMERA),
                        lambda s: _static_specs(clips, frames, 450, CAMERA,
                                                0.0, 0.0),
                        images=True, fault=CAMERA_FAULT, fixed_seed=1)
    raise ValueError(f"unknown workload: {name}")


WORKLOADS = ("crowd", "movers", "camera")


# -- set-up --------------------------------------------------------------------

def render(edges: Sequence[PixelPoint], camera: CameraModel) -> np.ndarray:
    """Each landmark becomes a 3x3 bright mark on a flat background."""
    h, w = int(camera.height), int(camera.width)
    img = np.full((h, w), BACKGROUND, dtype=np.uint8)
    for p in edges:
        x, y = int(round(p.x)), int(round(p.y))
        img[max(0, y - 1):y + 2, max(0, x - 1):x + 2] = MARK
    return img


def write_pgm(path: Path, img: np.ndarray) -> None:
    h, w = img.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())


def set_up(wl: Workload, seed: int, root: Path, tracer=None) -> List[Clip]:
    """Synthesize every clip and write its input files under `root`."""
    if wl.fixed_seed is not None:
        seed = wl.fixed_seed
    todo = [(f"clip{c}", int(np.random.default_rng([seed, c]).integers(
        2 ** 31)), spec) for c, spec in enumerate(wl.clip_specs(seed))]
    if wl.fault is not None:
        todo.append(("fault",) + wl.fault)
    clips = []
    for name, clip_seed, spec in todo:
        directory = root / name
        directory.mkdir(parents=True, exist_ok=True)
        with _span(tracer, "scene_synth.generate"):
            truth = scene_synth.generate(clip_seed, spec)
        formats.write_scene(truth, directory / "frames.jsonl",
                            directory / "imu.jsonl")
        (directory / "config.txt").write_text(core.config_to_text(wl.config))
        if wl.images:
            for k in range(len(truth.frames)):
                write_pgm(directory / f"{k:06d}.pgm",
                          render(truth.edges(k), spec.camera))
        clips.append(Clip(directory, clip_seed, spec, name == "fault"))
    return clips


# -- replay --------------------------------------------------------------------

def replay(wl: Workload, clip: Clip, tracer=None) -> ClipRun:
    """Replay `geofilter run` (with `--images` on the camera workload)."""
    d = clip.directory
    with _span(tracer, "formats.parse"):
        config = core.config_from_text((d / "config.txt").read_text())
        parsed = list(formats.parse_frames(d / "frames.jsonl"))
        imu = formats.parse_imu(d / "imu.jsonl",
                                n_frames=parsed[-1][0] + 1)
    run = ClipRun([], [], [], [], [])
    state = FilterState()
    for frame, edges in parsed:
        t0 = time.perf_counter()
        if wl.images:
            with _span(tracer, "formats.parse"):
                img = cli.read_pgm(d / f"{frame:06d}.pgm")
            with _span(tracer, "detect.fast9"):
                edges = detect.detect_fast9(img, FAST_THRESHOLD)
        state, report = pipeline.step(state, edges, imu[frame], config,
                                      frame_index=frame)
        run.frame_s.append(time.perf_counter() - t0)
        run.frames.append(frame)
        run.edges.append(edges)
        run.states.append(state)
        run.reports.append(report)
    with _span(tracer, "formats.write"):
        formats.write_state_jsonl(d / "state.jsonl", run.states)
        formats.write_metrics_csv(d / "metrics.csv",
                                  list(zip(run.frames, run.reports)))
    return run


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)
