"""Command-line driver: synthesize datasets, run the filter over recorded
frames and render overlays.  `run` writes each frame's state and its
dimensionality next to the raw detection count, from which the accumulative
and last-K baselines follow."""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Tuple

from . import formats, render
from .core import (CameraModel, FilterState, PixelPoint, config_from_text,
                   config_to_text, default_config)
from .detect import detect_fast9
from .pipeline import step
from .scene_synth import MoverSpec, SceneSpec, generate


def _load_config(path: Optional[str]):
    return config_from_text(Path(path).read_text()) if path else default_config()


def read_pgm(path: Path):
    """Binary (P5) PGM reader for 8-bit images (maxval at most 255). A file
    it cannot read raises ValueError naming the file."""
    import numpy as np
    data = path.read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM")
    fields: List[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        if pos >= len(data):
            raise ValueError(f"{path}: PGM header cut short")
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    for field in fields:
        if not field.isdigit():
            raise ValueError(f"{path}: bad PGM header field {field!r}")
    width, height, maxval = (int(f) for f in fields)
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: PGM maxval {maxval} is not in 1..255; "
                         f"only 8-bit images are read")
    pos += 1
    if len(data) - pos < width * height:
        raise ValueError(f"{path}: PGM pixel data cut short: "
                         f"{max(len(data) - pos, 0)} of {width * height} "
                         f"bytes")
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return pixels.reshape(height, width)


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    frames = list(formats.parse_frames(args.frames))
    if not frames:
        raise formats.FrameFormatError(f"{args.frames}: no frames")
    # parse_frames keeps the frame indices strictly increasing
    imu = formats.parse_imu(args.imu, n_frames=frames[-1][0] + 1)
    state = FilterState()
    states, reports = [], []
    for frame, edges in frames:
        if args.images:
            img_path = Path(args.images) / f"{frame:06d}.pgm"
            if img_path.exists():
                edges = detect_fast9(read_pgm(img_path), args.threshold)
        state, report = step(state, edges, imu[frame], config,
                             frame_index=frame)
        states.append(state)
        reports.append((frame, report))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats.write_state_jsonl(out / "state.jsonl", states)
    formats.write_metrics_csv(out / "metrics.csv", reports)
    return 0


def _movers(text: str) -> Tuple[MoverSpec, ...]:
    """The movers of `--movers`, a JSON list of [x, y, vx, vy, start_frame]
    of finite numbers and a whole start frame; ValueError names any other."""
    try:
        movers = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--movers: not JSON: {exc}") from None
    if not isinstance(movers, list):
        raise ValueError(f"--movers: not a JSON list: {text}")
    for k, m in enumerate(movers):
        if not (isinstance(m, list) and len(m) == 5
                and all(type(v) in (int, float)
                        and abs(v) <= sys.float_info.max for v in m)
                and m[4] == int(m[4])):
            raise ValueError(f"--movers: mover {k} is not [x, y, vx, vy, "
                             f"start_frame] of finite numbers with a whole "
                             f"start frame: {json.dumps(m)}")
    return tuple(MoverSpec(start=(m[0], m[1]), velocity=(m[2], m[3]),
                           start_frame=int(m[4])) for m in movers)


def _cmd_synth(args) -> int:
    movers = _movers(args.movers) if args.movers else ()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    camera = CameraModel(f=args.focal, principal=PixelPoint(args.width / 2,
                                                            args.height / 2),
                         width=args.width, height=args.height)
    config = replace(default_config(), camera=camera)
    spec = SceneSpec(n_points=args.points, frames=args.n_frames, camera=camera,
                     v_v=args.speed, noise_sigma=args.noise, movers=movers)
    truth = generate(args.seed, spec)
    formats.write_scene(truth, out / "frames.jsonl", out / "imu.jsonl")
    (out / "config.txt").write_text(config_to_text(config))
    return 0


def _cmd_render(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = _load_config(args.config)
    cam = config.camera
    for state in formats.parse_states(args.state):
        svg = render.render_frame_svg(state, cam.width, cam.height)
        (out / f"frame_{state.frame_index:06d}.svg").write_text(svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geofilter",
        description="Streaming geometric filter over per-frame corner "
                    "detections and IMU motion data")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the filter over a dataset")
    run.add_argument("--frames", required=True)
    run.add_argument("--imu", required=True)
    run.add_argument("--config")
    run.add_argument("--out", required=True)
    run.add_argument("--images", help="directory of companion PGM images")
    run.add_argument("--threshold", type=float, default=inspect.signature(
        detect_fast9).parameters["threshold"].default)
    run.set_defaults(func=_cmd_run)

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--points", type=int, default=200)
    synth.add_argument("--n-frames", type=int, default=37)
    camera = default_config().camera
    synth.add_argument("--width", type=float, default=camera.width)
    synth.add_argument("--height", type=float, default=camera.height)
    synth.add_argument("--focal", type=float, default=camera.f)
    synth.add_argument("--speed", type=float, default=SceneSpec.v_v)
    synth.add_argument("--noise", type=float, default=SceneSpec.noise_sigma)
    synth.add_argument("--movers",
                       help='JSON list of [x, y, vx, vy, start_frame]')
    synth.set_defaults(func=_cmd_synth)

    rend = sub.add_parser("render", help="render SVG overlays from a state log")
    rend.add_argument("--state", required=True)
    rend.add_argument("--config")
    rend.add_argument("--out", required=True)
    rend.set_defaults(func=_cmd_render)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
