"""Ground-truth scene generator: pinhole projection of static 3D points under
forward camera motion plus independently moving image-space objects.

Static points produce the outward radial flow around the principal point; the
injected movers violate that field and are labeled accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .core import CameraModel, ImuSample, PixelPoint


@dataclass(frozen=True)
class MoverSpec:
    """An independently moving object, specified directly in image space."""
    start: Tuple[float, float]  # pixels
    velocity: Tuple[float, float]  # pixels per frame
    start_frame: int = 0
    end_frame: Optional[int] = None


@dataclass(frozen=True)
class SceneSpec:
    n_points: int
    frames: int
    camera: CameraModel
    depth_range: Tuple[float, float] = (100.0, 600.0)  # cm
    lateral_range: Tuple[float, float] = (-250.0, 250.0)  # cm, x and y spread
    v_v: float = 3.0  # cm/s
    a_v: float = 0.0  # cm/s^2
    t_f: float = 1.0  # s
    omega_noise: float = 0.0  # radians std per axis per frame
    noise_sigma: float = 0.0  # pixel noise on detections
    movers: Tuple[MoverSpec, ...] = ()

    def __post_init__(self):
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.depth_range[0] <= 0 or self.depth_range[1] <= self.depth_range[0]:
            raise ValueError("invalid depth range")


@dataclass
class SceneTruth:
    camera: CameraModel
    frames: List[List[Tuple[PixelPoint, str, int]]]  # (pixel, label, object id)
    imu: List[ImuSample]

    def edges(self, k: int) -> List[PixelPoint]:
        return [p for p, _label, _oid in self.frames[k]]

    def labels(self, k: int) -> List[str]:
        return [label for _p, label, _oid in self.frames[k]]


def generate(seed: int, spec: SceneSpec) -> SceneTruth:
    """Project a static point cloud through the camera as it advances along
    the optical axis, then overlay the configured movers."""
    rng = np.random.default_rng(seed)
    cam = spec.camera
    xs = rng.uniform(spec.lateral_range[0], spec.lateral_range[1], spec.n_points)
    ys = rng.uniform(spec.lateral_range[0], spec.lateral_range[1], spec.n_points)
    zs = rng.uniform(spec.depth_range[0], spec.depth_range[1], spec.n_points)

    frames: List[List[Tuple[PixelPoint, str, int]]] = []
    imu: List[ImuSample] = []
    z_cam = 0.0
    v = spec.v_v
    for k in range(spec.frames):
        # plain floats, as `formats.parse_imu` gives them to `run`
        omega = tuple(rng.normal(0.0, spec.omega_noise, 3).tolist()) \
            if spec.omega_noise > 0 else (0.0, 0.0, 0.0)
        imu.append(ImuSample(v_v=v, a_v=spec.a_v, omega=omega, t_f=spec.t_f))
        depth = zs - z_cam
        visible = depth > 1e-6
        px = cam.f * xs / np.where(visible, depth, 1.0) + cam.principal.x
        py = cam.f * ys / np.where(visible, depth, 1.0) + cam.principal.y
        if spec.noise_sigma > 0:
            px = px + rng.normal(0.0, spec.noise_sigma, spec.n_points)
            py = py + rng.normal(0.0, spec.noise_sigma, spec.n_points)
        record: List[Tuple[PixelPoint, str, int]] = []
        for i in range(spec.n_points):
            if not visible[i]:
                continue
            if 0.0 <= px[i] <= cam.width and 0.0 <= py[i] <= cam.height:
                record.append((PixelPoint(float(px[i]), float(py[i])),
                               "normal", i))
        for m, mover in enumerate(spec.movers):
            end = mover.end_frame if mover.end_frame is not None else spec.frames
            if not (mover.start_frame <= k < end):
                continue
            t = k - mover.start_frame
            mx = mover.start[0] + t * mover.velocity[0]
            my = mover.start[1] + t * mover.velocity[1]
            if 0.0 <= mx <= cam.width and 0.0 <= my <= cam.height:
                record.append((PixelPoint(mx, my), "rebel", spec.n_points + m))
        frames.append(record)
        z_cam += v * spec.t_f
        v += spec.a_v * spec.t_f
    return SceneTruth(camera=cam, frames=frames, imu=imu)
