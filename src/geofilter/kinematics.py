"""Motion-field rotational update and radial prediction of tracked entities.

Forward camera motion induces a radially outward flow around the principal
point; rotation is decoupled and applied first as a small-angle flow update.

`rotate_motion_field` and `advance` are plain arithmetic, so they take a
point of two numpy columns as well as a point of two floats and return the
same bits for each element. The edge predictions run on columns; every
`hypot`, `cos` and `sin` among them is Python's own, taken per element.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .core import CameraModel, FilterConfig, ImuSample, PixelPoint, wrap_deg


def rotate_motion_field(loc_rel: PixelPoint, camera: CameraModel,
                        omega: Tuple[float, float, float]) -> PixelPoint:
    """Apply the rotational part of the motion field to a point given relative
    to the frame origin; returns the absolute pixel location.

    The last factor of the y row is wx, the standard decoupled motion-field
    form; the paper's Eq. 1 prints wy there.
    """
    wx, wy, wz = omega
    lx, ly = loc_rel.x, loc_rel.y
    f = camera.f
    out_x = (lx + camera.principal.x + f * wy + ly * wz
             + (lx * ly * wx - lx * lx * wy) / f)
    out_y = (ly + camera.principal.y + f * wx + lx * wz
             + (lx * ly * wy - ly * ly * wx) / f)
    return PixelPoint(out_x, out_y)


def angle_of(p: PixelPoint, origin: PixelPoint) -> float:
    """Four-quadrant angle of (p - origin) in degrees, in (-180, 180].
    Degenerate input (p == origin) maps to 0."""
    dx, dy = p.x - origin.x, p.y - origin.y
    if dx == 0.0 and dy == 0.0:
        return 0.0
    return wrap_deg(math.degrees(math.atan2(dy, dx)))


def advance(rel: PixelPoint, ux: float, uy: float, step_px: float,
            imu: ImuSample, config: FilterConfig) -> PixelPoint:
    """Advance a point given relative to the frame origin by one frame: the
    rotational flow, then `step_px` pixels along the unit direction (ux, uy).
    Returns the absolute pixel location."""
    rotated = rotate_motion_field(rel, config.camera, imu.omega)
    return PixelPoint(rotated.x + ux * step_px, rotated.y + uy * step_px)


def outward(rel: PixelPoint) -> Tuple[float, float]:
    """Unit direction of a point given relative to the frame origin; (0, 0)
    at the origin itself."""
    r = rel.norm()
    if r == 0.0:
        return 0.0, 0.0
    inv = 1.0 / r
    return rel.x * inv, rel.y * inv


def heading(beta: float) -> Tuple[float, float]:
    """Unit direction of an angle in degrees."""
    rad = math.radians(beta)
    return math.cos(rad), math.sin(rad)


def hypot_columns(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """`math.hypot` of each element pair; `np.hypot` differs from it in the
    last bit on some inputs."""
    return np.fromiter(map(math.hypot, dx.tolist(), dy.tolist()), float,
                       len(dx))


def predict_normal_edges(x: np.ndarray, y: np.ndarray, vel: np.ndarray,
                         imu: ImuSample, config: FilterConfig
                         ) -> Tuple[PixelPoint, np.ndarray]:
    """Advance normal edges one frame, given as columns of their location
    and velocity: rotational flow, then radial outward displacement from the
    frame origin by the averaged velocity; an edge on the origin itself only
    rotates. Returns the locations as a point of two columns, and the
    averaged velocities."""
    rel = PixelPoint(x, y) - config.camera.principal
    v_pred = 0.5 * (vel + imu.v_v)
    r = hypot_columns(rel.x, rel.y)
    inv = 1.0 / np.where(r == 0.0, np.inf, r)
    loc = advance(rel, rel.x * inv, rel.y * inv,
                  config.px_per_cm * v_pred * imu.t_f, imu, config)
    return loc, v_pred


def predict_rebel_edges(x: np.ndarray, y: np.ndarray, vel: np.ndarray,
                        beta: np.ndarray, imu: ImuSample,
                        config: FilterConfig) -> PixelPoint:
    """Advance rebel edges one frame, given as columns of their location,
    velocity and angle: rotational flow, then their own velocity along their
    own angle. Returns the locations as a point of two columns."""
    rad = list(map(math.radians, beta.tolist()))
    return advance(PixelPoint(x, y) - config.camera.principal,
                   np.fromiter(map(math.cos, rad), float, len(rad)),
                   np.fromiter(map(math.sin, rad), float, len(rad)),
                   vel * imu.t_f * config.px_per_cm, imu, config)
