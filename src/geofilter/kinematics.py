"""Motion-field rotational update and radial prediction of tracked entities.

Forward camera motion induces a radially outward flow around the principal
point; rotation is decoupled and applied first as a small-angle flow update.
"""

from __future__ import annotations

import math
from typing import Tuple

from .core import CameraModel, FilterConfig, ImuSample, NormalEdge, PixelPoint, wrap_deg


def rotate_motion_field(loc_rel: PixelPoint, camera: CameraModel,
                        omega: Tuple[float, float, float],
                        verbatim: bool = False) -> PixelPoint:
    """Apply the rotational part of the motion field to a point given relative
    to the frame origin; returns the absolute pixel location.

    The default corrects the last factor of the y row to wx (standard
    decoupled motion-field form); ``verbatim`` keeps the printed wy.
    """
    wx, wy, wz = omega
    lx, ly = loc_rel.x, loc_rel.y
    f = camera.f
    out_x = (lx + camera.principal.x + f * wy + ly * wz
             + (lx * ly * wx - lx * lx * wy) / f)
    last = wy if verbatim else wx
    out_y = (ly + camera.principal.y + f * wx + lx * wz
             + (lx * ly * wy - ly * ly * last) / f)
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
    rotated = rotate_motion_field(rel, config.camera, imu.omega,
                                  verbatim=config.use_verbatim_eq1)
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


def predict_normal_edge(e: NormalEdge, imu: ImuSample, config: FilterConfig) -> NormalEdge:
    """Advance a normal edge one frame: rotational flow, then radial outward
    displacement from the frame origin by the averaged velocity."""
    rel = e.loc - config.camera.principal
    v_pred = 0.5 * (e.vel + imu.v_v)
    ux, uy = outward(rel)
    loc = advance(rel, ux, uy, config.px_per_cm * v_pred * imu.t_f, imu, config)
    return NormalEdge(loc=loc, vel=v_pred, beta=e.beta, mu=e.mu, trust=e.trust)


def within_error_span(candidate: PixelPoint, entity_origin: PixelPoint,
                      entity_beta: float, delta_v: float) -> bool:
    """True iff the candidate lies within the angular error cone of half-width
    delta_v about the entity's motion direction (boundary inclusive)."""
    if candidate.x == entity_origin.x and candidate.y == entity_origin.y:
        return True
    ang = angle_of(candidate, entity_origin)
    return abs(wrap_deg(ang - entity_beta)) <= delta_v
