"""Third stage: combine circles into rectangular layers via couple matching,
mean-square construction, ellipse-tangent prediction and square matching."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence, Tuple

from . import circle_expert as ce
from .core import (Circle, FilterConfig, ImuSample, PixelPoint, Square,
                   TrustLadder, trust_init, wrap_deg)
from .kinematics import advance, angle_of, outward


class TangentUndefinedError(ValueError):
    """Raised when the square's origin lies inside or on its inscribed
    ellipse, so no external tangent exists."""


def match_couple_case1(a: Circle, b: Circle, d_t: float,
                       config: FilterConfig) -> bool:
    """Corner-couple match: distance strictly under the temporary maximum
    d_t, similar velocity and an angle offset of +-delta_beta_1 within
    eps_beta."""
    if not a.loc.dist(b.loc) < d_t or abs(a.vel - b.vel) > config.eps_v:
        return False
    for offset in (config.delta_beta_1, -config.delta_beta_1):
        if abs(wrap_deg(a.beta - (b.beta + offset))) <= config.eps_beta:
            return True
    return False


def couple_interior_angle(a_loc: PixelPoint, b_loc: PixelPoint,
                          bp_loc: PixelPoint) -> float:
    """Angle at a_loc between the rays to b_loc and bp_loc, in degrees.

    The cosine rule's value, taken as atan2(|cross|, dot) of the two rays:
    acos of the cosine rule loses about half the digits near collinearity
    (0.0014 deg off for rays of length 8 and 1e-6 along one line)."""
    ux, uy = b_loc.x - a_loc.x, b_loc.y - a_loc.y
    vx, vy = bp_loc.x - a_loc.x, bp_loc.y - a_loc.y
    return math.degrees(math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy))


def shrink_dt(a: Circle, b: Circle, b_prime: Circle, d_t: float) -> float:
    """Shrink the temporary maximum couple distance when a slower candidate
    circle sits between/inside the couple.  Returns the (possibly unchanged)
    new d_t."""
    d_ab = a.loc.dist(b.loc)
    d_abp = a.loc.dist(b_prime.loc)
    d_bbp = b.loc.dist(b_prime.loc)
    if d_ab == 0.0 or d_abp == 0.0 or d_bbp == 0.0:
        return d_t
    # tangent half-angle of circle b seen from a; both tangent points give the
    # same magnitude
    beta_t = math.degrees(math.asin(min(b.radius / d_ab, 1.0)))
    beta_m = couple_interior_angle(a.loc, b.loc, b_prime.loc)
    if b_prime.vel <= a.vel and abs(beta_t) <= abs(beta_m) and d_ab < d_t:
        return d_t - d_bbp
    return d_t


def match_case2(a: Circle, b: Circle, config: FilterConfig) -> bool:
    """Aligned-group match: similar velocity and direction within the widened
    case-2 span (boundary inclusive)."""
    return (abs(a.vel - b.vel) <= config.eps_v
            and abs(wrap_deg(a.beta - b.beta)) <= config.delta_beta_2 + config.eps_beta)


def build_mean_square(a: Circle, b_group: Sequence[Circle],
                      config: FilterConfig) -> Square:
    """Bounding-box construction over the couple and its grouped circles."""
    if not b_group:
        raise ValueError("b_group must be non-empty")
    ox = 0.5 * (a.origin.x + sum(c.origin.x for c in b_group) / len(b_group))
    oy = 0.5 * (a.origin.y + sum(c.origin.y for c in b_group) / len(b_group))
    origin = PixelPoint(ox, oy)
    vel = 0.5 * (a.vel + sum(c.vel for c in b_group) / len(b_group))
    xs = [a.loc.x] + [c.loc.x for c in b_group]
    ys = [a.loc.y] + [c.loc.y for c in b_group]
    hi = PixelPoint(max(xs), max(ys))
    lo = PixelPoint(min(xs), min(ys))
    loc = PixelPoint((hi.x + lo.x) / 2.0, (hi.y + lo.y) / 2.0)
    floor = config.mu_0 / 2.0
    radii = (max((hi.x - lo.x) / 2.0, floor), max((hi.y - lo.y) / 2.0, floor))
    beta = angle_of(loc, origin)
    return Square(loc=loc, radii=radii, vel=vel, beta=beta, origin=origin,
                  trust=trust_init("square", config.square_trust))


def include_minor_circle(square: Square, candidate: Circle,
                         config: FilterConfig) -> bool:
    """True when the candidate matches the square's kinematics (inclusive
    bounds) and its center lies inside the square's box."""
    if abs(candidate.vel - square.vel) > config.eps_v:
        return False
    if abs(wrap_deg(candidate.beta - square.beta)) > config.eps_beta:
        return False
    rx, ry = square.radii
    return (abs(candidate.loc.x - square.loc.x) <= rx
            and abs(candidate.loc.y - square.loc.y) <= ry)


def ellipse_tangent_point(square: Square) -> PixelPoint:
    """Tangent point from the square's origin to its inscribed ellipse.

    Of the two solutions, returns the one with the larger y (ties: larger x).
    Raises TangentUndefinedError when the origin is inside or on the ellipse.
    """
    rx, ry = square.radii
    opx = square.origin.x - square.loc.x
    opy = square.origin.y - square.loc.y
    if (opx / rx) ** 2 + (opy / ry) ** 2 <= 1.0 + 1e-15:
        raise TangentUndefinedError("origin inside or on the inscribed ellipse")
    # parametrize the ellipse as (rx cos t, ry sin t); the tangency condition
    # reduces to A sin t + B cos t = C
    a_coef = rx * opy
    b_coef = ry * opx
    c_coef = rx * ry
    r = math.hypot(a_coef, b_coef)
    phi = math.atan2(b_coef, a_coef)
    base = math.asin(max(-1.0, min(1.0, c_coef / r)))
    sols = []
    for t in (base - phi, math.pi - base - phi):
        sols.append(PixelPoint(square.loc.x + rx * math.cos(t),
                               square.loc.y + ry * math.sin(t)))
    sols.sort(key=lambda p: (p.y, p.x))
    return sols[-1]


def predict_square(square: Square, imu: ImuSample, config: FilterConfig) -> Square:
    """Advance a square one frame through its tangent-point geometry.

    Degenerate configurations (origin at the center, or origin inside the
    inscribed ellipse) carry the square unchanged.
    """
    origin = square.origin
    if square.loc.x == origin.x and square.loc.y == origin.y:
        return replace(square)
    ux, uy = outward(square.loc - origin)
    advanced = advance(square.loc - config.camera.principal, ux, uy,
                       square.vel * imu.t_f * config.px_per_cm, imu, config)
    delta_r = square.loc.dist(advanced)
    if delta_r == 0.0:
        return replace(square)
    try:
        l_t = ellipse_tangent_point(square)
    except TangentUndefinedError:
        return replace(square)
    d_ols = origin.dist(square.loc)
    d_olt = origin.dist(l_t)
    if d_ols > d_olt:
        d_r = (d_ols + delta_r) * d_olt / d_ols - d_olt
    else:
        d_r = (d_ols + delta_r) * d_ols / d_olt - d_ols
    # advance the tangent point and the center radially from the origin
    t_away = l_t - origin
    t_norm = t_away.norm()
    if t_norm == 0.0:
        return replace(square)
    new_t = l_t + t_away.scaled(d_r / t_norm)
    new_loc = PixelPoint(square.loc.x + ux * d_r, square.loc.y + uy * d_r)
    radii = _predicted_radii(origin, new_t, new_loc, square.radii)
    beta = angle_of(new_loc, origin)
    return replace(square, loc=new_loc, radii=radii, beta=beta)


def _predicted_radii(origin: PixelPoint, l_t: PixelPoint, l_s: PixelPoint,
                     fallback: Tuple[float, float]) -> Tuple[float, float]:
    """Recover the ellipse semi-axes from the advanced tangent geometry."""
    dx_ot = origin.x - l_t.x
    dy_ot = origin.y - l_t.y
    dx_ts = l_t.x - l_s.x
    dy_ts = l_t.y - l_s.y
    if abs(dx_ot) < 1e-12 or abs(dy_ot * dy_ts) < 1e-12:
        return fallback
    ry_sq = abs((dx_ot * dy_ts * dy_ts - dy_ot * dx_ts * dy_ts) / dx_ot)
    rx_sq = abs(ry_sq * dx_ot * dx_ts / (dy_ot * dy_ts))
    if ry_sq <= 0.0 or rx_sq <= 0.0:
        return fallback
    return (math.sqrt(rx_sq), math.sqrt(ry_sq))


def square_overlap_rho(pred: Square, mean: Square) -> float:
    """Overlap percentage between two axis-aligned rectangles, normalized by
    the smaller rectangle area.  Disjoint rectangles give 0."""
    prx, pry = pred.radii
    mrx, mry = mean.radii
    min_area = min(prx * pry, mrx * mry)
    if min_area <= 0.0:
        return 0.0
    l_x = (min(pred.loc.x + prx, mean.loc.x + mrx)
           - max(pred.loc.x - prx, mean.loc.x - mrx))
    l_y = (min(pred.loc.y + pry, mean.loc.y + mry)
           - max(pred.loc.y - pry, mean.loc.y - mry))
    if l_x <= 0.0 or l_y <= 0.0:
        return 0.0
    return 100.0 * (l_x * l_y) / (4.0 * min_area)


def match_square(pred: Square, mean: Square, config: FilterConfig,
                 v_v: float) -> bool:
    """Gate a constructed mean square against a prediction: velocity within a
    relative tolerance, symmetric angle gate, strict overlap threshold."""
    if abs(mean.vel - pred.vel) > config.eps_v_s * v_v:
        return False
    if abs(wrap_deg(mean.beta - pred.beta)) > config.eps_beta_s:
        return False
    return square_overlap_rho(pred, mean) > config.rho_c


def estimate_square(pred: Square, mean: Square, ladder: TrustLadder,
                    config: FilterConfig) -> Square:
    """Trust-weighted fusion of a matched mean square into the prediction.
    Trust steps up when the directions agree within eps_beta_s and down
    otherwise."""
    tr_c = ladder.tr_c
    delta = 1 if abs(wrap_deg(mean.beta - pred.beta)) <= config.eps_beta_s else -1
    return replace(
        pred, loc=ce.estimate_trusted(pred.loc, mean.loc, pred.trust, tr_c),
        radii=ce.estimate_trusted(pred.radii, mean.radii, pred.trust, tr_c),
        vel=ce.estimate_trusted(pred.vel, mean.vel, pred.trust, tr_c),
        beta=ce.estimate_trusted_angle(pred.beta, mean.beta, pred.trust, tr_c),
        trust=pred.trust + delta)
