"""Plain-Python forms of computations that `src/` runs in other forms, kept
as oracles for them: two geometric tests that `src/` computes inline, and
the per-element forms of the edge stage of `step`, which `src/` runs on
numpy columns."""

import bisect
from dataclasses import replace
from typing import List

from geofilter import circle_expert as ce
from geofilter.core import (FilterConfig, IgnoranceRegion, ImuSample,
                            NormalEdge, PixelPoint, RebelEdge, wrap_deg)
from geofilter.kinematics import advance, angle_of, heading, outward


def region_contains(region: IgnoranceRegion, p: PixelPoint) -> bool:
    """True iff p lies in the ignorance region, boundary inclusive."""
    dx, dy = p.x - region.loc.x, p.y - region.loc.y
    if region.ty == 1:
        return dx * dx + dy * dy <= region.extent[0] ** 2
    return abs(dx) <= region.extent[0] and abs(dy) <= region.extent[1]


def within_error_span(candidate: PixelPoint, entity_origin: PixelPoint,
                      entity_beta: float, delta_v: float) -> bool:
    """True iff the candidate lies within the angular error cone of half-width
    delta_v about the entity's motion direction (boundary inclusive)."""
    if candidate.x == entity_origin.x and candidate.y == entity_origin.y:
        return True
    ang = angle_of(candidate, entity_origin)
    return abs(wrap_deg(ang - entity_beta)) <= delta_v


# -- the edge stage, one element at a time ------------------------------------

def predict_normal_edge(e: NormalEdge, imu: ImuSample,
                        config: FilterConfig) -> NormalEdge:
    """Advance a normal edge one frame: rotational flow, then radial outward
    displacement from the frame origin by the averaged velocity."""
    rel = e.loc - config.camera.principal
    v_pred = 0.5 * (e.vel + imu.v_v)
    ux, uy = outward(rel)
    loc = advance(rel, ux, uy, config.px_per_cm * v_pred * imu.t_f, imu, config)
    return NormalEdge(loc=loc, vel=v_pred, beta=e.beta, mu=e.mu, trust=e.trust)


def predict_rebel_edge(e: RebelEdge, imu: ImuSample,
                       config: FilterConfig) -> RebelEdge:
    """Rebels advance along their own direction after the rotational update."""
    ux, uy = heading(e.beta)
    return replace(e, loc=advance(e.loc - config.camera.principal, ux, uy,
                                  e.vel * imu.t_f * config.px_per_cm, imu,
                                  config))


def angle_neighbors(sorted_betas: List[float], obs_beta: float,
                    n: int) -> List[int]:
    """Indices (into the sorted order) of up to 8 circularly nearest entries
    by angle."""
    k = min(8, n)
    pos = bisect.bisect_left(sorted_betas, obs_beta)
    picked = []
    lo, hi = pos - 1, pos
    while len(picked) < k:
        if lo < 0 and hi >= n:
            break
        if hi >= n:
            picked.append(lo % n)
            lo -= 1
        elif lo < 0:
            picked.append(hi % n)
            hi += 1
        else:
            d_lo = abs(wrap_deg(sorted_betas[lo] - obs_beta))
            d_hi = abs(wrap_deg(sorted_betas[hi] - obs_beta))
            if d_lo <= d_hi:
                picked.append(lo)
                lo -= 1
            else:
                picked.append(hi)
                hi += 1
    # circular wrap: also consider the extreme entries across the seam. An
    # entry appended here is nearer than the farthest pick, so it cannot
    # raise that maximum for the other end.
    if n > k:
        farthest = max(abs(wrap_deg(sorted_betas[i] - obs_beta)) for i in picked)
        for idx in (0, n - 1):
            if (idx not in picked
                    and abs(wrap_deg(sorted_betas[idx] - obs_beta)) < farthest):
                picked.append(idx)
    return picked


def classify_edge(obs_beta: float, at_origin: bool, dist: float,
                  predicted: NormalEdge, config: FilterConfig,
                  imu: ImuSample) -> ce.XiClass:
    """Classify one observation against one advanced normal-edge prediction,
    given the observation's angle about the principal point, whether it is
    the principal point, and its distance to the prediction."""
    in_span = (at_origin or abs(wrap_deg(obs_beta - predicted.beta))
               <= config.delta_v)
    mag_ok = dist / (config.px_per_cm * imu.t_f) <= config.eps_v_n * imu.v_v
    if dist <= predicted.mu:
        return ce.XiClass.XI2 if (in_span and mag_ok) else ce.XiClass.XI3
    if in_span:
        return ce.XiClass.XI1 if mag_ok else ce.XiClass.XI4
    return ce.XiClass.XI5
