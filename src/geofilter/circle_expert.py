"""Second stage: classify grouped edges against predictions, run the
trust-weighted estimator, confirm rebels through the 3-frame alignment
matrix, and group edges into normal/rebel circles."""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import List, Sequence, Tuple

import numpy as np

from .core import (AlignmentRow, Circle, FilterConfig, ImuSample, NormalEdge,
                   PixelPoint, RebelEdge, TrustLadder, trust_init, wrap_deg)
from .kinematics import angle_of


class XiClass(enum.Enum):
    XI1 = "xi1"  # outside mu, in span, magnitude consistent: extra normal edge
    XI2 = "xi2"  # full match
    XI3 = "xi3"  # inside mu but kinematically inconsistent
    XI4 = "xi4"  # outside mu, in span, magnitude inconsistent: rebel candidate
    XI5 = "xi5"  # fails everything: rebel candidate / fresh landmark


# the classes by priority: an observation that classes differently against
# several predicted edges takes the first of its classes here
XI_BY_PRIORITY = (XiClass.XI2, XiClass.XI3, XiClass.XI1, XiClass.XI4,
                  XiClass.XI5)


def classify_edges(obs_beta: np.ndarray, at_origin: np.ndarray,
                   dist: np.ndarray, beta: np.ndarray, mu: np.ndarray,
                   config: FilterConfig, imu: ImuSample) -> np.ndarray:
    """Classify observation/prediction pairs, given as columns. Returns each
    pair's class as its index into XI_BY_PRIORITY.

    A pair enters as what the classes read of it: `obs_beta`, the
    observation's angle about the principal point (`angle_of(obs,
    principal)`); `at_origin`, whether the observation is the principal
    point itself; `dist`, its distance to the prediction (`obs.dist(loc)`);
    and the prediction's `beta` and `mu`.

    The observation is inside the prediction's radius when dist <= mu. It is
    in the error span when it sits on the principal point or its angle is
    within delta_v of the prediction's, boundary included. Its magnitude is
    consistent when the residual, re-expressed as a velocity, is within
    eps_v_n times the vehicle speed. Inside the radius a pair is XI2 when it
    is in span and consistent, else XI3; outside, it is XI1 in span and
    consistent, XI4 in span only, else XI5.
    """
    in_span = at_origin | (np.abs(wrap_deg(obs_beta - beta)) <= config.delta_v)
    mag_ok = dist / (config.px_per_cm * imu.t_f) <= config.eps_v_n * imu.v_v
    both = in_span & mag_ok
    return np.where(dist <= mu, 1 - both, 4 - in_span - both)


def estimate_trusted(prior, measurement, trust: int, tr_c: int):
    """Trust-weighted convex combination of a prior and a fresh measurement.
    Works on scalars, PixelPoints, and sequences of floats."""
    w = trust - tr_c
    if w < 0:
        raise ValueError("trust below critical")
    if isinstance(prior, PixelPoint):  # before tuple: a PixelPoint is one
        return PixelPoint((w * prior.x + measurement.x) / (w + 1),
                          (w * prior.y + measurement.y) / (w + 1))
    if isinstance(prior, (tuple, list)):
        return type(prior)((w * p + m) / (w + 1) for p, m in zip(prior, measurement))
    return (w * prior + measurement) / (w + 1)


def estimate_trusted_angle(prior_deg: float, measured_deg: float, trust: int,
                           tr_c: int) -> float:
    """Trust-weighted estimate on wrapped angles."""
    w = trust - tr_c
    diff = wrap_deg(measured_deg - prior_deg)
    return wrap_deg(prior_deg + diff / (w + 1))


def estimate_normal_edge(pred: NormalEdge, matched_obs: PixelPoint,
                         match_count: int, imu: ImuSample,
                         config: FilterConfig) -> NormalEdge:
    """Commit one matched observation into a normal edge estimate."""
    if match_count < 1:
        raise ValueError("match_count must be >= 1")
    origin = config.camera.principal
    tr_c = config.circle_trust.tr_c
    loc = estimate_trusted(pred.loc, matched_obs, pred.trust, tr_c)
    scale = config.px_per_cm * imu.t_f
    sign = 1.0 if matched_obs.dist(origin) > pred.loc.dist(origin) else -1.0
    vel = abs(imu.v_v + sign * pred.loc.dist(matched_obs) / scale)
    mu = 0.5 * (abs(imu.v_v - pred.vel) * scale / match_count + pred.mu)
    beta = angle_of(loc, origin)
    return NormalEdge(loc=loc, vel=vel, beta=beta, mu=mu, trust=pred.trust)


def _chain_admissible(last: PixelPoint, candidate: PixelPoint,
                      config: FilterConfig, imu: ImuSample) -> bool:
    """Frame-to-frame chaining rule for rebel candidates: bounded displacement
    that deviates from the outward field direction at the previous point."""
    step = last.dist(candidate)
    if step > config.eps_v_r * imu.v_v * config.px_per_cm * imu.t_f:
        return False
    if step == 0.0:
        return False
    field_dir = angle_of(last, config.camera.principal)
    move_dir = angle_of(candidate, last)
    return abs(wrap_deg(move_dir - field_dir)) > config.delta_v


def update_rebel_alignment(alpha: Sequence[AlignmentRow],
                           candidates: Sequence[PixelPoint], frame_index: int,
                           config: FilterConfig, imu: ImuSample,
                           ) -> Tuple[List[AlignmentRow], List[RebelEdge],
                                      List[PixelPoint]]:
    """Advance the alignment matrix by one frame.

    Every candidate extends each admissible row ending at the previous frame
    (rows branch) and also seeds a fresh row.  Rows reaching length 3 become
    rebel edges; stale rows are dropped and their last position is reported as
    a failed candidate so the caller can recycle it as a fresh landmark.
    """
    scale = config.px_per_cm * imu.t_f
    new_alpha: List[AlignmentRow] = []
    rebels: List[RebelEdge] = []
    failed: List[PixelPoint] = []
    for row in alpha:
        extended = False
        last_frame, last = row[-1]
        if last_frame == frame_index - 1 and len(row) < 3:
            for cand in candidates:
                if not _chain_admissible(last, cand, config, imu):
                    continue
                extended = True
                chain = row + [(frame_index, cand)]
                if len(chain) == 3:
                    p1, p2, p3 = (c[1] for c in chain)
                    rebels.append(RebelEdge(
                        loc=p3,
                        vel=p3.dist(p2) / scale,
                        beta=angle_of(p3, p1),
                        mu=wrap_deg(angle_of(p3, p1) - angle_of(p2, p1)),
                        origin=p1,
                        trust=trust_init("rebel", config.circle_trust),
                    ))
                else:
                    new_alpha.append(chain)
        if not extended:
            failed.append(last)
    for cand in candidates:
        new_alpha.append([(frame_index, cand)])
    return new_alpha, rebels, failed


def estimate_rebel_edge(pred: RebelEdge, matched_obs: PixelPoint, imu: ImuSample,
                        config: FilterConfig) -> RebelEdge:
    """Commit one matched observation into a rebel edge estimate; the
    deviation angle becomes the absolute wrapped angular residual about the
    rebel's own origin."""
    tr_c = config.circle_trust.tr_c
    loc = estimate_trusted(pred.loc, matched_obs, pred.trust, tr_c)
    scale = config.px_per_cm * imu.t_f
    sign = 1.0 if matched_obs.dist(pred.origin) > pred.loc.dist(pred.origin) else -1.0
    vel = abs(imu.v_v + sign * pred.loc.dist(matched_obs) / scale)
    obs_angle = angle_of(matched_obs, pred.origin)
    mu = abs(wrap_deg(obs_angle - pred.beta))
    beta = estimate_trusted_angle(pred.beta, obs_angle, pred.trust, tr_c)
    return replace(pred, loc=loc, vel=vel, mu=mu, beta=beta)


def _members_normal(seed: NormalEdge, pool: Sequence[NormalEdge],
                    config: FilterConfig, imu: ImuSample) -> List[int]:
    out = []
    for i, e in enumerate(pool):
        if e is seed:
            out.append(i)
            continue
        if (abs(wrap_deg(e.beta - seed.beta)) < config.eps_beta_n
                and abs(seed.vel) <= abs(e.vel) + config.eps_v_n * imu.v_v):
            out.append(i)
    return out


def _circle_geometry(locs: Sequence[PixelPoint], mu_0: float) -> Tuple[PixelPoint, float]:
    cx = sum(p.x for p in locs) / len(locs)
    cy = sum(p.y for p in locs) / len(locs)
    center = PixelPoint(cx, cy)
    radius = max(max(p.dist(center) for p in locs), mu_0)
    return center, radius


def _mean_angle(angles: Sequence[float], ref: float) -> float:
    """Arithmetic mean of wrapped angles taken relative to a reference."""
    return wrap_deg(ref + sum(wrap_deg(a - ref) for a in angles) / len(angles))


def group_normal_circle(seed: NormalEdge, pool: Sequence[NormalEdge],
                        config: FilterConfig, imu: ImuSample) -> Circle:
    """Group pool edges kinematically compatible with the seed into a circle."""
    member_ids = _members_normal(seed, pool, config, imu)
    members = [pool[i] for i in member_ids]
    center, radius = _circle_geometry([e.loc for e in members], config.mu_0)
    vel = sum(abs(e.vel) for e in members) / len(members)
    beta = _mean_angle([e.beta for e in members], seed.beta)
    return Circle(kind="normal", loc=center, radius=radius, vel=vel, beta=beta,
                  trust=trust_init("normal_circle", config.circle_trust),
                  members=member_ids, origin=config.camera.principal)


def circle_overlap_percentage(member_locs: Sequence[PixelPoint],
                              predicted_circle: Circle) -> float:
    """Percentage of member locations strictly inside the predicted circle."""
    if not member_locs:
        raise ValueError("member_locs must be non-empty")
    inside = sum(1 for p in member_locs
                 if p.dist(predicted_circle.loc) < predicted_circle.radius)
    return 100.0 * inside / len(member_locs)


def match_normal_circle(predicted: Circle, mean_circle: Circle,
                        member_locs: Sequence[PixelPoint],
                        config: FilterConfig) -> bool:
    """Gate a constructed mean circle against a predicted normal circle."""
    if abs(wrap_deg(mean_circle.beta - predicted.beta)) >= config.eps_beta_n:
        return False
    if not mean_circle.vel <= config.eps_v * predicted.vel:
        return False
    return circle_overlap_percentage(member_locs, predicted) >= config.rho_c


def match_rebel_circle(predicted: Circle, mean_circle: Circle,
                       member_locs: Sequence[PixelPoint], config: FilterConfig,
                       imu: ImuSample) -> bool:
    """Gate a constructed mean circle against a predicted rebel circle."""
    if abs(wrap_deg(mean_circle.beta - predicted.beta)) >= config.eps_beta_r:
        return False
    if not mean_circle.vel <= predicted.vel + config.eps_v_r * imu.v_v:
        return False
    return circle_overlap_percentage(member_locs, predicted) >= config.rho_c


def estimate_circle(pred: Circle, mean: Circle, ladder: TrustLadder,
                    config: FilterConfig) -> Circle:
    """Trust-weighted fusion of a matched mean circle into the prediction.
    Trust steps up when the directions agree within the kind's angle gate
    and down otherwise; the members are the mean circle's."""
    tr_c = ladder.tr_c
    eps = config.eps_beta_n if pred.kind == "normal" else config.eps_beta_r
    delta = 1 if abs(wrap_deg(mean.beta - pred.beta)) < eps else -1
    return replace(
        pred, loc=estimate_trusted(pred.loc, mean.loc, pred.trust, tr_c),
        radius=estimate_trusted(pred.radius, mean.radius, pred.trust, tr_c),
        vel=estimate_trusted(pred.vel, mean.vel, pred.trust, tr_c),
        beta=estimate_trusted_angle(pred.beta, mean.beta, pred.trust, tr_c),
        trust=pred.trust + delta, members=mean.members)


def group_rebel_circle(seed: RebelEdge, pool: Sequence[RebelEdge],
                       config: FilterConfig, imu: ImuSample) -> Circle:
    """Group rebel edges around a seed; the grouping angle is the edge angle
    plus its deviation."""
    seed_angle = wrap_deg(seed.beta + seed.mu)
    member_ids = []
    for i, e in enumerate(pool):
        if e is seed:
            member_ids.append(i)
            continue
        if (abs(wrap_deg(wrap_deg(e.beta + e.mu) - seed_angle)) < config.eps_beta_r
                and abs(seed.vel) <= abs(e.vel) + config.eps_v_r * imu.v_v):
            member_ids.append(i)
    members = [pool[i] for i in member_ids]
    center, radius = _circle_geometry([e.loc for e in members], config.mu_0)
    vel = sum(abs(e.vel) for e in members) / len(members)
    beta = _mean_angle([wrap_deg(e.beta + e.mu) for e in members], seed_angle)
    ox = sum(e.origin.x for e in members) / len(members)
    oy = sum(e.origin.y for e in members) / len(members)
    return Circle(kind="rebel", loc=center, radius=radius, vel=vel, beta=beta,
                  trust=trust_init("rebel", config.circle_trust),
                  members=member_ids, origin=PixelPoint(ox, oy))
