"""Second stage: classify grouped edges against predictions, run the
trust-weighted estimator, confirm rebels through the 3-frame alignment
matrix, chained one-to-one, and group edges into normal/rebel circles."""

from __future__ import annotations

import enum
import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import (AlignmentRow, Circle, FilterConfig, ImuSample, NormalEdges,
                   PixelPoint, RebelEdge, TrustLadder, trust_init, wrap_deg)
from .kinematics import angle_columns, angle_of, hypot_columns


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


def estimate_normal_edges(pred: NormalEdges, obs_x: np.ndarray,
                          obs_y: np.ndarray, dist: np.ndarray,
                          match_count: np.ndarray, imu: ImuSample,
                          config: FilterConfig) -> NormalEdges:
    """Commit one matched observation into each predicted normal edge, as
    columns: the observation (obs_x, obs_y), its distance to the prediction
    and the count of detections matched to the edge, at least 1.

    The location is the trust-weighted mean of prediction and observation.
    The velocity is the vehicle speed plus the residual as a velocity,
    signed outward when the observation lies farther from the principal
    point than the prediction. The radius is the mean of the prior and the
    velocity residual shared among the matches, and beta is the new
    location's angle. Trust is returned as it was, for the caller to step.
    """
    origin = config.camera.principal
    w = pred.trust - config.circle_trust.tr_c
    if (w < 0).any():
        raise ValueError("trust below critical")
    x = (w * pred.x + obs_x) / (w + 1)
    y = (w * pred.y + obs_y) / (w + 1)
    scale = config.px_per_cm * imu.t_f
    outward = (hypot_columns(obs_x - origin.x, obs_y - origin.y)
               > hypot_columns(pred.x - origin.x, pred.y - origin.y))
    vel = np.abs(imu.v_v + np.where(outward, 1.0, -1.0) * dist / scale)
    mu = 0.5 * (np.abs(imu.v_v - pred.vel) * scale / match_count + pred.mu)
    return NormalEdges(x, y, vel, angle_columns(x, y, origin), mu,
                       pred.trust)


# a row's third point must lie within this many pixels of its second point
# advanced by the row's first step, p2 + (p2 - p1)
COHERENCE_PX = 3.0


def _chain_links(rows: Sequence[AlignmentRow],
                 candidates: Sequence[Tuple[PixelPoint, bool]],
                 config: FilterConfig, imu: ImuSample) -> Dict[int, int]:
    """One-to-one links of rows to candidates, as {row: candidate} indices.

    A pair is admissible when the step from the row's last point to the
    candidate is non-zero and at most eps_v_r * v_v * px_per_cm * t_f; when,
    for a row of two points, the candidate lies within COHERENCE_PX of
    p2 + (p2 - p1); and when the step's direction deviates from the outward
    field at the row's last point by more than delta_v. The admissible pairs
    are taken nearest first, ties by row then candidate, each while its row
    and its candidate are both free.

    The step bounds and the coherence test are masks over the pairs. The
    pairs left are walked in distance order, and the direction test runs
    only on a pair whose row and candidate are both still free; the walk
    stops once every row or every candidate is taken. Skipping the test of
    a pair that is not free leaves the picks unchanged, since its outcome
    does not depend on the picks.
    """
    n = len(candidates)
    ends = np.array([row[-1][1] for row in rows], dtype=float)
    cand = np.array([p for p, _born in candidates], dtype=float)
    row_of, cand_of = np.divmod(np.arange(len(rows) * n), n)
    two = np.array([len(row) == 2 for row in rows])
    if two.any():
        firsts = np.array([row[0][1] for row in rows], dtype=float)
        ahead = ends + (ends - firsts)  # p2 + (p2 - p1) of each row
        k = np.flatnonzero(two[row_of])
        off = hypot_columns(cand[cand_of[k], 0] - ahead[row_of[k], 0],
                            cand[cand_of[k], 1] - ahead[row_of[k], 1])
        keep = np.ones(len(row_of), dtype=bool)
        keep[k[~(off <= COHERENCE_PX)]] = False
        row_of, cand_of = row_of[keep], cand_of[keep]
    step = hypot_columns(cand[cand_of, 0] - ends[row_of, 0],
                         cand[cand_of, 1] - ends[row_of, 1])
    gate = config.eps_v_r * imu.v_v * config.px_per_cm * imu.t_f
    # the gate rejects step > gate, so a NaN step passes it
    ok = np.flatnonzero(~(step > gate) & (step != 0.0))
    # the pairs are in (row, candidate) order, so a stable sort by distance
    # breaks ties by row, then candidate
    ok = ok[np.argsort(step[ok], kind="stable")]
    origin = config.camera.principal
    links: Dict[int, int] = {}
    taken = set()
    for r, c in zip(row_of[ok].tolist(), cand_of[ok].tolist()):
        if r in links or c in taken:
            continue
        last = rows[r][-1][1]
        move = angle_of(candidates[c][0], last) - angle_of(last, origin)
        if not abs(wrap_deg(move)) > config.delta_v:
            continue
        links[r] = c
        taken.add(c)
        if len(links) == len(rows) or len(taken) == n:
            break
    return links


def update_rebel_alignment(alpha: Sequence[AlignmentRow],
                           candidates: Sequence[Tuple[PixelPoint, bool]],
                           frame_index: int, config: FilterConfig,
                           imu: ImuSample,
                           ) -> Tuple[List[AlignmentRow], List[RebelEdge],
                                      List[PixelPoint]]:
    """Advance the alignment matrix by one frame.

    `candidates` are (point, born) pairs, `born` telling that the point was
    also born as a normal edge on this frame. Each row ending at the
    previous frame is extended by at most one candidate and each candidate
    extends at most one row (`_chain_links`); every candidate also seeds a
    fresh row. Rows reaching length 3 become rebel edges. A row not
    extended is dropped, and its last point is reported as failed, so the
    caller can recycle it as a fresh landmark, unless it was born already.
    """
    scale = config.px_per_cm * imu.t_f
    live = [i for i, row in enumerate(alpha)
            if row[-1][0] == frame_index - 1 and len(row) < 3]
    links: Dict[int, int] = {}
    if live and candidates:
        links = {live[r]: c for r, c in _chain_links(
            [alpha[i] for i in live], candidates, config, imu).items()}
    new_alpha: List[AlignmentRow] = []
    rebels: List[RebelEdge] = []
    failed: List[PixelPoint] = []
    for i, row in enumerate(alpha):
        if i not in links:
            _frame, last, born = row[-1]
            if not born:
                failed.append(last)
            continue
        p3, born = candidates[links[i]]
        if len(row) == 1:
            new_alpha.append(row + [(frame_index, p3, born)])
            continue
        p1, p2 = row[0][1], row[1][1]
        rebels.append(RebelEdge(
            loc=p3,
            vel=p3.dist(p2) / scale,
            beta=angle_of(p3, p1),
            mu=wrap_deg(angle_of(p3, p1) - angle_of(p2, p1)),
            origin=p1,
            trust=trust_init("rebel", config.circle_trust),
        ))
    new_alpha += [[(frame_index, p, born)] for p, born in candidates]
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


def circle_members(angle: np.ndarray, speed: np.ndarray, seed: int,
                   eps_beta: float, tol: float) -> np.ndarray:
    """The member test of a circle seed over edge columns: the mask of the
    edges whose grouping angle is strictly within eps_beta of the seed's and
    whose speed plus tol is at least the seed's, and of the seed itself."""
    mask = ((np.abs(wrap_deg(angle - angle[seed])) < eps_beta)
            & (speed[seed] <= speed + tol))
    mask[seed] = True
    return mask


def build_circle(ids: List[int], x: List[float], y: List[float],
                 speed: List[float], angle: List[float], config: FilterConfig,
                 origin: Optional[Tuple[List[float], List[float]]] = None
                 ) -> Circle:
    """The mean circle of the edges `ids`, seed first, read from columns of
    the edges as lists: location, speed |vel| and grouping angle, and for a
    rebel circle the (x, y) columns of the edges' origins. Each mean is a
    sum in member order; the angle is averaged about the seed's. A rebel
    circle's origin is the mean of its members' origins, a normal circle's
    the principal point."""
    n = len(ids)
    mx, my = [x[i] for i in ids], [y[i] for i in ids]
    cx, cy = sum(mx) / n, sum(my) / n
    radius = max(max(map(math.hypot, [v - cx for v in mx],
                         [v - cy for v in my])), config.mu_0)
    vel = sum([speed[i] for i in ids]) / n
    ref = angle[ids[0]]
    beta = wrap_deg(ref + sum([wrap_deg(angle[i] - ref) for i in ids]) / n)
    if origin is None:
        kind, trust_class = "normal", "normal_circle"
        mean_origin = config.camera.principal
    else:
        kind, trust_class = "rebel", "rebel"
        ox, oy = origin
        mean_origin = PixelPoint(sum([ox[i] for i in ids]) / n,
                                 sum([oy[i] for i in ids]) / n)
    return Circle(kind=kind, loc=PixelPoint(cx, cy), radius=radius, vel=vel,
                  beta=beta,
                  trust=trust_init(trust_class, config.circle_trust),
                  members=ids, origin=mean_origin)


def circle_overlap_percentage(member_locs: Sequence[Tuple[float, float]],
                              predicted_circle: Circle) -> float:
    """Percentage of member locations, (x, y) points, strictly inside the
    predicted circle."""
    if not member_locs:
        raise ValueError("member_locs must be non-empty")
    loc, radius = predicted_circle.loc, predicted_circle.radius
    inside = sum(1 for p in member_locs if math.dist(p, loc) < radius)
    return 100.0 * inside / len(member_locs)


def match_normal_circle(predicted: Circle, mean_circle: Circle,
                        member_locs: Sequence[Tuple[float, float]],
                        config: FilterConfig) -> bool:
    """Gate a constructed mean circle against a predicted normal circle."""
    if abs(wrap_deg(mean_circle.beta - predicted.beta)) >= config.eps_beta_n:
        return False
    if not mean_circle.vel <= config.eps_v * predicted.vel:
        return False
    return circle_overlap_percentage(member_locs, predicted) >= config.rho_c


def match_rebel_circle(predicted: Circle, mean_circle: Circle,
                       member_locs: Sequence[Tuple[float, float]],
                       config: FilterConfig, imu: ImuSample) -> bool:
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
