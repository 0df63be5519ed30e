"""Plain-Python forms of computations that `src/` runs in other forms, kept
as oracles for them: two geometric tests that `src/` computes inline, the
per-element forms of the edge stage, of the normal-edge estimate and trust
commit and of the circle member test of `step`, which `src/` runs on numpy
columns, and the eager form of the alignment matrix's one-to-one chaining,
which `src/` runs as a lazy walk."""

import bisect
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from geofilter import circle_expert as ce
from geofilter.core import (FilterConfig, IgnoranceRegion, ImuSample,
                            NormalEdge, PixelPoint, RebelEdge, trust_commit,
                            trust_init, wrap_deg)
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


def estimate_normal_edge(pred: NormalEdge, matched_obs: PixelPoint,
                         match_count: int, imu: ImuSample,
                         config: FilterConfig) -> NormalEdge:
    """Commit one matched observation into a normal edge estimate."""
    if match_count < 1:
        raise ValueError("match_count must be >= 1")
    origin = config.camera.principal
    tr_c = config.circle_trust.tr_c
    loc = ce.estimate_trusted(pred.loc, matched_obs, pred.trust, tr_c)
    scale = config.px_per_cm * imu.t_f
    sign = 1.0 if matched_obs.dist(origin) > pred.loc.dist(origin) else -1.0
    vel = abs(imu.v_v + sign * pred.loc.dist(matched_obs) / scale)
    mu = 0.5 * (abs(imu.v_v - pred.vel) * scale / match_count + pred.mu)
    beta = angle_of(loc, origin)
    return NormalEdge(loc=loc, vel=vel, beta=beta, mu=mu, trust=pred.trust)


def commit_normal_edges(predicted: Sequence[NormalEdge],
                        matches: Dict[int, Tuple[list, list]],
                        imu: ImuSample,
                        config: FilterConfig) -> List[NormalEdge]:
    """Estimate and commit predicted normal edges one at a time. `matches`
    maps an edge's index to its XI2 and its XI3 matches, each a list of
    (obs, count, dist) in observation order."""
    out = []
    for i, pred in enumerate(predicted):
        xi2, xi3 = matches.get(i, ((), ()))
        if xi2 or xi3:
            chosen = min(xi2 or xi3, key=lambda a: a[2])
            match_count = max(1, sum(a[1] for a in xi2 + xi3))
            pred = estimate_normal_edge(pred, chosen[0], match_count, imu,
                                        config)
        trust = trust_commit(pred.trust, 1 if xi2 else -1,
                             config.circle_trust)
        if trust is not None:
            out.append(replace(pred, trust=trust))
    return out


# -- the circle member test, one element at a time ----------------------------

def members_normal(seed: NormalEdge, pool: Sequence[NormalEdge],
                   config: FilterConfig, imu: ImuSample) -> List[int]:
    """The pool indices of a normal seed's members."""
    out = []
    for i, e in enumerate(pool):
        if e is seed:
            out.append(i)
            continue
        if (abs(wrap_deg(e.beta - seed.beta)) < config.eps_beta_n
                and abs(seed.vel) <= abs(e.vel) + config.eps_v_n * imu.v_v):
            out.append(i)
    return out


def members_rebel(seed: RebelEdge, pool: Sequence[RebelEdge],
                  config: FilterConfig, imu: ImuSample) -> List[int]:
    """The pool indices of a rebel seed's members; the grouping angle is the
    edge angle plus its deviation."""
    seed_angle = wrap_deg(seed.beta + seed.mu)
    member_ids = []
    for i, e in enumerate(pool):
        if e is seed:
            member_ids.append(i)
            continue
        if (abs(wrap_deg(wrap_deg(e.beta + e.mu) - seed_angle)) < config.eps_beta_r
                and abs(seed.vel) <= abs(e.vel) + config.eps_v_r * imu.v_v):
            member_ids.append(i)
    return member_ids


# -- the alignment matrix, every pair tested ----------------------------------

def chain_admissible(row, candidate: PixelPoint, config: FilterConfig,
                     imu: ImuSample) -> bool:
    """The chaining rules for one row and one candidate: a non-zero step of
    at most eps_v_r * v_v * px_per_cm * t_f, deviating from the outward
    field at the row's last point by more than delta_v, and for a row of two
    points a candidate within COHERENCE_PX of p2 + (p2 - p1)."""
    last = row[-1][1]
    step = last.dist(candidate)
    if step > config.eps_v_r * imu.v_v * config.px_per_cm * imu.t_f:
        return False
    if step == 0.0:
        return False
    field_dir = angle_of(last, config.camera.principal)
    move_dir = angle_of(candidate, last)
    if not abs(wrap_deg(move_dir - field_dir)) > config.delta_v:
        return False
    if len(row) == 2:
        first = row[0][1]
        ahead = PixelPoint(last.x + (last.x - first.x),
                           last.y + (last.y - first.y))
        return candidate.dist(ahead) <= ce.COHERENCE_PX
    return True


def update_rebel_alignment(alpha, candidates, frame_index: int,
                           config: FilterConfig, imu: ImuSample):
    """Test every pair of a row ending at the previous frame and a
    candidate, then link them greedily, nearest first (ties by row, then
    candidate), each row and each candidate at most once."""
    live = [i for i, row in enumerate(alpha)
            if row[-1][0] == frame_index - 1 and len(row) < 3]
    pairs = sorted((alpha[i][-1][1].dist(p), i, c) for i in live
                   for c, (p, _born) in enumerate(candidates)
                   if chain_admissible(alpha[i], p, config, imu))
    links: Dict[int, int] = {}
    for _step, i, c in pairs:
        if i not in links and c not in links.values():
            links[i] = c
    scale = config.px_per_cm * imu.t_f
    new_alpha, rebels, failed = [], [], []
    for i, row in enumerate(alpha):
        if i not in links:
            if not row[-1][2]:
                failed.append(row[-1][1])
            continue
        p3, born = candidates[links[i]]
        if len(row) == 1:
            new_alpha.append(row + [(frame_index, p3, born)])
        else:
            p1, p2 = row[0][1], row[1][1]
            rebels.append(RebelEdge(
                loc=p3, vel=p3.dist(p2) / scale, beta=angle_of(p3, p1),
                mu=wrap_deg(angle_of(p3, p1) - angle_of(p2, p1)), origin=p1,
                trust=trust_init("rebel", config.circle_trust)))
    new_alpha += [[(frame_index, p, born)] for p, born in candidates]
    return new_alpha, rebels, failed
