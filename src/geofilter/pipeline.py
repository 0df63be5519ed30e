"""Per-frame orchestration of the three experts: edge suppression and
grouping, edge/circle classification and estimation, square layering,
ignorance-region management and dimensionality accounting."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import circle_expert as ce
from . import line_expert as le
from . import square_expert as se
from .core import (Circle, FilterConfig, FilterState, IgnoranceRegion,
                   ImuSample, NormalEdge, PixelPoint, RebelEdge, Square,
                   TrustLadder, trust_commit, trust_init, wrap_deg)
from .kinematics import (advance, angle_of, heading, outward,
                         predict_normal_edge)

# how many angle-neighbors each observation is checked against
_K_NEIGHBORS = 8

# priority when one observation classifies differently against several
# candidate edges (lower is better)
_XI_PRIORITY = {ce.XiClass.XI2: 0, ce.XiClass.XI3: 1, ce.XiClass.XI1: 2,
                ce.XiClass.XI4: 3, ce.XiClass.XI5: 4}


@dataclass
class DimensionalityReport:
    chi: int = 0
    e_n: int = 0
    e_r: int = 0
    c_n: int = 0
    c_r: int = 0
    s: int = 0
    psi: int = 0
    alpha: int = 0
    comparisons: int = 0  # instrumented circle-expert comparison count
    edges: int = 0  # raw detections `step` received; not part of `total`

    @property
    def total(self) -> int:
        return (self.chi + self.e_n + self.e_r + self.c_n + self.c_r
                + self.s + self.psi + self.alpha)


def dimensionality(state: FilterState) -> DimensionalityReport:
    return DimensionalityReport(
        chi=len(state.chi), e_n=len(state.normal_edges),
        e_r=len(state.rebel_edges), c_n=len(state.normal_circles),
        c_r=len(state.rebel_circles), s=len(state.squares),
        psi=len(state.psi), alpha=len(state.alpha))


def baseline_store(mode: str, counts: Sequence[int], k: int = 5) -> List[int]:
    """Reference memory baselines over the raw edge count of each frame: the
    running total, or the sum over the trailing k frames."""
    if mode == "accumulative":
        return list(accumulate(counts))
    if mode == "last_k":
        if k < 1:
            raise ValueError("k must be >= 1")
        return [sum(counts[max(0, i - k + 1):i + 1]) for i in range(len(counts))]
    raise ValueError(f"unknown baseline mode: {mode}")


def _predict_rebel_edge(e: RebelEdge, imu: ImuSample,
                        config: FilterConfig) -> RebelEdge:
    """Rebels advance along their own direction after the rotational update."""
    ux, uy = heading(e.beta)
    return replace(e, loc=advance(e.loc - config.camera.principal, ux, uy,
                                  e.vel * imu.t_f * config.px_per_cm, imu,
                                  config))


def _predict_circle(c: Circle, imu: ImuSample, config: FilterConfig) -> Circle:
    """Advance a circle one frame; normal circles follow the outward field
    (velocity re-based on the vehicle speed), rebels follow their own angle."""
    rel = c.loc - config.camera.principal
    if c.kind == "normal":
        vel = imu.v_v
        ux, uy = outward(rel)
    else:
        vel = c.vel
        ux, uy = heading(c.beta)
    return replace(c, loc=advance(rel, ux, uy, vel * imu.t_f * config.px_per_cm,
                                  imu, config), vel=vel)


def _angle_neighbors(sorted_betas: List[float], obs_beta: float,
                     n: int) -> List[int]:
    """Indices (into the sorted order) of up to _K_NEIGHBORS circularly
    nearest entries by angle."""
    k = min(_K_NEIGHBORS, n)
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


class SequencingError(RuntimeError):
    """Raised when frames are presented out of order."""


def step(state: FilterState, frame: Sequence[PixelPoint], imu: ImuSample,
         config: FilterConfig,
         frame_index: Optional[int] = None) -> Tuple[FilterState, DimensionalityReport]:
    """Run one full frame through the filter and return the new state plus a
    dimensionality report."""
    if frame_index is None:
        frame_index = state.frame_index + 1
    if frame_index <= state.frame_index:
        raise SequencingError(
            f"frame {frame_index} not after {state.frame_index}")
    cam = config.camera
    origin = cam.principal
    ladder = config.circle_trust
    comparisons = 0

    # (a) age ignorance regions
    psi: List[IgnoranceRegion] = []
    for r in state.psi:
        aged = replace(r, remaining_frames=r.remaining_frames - 1)
        if aged.remaining_frames >= 0:
            psi.append(aged)

    # (b) line expert
    kept, _dropped = le.apply_ignorance(frame, psi)
    chi = list(zip(*le.group_edges(kept, config.mu_0)))

    # (c) circle expert: edge stage -------------------------------------
    predicted_n = [predict_normal_edge(e, imu, config) for e in state.normal_edges]
    predicted_r = [_predict_rebel_edge(e, imu, config) for e in state.rebel_edges]

    # predicted edge -> the observations it matched as XI2 and as XI3, each
    # as (obs, count, dist) in observation order
    matches: Dict[int, Tuple[list, list]] = {}
    # observations born as normal edges: XI1, or all of chi with no prediction
    born: List[PixelPoint] = []
    rebel_candidates: List[PixelPoint] = []

    if predicted_n:
        order = sorted(range(len(predicted_n)), key=lambda i: (predicted_n[i].beta, i))
        sorted_betas = [predicted_n[i].beta for i in order]
        n_edges = len(order)
        log_n = max(1, math.ceil(math.log2(n_edges + 1)))
        for obs, count in chi:
            obs_beta = angle_of(obs, origin)
            at_origin = obs.x == origin.x and obs.y == origin.y
            comparisons += log_n
            best = None  # (priority, dist, edge_idx, cls)
            for sp in _angle_neighbors(sorted_betas, obs_beta, n_edges):
                idx = order[sp]
                pred = predicted_n[idx]
                dist = math.hypot(obs.x - pred.loc.x, obs.y - pred.loc.y)
                cls = ce.classify_edge(obs_beta, at_origin, dist, pred, config,
                                       imu)
                comparisons += 1
                key = (_XI_PRIORITY[cls], dist, idx)
                if best is None or key < best[0]:
                    best = (key, idx, cls)
            (_prio, dist, _), idx, cls = best
            if cls is ce.XiClass.XI2 or cls is ce.XiClass.XI3:
                hits = matches.setdefault(idx, ([], []))
                hits[0 if cls is ce.XiClass.XI2 else 1].append((obs, count, dist))
            elif cls is ce.XiClass.XI1:
                born.append(obs)
            else:
                rebel_candidates.append(obs)
    else:
        born = [obs for obs, _count in chi]

    # rebel-edge matching consumes candidates before the alignment matrix
    rebel_obs: Dict[int, List[Tuple[PixelPoint, float]]] = {}
    alpha_candidates: List[PixelPoint] = []
    gate = config.eps_v_r * imu.v_v * config.px_per_cm * imu.t_f
    for obs in rebel_candidates:
        best = None
        for j, pr in enumerate(predicted_r):
            comparisons += 1
            d = obs.dist(pr.loc)
            if d > gate:
                continue
            ang_err = abs(wrap_deg(angle_of(obs, pr.origin) - pr.beta))
            if ang_err <= config.delta_v + pr.mu and (best is None or d < best[0]):
                best = (d, j)
        if best is None:
            alpha_candidates.append(obs)
        else:
            rebel_obs.setdefault(best[1], []).append((obs, best[0]))

    # commit normal edges
    normal_edges: List[NormalEdge] = []
    for idx, pred in enumerate(predicted_n):
        xi2, xi3 = matches.get(idx, ((), ()))
        if xi2 or xi3:
            chosen = min(xi2 or xi3, key=lambda a: a[2])
            match_count = max(1, sum(a[1] for a in xi2 + xi3))
            est = ce.estimate_normal_edge(pred, chosen[0], match_count, imu, config)
            delta = 1 if xi2 else -1
        else:
            est = pred
            delta = -1
        _commit(normal_edges, est, delta, ladder)

    # commit rebel edges
    rebel_edges: List[RebelEdge] = []
    for j, pred in enumerate(predicted_r):
        hits = rebel_obs.get(j)
        if hits:
            est = ce.estimate_rebel_edge(pred, min(hits, key=lambda h: h[1])[0],
                                         imu, config)
            delta = 1
        else:
            est = pred
            delta = -1
        _commit(rebel_edges, est, delta, ladder)

    # alignment matrix, then the births of normal edges: the observations
    # gathered above, then the points the matrix recycles
    alpha, new_rebels, recycled = ce.update_rebel_alignment(
        state.alpha, alpha_candidates, frame_index, config, imu)
    rebel_edges.extend(new_rebels)
    for p in born + recycled:
        normal_edges.append(NormalEdge(
            loc=p, vel=imu.v_v, beta=angle_of(p, origin), mu=config.mu_0,
            trust=trust_init("normal_edge", ladder)))

    # (d) circle expert: circling stage ---------------------------------
    normal_circles, n_comp = _circle_stage(
        normal_edges, state.normal_circles, imu, config, rebel=False)
    comparisons += n_comp
    rebel_circles, r_comp = _circle_stage(
        rebel_edges, state.rebel_circles, imu, config, rebel=True)
    comparisons += r_comp
    for c in normal_circles + rebel_circles:
        if c.trust == ladder.tr_m:
            psi.append(IgnoranceRegion(loc=c.loc, extent=(c.radius,), ty=1,
                                       remaining_frames=config.psi_lifetime))

    # (e) square expert -------------------------------------------------
    squares = _square_stage(normal_circles + rebel_circles, state.squares,
                            imu, config)
    for s in squares:
        if s.trust == config.square_trust.tr_m:
            psi.append(IgnoranceRegion(loc=s.loc, extent=s.radii, ty=2,
                                       remaining_frames=config.psi_lifetime))

    new_state = FilterState(
        frame_index=frame_index, chi=chi, psi=psi, alpha=alpha,
        normal_edges=normal_edges, rebel_edges=rebel_edges,
        normal_circles=normal_circles, rebel_circles=rebel_circles,
        squares=squares)
    report = dimensionality(new_state)
    report.comparisons = comparisons
    report.edges = len(frame)
    return new_state, report


def _commit(out: list, entity, delta: int, ladder: TrustLadder) -> None:
    """Step an entity's trust by delta; unless pruned, append a copy with
    the new trust to `out`."""
    trust = trust_commit(entity.trust, delta, ladder)
    if trust is not None:
        out.append(type(entity)(**{**vars(entity), "trust": trust}))


def _associate(means: list, predicted: list, admits: Callable[[object, int], bool],
               fuse: Callable, ladder: TrustLadder,
               config: FilterConfig) -> Tuple[list, int]:
    """Match each mean entity to the first unconsumed prediction that
    `admits(pred, k)` lets through for mean k, and fuse the pair; `fuse`
    returns the estimate with its trust stepped +-1. Unmatched means are born
    as they are; unmatched predictions decay. Returns the entities and the
    number of gate comparisons."""
    consumed = [False] * len(predicted)
    out: list = []
    comparisons = 0
    for k, mean in enumerate(means):
        for j, pred in enumerate(predicted):
            if consumed[j]:
                continue
            comparisons += 1
            if admits(pred, k):
                consumed[j] = True
                _commit(out, fuse(pred, mean, ladder, config), 0, ladder)
                break
        else:
            out.append(mean)
    for j, pred in enumerate(predicted):
        if not consumed[j]:
            _commit(out, pred, -1, ladder)
    return out, comparisons


def _circle_stage(edges: list, prev_circles: List[Circle], imu: ImuSample,
                  config: FilterConfig, rebel: bool) -> Tuple[List[Circle], int]:
    """Group edges into mean circles and associate them with the predicted
    circles. Rebel edges are seeded in list order, and a seed's grouping
    window holds every ungrouped edge. Normal edges are seeded in angle
    order, and the window holds the ungrouped edges within eps_beta_n of the
    seed (`abs(wrap_deg(beta - seed.beta)) < eps_beta_n`), in angle order.
    `comparisons` counts the window sizes and the association's gate tests."""
    means: List[Circle] = []
    member_locs: List[List[PixelPoint]] = []
    if rebel:
        group = ce.group_rebel_circle
        order = range(len(edges))
        admits = lambda pred, k: ce.match_rebel_circle(  # noqa: E731
            pred, means[k], member_locs[k], config, imu)
    else:
        group = ce.group_normal_circle
        order = sorted(range(len(edges)), key=lambda i: (edges[i].beta, i))
        admits = lambda pred, k: ce.match_normal_circle(  # noqa: E731
            pred, means[k], member_locs[k], config)
    comparisons = 0
    assigned = [False] * len(edges)
    eps = config.eps_beta_n
    for si in order:
        if assigned[si]:
            continue
        seed = edges[si]
        window = [i for i in order if not assigned[i] and (
            rebel or abs(wrap_deg(edges[i].beta - seed.beta)) < eps)]
        subpool = [edges[i] for i in window]
        comparisons += len(subpool)
        circle = group(seed, subpool, config, imu)
        member_global = [window[m] for m in circle.members]
        for g in member_global:
            assigned[g] = True
        circle.members = member_global
        means.append(circle)
        member_locs.append([edges[g].loc for g in member_global])

    predicted = [_predict_circle(c, imu, config) for c in prev_circles]
    out, n_comp = _associate(means, predicted, admits, ce.estimate_circle,
                             config.circle_trust, config)
    return out, comparisons + n_comp


def _square_stage(circles: List[Circle], prev_squares: List[Square],
                  imu: ImuSample, config: FilterConfig) -> List[Square]:
    """Build mean squares from couples of circles and associate them with the
    predicted squares.

    Each unused circle a, in index order, looks for its furthest couple. The
    temporary maximum distance d_t starts at the frame diagonal. The unused
    circles b are tried furthest first (ties by index); a b that passes
    `se.match_couple_case1` against d_t lets the other circles shrink d_t
    through `se.shrink_dt`, in index order, and is taken when a is still
    closer to it than d_t. d_t carries over to the next b. The couple, the
    circles aligned with a (`se.match_case2`) and the minor circles inside the
    first box (`se.include_minor_circle`) make one mean square.

    Two prunes skip calls that cannot change the result:
    - `shrink_dt` runs only over circles no faster than a (vel <= a.vel). It
      returns d_t unchanged for any other circle, NaN velocity included;
    - that loop stops once d_ab < d_t fails. d_t never grows, so every later
      `shrink_dt` call returns it unchanged and b is not taken.
    """
    cam = config.camera
    d_t0 = math.hypot(cam.width, cam.height)
    used = [False] * len(circles)
    mean_squares: List[Square] = []
    for ai, a in enumerate(circles):
        if used[ai]:
            continue
        d_t = d_t0
        # look for the furthest admissible couple first
        candidates = sorted(
            (-a.loc.dist(b.loc), bi) for bi, b in enumerate(circles)
            if bi != ai and not used[bi])
        slower = None
        couple = None
        for neg_d_ab, bi in candidates:
            b = circles[bi]
            if not se.match_couple_case1(a, b, d_t, config):
                continue
            if slower is None:
                slower = [ci for ci, c in enumerate(circles)
                          if ci != ai and c.vel <= a.vel]
            d_ab = -neg_d_ab
            for ci in slower:
                if not d_ab < d_t:
                    break
                if ci != bi:
                    d_t = se.shrink_dt(a, b, circles[ci], d_t)
            if d_ab < d_t:
                couple = bi
                break
        if couple is None:
            continue
        used[ai] = True
        used[couple] = True
        group = [couple]
        for ci in range(len(circles)):
            if used[ci] or ci == ai:
                continue
            if se.match_case2(a, circles[ci], config):
                group.append(ci)
                used[ci] = True
        square = se.build_mean_square(a, [circles[g] for g in group], config)
        for ci in range(len(circles)):
            if used[ci] or ci == ai:
                continue
            if se.include_minor_circle(square, circles[ci], config):
                group.append(ci)
                used[ci] = True
        mean_squares.append(se.build_mean_square(a, [circles[g] for g in group],
                                                 config))

    predicted = [se.predict_square(replace(s, vel=imu.v_v), imu, config)
                 for s in prev_squares]
    out, _ = _associate(
        mean_squares, predicted,
        lambda pred, k: se.match_square(pred, mean_squares[k], config, imu.v_v),
        se.estimate_square, config.square_trust, config)
    return out
