"""Per-frame orchestration of the three experts: edge suppression and
grouping, edge/circle classification and estimation, square layering,
ignorance-region management and dimensionality accounting."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import circle_expert as ce
from . import line_expert as le
from . import square_expert as se
from .core import (Circle, FilterConfig, FilterState, IgnoranceRegion,
                   ImuSample, NormalEdge, PixelPoint, RebelEdge, Square,
                   TrustLadder, trust_commit, trust_init, wrap_deg)
from .kinematics import (advance, angle_of, heading, hypot_columns, outward,
                         predict_normal_edges, predict_rebel_edges)

# how many angle-neighbors each observation is checked against
_K_NEIGHBORS = 8

# the angle-neighbour window for k neighbours: k slots left of the insertion
# point, nearest first, k right of it, then the two seam entries (set per call)
_WINDOWS = [np.concatenate((np.arange(-1, -k - 1, -1), np.arange(k), (0, 0)))
            for k in range(_K_NEIGHBORS + 1)]

# rebel candidates are matched in blocks of about this many candidate/edge
# pairs, which bounds the memory of a runaway frame's pair columns
_PAIR_BLOCK = 1 << 12


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


def _angle_neighbors(sorted_betas: np.ndarray, obs_beta: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Each observation's k = min(_K_NEIGHBORS, n) circularly nearest
    entries of `sorted_betas` (ascending) by angle, plus the seam entries 0
    and n - 1 when they are not among them and are nearer than the farthest
    of them. Returns the observation and the sorted index of every pair,
    grouped by observation.

    The k nearest are a merge, ties to the left, of the k slots left of the
    observation's insertion point and the k right of it, each side nearest
    first. A head-to-head merge of two runs puts left slot i before right
    slot j iff the running maximum of the left distances up to i is at most
    that of the right ones up to j. So it takes left slot i iff fewer than
    k - i right slots come first, that is iff cummax_L[i] <= cummax_R[k-1-i],
    and right slot j iff left slot k-1-j is not taken. Slots out of range
    get distance 360, above any wrapped one, and are never taken.

    A NaN observation is inserted at 0, as `bisect_left` inserts it; its
    distances are NaN, so it takes the k entries from 0 on, as the
    per-observation search does.
    """
    n = len(sorted_betas)
    k = min(_K_NEIGHBORS, n)
    pos = np.searchsorted(sorted_betas, obs_beta)
    pos[np.isnan(obs_beta)] = 0
    # columns: the left slots, the right slots, then the seam entries
    slots = pos[:, None] + _WINDOWS[k]
    slots[:, 2 * k:] = 0, n - 1
    dist = np.abs(wrap_deg(sorted_betas.take(slots, mode="clip")
                           - obs_beta[:, None]))
    dist[slots.view(np.uintp) >= n] = 360.0  # slots < 0 or >= n
    cm_l = np.maximum.accumulate(dist[:, :k], axis=1)
    cm_r = np.maximum.accumulate(dist[:, k:2 * k], axis=1)[:, ::-1]
    take_l = cm_l <= cm_r
    taken = np.zeros(slots.shape, dtype=bool)
    taken[:, :k] = take_l
    taken[:, 2 * k - 1:k - 1:-1] = ~take_l
    if n > k:
        # the picks are the slots first .. first + k - 1, and the largest
        # running maximum among them is the farthest
        first = pos - take_l.sum(1)
        farthest = np.where(take_l, cm_l, cm_r).max(1)
        taken[:, 2 * k:] = ((dist[:, 2 * k:] < farthest[:, None])
                            & (first[:, None] + (0, k - 1) != (0, n - 1)))
    return taken.nonzero()[0], slots[taken]


def _first_by(rows: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """For pair columns grouped by row (`rows` non-decreasing), the index of
    each row's first pair in the order of `keys`, most significant first;
    ties go to the earlier pair."""
    order = np.lexsort(keys[::-1] + (rows,))
    first = np.ones(len(rows), dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    return order[first]


def _normal_edge_stage(old: List[NormalEdge], chi: List[Tuple[PixelPoint, int]],
                       imu: ImuSample, config: FilterConfig
                       ) -> Tuple[List[NormalEdge], List[PixelPoint],
                                  List[PixelPoint], int]:
    """Predict the normal edges, classify each observation against its angle
    neighbours among the predictions, and commit the edges. Returns the
    committed edges, the observations to be born as normal edges (XI1, or
    all of chi with no prediction), the rebel candidates (XI4, XI5) and the
    comparison count."""
    if not old:
        return [], [obs for obs, _count in chi], [], 0
    origin = config.camera.principal
    x, y, vel, beta, mu = np.array(
        [(e.loc.x, e.loc.y, e.vel, e.beta, e.mu) for e in old],
        dtype=float).T
    loc, v_pred = predict_normal_edges(x, y, vel, imu, config)

    # predicted edge -> the observations it matched as XI2 and as XI3, each
    # as (obs, count, dist) in observation order
    matches: Dict[int, Tuple[list, list]] = {}
    born: List[PixelPoint] = []
    rebel_candidates: List[PixelPoint] = []
    comparisons = 0
    if chi:
        obs_xy = np.array([obs for obs, _count in chi], dtype=float)
        obs_beta = np.array([angle_of(obs, origin) for obs, _count in chi])
        at_origin = (obs_xy[:, 0] == origin.x) & (obs_xy[:, 1] == origin.y)
        order = np.argsort(beta, kind="stable")
        rows, slots = _angle_neighbors(beta[order], obs_beta)
        idx = order[slots]
        dist = hypot_columns(obs_xy[rows, 0] - loc.x[idx],
                             obs_xy[rows, 1] - loc.y[idx])
        prio = ce.classify_edges(obs_beta[rows], at_origin[rows], dist,
                                 beta[idx], mu[idx], config, imu)
        comparisons = (len(chi) * max(1, math.ceil(math.log2(len(old) + 1)))
                       + len(rows))
        best = _first_by(rows, prio, dist, idx)
        for (obs, count), p, i, d in zip(chi, prio[best].tolist(),
                                         idx[best].tolist(),
                                         dist[best].tolist()):
            cls = ce.XI_BY_PRIORITY[p]
            if cls is ce.XiClass.XI2 or cls is ce.XiClass.XI3:
                hits = matches.setdefault(i, ([], []))
                hits[0 if cls is ce.XiClass.XI2 else 1].append((obs, count, d))
            elif cls is ce.XiClass.XI1:
                born.append(obs)
            else:
                rebel_candidates.append(obs)

    edges: List[NormalEdge] = []
    for i, (e, px, py, v) in enumerate(zip(old, loc.x.tolist(),
                                           loc.y.tolist(), v_pred.tolist())):
        est = NormalEdge(loc=PixelPoint(px, py), vel=v, beta=e.beta, mu=e.mu,
                         trust=e.trust)
        xi2, xi3 = matches.get(i, ((), ()))
        if xi2 or xi3:
            chosen = min(xi2 or xi3, key=lambda a: a[2])
            match_count = max(1, sum(a[1] for a in xi2 + xi3))
            est = ce.estimate_normal_edge(est, chosen[0], match_count, imu,
                                          config)
        _commit(edges, est, 1 if xi2 else -1, config.circle_trust)
    return edges, born, rebel_candidates, comparisons


def _rebel_edge_stage(old: List[RebelEdge], candidates: List[PixelPoint],
                      imu: ImuSample, config: FilterConfig
                      ) -> Tuple[List[RebelEdge], List[PixelPoint], int]:
    """Predict the rebel edges, let each candidate take the nearest
    predicted edge (the first on ties) within the gate whose own angle span
    holds it, and commit the edges. Returns the committed edges, the
    candidates left for the alignment matrix and the comparison count."""
    if not old:
        return [], list(candidates), 0
    x, y, vel, beta, mu = np.array(
        [(e.loc.x, e.loc.y, e.vel, e.beta, e.mu) for e in old],
        dtype=float).T
    loc = predict_rebel_edges(x, y, vel, beta, imu, config)

    # edge index -> its candidates, as (obs, dist) in candidate order
    hits: Dict[int, List[Tuple[PixelPoint, float]]] = {}
    left: List[PixelPoint] = []
    gate = config.eps_v_r * imu.v_v * config.px_per_cm * imu.t_f
    block = max(1, _PAIR_BLOCK // len(old))
    for start in range(0, len(candidates), block):
        cands = candidates[start:start + block]
        xy = np.array(cands, dtype=float)
        d = hypot_columns((xy[:, :1] - loc.x).ravel(),
                          (xy[:, 1:] - loc.y).ravel())
        # the gate rejects d > gate, so a NaN distance passes it
        near = np.flatnonzero(~(d > gate))
        rows, cols = np.divmod(near, len(old))
        ang = np.fromiter((angle_of(cands[r], old[c].origin)
                           for r, c in zip(rows.tolist(), cols.tolist())),
                          float, len(rows))
        ok = np.abs(wrap_deg(ang - beta[cols])) <= config.delta_v + mu[cols]
        rows, cols, d = rows[ok], cols[ok], d[near[ok]]
        best = _first_by(rows, d)
        taken = dict(zip(rows[best].tolist(),
                         zip(cols[best].tolist(), d[best].tolist())))
        for i, obs in enumerate(cands):
            if i in taken:
                j, dist = taken[i]
                hits.setdefault(j, []).append((obs, dist))
            else:
                left.append(obs)

    edges: List[RebelEdge] = []
    for j, (e, px, py) in enumerate(zip(old, loc.x.tolist(), loc.y.tolist())):
        est = RebelEdge(loc=PixelPoint(px, py), vel=e.vel, beta=e.beta,
                        mu=e.mu, origin=e.origin, trust=e.trust)
        if j in hits:
            est = ce.estimate_rebel_edge(
                est, min(hits[j], key=lambda h: h[1])[0], imu, config)
        _commit(edges, est, 1 if j in hits else -1, config.circle_trust)
    return edges, left, len(candidates) * len(old)


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
    origin = config.camera.principal
    ladder = config.circle_trust

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
    normal_edges, born, rebel_candidates, n_comp = _normal_edge_stage(
        state.normal_edges, chi, imu, config)
    rebel_edges, alpha_candidates, r_comp = _rebel_edge_stage(
        state.rebel_edges, rebel_candidates, imu, config)
    comparisons = n_comp + r_comp

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
    """Step the trust of an entity the caller has just built by delta;
    unless pruned, append the entity to `out`."""
    trust = trust_commit(entity.trust, delta, ladder)
    if trust is not None:
        entity.trust = trust
        out.append(entity)


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
