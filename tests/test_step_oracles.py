"""Exact oracles for the hot loops of `pipeline.step`.

Each oracle is an earlier form of one stage, kept verbatim: the square
stage's furthest-couple search, the circle stage's full-scan grouping
windows, the per-pair edge classification, and the per-edge and per-pair
loops of the normal-edge and rebel-edge stages, which `step` now runs on
numpy columns (their per-element parts are in `oracles.py`). The stages must
return what their oracle returns, compared by `repr` (which tells -0.0 from
0.0 and lets NaN equal NaN), on generated inputs that sit on the boundary of
every gate they prune or branch by.
"""

import math
from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from geofilter import circle_expert as ce
from geofilter import pipeline
from geofilter import square_expert as se
from geofilter.core import (Circle, ImuSample, NormalEdge, PixelPoint,
                            RebelEdge, Square, default_config, trust_commit,
                            wrap_deg)
from geofilter.kinematics import angle_of
from geofilter.pipeline import _associate, _predict_circle
from oracles import within_error_span

CFG = default_config()
ORIGIN = CFG.camera.principal


# -- oracles ---------------------------------------------------------------

def _square_stage_oracle(circles, prev_squares, imu, config):
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
            (bi for bi in range(len(circles)) if bi != ai and not used[bi]),
            key=lambda bi: (-a.loc.dist(circles[bi].loc), bi))
        couple = None
        for bi in candidates:
            b = circles[bi]
            if not se.match_couple_case1(a, b, d_t, config):
                continue
            for ci in range(len(circles)):
                if ci in (ai, bi):
                    continue
                d_t = se.shrink_dt(a, b, circles[ci], d_t)
            if a.loc.dist(b.loc) < d_t:
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


def _circle_stage_oracle(edges, prev_circles, imu, config, rebel):
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
    for si in order:
        if assigned[si]:
            continue
        seed = edges[si]
        window = [i for i in order
                  if not assigned[i] and (rebel or abs(wrap_deg(
                      edges[i].beta - seed.beta)) < config.eps_beta_n)]
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


_XI_PRIORITY = {ce.XiClass.XI2: 0, ce.XiClass.XI3: 1, ce.XiClass.XI1: 2,
                ce.XiClass.XI4: 3, ce.XiClass.XI5: 4}


def _commit_copy(out, entity, delta, ladder):
    trust = trust_commit(entity.trust, delta, ladder)
    if trust is not None:
        out.append(type(entity)(**{**vars(entity), "trust": trust}))


def _normal_edge_stage_oracle(old, chi, imu, config):
    origin = config.camera.principal
    comparisons = 0
    predicted_n = [oracles.predict_normal_edge(e, imu, config) for e in old]
    matches: Dict[int, Tuple[list, list]] = {}
    born: List[PixelPoint] = []
    rebel_candidates: List[PixelPoint] = []
    if predicted_n:
        order = sorted(range(len(predicted_n)),
                       key=lambda i: (predicted_n[i].beta, i))
        sorted_betas = [predicted_n[i].beta for i in order]
        n_edges = len(order)
        log_n = max(1, math.ceil(math.log2(n_edges + 1)))
        for obs, count in chi:
            obs_beta = angle_of(obs, origin)
            at_origin = obs.x == origin.x and obs.y == origin.y
            comparisons += log_n
            best = None  # (priority, dist, edge_idx, cls)
            for sp in oracles.angle_neighbors(sorted_betas, obs_beta, n_edges):
                idx = order[sp]
                pred = predicted_n[idx]
                dist = math.hypot(obs.x - pred.loc.x, obs.y - pred.loc.y)
                cls = oracles.classify_edge(obs_beta, at_origin, dist, pred,
                                            config, imu)
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
    normal_edges: List[NormalEdge] = []
    for idx, pred in enumerate(predicted_n):
        xi2, xi3 = matches.get(idx, ((), ()))
        if xi2 or xi3:
            chosen = min(xi2 or xi3, key=lambda a: a[2])
            match_count = max(1, sum(a[1] for a in xi2 + xi3))
            est = ce.estimate_normal_edge(pred, chosen[0], match_count, imu,
                                          config)
            delta = 1 if xi2 else -1
        else:
            est = pred
            delta = -1
        _commit_copy(normal_edges, est, delta, config.circle_trust)
    return normal_edges, born, rebel_candidates, comparisons


def _rebel_edge_stage_oracle(old, rebel_candidates, imu, config):
    comparisons = 0
    predicted_r = [oracles.predict_rebel_edge(e, imu, config) for e in old]
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
        _commit_copy(rebel_edges, est, delta, config.circle_trust)
    return rebel_edges, alpha_candidates, comparisons


def _classify_edge_oracle(obs, predicted, config, imu):
    inside_mu = obs.dist(predicted.loc) <= predicted.mu
    in_span = within_error_span(obs, config.camera.principal, predicted.beta,
                                config.delta_v)
    residual_v = obs.dist(predicted.loc) / (config.px_per_cm * imu.t_f)
    mag_ok = residual_v <= config.eps_v_n * imu.v_v
    if inside_mu:
        return ce.XiClass.XI2 if (in_span and mag_ok) else ce.XiClass.XI3
    if in_span:
        return ce.XiClass.XI1 if mag_ok else ce.XiClass.XI4
    return ce.XiClass.XI5


def _classify(obs, predicted, config, imu):
    """`classify_edges` called the way `step` calls it, for one pair."""
    origin = config.camera.principal
    [p] = ce.classify_edges(
        np.array([angle_of(obs, origin)]),
        np.array([obs.x == origin.x and obs.y == origin.y]),
        np.array([obs.dist(predicted.loc)]), np.array([predicted.beta]),
        np.array([predicted.mu]), config, imu)
    return ce.XI_BY_PRIORITY[p]


# -- generated inputs --------------------------------------------------------

# a coarse grid gives coincident locations and tied distances; free points
# give everything else
LOCS = st.one_of(
    st.builds(PixelPoint, st.sampled_from([100.0, 130.0, 160.0, 190.0]),
              st.sampled_from([100.0, 140.0, 180.0])),
    st.builds(PixelPoint, st.floats(0.0, 640.0), st.floats(0.0, 480.0)))
# eps_v is 0.5 or 0.7: 2.0 and 2.5 lie exactly 0.5 apart, and 2.7 - 2.0
# rounds just above 0.7
VELS = st.one_of(st.sampled_from([2.0, 2.5, 1.5, 2.7, 1.3, math.nan]),
                 st.floats(0.0, 5.0))
# couple angles: +-delta_beta_1 +- eps_beta from 0 for the default 90 / 20
COUPLE_BETAS = st.one_of(
    st.sampled_from([0.0, 70.0, -70.0, 90.0, -90.0, 110.0, -110.0, 180.0,
                     -179.99999999999997, 110.00000000000001,
                     69.99999999999999]),
    st.floats(-180.0, 180.0))
IMUS = st.builds(ImuSample, v_v=st.sampled_from([0.0, 2.0, 3.0]),
                 a_v=st.just(0.0),
                 omega=st.tuples(*[st.sampled_from([0.0, 0.002, -0.001])] * 3),
                 t_f=st.sampled_from([1.0, 0.1]))


@st.composite
def circles(draw):
    return Circle(kind=draw(st.sampled_from(["normal", "rebel"])),
                  loc=draw(LOCS),
                  radius=draw(st.one_of(st.just(25.0), st.floats(0.0, 200.0))),
                  vel=draw(VELS), beta=draw(COUPLE_BETAS),
                  trust=draw(st.integers(2, 5)), members=[],
                  origin=draw(st.one_of(st.just(ORIGIN), LOCS)))


@st.composite
def squares(draw):
    return Square(loc=draw(LOCS),
                  radii=(draw(st.floats(1.0, 80.0)), draw(st.floats(1.0, 80.0))),
                  vel=draw(VELS), beta=draw(COUPLE_BETAS),
                  origin=draw(st.one_of(st.just(ORIGIN), LOCS)),
                  trust=draw(st.integers(3, 7)))


SQUARE_CONFIGS = st.builds(
    lambda eps_v, eps_beta, delta_beta_1: replace(
        CFG, eps_v=eps_v, eps_beta=eps_beta, delta_beta_1=delta_beta_1),
    st.sampled_from([0.5, 0.7]), st.sampled_from([20.0, 0.0]),
    st.sampled_from([90.0, 45.0]))

# betas on the seam: within eps_beta_n of +-180, and exactly there
SEAM_BETAS = st.one_of(
    st.sampled_from([180.0, -180.0, 179.99999999999997, -179.99999999999997,
                     170.0, -170.0, 160.0, -160.0, 160.00000000000003,
                     0.0, 20.0, -20.0, 19.999999999999996, 40.0]),
    st.floats(-180.0, 180.0))


@st.composite
def normal_edges(draw):
    return NormalEdge(loc=draw(LOCS), vel=draw(st.floats(0.0, 5.0)),
                      beta=draw(SEAM_BETAS), mu=25.0,
                      trust=draw(st.integers(2, 5)))


# -- tests -----------------------------------------------------------------

@given(st.lists(circles(), max_size=10), st.lists(squares(), max_size=3),
       IMUS, SQUARE_CONFIGS)
@settings(max_examples=400, deadline=None)
def test_square_stage_matches_oracle(circ, prev, imu, config):
    assert repr(pipeline._square_stage(circ, prev, imu, config)) == repr(
        _square_stage_oracle(circ, prev, imu, config))


@given(st.lists(normal_edges(), max_size=25), st.lists(circles(), max_size=3),
       IMUS, st.sampled_from([20.0, 1.0, 90.0, 180.0, 400.0]))
@settings(max_examples=300, deadline=None)
def test_circle_stage_windows_match_oracle(edges, prev, imu, eps_beta_n):
    config = replace(CFG, eps_beta_n=eps_beta_n)
    prev = [replace(c, kind="normal") for c in prev]
    assert repr(pipeline._circle_stage(edges, prev, imu, config, rebel=False)) \
        == repr(_circle_stage_oracle(edges, prev, imu, config, rebel=False))


@given(st.lists(st.builds(replace, normal_edges(),
                          beta=st.floats(-400.0, 400.0)), max_size=15),
       IMUS)
@settings(max_examples=100, deadline=None)
def test_circle_stage_windows_match_oracle_off_range(edges, imu):
    """Betas outside [-180, 180] do not come out of `step`, but the windows
    still hold what the full scan holds."""
    assert repr(pipeline._circle_stage(edges, [], imu, CFG, rebel=False)) \
        == repr(_circle_stage_oracle(edges, [], imu, CFG, rebel=False))


def _neighbors_by_observation(betas, obs_betas):
    """The column search's picks for each observation, in sorted order."""
    rows, slots = pipeline._angle_neighbors(np.array(betas, dtype=float),
                                            np.array(obs_betas, dtype=float))
    picks = [[] for _ in obs_betas]
    for r, sp in zip(rows.tolist(), slots.tolist()):
        picks[r].append(sp)
    return [sorted(p) for p in picks]


def _neighbors_oracle(betas, obs_betas):
    return [sorted(oracles.angle_neighbors(betas, b, len(betas)))
            for b in obs_betas]


@given(st.lists(SEAM_BETAS, min_size=1, max_size=20),
       st.lists(st.one_of(SEAM_BETAS, st.just(math.nan)), min_size=1,
                max_size=6))
@settings(max_examples=400, deadline=None)
def test_angle_neighbors_match_oracle(betas, obs_betas):
    """The picks of each observation, as sets: the best match does not
    depend on their order. Ties, the seam and n <= 8 (k = n) included."""
    betas = sorted(betas)  # ties kept
    obs_betas += betas[:2]  # angles equal to an entry's
    assert repr(_neighbors_by_observation(betas, obs_betas)) \
        == repr(_neighbors_oracle(betas, obs_betas))


@given(st.integers(0, 2 ** 32 - 1), st.integers(280, 320),
       st.sampled_from([1.0, 0.1, 1e-9]))
@settings(max_examples=60, deadline=None)
def test_angle_neighbors_match_oracle_at_crowd_size(seed, n, grain):
    """About 300 entries, as on `crowd`, rounded to a grain so that coarse
    grains tie; the observations include every seam entry and +-180."""
    rng = np.random.default_rng(seed)
    betas = sorted(wrap_deg(b) for b in (
        np.round(rng.uniform(-180.0, 180.0, n) / grain) * grain).tolist())
    obs_betas = rng.uniform(-180.0, 180.0, 40).tolist() + [
        betas[0], betas[-1], 180.0, -179.99999999999997, 0.0]
    assert repr(_neighbors_by_observation(betas, obs_betas)) \
        == repr(_neighbors_oracle(betas, obs_betas))


def test_angle_neighbors_single_entry():
    for obs in (-180.0, 0.0, 5.0, 180.0, math.nan):
        assert _neighbors_by_observation([5.0], [obs]) == [[0]]
        assert _neighbors_oracle([5.0], [obs]) == [[0]]


# observations on the principal point, predictions exactly mu away, and
# directions on the edge of the delta_v span
OBS = st.one_of(st.just(ORIGIN), LOCS)


@st.composite
def pair(draw):
    obs = draw(OBS)
    dx, dy = draw(st.sampled_from([(3.0, 4.0), (-15.0, 20.0), (0.0, 0.0),
                                   (0.0, -25.0)]))
    loc = draw(st.one_of(st.just(PixelPoint(obs.x + dx, obs.y + dy)), LOCS))
    mu = draw(st.one_of(st.sampled_from([5.0, 25.0, 0.0]),
                        st.floats(0.0, 100.0)))
    obs_beta = angle_of(obs, ORIGIN)
    beta = draw(st.one_of(
        st.sampled_from([wrap_deg(obs_beta + CFG.delta_v),
                         wrap_deg(obs_beta - CFG.delta_v), obs_beta]),
        st.floats(-180.0, 180.0)))
    vel = draw(st.floats(0.0, 5.0))
    return obs, NormalEdge(loc=loc, vel=vel, beta=beta, mu=mu, trust=3)


@given(pair(), IMUS)
@settings(max_examples=500, deadline=None)
def test_classify_edge_matches_oracle(obs_pred, imu):
    obs, pred = obs_pred
    assert _classify(obs, pred, CFG, imu) is _classify_edge_oracle(
        obs, pred, CFG, imu)


def test_classify_edge_oracle_boundaries():
    """The generated pairs reach the boundary cases named above."""
    imu = ImuSample(v_v=2.0, a_v=0.0, omega=(0.0, 0.0, 0.0), t_f=1.0)
    on_mu = NormalEdge(loc=PixelPoint(423.0, 244.0), vel=2.0, beta=0.0,
                       mu=5.0, trust=3)
    obs = PixelPoint(420.0, 240.0)
    assert obs.dist(on_mu.loc) == on_mu.mu
    at_origin = NormalEdge(loc=PixelPoint(323.0, 244.0), vel=2.0, beta=135.0,
                           mu=5.0, trust=3)
    cases: List[Tuple[PixelPoint, NormalEdge]] = [
        (obs, on_mu), (ORIGIN, at_origin),
        (obs, replace(on_mu, beta=CFG.delta_v)),
        (obs, replace(on_mu, beta=-CFG.delta_v))]
    for o, p in cases:
        assert _classify(o, p, CFG, imu) is _classify_edge_oracle(
            o, p, CFG, imu)
    assert _classify(obs, on_mu, CFG, imu) is ce.XiClass.XI2
    assert _classify(ORIGIN, at_origin, CFG, imu) is ce.XiClass.XI2


@given(st.lists(pair(), min_size=1, max_size=30), IMUS)
@settings(max_examples=300, deadline=None)
def test_classify_edges_match_oracle_as_columns(pairs, imu):
    """One call classifies every pair as the per-pair oracle does."""
    origin = CFG.camera.principal
    obs_beta = [angle_of(o, origin) for o, _ in pairs]
    at_origin = [o.x == origin.x and o.y == origin.y for o, _ in pairs]
    dist = [o.dist(p.loc) for o, p in pairs]
    got = ce.classify_edges(
        np.array(obs_beta), np.array(at_origin), np.array(dist),
        np.array([p.beta for _, p in pairs]),
        np.array([p.mu for _, p in pairs]), CFG, imu)
    assert [ce.XI_BY_PRIORITY[c] for c in got.tolist()] == [
        oracles.classify_edge(b, a, d, p, CFG, imu)
        for b, a, d, (_, p) in zip(obs_beta, at_origin, dist, pairs)]


# -- the edge stages ---------------------------------------------------------

# edge locations: the coarse grid, free points and the principal point;
# observations can also be NaN, which `group_edges` passes on
EDGE_LOCS = st.one_of(st.just(ORIGIN), LOCS)
OBS_LOCS = st.one_of(EDGE_LOCS, st.just(PixelPoint(math.nan, 100.0)))
ZERO_IMUS = st.builds(ImuSample, v_v=st.sampled_from([2.0, 3.0]),
                      a_v=st.just(0.0), omega=st.just((0.0, 0.0, 0.0)),
                      t_f=st.just(1.0))


@st.composite
def edge_stage_inputs(draw):
    """Normal edges and observations: tied angles, edges on the principal
    point, observations on it, on a prediction, exactly mu from one,
    exactly delta_v off one, and NaN."""
    imu = draw(st.one_of(IMUS, ZERO_IMUS))
    edges = []
    for _ in range(draw(st.integers(0, 12))):
        loc = draw(EDGE_LOCS)
        beta = draw(st.one_of(st.just(angle_of(loc, ORIGIN)), SEAM_BETAS))
        edges.append(NormalEdge(
            loc=loc, vel=draw(st.sampled_from([imu.v_v, 0.0, 1.5])),
            beta=beta, mu=draw(st.sampled_from([25.0, 5.0, 0.0])),
            trust=draw(st.integers(2, 5))))
    preds = [oracles.predict_normal_edge(e, imu, CFG) for e in edges]
    chi = []
    for _ in range(draw(st.integers(0, 12))):
        if preds and draw(st.booleans()):
            p = draw(st.sampled_from(preds))
            dx, dy = draw(st.sampled_from(
                [(0.0, 0.0), (3.0, 4.0), (-15.0, 20.0), (0.0, -25.0),
                 (60.0, 0.0)]))
            obs = PixelPoint(p.loc.x + dx, p.loc.y + dy)
            if draw(st.booleans()):  # onto the edge of p's angle span
                r = obs.dist(ORIGIN)
                a = math.radians(p.beta + draw(st.sampled_from(
                    [CFG.delta_v, -CFG.delta_v])))
                obs = PixelPoint(ORIGIN.x + r * math.cos(a),
                                 ORIGIN.y + r * math.sin(a))
        else:
            obs = draw(OBS_LOCS)
        chi.append((obs, draw(st.integers(1, 3))))
    return edges, chi, imu


@given(edge_stage_inputs())
@settings(max_examples=400, deadline=None)
def test_normal_edge_stage_matches_oracle(inputs):
    edges, chi, imu = inputs
    assert repr(pipeline._normal_edge_stage(edges, chi, imu, CFG)) \
        == repr(_normal_edge_stage_oracle(edges, chi, imu, CFG))


@given(st.integers(0, 2 ** 32 - 1), IMUS)
@settings(max_examples=30, deadline=None)
def test_normal_edge_stage_matches_oracle_at_crowd_size(seed, imu):
    """About 300 edges and 180 observations, many of them on a prediction."""
    rng = np.random.default_rng(seed)
    locs = rng.uniform((0.0, 0.0), (640.0, 480.0), (300, 2)).round(1)
    edges = [NormalEdge(loc=PixelPoint(x, y), vel=imu.v_v,
                        beta=angle_of(PixelPoint(x, y), ORIGIN), mu=25.0,
                        trust=3) for x, y in locs.tolist()]
    preds = [oracles.predict_normal_edge(e, imu, CFG) for e in edges]
    chi = [(PixelPoint(p.loc.x + dx, p.loc.y + dy), 1) for p, (dx, dy) in zip(
        preds[:150], rng.normal(0.0, 10.0, (150, 2)).tolist())]
    chi += [(PixelPoint(x, y), 2) for x, y in rng.uniform(
        (0.0, 0.0), (640.0, 480.0), (30, 2)).tolist()]
    assert repr(pipeline._normal_edge_stage(edges, chi, imu, CFG)) \
        == repr(_normal_edge_stage_oracle(edges, chi, imu, CFG))


@st.composite
def rebel_stage_inputs(draw):
    """Rebel edges and candidates: tied distances (coincident edges),
    candidates exactly at the gate and at the edge of an edge's span."""
    imu = draw(ZERO_IMUS)
    # gates of 1,000 px, 50 px and 0 px at v_v = 2
    config = replace(CFG, eps_v_r=draw(st.sampled_from([100.0, 5.0, 0.0])))
    gate = config.eps_v_r * imu.v_v * config.px_per_cm * imu.t_f
    edges = []
    for _ in range(draw(st.integers(0, 8))):
        edges.append(RebelEdge(
            loc=draw(EDGE_LOCS), vel=draw(st.sampled_from([0.0, 2.0])),
            beta=draw(SEAM_BETAS), mu=draw(st.sampled_from([0.0, 10.0])),
            origin=draw(EDGE_LOCS), trust=draw(st.integers(2, 5))))
    if edges and draw(st.booleans()):
        edges.append(replace(edges[0]))
    preds = [oracles.predict_rebel_edge(e, imu, config) for e in edges]
    cands = []
    for _ in range(draw(st.integers(0, 10))):
        if preds and draw(st.booleans()):
            p = draw(st.sampled_from(preds))
            ux, uy = draw(st.sampled_from([(0.6, 0.8), (-1.0, 0.0),
                                           (0.0, 0.0)]))
            r = draw(st.sampled_from([gate, 10.0, 2 * gate + 1.0]))
            cands.append(PixelPoint(p.loc.x + ux * r, p.loc.y + uy * r))
        else:
            cands.append(draw(OBS_LOCS))
    return edges, cands, imu, config


@given(rebel_stage_inputs())
@settings(max_examples=400, deadline=None)
def test_rebel_edge_stage_matches_oracle(inputs):
    edges, cands, imu, config = inputs
    assert repr(pipeline._rebel_edge_stage(edges, cands, imu, config)) \
        == repr(_rebel_edge_stage_oracle(edges, cands, imu, config))


def test_rebel_edge_stage_matches_oracle_across_blocks():
    """More candidate/edge pairs than one block holds: the blocks match
    as one pair array does."""
    rng = np.random.default_rng(7)
    imu = ImuSample(v_v=2.0, a_v=0.0, omega=(0.001, -0.002, 0.0005))
    config = replace(CFG, eps_v_r=3.0)
    edges = [RebelEdge(loc=PixelPoint(x, y), vel=2.0, beta=b, mu=10.0,
                       origin=PixelPoint(x - 20.0, y + 5.0), trust=4)
             for (x, y), b in zip(rng.uniform(0.0, 480.0, (3000, 2)).tolist(),
                                  rng.uniform(-180.0, 180.0, 3000).tolist())]
    cands = [PixelPoint(x, y)
             for x, y in rng.uniform(0.0, 480.0, (60, 2)).tolist()]
    assert len(edges) * len(cands) > 2 * pipeline._PAIR_BLOCK
    got = pipeline._rebel_edge_stage(edges, cands, imu, config)
    assert repr(got) == repr(_rebel_edge_stage_oracle(edges, cands, imu,
                                                      config))
    assert len(got[1]) < len(cands)  # some candidates were taken
