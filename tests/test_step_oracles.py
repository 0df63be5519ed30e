"""Exact oracles for the hot loops of `pipeline.step`.

Each oracle is an earlier, unpruned form of one stage, kept verbatim: the
square stage's furthest-couple search, the circle stage's full-scan grouping
windows, the angle-neighbour search and the per-pair edge classification.
The stages must return what their oracle returns, compared by `repr` (which
tells -0.0 from 0.0 and lets NaN equal NaN), on generated inputs that sit on
the boundary of every gate they prune by.
"""

import bisect
import math
from dataclasses import replace
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from geofilter import circle_expert as ce
from geofilter import pipeline
from geofilter import square_expert as se
from geofilter.core import (Circle, ImuSample, NormalEdge, PixelPoint, Square,
                            default_config, wrap_deg)
from geofilter.kinematics import angle_of, within_error_span
from geofilter.pipeline import _associate, _predict_circle

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


def _angle_neighbors_oracle(sorted_betas, obs_beta, n):
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
    # circular wrap: also consider the extreme entries across the seam
    if n > k:
        for idx in (0, n - 1):
            if idx not in picked:
                if abs(wrap_deg(sorted_betas[idx] - obs_beta)) < max(
                        abs(wrap_deg(sorted_betas[i] - obs_beta)) for i in picked):
                    picked.append(idx)
    return picked


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
    """`classify_edge` called the way `step` calls it for one pair."""
    origin = config.camera.principal
    return ce.classify_edge(angle_of(obs, origin),
                            obs.x == origin.x and obs.y == origin.y,
                            obs.dist(predicted.loc), predicted, config, imu)


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


@given(st.lists(SEAM_BETAS, min_size=1, max_size=20),
       st.one_of(SEAM_BETAS, st.just(math.nan)))
@settings(max_examples=400, deadline=None)
def test_angle_neighbors_match_oracle(betas, obs_beta):
    betas = sorted(betas)  # ties kept
    assert pipeline._angle_neighbors(betas, obs_beta, len(betas)) \
        == _angle_neighbors_oracle(betas, obs_beta, len(betas))


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
