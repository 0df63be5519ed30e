"""The normal edges held as columns between frames (`core.NormalEdges`).

The column estimate and trust commit must give what the per-edge oracle in
`oracles.py` gives, compared by `repr` (which tells -0.0 from 0.0). A state
must survive `state.jsonl` unchanged and step on from there as the live one
does, and the store must hold a fixed number of Python objects whatever the
edge count.
"""

import gc
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from geofilter import pipeline
from geofilter.core import (FilterState, ImuSample, NormalEdge, NormalEdges,
                            PixelPoint, default_config)
from geofilter.formats import (parse_states, state_to_dict,
                               write_state_jsonl)
from geofilter.kinematics import angle_of
from geofilter.scene_synth import MoverSpec, SceneSpec, generate

CFG = default_config()
ORIGIN = CFG.camera.principal
LADDER = CFG.circle_trust
IMU = ImuSample(v_v=2.0, a_v=0.0, omega=(0.0, 0.0, 0.0), t_f=1.0)

# offsets that all lie exactly 5 px from the edge, so their distances tie
TIED = [(3.0, 4.0), (-4.0, 3.0), (5.0, 0.0), (0.0, -5.0)]


def _edge(x, y, trust=3, vel=2.0, mu=25.0):
    p = PixelPoint(x, y)
    return NormalEdge(loc=p, vel=vel, beta=angle_of(p, ORIGIN), mu=mu,
                      trust=trust)


def _commit(edges, pairs, imu=IMU, config=CFG):
    """`_commit_normal_edges` and its oracle on the same matches, given as
    (edge index, observation, is XI2, count) in observation order; the
    distance is the observation's to its edge, as the edge stage takes it."""
    dist = [math.hypot(obs.x - edges[i].loc.x, obs.y - edges[i].loc.y)
            for i, obs, _xi2, _n in pairs]
    got = pipeline._commit_normal_edges(
        NormalEdges.of(edges), np.array([i for i, *_ in pairs], dtype=int),
        np.array([p[1].x for p in pairs], dtype=float),
        np.array([p[1].y for p in pairs], dtype=float),
        np.array(dist, dtype=float),
        np.array([p[2] for p in pairs], dtype=bool),
        np.array([p[3] for p in pairs], dtype=int), imu, config)
    matches = {}
    for (i, obs, xi2, n), d in zip(pairs, dist):
        matches.setdefault(i, ([], []))[0 if xi2 else 1].append((obs, n, d))
    want = oracles.commit_normal_edges(edges, matches, imu, config)
    return got, want


# -- the column estimate and trust commit --------------------------------------

IMUS = st.builds(ImuSample, v_v=st.sampled_from([0.0, 2.0, 3.0]),
                 a_v=st.just(0.0), omega=st.just((0.0, 0.0, 0.0)),
                 t_f=st.sampled_from([1.0, 0.1]))
LOCS = st.one_of(
    st.just(ORIGIN),
    st.builds(PixelPoint, st.sampled_from([100.0, 320.0, 500.0]),
              st.sampled_from([100.0, 240.0, 400.0])),
    st.builds(PixelPoint, st.floats(0.0, 640.0), st.floats(0.0, 480.0)))


@st.composite
def commit_inputs(draw):
    """Edges at every trust of the ladder, some on the principal point, and
    matches in observation order: tied distances, observations on the
    principal point or on their edge, counts above 1, XI3 alone."""
    imu = draw(IMUS)
    edges = [NormalEdge(loc=draw(LOCS),
                        vel=draw(st.sampled_from([imu.v_v, 0.0, 1.5])),
                        beta=draw(st.floats(-180.0, 180.0)),
                        mu=draw(st.sampled_from([25.0, 5.0, 0.0])),
                        trust=draw(st.integers(LADDER.tr_c, LADDER.tr_m)))
             for _ in range(draw(st.integers(0, 8)))]
    pairs = []
    for _ in range(draw(st.integers(0, 12)) if edges else 0):
        i = draw(st.integers(0, len(edges) - 1))
        loc = edges[i].loc
        dx, dy = draw(st.sampled_from(TIED + [(0.0, 0.0), (-15.0, 20.0)]))
        obs = draw(st.one_of(st.just(PixelPoint(loc.x + dx, loc.y + dy)),
                             st.just(ORIGIN), LOCS))
        pairs.append((i, obs, draw(st.booleans()), draw(st.integers(1, 3))))
    return edges, pairs, imu


@given(commit_inputs())
@settings(max_examples=400, deadline=None)
@example(([], [], IMU))
def test_commit_matches_oracle(inputs):
    edges, pairs, imu = inputs
    got, want = _commit(edges, pairs, imu)
    assert repr(got) == repr(NormalEdges.of(want))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1.0, 10.0]))
@settings(max_examples=20, deadline=None)
def test_commit_matches_oracle_at_crowd_size(seed, grain):
    """About 300 edges and 180 matches, locations rounded to a grain so that
    distances tie."""
    rng = np.random.default_rng(seed)
    xy = np.round(rng.uniform((0.0, 0.0), (640.0, 480.0), (300, 2)) / grain)
    edges = [_edge(x, y, trust=int(t)) for (x, y), t in zip(
        (xy * grain).tolist(),
        rng.integers(LADDER.tr_c, LADDER.tr_m + 1, 300))]
    pairs = []
    for i, (dx, dy), xi2, n in zip(
            rng.integers(0, 300, 180).tolist(),
            (np.round(rng.normal(0.0, 10.0, (180, 2)) / grain)
             * grain).tolist(),
            (rng.random(180) < 0.7).tolist(), rng.integers(1, 4, 180).tolist()):
        pairs.append((i, PixelPoint(edges[i].loc.x + dx, edges[i].loc.y + dy),
                      xi2, n))
    got, want = _commit(edges, pairs)
    assert repr(got) == repr(NormalEdges.of(want))


def test_commit_boundaries():
    """The cases the generated inputs aim at, each checked against the
    oracle and for what it is meant to show."""
    e = _edge(420.0, 240.0, vel=1.0)
    cases = {}
    # tied distances: the first observation of the nearest is taken
    a, b = (PixelPoint(e.loc.x + dx, e.loc.y + dy) for dx, dy in TIED[:2])
    cases["tie"] = ([e], [(0, a, True, 1), (0, b, True, 1)])
    # an edge and an observation on the principal point
    cases["origin"] = ([_edge(*ORIGIN)], [(0, ORIGIN, True, 1)])
    cases["obs at origin"] = ([e], [(0, ORIGIN, True, 1)])
    # two matches of 2 and 3 detections: a match count of 5
    cases["count"] = ([e], [(0, a, True, 2), (0, b, False, 3)])
    # XI3 alone: estimated, trust steps down
    cases["xi3"] = ([e], [(0, a, False, 1)])
    # trust at tr_c without an XI2 match is pruned; at tr_m it is clamped
    cases["tr_c"] = ([_edge(420.0, 240.0, trust=LADDER.tr_c)] * 2,
                     [(1, a, False, 1)])
    cases["tr_m"] = ([_edge(420.0, 240.0, trust=LADDER.tr_m)],
                     [(0, a, True, 1)])
    cases["none"] = ([e, e], [])
    got = {}
    for name, (edges, pairs) in cases.items():
        out, want = _commit(edges, pairs)
        assert repr(out) == repr(NormalEdges.of(want)), name
        got[name] = list(out)
    tie = oracles.estimate_normal_edge(e, a, 2, IMU, CFG)
    assert got["tie"] == [replace(tie, trust=e.trust + 1)]
    assert got["tie"][0].loc != oracles.estimate_normal_edge(
        e, b, 2, IMU, CFG).loc
    assert got["origin"][0].loc == ORIGIN and got["origin"][0].beta == 0.0
    assert got["count"][0].mu == 0.5 * (
        abs(IMU.v_v - e.vel) * CFG.px_per_cm / 5 + e.mu)
    assert got["xi3"][0].trust == e.trust - 1
    assert got["xi3"][0].loc != e.loc
    assert got["tr_c"] == []
    assert [x.trust for x in got["tr_m"]] == [LADDER.tr_m]
    assert [x.trust for x in got["none"]] == [e.trust - 1] * 2


def test_edge_stage_with_no_edges_or_no_observations():
    chi = [(PixelPoint(100.0, 100.0), 1), (PixelPoint(500.0, 300.0), 2)]
    edges, born, cands, comparisons = pipeline._normal_edge_stage(
        NormalEdges(), chi, IMU, CFG)
    assert (len(edges), born, cands, comparisons) == (
        0, [p for p, _n in chi], [], 0)
    old = [_edge(420.0, 240.0), _edge(100.0, 100.0, trust=LADDER.tr_c)]
    edges, born, cands, comparisons = pipeline._normal_edge_stage(
        NormalEdges.of(old), [], IMU, CFG)
    want = oracles.commit_normal_edges(
        [oracles.predict_normal_edge(e, IMU, CFG) for e in old], {}, IMU, CFG)
    assert repr(edges) == repr(NormalEdges.of(want))
    assert len(want) == 1 and (born, cands, comparisons) == ([], [], 0)


# -- the store -----------------------------------------------------------------

def test_store_view_and_equality():
    edges = [_edge(420.0, 240.0), _edge(100.0, 50.0, trust=4, vel=-0.0)]
    store = NormalEdges.of(edges)
    assert list(store) == edges and len(store) == 2
    assert repr(list(store)) == repr(edges)  # -0.0 kept
    assert store == NormalEdges.of(edges)
    assert store != NormalEdges.of(edges[:1])
    assert store != NormalEdges.of([edges[0], replace(edges[1], trust=5)])
    nan = NormalEdges.of([replace(edges[0], mu=math.nan)])
    assert nan == NormalEdges.of([replace(edges[0], mu=math.nan)])
    assert NormalEdges() == NormalEdges.of([])
    assert FilterState(normal_edges=edges).normal_edges == store
    with pytest.raises(ValueError):
        NormalEdges([1.0], [2.0], [3.0], [4.0], [5.0], [])


# -- a state through state.jsonl -----------------------------------------------

def _line(state):
    return json.dumps(state_to_dict(state), sort_keys=True)


def test_resume_through_state_jsonl(tmp_path):
    """States read back from `state.jsonl` equal the live ones, and step to
    the same next line."""
    spec = SceneSpec(n_points=400, frames=12, camera=CFG.camera,
                     noise_sigma=1.0, movers=(
                         MoverSpec(start=(480.0, 320.0), velocity=(-12.0, 9.0),
                                   start_frame=3),
                         MoverSpec(start=(150.0, 120.0), velocity=(14.0, -6.0),
                                   start_frame=5)))
    truth = generate(4, spec)
    states, state = [], FilterState()
    for k in range(spec.frames - 1):
        state, _ = pipeline.step(state, truth.edges(k), truth.imu[k], CFG,
                                 frame_index=k)
        states.append(state)
    path = tmp_path / "state.jsonl"
    write_state_jsonl(path, states)
    parsed = list(parse_states(path))
    assert parsed == states
    assert min(len(s.normal_edges) for s in states[1:]) > 100
    assert any(s.rebel_edges for s in states)
    for k, (live, back) in enumerate(zip(states, parsed), start=1):
        nxt = [pipeline.step(s, truth.edges(k), truth.imu[k], CFG,
                             frame_index=k)[0] for s in (live, back)]
        assert _line(nxt[0]) == _line(nxt[1])


# -- memory --------------------------------------------------------------------

def _tracked_objects(root) -> int:
    """The objects the garbage collector tracks among those reachable from
    `root`, types left out."""
    seen, todo, tracked = set(), [root], 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        tracked += gc.is_tracked(obj)
        todo.extend(gc.get_referents(obj))
    return tracked


def test_store_holds_a_fixed_number_of_tracked_objects():
    """A store of 300 edges, about what a `crowd` state holds, holds no more
    objects for the garbage collector to walk than one of 10."""
    rng = np.random.default_rng(3)
    counts = []
    for n in (10, 300):
        edges = [_edge(x, y) for x, y in rng.uniform(
            (0.0, 0.0), (640.0, 480.0), (n, 2)).tolist()]
        counts.append(_tracked_objects(
            FilterState(normal_edges=edges).normal_edges))
    truth = generate(5, SceneSpec(n_points=400, frames=3, camera=CFG.camera))
    state = FilterState()
    for k in range(3):
        state, rep = pipeline.step(state, truth.edges(k), truth.imu[k], CFG,
                                   frame_index=k)
    assert rep.e_n > 100
    counts.append(_tracked_objects(state.normal_edges))
    assert counts[0] == counts[1] == counts[2]
