from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geofilter import circle_expert as ce
from geofilter.core import (Circle, ImuSample, NormalEdge, PixelPoint,
                            RebelEdge, default_config, wrap_deg)
from geofilter.kinematics import angle_of

CFG = default_config()
IMU = ImuSample(v_v=2.0, a_v=0.0, omega=(0.0, 0.0, 0.0), t_f=1.0)


def _edge(x, y, vel=2.0, mu=25.0, trust=3):
    return NormalEdge(loc=PixelPoint(x, y), vel=vel,
                      beta=angle_of(PixelPoint(x, y), CFG.camera.principal),
                      mu=mu, trust=trust)


def _classify(obs, pred):
    """`classify_edges` on the columns `step` computes, for one pair."""
    origin = CFG.camera.principal
    [p] = ce.classify_edges(np.array([angle_of(obs, origin)]),
                            np.array([obs == origin]),
                            np.array([obs.dist(pred.loc)]),
                            np.array([pred.beta]), np.array([pred.mu]),
                            CFG, IMU)
    return ce.XI_BY_PRIORITY[p]


class TestClassifyEdge:
    def test_full_match(self):
        pred = _edge(420.0, 240.0)
        assert _classify(PixelPoint(425.0, 240.0), pred) \
            is ce.XiClass.XI2

    def test_inside_radius_but_off_span(self):
        pred = _edge(420.0, 240.0)
        # within mu=25 px but at ~12.6 deg off the radial direction
        obs = PixelPoint(418.0, 262.0)
        assert abs(angle_of(obs, CFG.camera.principal)) > CFG.delta_v
        assert _classify(obs, pred) is ce.XiClass.XI3

    def test_outside_radius_in_span_consistent(self):
        pred = _edge(420.0, 240.0)
        obs = PixelPoint(460.0, 240.0)  # 40 px away, radially aligned
        assert _classify(obs, pred) is ce.XiClass.XI1

    def test_outside_radius_in_span_too_fast(self):
        pred = _edge(420.0, 240.0)
        # displacement gate: eps_v_n * v_v * px_per_cm = 40*2*5 = 400 px
        obs = PixelPoint(830.0, 240.0)
        assert _classify(obs, pred) is ce.XiClass.XI4

    def test_fails_everything(self):
        pred = _edge(420.0, 240.0)
        obs = PixelPoint(320.0, 100.0)  # 90 deg away, far outside mu
        assert _classify(obs, pred) is ce.XiClass.XI5

    def test_radius_boundary_inclusive(self):
        pred = _edge(420.0, 240.0)
        assert _classify(PixelPoint(445.0, 240.0), pred) \
            is ce.XiClass.XI2


class TestEstimateTrusted:
    def test_degenerate_trust_returns_measurement(self):
        assert ce.estimate_trusted(10.0, 4.0, trust=2, tr_c=2) == 4.0
        out = ce.estimate_trusted(PixelPoint(0.0, 0.0), PixelPoint(8.0, 6.0),
                                  trust=2, tr_c=2)
        assert out == PixelPoint(8.0, 6.0)

    def test_scalar_weighting(self):
        # weight w = trust - tr_c = 2: (2*9 + 3) / 3 = 7
        assert ce.estimate_trusted(9.0, 3.0, trust=4, tr_c=2) == 7.0

    def test_rejects_subcritical_trust(self):
        with pytest.raises(ValueError):
            ce.estimate_trusted(1.0, 2.0, trust=1, tr_c=2)

    @given(st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=-1e3, max_value=1e3),
           st.integers(min_value=2, max_value=9))
    def test_convex_combination(self, prior, meas, trust):
        out = ce.estimate_trusted(prior, meas, trust, tr_c=2)
        lo, hi = min(prior, meas), max(prior, meas)
        assert lo - 1e-9 <= out <= hi + 1e-9

    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=-100, max_value=100))
    def test_converges_to_constant_measurement(self, prior, meas):
        x = prior
        for _ in range(200):
            x = ce.estimate_trusted(x, meas, trust=4, tr_c=2)
        assert x == pytest.approx(meas, abs=1e-6)


class TestEstimateTrustedAngle:
    def test_wraps_shortest_way(self):
        # prior 170, measured -170: moves through 180, not through 0
        out = ce.estimate_trusted_angle(170.0, -170.0, trust=3, tr_c=2)
        assert out == pytest.approx(180.0)

    def test_degenerate_returns_measurement(self):
        assert ce.estimate_trusted_angle(10.0, 50.0, trust=2, tr_c=2) == 50.0

    @given(st.floats(min_value=-180, max_value=180),
           st.floats(min_value=-180, max_value=180),
           st.integers(min_value=2, max_value=9))
    def test_residual_shrinks(self, prior, meas, trust):
        out = ce.estimate_trusted_angle(prior, meas, trust, tr_c=2)
        assert abs(wrap_deg(out - meas)) <= abs(wrap_deg(prior - meas)) + 1e-9


class TestEstimateNormalEdge:
    def test_frozen_example(self):
        pred = NormalEdge(loc=PixelPoint(400.0, 250.0), vel=4.0, beta=0.0,
                          mu=20.0, trust=3)
        out = ce.estimate_normal_edge(pred, PixelPoint(404.0, 247.0),
                                      match_count=2, imu=IMU, config=CFG)
        # frozen from the independent derivation
        assert out.loc == PixelPoint(402.0, 248.5)
        assert out.vel == pytest.approx(3.0)
        assert out.mu == pytest.approx(12.5)
        assert out.beta == pytest.approx(5.918060352107626)
        assert out.trust == 3  # trust committed by the caller

    def test_inward_observation_brakes(self):
        pred = NormalEdge(loc=PixelPoint(420.0, 240.0), vel=2.0, beta=0.0,
                          mu=25.0, trust=2)
        obs = PixelPoint(415.0, 240.0)  # 5 px closer to the origin
        out = ce.estimate_normal_edge(pred, obs, 1, IMU, CFG)
        assert out.vel == pytest.approx(abs(2.0 - 1.0))

    def test_rejects_zero_match_count(self):
        with pytest.raises(ValueError):
            ce.estimate_normal_edge(_edge(400.0, 240.0),
                                    PixelPoint(401.0, 240.0), 0, IMU, CFG)


class TestRebelAlignment:
    CHAIN = [PixelPoint(100.0, 100.0), PixelPoint(104.0, 97.0),
             PixelPoint(109.0, 93.0)]

    def _run_chain(self):
        alpha = []
        rebels = []
        for k, p in enumerate(self.CHAIN):
            alpha, new_rebels, _failed = ce.update_rebel_alignment(
                alpha, [p], k, CFG, IMU)
            rebels.extend(new_rebels)
        return rebels

    def test_three_frame_chain_becomes_rebel(self):
        rebels = self._run_chain()
        assert len(rebels) == 1
        r = rebels[0]
        # frozen from the independent derivation (5 px/cm scale)
        assert r.vel == pytest.approx(1.2806248474865698)
        assert r.beta == pytest.approx(-37.874983651098205)
        assert r.mu == pytest.approx(-1.005086005254185)
        assert r.origin == self.CHAIN[0]
        assert r.loc == self.CHAIN[2]
        assert r.trust == 4  # one above the standard rank

    def test_radial_motion_not_chained(self):
        # a step aligned with the outward field must not extend a chain
        p1 = PixelPoint(420.0, 240.0)
        p2 = PixelPoint(430.0, 240.0)  # exactly along the field direction
        alpha, _, _ = ce.update_rebel_alignment([], [p1], 0, CFG, IMU)
        alpha, rebels, failed = ce.update_rebel_alignment(alpha, [p2], 1,
                                                          CFG, IMU)
        assert rebels == []
        assert failed == [p1]
        assert [row[-1][1] for row in alpha] == [p2]

    def test_overlong_step_not_chained(self):
        far = PixelPoint(100.0 + 2000.0, 100.0)
        alpha, _, _ = ce.update_rebel_alignment([], [self.CHAIN[0]], 0, CFG,
                                                IMU)
        _, rebels, failed = ce.update_rebel_alignment(alpha, [far], 1, CFG,
                                                      IMU)
        assert rebels == [] and failed == [self.CHAIN[0]]

    def test_stale_rows_fail(self):
        alpha, _, _ = ce.update_rebel_alignment([], [self.CHAIN[0]], 0, CFG,
                                                IMU)
        # skip a frame: the row can no longer be extended
        _, rebels, failed = ce.update_rebel_alignment(alpha, [self.CHAIN[1]],
                                                      2, CFG, IMU)
        assert rebels == [] and failed == [self.CHAIN[0]]

    def test_every_candidate_seeds_a_row(self):
        cands = [PixelPoint(10.0, 10.0), PixelPoint(600.0, 400.0)]
        alpha, _, _ = ce.update_rebel_alignment([], cands, 0, CFG, IMU)
        assert len(alpha) == 2
        assert all(len(row) == 1 for row in alpha)


class TestEstimateRebelEdge:
    def test_deviation_is_absolute_residual(self):
        r = RebelEdge(loc=PixelPoint(110.0, 100.0), vel=2.0, beta=0.0,
                      mu=5.0, origin=PixelPoint(100.0, 100.0), trust=4)
        obs = PixelPoint(110.0, 102.0)
        out = ce.estimate_rebel_edge(r, obs, IMU, CFG)
        expected = abs(wrap_deg(angle_of(obs, r.origin) - r.beta))
        assert out.mu == pytest.approx(expected)
        assert out.origin == r.origin


def _brute_normal_members(seed, pool, config, imu):
    out = []
    for i, e in enumerate(pool):
        if e is seed or (
                abs(wrap_deg(e.beta - seed.beta)) < config.eps_beta_n
                and abs(seed.vel) <= abs(e.vel) + config.eps_v_n * imu.v_v):
            out.append(i)
    return out


class TestGroupNormalCircle:
    def test_groups_aligned_edges(self):
        pool = [_edge(420.0, 240.0), _edge(440.0, 250.0),
                _edge(320.0, 100.0)]  # last one is 90 deg off
        circle = ce.group_normal_circle(pool[0], pool, CFG, IMU)
        assert circle.members == [0, 1]
        assert circle.kind == "normal"
        assert circle.origin == CFG.camera.principal
        assert circle.trust == 3

    def test_radius_floor(self):
        pool = [_edge(420.0, 240.0)]
        circle = ce.group_normal_circle(pool[0], pool, CFG, IMU)
        assert circle.radius == CFG.mu_0
        assert circle.loc == pool[0].loc

    def test_geometry(self):
        pool = [_edge(400.0, 240.0), _edge(460.0, 240.0)]
        circle = ce.group_normal_circle(pool[0], pool, CFG, IMU)
        assert circle.loc == PixelPoint(430.0, 240.0)
        assert circle.radius == 30.0
        assert circle.vel == pytest.approx(2.0)

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=640),
        st.floats(min_value=0, max_value=480),
        st.floats(min_value=0.1, max_value=20.0)), min_size=1, max_size=30))
    @settings(max_examples=60)
    def test_membership_matches_brute_force(self, raw):
        pool = [_edge(x, y, vel=v) for x, y, v in raw]
        for seed in pool:
            circle = ce.group_normal_circle(seed, pool, CFG, IMU)
            assert circle.members == _brute_normal_members(seed, pool, CFG,
                                                           IMU)


class TestCircleOverlap:
    def test_counts_strict_interior(self):
        pred = Circle(kind="normal", loc=PixelPoint(0.0, 0.0), radius=10.0,
                      vel=1.0, beta=0.0, trust=3, members=[],
                      origin=PixelPoint(0.0, 0.0))
        locs = [PixelPoint(0.0, 0.0), PixelPoint(10.0, 0.0),
                PixelPoint(5.0, 0.0), PixelPoint(20.0, 0.0)]
        assert ce.circle_overlap_percentage(locs, pred) == 50.0

    def test_rejects_empty(self):
        pred = Circle(kind="normal", loc=PixelPoint(0.0, 0.0), radius=10.0,
                      vel=1.0, beta=0.0, trust=3, members=[],
                      origin=PixelPoint(0.0, 0.0))
        with pytest.raises(ValueError):
            ce.circle_overlap_percentage([], pred)


class TestMatchNormalCircle:
    def _circle(self, beta=0.0, vel=2.0, loc=PixelPoint(430.0, 240.0),
                radius=30.0):
        return Circle(kind="normal", loc=loc, radius=radius, vel=vel,
                      beta=beta, trust=3, members=[],
                      origin=CFG.camera.principal)

    def test_accepts_consistent(self):
        pred = self._circle(vel=4.0)
        mean = self._circle(vel=2.0)
        locs = [PixelPoint(430.0, 240.0), PixelPoint(440.0, 240.0)]
        assert ce.match_normal_circle(pred, mean, locs, CFG)

    def test_angle_gate(self):
        pred = self._circle()
        mean = self._circle(beta=CFG.eps_beta_n)
        locs = [PixelPoint(430.0, 240.0)]
        assert not ce.match_normal_circle(pred, mean, locs, CFG)

    def test_velocity_gate(self):
        pred = self._circle(vel=2.0)
        mean = self._circle(vel=2.0)  # 2.0 > 0.7 * 2.0
        locs = [PixelPoint(430.0, 240.0)]
        assert not ce.match_normal_circle(pred, mean, locs, CFG)

    def test_overlap_gate(self):
        pred = self._circle(vel=4.0)
        mean = self._circle(vel=2.0)
        locs = [PixelPoint(900.0, 900.0), PixelPoint(901.0, 900.0),
                PixelPoint(430.0, 240.0)]  # 33% < rho_c
        assert not ce.match_normal_circle(pred, mean, locs, CFG)


class TestRebelCircle:
    def _rebel(self, x, y, beta, mu=0.0, vel=2.0):
        return RebelEdge(loc=PixelPoint(x, y), vel=vel, beta=beta, mu=mu,
                         origin=PixelPoint(x - 10.0, y), trust=4)

    def test_grouping_uses_deviated_angle(self):
        pool = [self._rebel(100.0, 100.0, beta=0.0, mu=10.0),
                self._rebel(120.0, 100.0, beta=5.0, mu=7.0),
                self._rebel(140.0, 100.0, beta=120.0)]
        circle = ce.group_rebel_circle(pool[0], pool, CFG, IMU)
        assert circle.members == [0, 1]
        assert circle.kind == "rebel"
        # mean of member origins (90,100) and (110,100)
        assert circle.origin == PixelPoint(100.0, 100.0)

    def test_match_against_prediction(self):
        pool = [self._rebel(100.0, 100.0, beta=0.0)]
        pred = Circle(kind="rebel", loc=PixelPoint(100.0, 100.0), radius=25.0,
                      vel=2.0, beta=0.0, trust=4, members=[0],
                      origin=PixelPoint(90.0, 100.0))
        mean = ce.group_rebel_circle(pool[0], pool, CFG, IMU)
        matched = ce.match_rebel_circle(pred, mean, [e.loc for e in pool],
                                        CFG, IMU)
        assert matched

    def test_mismatch_on_angle(self):
        pool = [self._rebel(100.0, 100.0, beta=0.0)]
        pred = Circle(kind="rebel", loc=PixelPoint(100.0, 100.0), radius=25.0,
                      vel=2.0, beta=90.0, trust=4, members=[0],
                      origin=PixelPoint(90.0, 100.0))
        mean = ce.group_rebel_circle(pool[0], pool, CFG, IMU)
        matched = ce.match_rebel_circle(pred, mean, [e.loc for e in pool],
                                        CFG, IMU)
        assert not matched

    def test_mismatch_on_speed_and_overlap(self):
        pool = [self._rebel(100.0, 100.0, beta=0.0)]
        pred = Circle(kind="rebel", loc=PixelPoint(100.0, 100.0), radius=25.0,
                      vel=2.0, beta=0.0, trust=4, members=[0],
                      origin=PixelPoint(90.0, 100.0))
        mean = ce.group_rebel_circle(pool[0], pool, CFG, IMU)
        fast = replace(mean, vel=pred.vel + CFG.eps_v_r * IMU.v_v + 1.0)
        assert not ce.match_rebel_circle(pred, fast, [mean.loc], CFG, IMU)
        assert not ce.match_rebel_circle(pred, mean, [PixelPoint(300.0, 100.0)],
                                         CFG, IMU)
