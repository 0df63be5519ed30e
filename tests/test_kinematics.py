import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from geofilter.core import (CameraModel, ImuSample, NormalEdge, PixelPoint,
                            RebelEdge, default_config)
from geofilter.kinematics import (angle_of, predict_normal_edges,
                                  predict_rebel_edges, rotate_motion_field)
from oracles import within_error_span

CAM = CameraModel(f=500.0, principal=PixelPoint(320.0, 240.0))

finite = st.floats(min_value=-200.0, max_value=200.0)


class TestRotateMotionField:
    def test_identity_at_zero_rotation(self):
        out = rotate_motion_field(PixelPoint(10.0, -20.0), CAM, (0.0, 0.0, 0.0))
        assert out == PixelPoint(330.0, 220.0)

    @given(finite, finite)
    def test_identity_at_zero_rotation_everywhere(self, x, y):
        out = rotate_motion_field(PixelPoint(x, y), CAM, (0.0, 0.0, 0.0))
        assert out.x == pytest.approx(x + 320.0)
        assert out.y == pytest.approx(y + 240.0)

    def test_golden_corrected(self):
        # frozen values computed independently from the flow expression
        out = rotate_motion_field(PixelPoint(10.0, -20.0), CAM,
                                  (0.01, -0.02, 0.03))
        assert out.x == pytest.approx(319.4, abs=1e-12)
        assert out.y == pytest.approx(225.3, abs=1e-12)

    def test_golden_second_point(self):
        out = rotate_motion_field(PixelPoint(-37.5, 12.25), CAM,
                                  (-0.004, 0.013, -0.021))
        assert out.x == pytest.approx(288.7098625, abs=1e-9)
        assert out.y == pytest.approx(251.02675675, abs=1e-9)

    @given(finite, finite, st.floats(min_value=-0.05, max_value=0.05))
    def test_pure_roll_is_shear_only(self, x, y, wz):
        # with wx = wy = 0 both rows reduce to a wz cross term
        out = rotate_motion_field(PixelPoint(x, y), CAM, (0.0, 0.0, wz))
        assert out.x == pytest.approx(x + 320.0 + y * wz, abs=1e-9)
        assert out.y == pytest.approx(y + 240.0 + x * wz, abs=1e-9)


class TestAngleOf:
    @pytest.mark.parametrize("p, expected", [
        (PixelPoint(1.0, 0.0), 0.0),
        (PixelPoint(0.0, 1.0), 90.0),
        (PixelPoint(-1.0, 0.0), 180.0),
        (PixelPoint(0.0, -1.0), -90.0),
        (PixelPoint(1.0, 1.0), 45.0),
    ])
    def test_quadrants(self, p, expected):
        assert angle_of(p, PixelPoint(0.0, 0.0)) == pytest.approx(expected)

    def test_degenerate_maps_to_zero(self):
        assert angle_of(PixelPoint(5.0, 5.0), PixelPoint(5.0, 5.0)) == 0.0

    @given(finite, finite)
    def test_range(self, x, y):
        a = angle_of(PixelPoint(x, y), PixelPoint(0.0, 0.0))
        assert -180.0 < a <= 180.0


def _predict_one(e, imu, config):
    """`predict_normal_edges` on a column of one edge."""
    loc, vel = predict_normal_edges(np.array([e.loc.x]), np.array([e.loc.y]),
                                    np.array([e.vel]), imu, config)
    return NormalEdge(loc=PixelPoint(*loc.x.tolist(), *loc.y.tolist()),
                      vel=vel.item(), beta=e.beta, mu=e.mu, trust=e.trust)


class TestPredictNormalEdge:
    def test_radial_advance_no_rotation(self, config):
        # on the +x axis: averaged velocity 3 cm/s * 5 px/cm = 15 px outward
        e = NormalEdge(loc=PixelPoint(420.0, 240.0), vel=4.0, beta=0.0,
                       mu=25.0, trust=3)
        imu = ImuSample(v_v=2.0, a_v=0.0, omega=(0.0, 0.0, 0.0), t_f=1.0)
        out = _predict_one(e, imu, config)
        assert out.loc.x == pytest.approx(435.0)
        assert out.loc.y == pytest.approx(240.0)
        assert out.vel == pytest.approx(3.0)
        assert out.mu == e.mu and out.beta == e.beta and out.trust == e.trust

    def test_edge_at_origin_does_not_translate(self, config, imu):
        e = NormalEdge(loc=PixelPoint(320.0, 240.0), vel=2.0, beta=0.0,
                       mu=25.0, trust=3)
        out = _predict_one(e, imu, config)
        assert out.loc == PixelPoint(320.0, 240.0)

    @given(st.floats(min_value=-150, max_value=150),
           st.floats(min_value=-150, max_value=150),
           st.floats(min_value=0.1, max_value=10.0))
    def test_moves_radially_outward(self, dx, dy, v):
        config = default_config()
        if math.hypot(dx, dy) < 1.0:
            return
        e = NormalEdge(loc=PixelPoint(320.0 + dx, 240.0 + dy), vel=v, beta=0.0,
                       mu=25.0, trust=3)
        imu = ImuSample(v_v=v, a_v=0.0, omega=(0.0, 0.0, 0.0), t_f=1.0)
        out = _predict_one(e, imu, config)
        r0 = e.loc.dist(config.camera.principal)
        r1 = out.loc.dist(config.camera.principal)
        assert r1 == pytest.approx(r0 + 5.0 * v, rel=1e-9)
        # direction preserved
        assert angle_of(out.loc, config.camera.principal) == pytest.approx(
            angle_of(e.loc, config.camera.principal), abs=1e-6)


# locations: free points, points near and on the principal point (where the
# outward direction is (0, 0)), and far ones
COORDS = st.one_of(st.floats(-1e4, 1e4),
                   st.sampled_from([320.0, 240.0, 320.0000000000001, 0.0]))
OMEGAS = st.tuples(*[st.one_of(st.just(0.0), st.floats(-0.05, 0.05))] * 3)
IMUS = st.builds(ImuSample, v_v=st.floats(0.0, 50.0), a_v=st.just(0.0),
                 omega=OMEGAS, t_f=st.sampled_from([1.0, 0.1, 0.033]))


@given(st.lists(st.tuples(COORDS, COORDS, st.floats(-50.0, 50.0)),
                max_size=30), IMUS)
@settings(max_examples=300, deadline=None)
def test_predict_normal_edges_match_oracle(rows, imu):
    """The column form gives every edge the bits of the per-edge oracle."""
    config = default_config()
    rows = rows + [(320.0, 240.0, 1.0)]  # an edge on the principal point
    edges = [NormalEdge(loc=PixelPoint(x, y), vel=v, beta=0.0, mu=25.0,
                        trust=3) for x, y, v in rows]
    x, y, vel = (np.array(c) for c in zip(*rows))
    loc, v_pred = predict_normal_edges(x, y, vel, imu, config)
    got = [NormalEdge(loc=PixelPoint(px, py), vel=v, beta=0.0, mu=25.0,
                      trust=3)
           for px, py, v in zip(loc.x.tolist(), loc.y.tolist(),
                                v_pred.tolist())]
    assert repr(got) == repr(
        [oracles.predict_normal_edge(e, imu, config) for e in edges])


@given(st.lists(st.tuples(COORDS, COORDS, st.floats(-50.0, 50.0),
                          st.floats(-180.0, 180.0)), max_size=30), IMUS)
@settings(max_examples=300, deadline=None)
def test_predict_rebel_edges_match_oracle(rows, imu):
    config = default_config()
    edges = [RebelEdge(loc=PixelPoint(x, y), vel=v, beta=b, mu=5.0,
                       origin=PixelPoint(0.0, 0.0), trust=3)
             for x, y, v, b in rows]
    loc = predict_rebel_edges(np.array([e.loc.x for e in edges]),
                              np.array([e.loc.y for e in edges]),
                              np.array([e.vel for e in edges]),
                              np.array([e.beta for e in edges]), imu, config)
    assert repr(list(zip(loc.x.tolist(), loc.y.tolist()))) == repr(
        [tuple(oracles.predict_rebel_edge(e, imu, config).loc)
         for e in edges])


class TestWithinErrorSpan:
    def test_inclusive_boundary(self):
        origin = PixelPoint(0.0, 0.0)
        c = PixelPoint(math.cos(math.radians(9.0)),
                       math.sin(math.radians(9.0)))
        assert within_error_span(c, origin, 0.0, 9.0)
        off = PixelPoint(math.cos(math.radians(9.5)),
                         math.sin(math.radians(9.5)))
        assert not within_error_span(off, origin, 0.0, 9.0)

    def test_wraps_across_seam(self):
        origin = PixelPoint(0.0, 0.0)
        c = PixelPoint(-1.0, -0.01)  # just below 180 deg
        assert within_error_span(c, origin, 180.0, 9.0)

    def test_origin_coincident_is_in_span(self):
        p = PixelPoint(3.0, 3.0)
        assert within_error_span(p, p, 123.0, 9.0)
