import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geofilter.core import (CameraModel, FilterConfig, IgnoranceRegion,
                            ImuSample, PixelPoint, TrustLadder,
                            config_from_text, config_to_text, default_config,
                            trust_commit, trust_init, wrap_deg)


class TestWrapDeg:
    def test_identity_in_range(self):
        assert wrap_deg(0.0) == 0.0
        assert wrap_deg(90.0) == 90.0
        assert wrap_deg(-90.0) == -90.0

    def test_boundaries(self):
        # 180 stays, -180 maps to the positive representative
        assert wrap_deg(180.0) == 180.0
        assert wrap_deg(-180.0) == 180.0

    def test_wraparound(self):
        assert wrap_deg(270.0) == -90.0
        assert wrap_deg(-270.0) == 90.0
        assert wrap_deg(720.0) == 0.0
        assert wrap_deg(361.0) == pytest.approx(1.0)

    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_range_and_congruence(self, a):
        w = wrap_deg(a)
        assert -180.0 < w <= 180.0
        assert math.isclose(math.cos(math.radians(w)),
                            math.cos(math.radians(a)), abs_tol=1e-6)
        assert math.isclose(math.sin(math.radians(w)),
                            math.sin(math.radians(a)), abs_tol=1e-6)


class TestPixelPoint:
    def test_arithmetic(self):
        a, b = PixelPoint(3.0, 4.0), PixelPoint(1.0, 2.0)
        assert a + b == PixelPoint(4.0, 6.0)
        assert a - b == PixelPoint(2.0, 2.0)
        assert a.scaled(2.0) == PixelPoint(6.0, 8.0)

    def test_norm_and_dist(self):
        assert PixelPoint(3.0, 4.0).norm() == 5.0
        assert PixelPoint(0.0, 0.0).dist(PixelPoint(3.0, 4.0)) == 5.0


class TestTrustLadder:
    def test_valid(self):
        TrustLadder(2, 3, 5)
        TrustLadder(3, 5, 7)

    @pytest.mark.parametrize("bad", [(3, 3, 5), (5, 3, 2), (-1, 3, 5),
                                     (2, 5, 5)])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            TrustLadder(*bad)


class TestTrustLifecycle:
    def test_init_values(self):
        circle = TrustLadder(2, 3, 5)
        square = TrustLadder(3, 5, 7)
        # midpoint of (critical, standard) rounded half-up
        assert trust_init("normal_edge", circle) == 3
        assert trust_init("normal_circle", circle) == 3
        assert trust_init("square", square) == 5
        assert trust_init("rebel", circle) == 4

    def test_rebel_init_caps_at_maximum(self):
        assert trust_init("rebel", TrustLadder(2, 4, 5)) == 5

    def test_init_unknown_class(self):
        with pytest.raises(ValueError):
            trust_init("nope", TrustLadder(2, 3, 5))

    def test_commit_prune_and_cap(self):
        ladder = TrustLadder(2, 3, 5)
        assert trust_commit(3, 1, ladder) == 4
        assert trust_commit(5, 1, ladder) == 5  # capped
        assert trust_commit(3, -1, ladder) == 2
        assert trust_commit(2, -1, ladder) is None  # pruned below critical

    @given(st.integers(min_value=2, max_value=5),
           st.sampled_from([-1, 1]))
    def test_commit_stays_in_ladder(self, trust, delta):
        ladder = TrustLadder(2, 3, 5)
        out = trust_commit(trust, delta, ladder)
        assert out is None or ladder.tr_c <= out <= ladder.tr_m


class TestCameraModel:
    def test_rejects_bad_focal(self):
        with pytest.raises(ValueError):
            CameraModel(f=0.0, principal=PixelPoint(320.0, 240.0))

    def test_rejects_offframe_principal(self):
        with pytest.raises(ValueError):
            CameraModel(f=500.0, principal=PixelPoint(700.0, 240.0))

    @pytest.mark.parametrize("kw", [{"f": math.nan}, {"f": math.inf},
                                    {"width": math.inf},
                                    {"height": math.nan}])
    def test_rejects_non_finite(self, kw):
        args = {"f": 500.0, "principal": PixelPoint(320.0, 240.0), **kw}
        with pytest.raises(ValueError, match="finite"):
            CameraModel(**args)


class TestImuSample:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ImuSample(v_v=1.0, a_v=0.0, omega=(0, 0, 0), t_f=0.0)

    @pytest.mark.parametrize("kw", [{"v_v": math.nan}, {"a_v": math.inf},
                                    {"omega": (0.0, -math.inf, 0.0)},
                                    {"t_f": math.inf}])
    def test_rejects_non_finite(self, kw):
        args = {"v_v": 1.0, "a_v": 0.0, "omega": (0.0, 0.0, 0.0), **kw}
        with pytest.raises(ValueError, match="finite"):
            ImuSample(**args)


class TestIgnoranceRegion:
    def test_circular_contains_inclusive(self):
        r = IgnoranceRegion(loc=PixelPoint(0.0, 0.0), extent=(5.0,), ty=1,
                            remaining_frames=1)
        assert r.contains(PixelPoint(3.0, 4.0))  # on the boundary
        assert not r.contains(PixelPoint(3.1, 4.0))

    def test_rectangular_contains_inclusive(self):
        r = IgnoranceRegion(loc=PixelPoint(10.0, 10.0), extent=(2.0, 3.0),
                            ty=2, remaining_frames=1)
        assert r.contains(PixelPoint(12.0, 13.0))
        assert not r.contains(PixelPoint(12.1, 10.0))

    def test_rejects_bad_type(self):
        with pytest.raises(ValueError):
            IgnoranceRegion(loc=PixelPoint(0, 0), extent=(1.0,), ty=3,
                            remaining_frames=1)


class TestConfig:
    def test_defaults(self):
        c = default_config()
        assert c.camera.principal == PixelPoint(320.0, 240.0)
        assert c.camera.f == 500.0
        assert (c.circle_trust.tr_c, c.circle_trust.tr_s,
                c.circle_trust.tr_m) == (2, 3, 5)
        assert (c.square_trust.tr_c, c.square_trust.tr_s,
                c.square_trust.tr_m) == (3, 5, 7)
        assert c.delta_v == 9.0
        assert c.delta_beta_1 == 90.0
        assert c.mu_0 == 25.0
        assert c.rho_c == 40.0
        assert c.eps_beta_n == 20.0
        assert c.eps_beta_r == 50.0
        assert c.eps_v_n == 40.0
        assert c.eps_v_r == 100.0
        assert c.eps_v == 0.7
        assert c.eps_v_s == 0.7

    def test_round_trip(self):
        c = default_config()
        assert config_from_text(config_to_text(c)) == c

    def test_round_trip_non_default(self):
        text = config_to_text(default_config()).replace(
            "mu_0=25", "mu_0=30").replace("use_verbatim_eq1=0",
                                          "use_verbatim_eq1=1")
        c = config_from_text(text)
        assert c.mu_0 == 30.0
        assert c.use_verbatim_eq1 is True
        assert config_from_text(config_to_text(c)) == c

    def test_round_trip_keeps_every_digit(self):
        c = config_from_text("f=523.4567891\neps_v=0.123456789\n")
        assert c.camera.f == 523.4567891
        assert config_from_text(config_to_text(c)) == c

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="line 2: unknown key 'mu_O'"):
            config_from_text("mu_0=25\nmu_O=12\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            config_from_text("psi_lifetime=often")

    @pytest.mark.parametrize("text,line", [("mu_0=nan", 1),
                                           ("mu_0=25\neps_v=inf", 2),
                                           ("f=-inf", 1), ("tr_c_m=nan", 1)])
    def test_non_finite_value_reports_line(self, text, line):
        with pytest.raises(ValueError, match=f"line {line}: bad value"):
            config_from_text(text)

    @pytest.mark.parametrize("mu_0", [1e200, 1.4e154, -1e200])
    def test_rejects_mu_0_whose_square_overflows(self, mu_0):
        with pytest.raises(ValueError, match="mu_0"):
            FilterConfig(camera=default_config().camera, mu_0=mu_0)
        with pytest.raises(ValueError, match="mu_0"):
            config_from_text(f"mu_0={mu_0!r}")
        assert config_from_text("mu_0=1.3e154").mu_0 == 1.3e154

    @pytest.mark.parametrize("text,message", [
        ("mu_0=25\nrho_c=0.0", "line 2: rho_c must be in (0, 100]"),
        ("# c\n\nmu_0=1e200", "line 3: mu_0 must have a finite square"),
        ("psi_lifetime=0", "line 1: psi_lifetime must be >= 1"),
        ("eps_v=0.5\ndelta_v=-1", "line 2: delta_v must be non-negative"),
        ("f=-5", "line 1: focal length must be positive"),
        ("width=100", "line 1: principal point outside the frame"),
        ("o_i_y=-1\nmu_0=3\no_i_x=3",
         "lines 1, 3: principal point outside the frame"),
        ("tr_c_c=4", "line 1: trust ladder must satisfy"),
        ("tr_s_s=2\nf=400\ntr_s_c=3", "lines 1, 3: trust ladder must satisfy"),
    ])
    def test_rejected_value_names_its_line(self, text, message):
        with pytest.raises(ValueError) as info:
            config_from_text(text)
        assert str(info.value).startswith(message)

    def test_comments_and_blanks_ignored(self):
        c = config_from_text("# comment\n\nmu_0=12\n")
        assert c.mu_0 == 12.0

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1"):
            config_from_text("what")

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(camera=default_config().camera, rho_c=0.0)
        with pytest.raises(ValueError):
            FilterConfig(camera=default_config().camera, psi_lifetime=0)
        with pytest.raises(ValueError):
            FilterConfig(camera=default_config().camera, delta_v=-1.0)
        for name in ("mu_0", "rho_c", "eps_v", "px_per_cm"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="finite"):
                    FilterConfig(camera=default_config().camera,
                                 **{name: bad})
