import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geofilter.core import (FilterState, IgnoranceRegion, ImuSample,
                            PixelPoint, default_config, wrap_deg)
from geofilter.pipeline import (SequencingError, _angle_neighbors,
                                baseline_store, dimensionality, step)
from geofilter.scene_synth import SceneSpec, generate


class TestBaselineStore:
    def test_accumulative(self):
        assert baseline_store("accumulative", [3, 5, 2]) == [3, 8, 10]

    def test_last_k(self):
        assert baseline_store("last_k", [3, 5, 2, 4], k=2) == [3, 8, 7, 6]

    def test_rejects_bad_mode_and_k(self):
        with pytest.raises(ValueError):
            baseline_store("nope", [1])
        with pytest.raises(ValueError):
            baseline_store("last_k", [1], k=0)


class TestAngleNeighbors:
    @given(st.lists(st.floats(min_value=-179.9, max_value=180.0), min_size=1,
                    max_size=40, unique=True),
           st.floats(min_value=-180.0, max_value=180.0))
    @settings(max_examples=100)
    def test_contains_the_circularly_nearest(self, betas, obs):
        betas = sorted(betas)
        rows, picked = _angle_neighbors(np.array(betas), np.array([obs]))
        assert rows.tolist() == [0] * len(picked)
        picked = picked.tolist()
        assert len(picked) >= min(8, len(betas))
        nearest = min(range(len(betas)),
                      key=lambda i: abs(wrap_deg(betas[i] - obs)))
        assert nearest in picked


def _scene(seed=0, frames=8, n_points=50):
    cfg = default_config()
    return cfg, generate(seed, SceneSpec(n_points=n_points, frames=frames,
                                         camera=cfg.camera))


def _run(cfg, truth):
    st_ = FilterState()
    out = []
    for k in range(len(truth.frames)):
        st_, rep = step(st_, truth.edges(k), truth.imu[k], cfg, frame_index=k)
        out.append((st_, rep))
    return out


class TestStep:
    def test_rejects_out_of_order_frames(self):
        cfg, truth = _scene(frames=2)
        st_ = FilterState()
        st_, _ = step(st_, truth.edges(0), truth.imu[0], cfg, frame_index=3)
        with pytest.raises(SequencingError):
            step(st_, truth.edges(1), truth.imu[1], cfg, frame_index=3)

    def test_frame_index_defaults_to_next(self):
        cfg, truth = _scene(frames=2)
        st_ = FilterState()
        st_, _ = step(st_, truth.edges(0), truth.imu[0], cfg)
        assert st_.frame_index == 0
        st_, _ = step(st_, truth.edges(1), truth.imu[1], cfg)
        assert st_.frame_index == 1

    def test_deterministic_replay(self):
        cfg, truth = _scene(seed=5)
        a = _run(cfg, truth)
        b = _run(cfg, truth)
        assert [s for s, _ in a] == [s for s, _ in b]
        assert [r for _, r in a] == [r for _, r in b]

    def test_does_not_mutate_input_state(self):
        cfg, truth = _scene(frames=3)
        st_ = FilterState()
        st_, _ = step(st_, truth.edges(0), truth.imu[0], cfg, frame_index=0)
        snapshot = copy.deepcopy(st_)
        step(st_, truth.edges(1), truth.imu[1], cfg, frame_index=1)
        assert st_ == snapshot

    def test_trust_values_stay_in_ladders(self):
        cfg, truth = _scene(seed=2, frames=12, n_points=80)
        for st_, _rep in _run(cfg, truth):
            for e in st_.normal_edges + st_.rebel_edges:
                assert cfg.circle_trust.tr_c <= e.trust <= cfg.circle_trust.tr_m
            for c in st_.normal_circles + st_.rebel_circles:
                assert cfg.circle_trust.tr_c <= c.trust <= cfg.circle_trust.tr_m
            for s in st_.squares:
                assert cfg.square_trust.tr_c <= s.trust <= cfg.square_trust.tr_m

    def test_report_matches_state(self):
        cfg, truth = _scene(seed=3)
        for st_, rep in _run(cfg, truth):
            d = dimensionality(st_)
            assert (d.chi, d.e_n, d.e_r, d.c_n, d.c_r, d.s, d.psi, d.alpha) \
                == (rep.chi, rep.e_n, rep.e_r, rep.c_n, rep.c_r, rep.s,
                    rep.psi, rep.alpha)
            assert rep.total == sum((rep.chi, rep.e_n, rep.e_r, rep.c_n,
                                     rep.c_r, rep.s, rep.psi, rep.alpha))

    def test_first_frame_seeds_edges_from_every_cluster(self):
        cfg, truth = _scene(seed=1, frames=1)
        st_, rep = step(FilterState(), truth.edges(0), truth.imu[0], cfg,
                        frame_index=0)
        assert rep.e_n == rep.chi > 0
        assert rep.e_r == 0 and rep.alpha == 0

    def test_detections_outside_the_image_are_kept(self):
        # no input check bounds detections by the image: points far outside
        # it are grouped, born as edges and stepped like any other
        cfg, truth = _scene(seed=1, frames=4)
        outside = [PixelPoint(-50.0, 900.0), PixelPoint(1e6, -1e6)]
        st_, rep = step(FilterState(), truth.edges(0) + outside, truth.imu[0],
                        cfg, frame_index=0)
        assert [(p, 1) for p in outside] == [c for c in st_.chi
                                            if c[0] in outside]
        assert all(p in [e.loc for e in st_.normal_edges] for p in outside)
        assert rep.edges == len(truth.edges(0)) + 2
        for k in range(1, 4):
            st_, _ = step(st_, truth.edges(k) + outside, truth.imu[k], cfg,
                          frame_index=k)

    def test_alignment_rows_never_exceed_two_entries(self):
        cfg, truth = _scene(seed=4, frames=10, n_points=60)
        for st_, _ in _run(cfg, truth):
            for row in st_.alpha:
                assert 1 <= len(row) <= 2


class TestIgnoranceLifecycle:
    def test_region_expires_after_lifetime(self):
        cfg, truth = _scene(frames=3, n_points=30)
        seeded = FilterState(
            frame_index=-1,
            psi=[IgnoranceRegion(loc=PixelPoint(320.0, 240.0), extent=(50.0,),
                                 ty=1, remaining_frames=cfg.psi_lifetime)])
        st_, _ = step(seeded, truth.edges(0), truth.imu[0], cfg, frame_index=0)
        # lifetime 1: still applied during this frame, dropped on the next
        def carried(s):
            return [r for r in s.psi if r.loc == PixelPoint(320.0, 240.0)]
        assert [r.remaining_frames for r in carried(st_)] == [0]
        st_, _ = step(st_, truth.edges(1), truth.imu[1], cfg, frame_index=1)
        assert carried(st_) == []

    def test_region_suppresses_edges_while_active(self):
        cfg = default_config()
        imu = ImuSample(v_v=2.0, a_v=0.0, omega=(0.0, 0.0, 0.0), t_f=1.0)
        seeded = FilterState(
            frame_index=-1,
            psi=[IgnoranceRegion(loc=PixelPoint(100.0, 100.0), extent=(30.0,),
                                 ty=1, remaining_frames=1)])
        frame = [PixelPoint(100.0, 100.0), PixelPoint(105.0, 100.0),
                 PixelPoint(500.0, 400.0)]
        st_, rep = step(seeded, frame, imu, cfg, frame_index=0)
        assert rep.chi == 1  # the two covered edges were suppressed
        assert st_.chi[0][0] == PixelPoint(500.0, 400.0)

    def test_saturated_circle_emits_region(self):
        # replay the same static cluster until its circle reaches maximum trust
        cfg = default_config()
        imu = ImuSample(v_v=0.0, a_v=0.0, omega=(0.0, 0.0, 0.0), t_f=1.0)
        frame = [PixelPoint(420.0, 240.0), PixelPoint(425.0, 243.0)]
        st_ = FilterState()
        saw_region = False
        for k in range(10):
            st_, rep = step(st_, frame, imu, cfg, frame_index=k)
            if any(r.ty == 1 for r in st_.psi):
                saw_region = True
                break
        assert saw_region
