import pytest

from geofilter.core import CameraModel, PixelPoint
from geofilter.scene_synth import MoverSpec, SceneSpec, generate

CAM = CameraModel(f=500.0, principal=PixelPoint(320.0, 240.0))


def _spec(**kw):
    base = dict(n_points=40, frames=10, camera=CAM)
    base.update(kw)
    return SceneSpec(**base)


class TestSpecValidation:
    def test_rejects_zero_frames(self):
        with pytest.raises(ValueError):
            _spec(frames=0)

    def test_rejects_bad_depth_range(self):
        with pytest.raises(ValueError):
            _spec(depth_range=(0.0, 100.0))
        with pytest.raises(ValueError):
            _spec(depth_range=(200.0, 100.0))


class TestGenerate:
    def test_reproducible(self):
        a = generate(7, _spec())
        b = generate(7, _spec())
        assert a.frames == b.frames
        assert a.imu == b.imu

    def test_seed_changes_scene(self):
        assert generate(0, _spec()).frames != generate(1, _spec()).frames

    def test_detections_inside_frame(self):
        truth = generate(3, _spec(n_points=200))
        for k in range(10):
            for p in truth.edges(k):
                assert 0.0 <= p.x <= CAM.width
                assert 0.0 <= p.y <= CAM.height

    def test_imu_reports_configured_motion(self):
        truth = generate(0, _spec(v_v=3.5, t_f=0.5))
        assert all(s.v_v == 3.5 and s.t_f == 0.5 for s in truth.imu)
        assert all(s.omega == (0.0, 0.0, 0.0) for s in truth.imu)

    def test_noisy_omega_is_plain_floats(self):
        # what `run` gets from `formats.parse_imu`
        truth = generate(0, _spec(omega_noise=0.002))
        assert all(type(w) is float and w != 0.0
                   for s in truth.imu for w in s.omega)

    def test_static_points_flow_outward(self):
        truth = generate(9, _spec(n_points=120, frames=6, v_v=4.0))
        # track object ids across consecutive frames: radial distance from the
        # principal point must not decrease for static scene points
        for k in range(5):
            prev = {oid: p for p, lab, oid in truth.frames[k] if lab == "normal"}
            for p, lab, oid in truth.frames[k + 1]:
                if lab != "normal" or oid not in prev:
                    continue
                r0 = prev[oid].dist(CAM.principal)
                r1 = p.dist(CAM.principal)
                assert r1 >= r0 - 1e-9

    def test_on_axis_point_is_fixed(self):
        # a 3D point on the optical axis projects to the principal point in
        # every frame regardless of forward motion
        truth = generate(0, _spec(n_points=1, frames=5,
                                  lateral_range=(0.0, 1e-12),
                                  depth_range=(500.0, 500.00001)))
        for k in range(5):
            assert len(truth.frames[k]) == 1
            p = truth.edges(k)[0]
            assert p.x == pytest.approx(320.0, abs=1e-6)
            assert p.y == pytest.approx(240.0, abs=1e-6)

    def test_mover_trajectory_and_labels(self):
        mover = MoverSpec(start=(100.0, 100.0), velocity=(10.0, 5.0),
                          start_frame=2, end_frame=5)
        truth = generate(1, _spec(movers=(mover,)))
        for k in range(10):
            rebels = [(p, oid) for p, lab, oid in truth.frames[k]
                      if lab == "rebel"]
            if 2 <= k < 5:
                assert len(rebels) == 1
                p, oid = rebels[0]
                t = k - 2
                assert p == PixelPoint(100.0 + 10.0 * t, 100.0 + 5.0 * t)
                assert oid == 40  # ids continue after the static points
            else:
                assert rebels == []

    def test_mover_clipped_when_offscreen(self):
        mover = MoverSpec(start=(630.0, 100.0), velocity=(20.0, 0.0))
        truth = generate(1, _spec(movers=(mover,)))
        assert "rebel" in truth.labels(0)
        assert "rebel" not in truth.labels(2)

    def test_noise_perturbs_detections(self):
        clean = generate(4, _spec(noise_sigma=0.0))
        noisy = generate(4, _spec(noise_sigma=0.5))
        assert clean.frames != noisy.frames

    def test_points_behind_camera_dropped(self):
        spec = _spec(n_points=50, frames=30, v_v=30.0,
                     depth_range=(50.0, 200.0))
        truth = generate(2, spec)
        # by frame 29 the camera has advanced 870 cm, past every point
        assert truth.frames[-1] == []
