"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (straight to the terminal, bypassing
capture) so the run log doubles as an acceptance report.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from geofilter import circle_expert as ce
from geofilter import square_expert as se
from geofilter.core import (Circle, FilterState, ImuSample, NormalEdge,
                            PixelPoint, RebelEdge, Square, default_config,
                            wrap_deg)
from geofilter.kinematics import angle_of, rotate_motion_field
from geofilter.pipeline import baseline_store, step
from geofilter.scene_synth import MoverSpec, SceneSpec, generate


@contextmanager
def report(capsys, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")


def test_1_rebel_detection_latency(capsys):
    with report(capsys, "1 rebel detection latency"):
        cfg = default_config()
        start_frame = 2
        t0 = time.perf_counter()
        for seed in range(50):
            rng = np.random.default_rng(seed)
            # static background confined to one angular sector; the mover
            # crosses the opposite quadrant against the outward field
            mover = MoverSpec(
                start=(float(rng.uniform(430, 520)),
                       float(rng.uniform(300, 340))),
                velocity=(float(rng.uniform(-30, -20)),
                          float(rng.uniform(25, 35))),
                start_frame=start_frame)
            spec = SceneSpec(n_points=40, frames=8, camera=cfg.camera,
                             depth_range=(200.0, 800.0),
                             lateral_range=(-250.0, -40.0), movers=(mover,))
            truth = generate(seed, spec)
            state = FilterState()
            first_rebel = None
            for k in range(8):
                state, rep = step(state, truth.edges(k), truth.imu[k], cfg,
                                  frame_index=k)
                if rep.e_r > 0 and first_rebel is None:
                    first_rebel = k
                    # the rebel tracks the mover, not a background point
                    mover_pos = PixelPoint(
                        mover.start[0] + (k - start_frame) * mover.velocity[0],
                        mover.start[1] + (k - start_frame) * mover.velocity[1])
                    assert min(r.loc.dist(mover_pos)
                               for r in state.rebel_edges) < 1.0
            assert first_rebel == start_frame + 2, \
                f"seed {seed}: rebel confirmed at frame {first_rebel}"
        assert time.perf_counter() - t0 < 1.0


def test_2_dimensionality_bound_37_frames(capsys):
    with report(capsys, "2 dimensionality bound (37-frame crowd)"):
        cfg = default_config()
        spec = SceneSpec(n_points=190, frames=37, camera=cfg.camera,
                         depth_range=(150.0, 1200.0),
                         lateral_range=(-350.0, 350.0))
        truth = generate(11, spec)
        counts = [len(truth.edges(k)) for k in range(37)]
        assert all(75 <= c <= 200 for c in counts)
        t0 = time.perf_counter()
        state = FilterState()
        totals = []
        for k in range(37):
            state, rep = step(state, truth.edges(k), truth.imu[k], cfg,
                              frame_index=k)
            totals.append(rep.total)
        elapsed = time.perf_counter() - t0
        last5 = baseline_store("last_k", counts, k=5)
        for k in range(11, 37):
            assert totals[k] <= 0.5 * last5[k], \
                f"frame {k}: {totals[k]} > half of {last5[k]}"
        avg = sum(totals) / len(totals)
        assert 50.0 <= avg <= 300.0, f"average total {avg}"
        assert elapsed < 10.0


def test_3_consistency_at_scale_200_frames(capsys):
    with report(capsys, "3 consistency at scale (200-frame scene)"):
        cfg = default_config()
        spec = SceneSpec(n_points=1100, frames=200, camera=cfg.camera,
                         depth_range=(150.0, 2000.0),
                         lateral_range=(-400.0, 400.0))
        truth = generate(1, spec)
        counts = [len(truth.edges(k)) for k in range(200)]
        mean_edges = sum(counts) / len(counts)
        assert 500 <= mean_edges <= 900  # ~700 edges per frame
        state = FilterState()
        totals = []
        for k in range(200):
            state, rep = step(state, truth.edges(k), truth.imu[k], cfg,
                              frame_index=k)
            totals.append(rep.total)
        last8 = baseline_store("last_k", counts, k=8)
        warmup = 8
        for k in range(warmup, 200):
            assert totals[k] < last8[k], \
                f"frame {k}: {totals[k]} >= {last8[k]}"


def test_4_estimator_property_suite(capsys):
    with report(capsys, "4 estimator property suite"):
        rng = np.random.default_rng(42)
        tr_c = 2
        for _ in range(10_000):
            prior = float(rng.uniform(-1e3, 1e3))
            meas = float(rng.uniform(-1e3, 1e3))
            trust = int(rng.integers(tr_c, 10))
            out = ce.estimate_trusted(prior, meas, trust, tr_c)
            lo, hi = min(prior, meas), max(prior, meas)
            assert lo - 1e-9 <= out <= hi + 1e-9
            # repeated measurements contract toward the measurement
            assert abs(out - meas) <= abs(prior - meas) + 1e-9
        # degenerate rank: the estimate is exactly the measurement
        assert ce.estimate_trusted(123.456, -7.0, trust=tr_c, tr_c=tr_c) \
            == -7.0
        p = ce.estimate_trusted(PixelPoint(1.0, 2.0), PixelPoint(-3.0, 4.0),
                                trust=tr_c, tr_c=tr_c)
        assert p == PixelPoint(-3.0, 4.0)


def test_5_geometry_oracles(capsys):
    with report(capsys, "5 geometry oracles"):
        rng = np.random.default_rng(7)

        # tangent-point residuals on random ellipses
        checked = 0
        while checked < 1000:
            rx, ry = rng.uniform(5.0, 80.0, 2)
            ox, oy = rng.uniform(-300.0, 300.0, 2)
            if (ox / rx) ** 2 + (oy / ry) ** 2 <= 1.2:
                continue
            sq = Square(loc=PixelPoint(0.0, 0.0), radii=(rx, ry), vel=0.0,
                        beta=0.0, origin=PixelPoint(float(ox), float(oy)),
                        trust=5)
            p = se.ellipse_tangent_point(sq)
            on = ((p.x / rx) ** 2 + (p.y / ry) ** 2) - 1.0
            gx, gy = p.x / (rx * rx), p.y / (ry * ry)
            vx, vy = ox - p.x, oy - p.y
            resid = abs(on) + abs(gx * vx + gy * vy) / (
                math.hypot(gx, gy) * math.hypot(vx, vy))
            assert resid < 1e-9
            checked += 1

        # analytic circle tangent
        sq = Square(loc=PixelPoint(0.0, 0.0), radii=(1.0, 1.0), vel=0.0,
                    beta=0.0, origin=PixelPoint(2.0, 0.0), trust=5)
        p = se.ellipse_tangent_point(sq)
        assert abs(p.x - 0.5) < 1e-9 and abs(p.y - math.sqrt(3) / 2) < 1e-9

        # rectangle overlap vs grid rasterization
        def raster(a, b, n=256):
            small, big = ((a, b) if a.radii[0] * a.radii[1]
                          <= b.radii[0] * b.radii[1] else (b, a))
            xs = (np.linspace(small.loc.x - small.radii[0],
                              small.loc.x + small.radii[0], n, endpoint=False)
                  + small.radii[0] / n)
            ys = (np.linspace(small.loc.y - small.radii[1],
                              small.loc.y + small.radii[1], n, endpoint=False)
                  + small.radii[1] / n)
            gx, gy = np.meshgrid(xs, ys)
            inside = ((np.abs(gx - big.loc.x) <= big.radii[0])
                      & (np.abs(gy - big.loc.y) <= big.radii[1]))
            return 100.0 * inside.mean()

        for _ in range(1000):
            ar = rng.uniform(2.0, 40.0, 2)
            br = rng.uniform(2.0, 40.0, 2)
            d = rng.uniform(-30.0, 30.0, 2)
            a = Square(loc=PixelPoint(0.0, 0.0), radii=(ar[0], ar[1]), vel=0.0,
                       beta=0.0, origin=PixelPoint(500.0, 0.0), trust=5)
            b = Square(loc=PixelPoint(float(d[0]), float(d[1])),
                       radii=(br[0], br[1]), vel=0.0, beta=0.0,
                       origin=PixelPoint(500.0, 0.0), trust=5)
            assert abs(se.square_overlap_rho(a, b) - raster(a, b)) <= 1.0

        # couple interior angle vs the cosine rule
        for _ in range(1000):
            pts = rng.uniform(-100.0, 100.0, 6)
            a, b, c = (PixelPoint(float(pts[0]), float(pts[1])),
                       PixelPoint(float(pts[2]), float(pts[3])),
                       PixelPoint(float(pts[4]), float(pts[5])))
            d_ab, d_ac, d_bc = a.dist(b), a.dist(c), b.dist(c)
            if d_ab < 1e-6 or d_ac < 1e-6:
                continue
            cos_m = (d_ab ** 2 + d_ac ** 2 - d_bc ** 2) / (2 * d_ab * d_ac)
            oracle = math.degrees(math.acos(max(-1.0, min(1.0, cos_m))))
            assert abs(se.couple_interior_angle(a, b, c) - oracle) < 1e-9


def test_6_brute_force_equivalence(capsys):
    with report(capsys, "6 brute-force grouping equivalence"):
        cfg = default_config()
        imu = ImuSample(v_v=2.0, a_v=0.0, omega=(0.0, 0.0, 0.0), t_f=1.0)
        rng = np.random.default_rng(13)
        for _frame in range(100):
            n = int(rng.integers(2, 201))
            pts = rng.uniform(0.0, 640.0, (n, 2))
            vels = rng.uniform(0.1, 8.0, n)
            edges = [NormalEdge(loc=PixelPoint(float(x), float(y)),
                                vel=float(v),
                                beta=angle_of(PixelPoint(float(x), float(y)),
                                              cfg.camera.principal),
                                mu=25.0, trust=3)
                     for (x, y), v in zip(pts, vels)]
            si = int(rng.integers(0, n))
            seed = edges[si]
            got = np.flatnonzero(ce.circle_members(
                np.array([e.beta for e in edges]),
                np.abs([e.vel for e in edges]), si, cfg.eps_beta_n,
                cfg.eps_v_n * imu.v_v)).tolist()
            expect = [i for i, e in enumerate(edges) if e is seed or (
                abs(wrap_deg(e.beta - seed.beta)) < cfg.eps_beta_n
                and abs(seed.vel) <= abs(e.vel) + cfg.eps_v_n * imu.v_v)]
            assert got == expect

            rebels = [RebelEdge(loc=e.loc, vel=e.vel, beta=e.beta,
                                mu=float(rng.uniform(-30, 30)),
                                origin=PixelPoint(float(rng.uniform(0, 640)),
                                                  float(rng.uniform(0, 480))),
                                trust=4) for e in edges[:50]]
            rsi = int(rng.integers(0, len(rebels)))
            rseed = rebels[rsi]
            rgot = np.flatnonzero(ce.circle_members(
                wrap_deg(np.array([e.beta + e.mu for e in rebels])),
                np.abs([e.vel for e in rebels]), rsi, cfg.eps_beta_r,
                cfg.eps_v_r * imu.v_v)).tolist()
            sa = wrap_deg(rseed.beta + rseed.mu)
            rexpect = [i for i, e in enumerate(rebels) if e is rseed or (
                abs(wrap_deg(wrap_deg(e.beta + e.mu) - sa)) < cfg.eps_beta_r
                and abs(rseed.vel) <= abs(e.vel) + cfg.eps_v_r * imu.v_v)]
            assert rgot == rexpect

            # square couple / minor-circle conditions on all circle pairs
            circles = [Circle(kind="normal", loc=e.loc, radius=25.0, vel=e.vel,
                              beta=e.beta, trust=3, members=[],
                              origin=cfg.camera.principal)
                       for e in edges[:40]]
            d_t = math.hypot(cfg.camera.width, cfg.camera.height)
            for a in circles[:10]:
                for b in circles:
                    got_match = se.match_couple_case1(a, b, d_t, cfg)
                    angle_ok = any(
                        abs(wrap_deg(a.beta - (b.beta + off))) <= cfg.eps_beta
                        for off in (cfg.delta_beta_1, -cfg.delta_beta_1))
                    expect_match = (abs(a.vel - b.vel) <= cfg.eps_v
                                    and a.loc.dist(b.loc) < d_t and angle_ok)
                    assert got_match == expect_match

            sq = Square(loc=PixelPoint(320.0, 240.0), radii=(150.0, 120.0),
                        vel=2.0, beta=0.0, origin=cfg.camera.principal,
                        trust=5)
            for c in circles:
                got_inc = se.include_minor_circle(sq, c, cfg)
                expect_inc = (abs(c.vel - sq.vel) <= cfg.eps_v
                              and abs(wrap_deg(c.beta - sq.beta))
                              <= cfg.eps_beta
                              and abs(c.loc.x - sq.loc.x) <= sq.radii[0]
                              and abs(c.loc.y - sq.loc.y) <= sq.radii[1])
                assert got_inc == expect_inc


def test_7_complexity_scaling(capsys):
    with report(capsys, "7 sub-quadratic comparison scaling"):
        cfg = default_config()
        rng = np.random.default_rng(21)
        imu = ImuSample(v_v=2.0, a_v=0.0, omega=(0.0, 0.0, 0.0), t_f=1.0)
        averages = []
        for n in (400, 800, 1600):
            state = FilterState()
            comps = []
            for k in range(6):
                pts = rng.uniform(0.0, (640.0, 480.0), (n, 2))
                frame = [PixelPoint(float(x), float(y)) for x, y in pts]
                state, rep = step(state, frame, imu, cfg, frame_index=k)
                comps.append(rep.comparisons)
            averages.append(sum(comps[2:]) / len(comps[2:]))
        for prev, cur in zip(averages, averages[1:]):
            assert cur / prev <= 2.4, f"scaling ratio {cur / prev:.2f}"


def test_8_determinism_byte_identical(capsys, tmp_path):
    with report(capsys, "8 byte-identical determinism"):
        from geofilter import cli
        data = tmp_path / "data"
        assert cli.main(["synth", "--out", str(data), "--seed", "9",
                         "--points", "120", "--n-frames", "15",
                         "--movers", "[[480, 320, -12, 9, 3]]"]) == 0
        outs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            assert cli.main(["run", "--frames", str(data / "frames.jsonl"),
                             "--imu", str(data / "imu.jsonl"),
                             "--config", str(data / "config.txt"),
                             "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "state.jsonl").read_bytes() \
            == (outs[1] / "state.jsonl").read_bytes()
        assert (outs[0] / "metrics.csv").read_bytes() \
            == (outs[1] / "metrics.csv").read_bytes()


def test_9_kinematics_identities(capsys):
    with report(capsys, "9 kinematics identities"):
        cfg = default_config()
        cam = cfg.camera
        # rotational flow is the identity at zero angular rate
        for x in (-200.0, -13.5, 0.0, 99.0):
            for y in (-150.0, 0.0, 42.0, 180.0):
                out = rotate_motion_field(PixelPoint(x, y), cam,
                                          (0.0, 0.0, 0.0))
                assert out == PixelPoint(x + cam.principal.x,
                                         y + cam.principal.y)
        # a square at rest does not move
        imu0 = ImuSample(v_v=0.0, a_v=0.0, omega=(0.0, 0.0, 0.0), t_f=1.0)
        sq = Square(loc=PixelPoint(420.0, 300.0), radii=(40.0, 30.0), vel=0.0,
                    beta=0.0, origin=cam.principal, trust=5)
        assert se.predict_square(sq, imu0, cfg) == sq
        # a scene point on the optical axis projects to the frame origin
        truth = generate(0, SceneSpec(n_points=1, frames=20, camera=cam,
                                      lateral_range=(0.0, 1e-12),
                                      depth_range=(800.0, 800.00001),
                                      v_v=5.0))
        for k in range(20):
            p = truth.edges(k)[0]
            assert abs(p.x - cam.principal.x) < 1e-6
            assert abs(p.y - cam.principal.y) < 1e-6
