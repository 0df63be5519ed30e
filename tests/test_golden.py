"""Golden outputs: the per-frame state and dimensionality report of five
fixed scenes, pinned by hash.

A refactor that claims unchanged behaviour must keep these hashes. Each digest
covers every frame's `state_to_dict` (serialised as `state.jsonl` writes it)
and the report's `(total, comparisons)`.
"""

import hashlib
import json

import pytest

from geofilter.core import FilterState, ImuSample, PixelPoint, default_config
from geofilter.formats import state_to_dict
from geofilter.pipeline import step
from geofilter.scene_synth import MoverSpec, SceneSpec, generate

CFG = default_config()

SCENES = {
    # a small dynamic scene: two movers against the outward field
    "movers": (9, SceneSpec(
        n_points=120, frames=15, camera=CFG.camera,
        movers=(MoverSpec(start=(480.0, 320.0), velocity=(-12.0, 9.0),
                          start_frame=3),
                MoverSpec(start=(150.0, 120.0), velocity=(14.0, -6.0),
                          start_frame=5))), ()),
    # a static scene with frames 3-4 dropped: rows of the alignment matrix
    # chain across the gap and confirm rebel edges and circles
    "dropped": (3, SceneSpec(
        n_points=150, frames=10, camera=CFG.camera,
        depth_range=(200.0, 1200.0)), (3, 4)),
    # short frame interval, angular-rate noise, acceleration and pixel noise
    "noisy": (1, SceneSpec(
        n_points=400, frames=20, camera=CFG.camera, t_f=0.1,
        omega_noise=0.002, a_v=0.3, noise_sigma=1.0,
        movers=(MoverSpec(start=(500.0, 360.0), velocity=(-15.0, 8.0),
                          start_frame=2),
                MoverSpec(start=(100.0, 400.0), velocity=(10.0, -12.0),
                          start_frame=4))), ()),
    # the benchmark's dense static scene: 1,100 points, pixel noise and
    # angular-rate noise; the square stage builds several squares per frame
    "crowd": (2, SceneSpec(
        n_points=1100, frames=15, camera=CFG.camera,
        depth_range=(150.0, 2000.0), lateral_range=(-400.0, 400.0),
        noise_sigma=1.0, omega_noise=0.002), ()),
}


def sparse_frames():
    """A hand-made scene for the corner cases of the edge stage: fewer than
    eight predicted normal edges in the first frames, a detection on the
    principal point every frame (so a predicted edge sits there too), three
    edges on the ray beta = 0 (tied betas, and an observation whose angle
    ties them), a point that leaves the outward field, and a mover that is
    confirmed as a rebel edge. Frame 6 rotates the camera. Returns the edges
    and the IMU sample of each frame. Its hash was pinned while the edge
    stage still ran one edge and one pair at a time."""
    ox, oy = CFG.camera.principal
    frames = []
    for k in range(14):
        step_px = 10.0 * k
        edges = [PixelPoint(ox, oy),
                 PixelPoint(ox + 100.0 + step_px, oy),
                 PixelPoint(ox + 200.0 + step_px, oy),
                 PixelPoint(ox, oy + 100.0 + step_px),
                 PixelPoint(ox - 150.0 - 0.6 * step_px, oy - 80.0 - 0.8 * step_px),
                 PixelPoint(150.0 + 15.0 * k, 100.0 + 5.0 * k)]
        if k % 3 == 2:
            edges.append(PixelPoint(ox + 112.0 + step_px, oy + 20.0))
        omega = (0.001, -0.002, 0.0005) if k == 6 else (0.0, 0.0, 0.0)
        frames.append((edges, ImuSample(v_v=2.0, a_v=0.0, omega=omega)))
    return frames


GOLDEN = {
    "crowd":
        "6ebdc770002de6dc9ec314a91fa65195eb06cdfe2f96cdb42c6bfd3caab083f4",
    "movers":
        "4c135a3584d20339f60ac203711df174332b2258b7ec55ed517c7bae04a886d1",
    "dropped":
        "e57906ae2369e8a50517cfc067a14c099d317f15d30dc652962a1188e043e87e",
    "noisy":
        "4dda47a78f0b0373bebc986c1b2259a53e2a105f89d901d6d8a74e2c574b4cd4",
    "sparse":
        "73362c6d50d726e73357026ad66cd61a89bae0fd1fcaa8701d4a77e6c4106f88",
}


def scene_frames(name):
    """The edges and IMU sample of each frame of a scene."""
    if name == "sparse":
        return sparse_frames()
    seed, spec, blanked = SCENES[name]
    truth = generate(seed, spec)
    return [([] if k in blanked else truth.edges(k), truth.imu[k])
            for k in range(spec.frames)]


def scene_digest(name):
    digest = hashlib.sha256()
    state = FilterState()
    for k, (edges, imu) in enumerate(scene_frames(name)):
        state, rep = step(state, edges, imu, CFG, frame_index=k)
        line = json.dumps(state_to_dict(state), sort_keys=True)
        digest.update(f"{line}\n{rep.total},{rep.comparisons}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_state_hash(name):
    assert scene_digest(name) == GOLDEN[name]
