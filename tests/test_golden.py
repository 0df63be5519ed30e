"""Golden outputs: the per-frame state and dimensionality report of five
fixed scenes, pinned by hash.

Each scene has two digests. The state digest covers every frame's
`state_to_dict` (serialised as `state.jsonl` writes it) and the report's
`total`; a refactor that claims unchanged behaviour must keep it. The
comparisons digest covers each frame's `comparisons`, which counts work
rather than state, so a change to what it counts re-pins it alone and cannot
hide a change of state.
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


GOLDEN_STATES = {
    "crowd":
        "ffd967c4cee3e355711ecd1ac8b3840610ea5bf983c658e45e2e7119055d63d5",
    "movers":
        "3947b7617ef078d8e5e5fea5b9e5cdf5d54864a6e9d16ac7f09eff47da321573",
    "dropped":
        "7cc85947bb81a96fcb6a087ab33ebe67ea8bd80d5d293e73646fd8d40a8b4e41",
    "noisy":
        "6135a838a8fe788072bede9e9dbb30e0990d9b18e12ec67681d95f69673138be",
    "sparse":
        "3ddd4feae79ac9ed3f320a23bd0ba354d0dcd67564fb996e8f17898188d821bd",
}

GOLDEN_COMPARISONS = {
    "crowd":
        "226ea5c07bb64e59d5e9c011c7903027440854f6f06e6a7ee0c84904f38eaf25",
    "movers":
        "b97fffa4e589c575263ad2f05ac2b84122b757542138ee13ff0677b926715c30",
    "dropped":
        "91c7057b7b87032f94b5917ef5e83fef4da1c01a4c7ad9b71718931efccc3929",
    "noisy":
        "dc85ca5212d2c62baad914b67b8af8dfbe0bb9edf2fcdd53ae0165eafd1b3f3a",
    "sparse":
        "4f8be56dbac28a6b7c1e7e565cce664fe9323fdb0f449f1c2c0f78f83860851a",
}


def scene_frames(name):
    """The edges and IMU sample of each frame of a scene."""
    if name == "sparse":
        return sparse_frames()
    seed, spec, blanked = SCENES[name]
    truth = generate(seed, spec)
    return [([] if k in blanked else truth.edges(k), truth.imu[k])
            for k in range(spec.frames)]


def scene_digests(name):
    """The state digest and the comparisons digest of a scene."""
    states, counts = hashlib.sha256(), hashlib.sha256()
    state = FilterState()
    for k, (edges, imu) in enumerate(scene_frames(name)):
        state, rep = step(state, edges, imu, CFG, frame_index=k)
        line = json.dumps(state_to_dict(state), sort_keys=True)
        states.update(f"{line}\n{rep.total}\n".encode())
        counts.update(f"{rep.comparisons}\n".encode())
    return states.hexdigest(), counts.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_STATES))
def test_golden_state_hash(name):
    assert scene_digests(name)[0] == GOLDEN_STATES[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_COMPARISONS))
def test_golden_comparisons_hash(name):
    assert scene_digests(name)[1] == GOLDEN_COMPARISONS[name]
