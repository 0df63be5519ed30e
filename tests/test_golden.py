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
    # a static scene with frames 3-4 dropped: every row of the alignment
    # matrix fails across the gap, and the matrix starts again after it
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
        "9f66ab54cab91e83884cd4f09747953a3256c13ba532ece658e201e6ebd2e893",
    "movers":
        "d98d07f2b6c1379b108d2f62e284e45a4dbb490dbdfb9260ee2fed30aed9cd4e",
    "dropped":
        "7918af258e38d419d6c23cc80813f1942c6703e4f6f443bd16be263a3867994c",
    "noisy":
        "bbe98a04fe512dcfc59a15be4635fa31ad327798ebfe7b9290abac287046c1d4",
    "sparse":
        "be69cedf0139f6640b582a76d00230ca416c6a713b34d1915eb790f040db92b2",
}

GOLDEN_COMPARISONS = {
    "crowd":
        "226ea5c07bb64e59d5e9c011c7903027440854f6f06e6a7ee0c84904f38eaf25",
    "movers":
        "b97fffa4e589c575263ad2f05ac2b84122b757542138ee13ff0677b926715c30",
    "dropped":
        "6445280c05dec442445915127cb22ae94033bd0d60bc0ae9e6aaf7c9eede8440",
    "noisy":
        "342207aee3c7560e5985c1e29b44b73d8b741e87abae1f0843e50417e42dfd7f",
    "sparse":
        "4fde1250a4b0c00722fe9bceb85fe737544a0bd7e392930b3983ed06af8b0639",
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
