"""Golden outputs: the per-frame state and dimensionality report of three
fixed scenes, pinned by hash.

A refactor that claims unchanged behaviour must keep these hashes. Each digest
covers every frame's `state_to_dict` (serialised as `state.jsonl` writes it)
and the report's `(total, comparisons)`.
"""

import hashlib
import json

import pytest

from geofilter.core import FilterState, default_config
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
}

GOLDEN = {
    "movers":
        "4c135a3584d20339f60ac203711df174332b2258b7ec55ed517c7bae04a886d1",
    "dropped":
        "e57906ae2369e8a50517cfc067a14c099d317f15d30dc652962a1188e043e87e",
    "noisy":
        "4dda47a78f0b0373bebc986c1b2259a53e2a105f89d901d6d8a74e2c574b4cd4",
}


def scene_digest(name):
    seed, spec, blanked = SCENES[name]
    truth = generate(seed, spec)
    digest = hashlib.sha256()
    state = FilterState()
    for k in range(spec.frames):
        edges = [] if k in blanked else truth.edges(k)
        state, rep = step(state, edges, truth.imu[k], CFG, frame_index=k)
        line = json.dumps(state_to_dict(state), sort_keys=True)
        digest.update(f"{line}\n{rep.total},{rep.comparisons}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENES))
def test_golden_state_hash(name):
    assert scene_digest(name) == GOLDEN[name]
