"""Bounded state where the alignment matrix used to run away.

Rows of the matrix once branched on every admissible candidate, and static
scenes grew to tens of thousands of entities. One-to-one chaining keeps the
state below what a last-8-frames store of raw edges holds (the paper's
memory claim), and a static scene confirms at most a few false rebels.
"""

from typing import List

import numpy as np
import pytest

from geofilter import circle_expert as ce
from geofilter.core import FilterState, default_config
from geofilter.pipeline import baseline_store, step
from geofilter.scene_synth import SceneSpec, generate
from test_golden import scene_frames

CFG = default_config()

# the benchmark's `crowd` clip: a dense static scene with pixel and
# angular-rate noise
CROWD = SceneSpec(n_points=1100, frames=60, camera=CFG.camera,
                  depth_range=(150.0, 2000.0), lateral_range=(-400.0, 400.0),
                  noise_sigma=1.0, omega_noise=0.002)


def _assert_below_last8(frames, first: int) -> int:
    """Step the frames, asserting from frame `first` on that the state's
    total is below the last-8 raw-edge baseline; return the peak total."""
    state, counts, peak = FilterState(), [], 0
    for k, (edges, imu) in enumerate(frames):
        state, rep = step(state, edges, imu, CFG, frame_index=k)
        counts.append(len(edges))
        base = baseline_store("last_k", counts, k=8)[-1]
        assert k < first or rep.total < base, \
            f"frame {k}: total {rep.total} >= last-8 {base}"
        peak = max(peak, rep.total)
    return peak


@pytest.mark.parametrize("seed,clip", [(0, 2), (36, 0), (57, 0)])
def test_crowd_clip_stays_below_last8(seed, clip):
    """Clip `clip` of `crowd` at benchmark seed `seed`, drawn as the
    benchmark draws it. Branching rows took these to 63,288, 13,226 and
    16,417 entities, above the baseline on frames 22, 55 and 56."""
    truth = generate(int(np.random.default_rng([seed, clip]).integers(
        2 ** 31)), CROWD)
    frames = [(truth.edges(k), truth.imu[k]) for k in range(CROWD.frames)]
    assert _assert_below_last8(frames, first=8) < 800


def test_dropped_frames_stay_below_last8():
    """The golden `dropped` scene: frames 3-4 blank. Branching rows
    chained across the gap and peaked at 37,435 entities on frame 7."""
    assert _assert_below_last8(scene_frames("dropped"), first=1) == 264


def test_static_scene_false_confirmations(monkeypatch):
    """A 600-point static scene with 1 px noise, 40 frames, seeds 0-7:
    every rebel edge the alignment matrix confirms is false. Pinned at one
    on each of seeds 1, 4 and 7."""
    spec = SceneSpec(n_points=600, frames=40, camera=CFG.camera,
                     depth_range=(150.0, 2000.0),
                     lateral_range=(-400.0, 400.0), noise_sigma=1.0)
    confirmed: List[int] = []
    update = ce.update_rebel_alignment

    def counted(*args):
        out = update(*args)
        confirmed[-1] += len(out[1])
        return out

    monkeypatch.setattr(ce, "update_rebel_alignment", counted)
    for seed in range(8):
        confirmed.append(0)
        truth = generate(seed, spec)
        state = FilterState()
        for k in range(spec.frames):
            state, _ = step(state, truth.edges(k), truth.imu[k], CFG,
                            frame_index=k)
    assert confirmed == [0, 1, 0, 0, 1, 0, 0, 1]
