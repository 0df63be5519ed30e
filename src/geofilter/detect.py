"""Minimal FAST-9 corner detector: full segment test on the 16-pixel
Bresenham circle with non-maximal suppression by arc score.

A pixel can only pass the segment test if at least 9 of its 16 ring pixels
are brighter than I_p + t, or at least 9 darker than I_p - t. One pass over
the 16 shifted planes counts both per pixel; only the pixels that reach 9
(the candidates) get their ring gathered and the 16-start arc test and score.
The scores are scattered back into the frame for the 3x3 suppression.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from .core import PixelPoint

# radius-3 Bresenham circle, clockwise from 12 o'clock
CIRCLE16 = ((0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
            (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2),
            (-1, -3))


def detect_fast9(image: np.ndarray, threshold: float = 20.0) -> List[PixelPoint]:
    """Corners where at least 9 contiguous circle pixels are all brighter than
    I_p + t or all darker than I_p - t, after 3x3 non-maximal suppression on
    the contiguous-arc SAD score, in row-major order."""
    img = np.asarray(image, dtype=np.int32)
    if img.ndim != 2 or img.shape[0] < 7 or img.shape[1] < 7:
        raise ValueError("image must be a 2D raster of at least 7x7")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and non-negative, "
                         f"got {threshold!r}")
    core_h, core_w = img.shape[0] - 6, img.shape[1] - 6
    center = img[3:-3, 3:-3]
    hi = center + threshold
    lo = center - threshold
    n_bright = np.zeros((core_h, core_w), dtype=np.uint8)
    n_dark = np.zeros((core_h, core_w), dtype=np.uint8)
    for dx, dy in CIRCLE16:
        plane = img[3 + dy:3 + dy + core_h, 3 + dx:3 + dx + core_w]
        n_bright += plane > hi
        n_dark += plane < lo
    ys, xs = np.nonzero((n_bright >= 9) | (n_dark >= 9))

    # segment test and arc score on the candidates' (N, 16) rings
    ring = np.stack([img[ys + 3 + dy, xs + 3 + dx] for dx, dy in CIRCLE16],
                    axis=1)
    c = center[ys, xs][:, None]
    bright = ring > c + threshold
    dark = ring < c - threshold
    diffs = np.abs(ring - c)
    bright2 = np.concatenate([bright, bright[:, :8]], axis=1)
    dark2 = np.concatenate([dark, dark[:, :8]], axis=1)
    diffs2 = np.concatenate([diffs, diffs[:, :8]], axis=1)
    cand_score = np.zeros(len(ys), dtype=np.int64)
    cand_corner = np.zeros(len(ys), dtype=bool)
    for start in range(16):
        for mask2 in (bright2, dark2):
            arc = mask2[:, start:start + 9].all(axis=1)
            if not arc.any():
                continue
            arc_score = diffs2[:, start:start + 9].sum(axis=1)
            cand_corner |= arc
            cand_score = np.where(arc, np.maximum(cand_score, arc_score),
                                  cand_score)
    score = np.zeros((core_h, core_w), dtype=np.int64)
    is_corner = np.zeros((core_h, core_w), dtype=bool)
    score[ys, xs] = cand_score
    is_corner[ys, xs] = cand_corner

    # non-maximal suppression over the 3x3 neighborhood
    padded = np.zeros((score.shape[0] + 2, score.shape[1] + 2), dtype=np.int64)
    padded[1:-1, 1:-1] = np.where(is_corner, score, 0)
    keep = is_corner.copy()
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            neighbor = padded[1 + dy:padded.shape[0] - 1 + dy,
                              1 + dx:padded.shape[1] - 1 + dx]
            keep &= score >= neighbor
    ys, xs = np.nonzero(keep)
    return [PixelPoint(float(x + 3), float(y + 3))
            for y, x in zip(ys.tolist(), xs.tolist())]
