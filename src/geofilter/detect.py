"""Minimal FAST-9 corner detector: full segment test on the 16-pixel
Bresenham circle with non-maximal suppression by arc score.

A pixel can only pass the segment test if at least 9 of its 16 ring pixels
are brighter than I_p + t, or at least 9 darker than I_p - t. One pass over
the 16 shifted planes counts both per pixel; only the pixels that reach 9
(the candidates) get their ring gathered; window sums over the cumulative sum
of the doubled ring then give every arc's test and score at once. The scores
are scattered back into the frame for the 3x3 suppression, which keeps every
pixel of an equal-score plateau; each plateau then yields one detection.
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


def _arc_sums(values: np.ndarray) -> np.ndarray:
    """(N, 16) sums over the 9-pixel arcs of (N, 16) ring values, one column
    per start. They are accumulated in int32, which holds 24 summands of
    less than 2**31 / 24 each: exact for any image whose values span less
    than that (every 8- and 16-bit image). int64 sums raised the benchmark's
    peak memory by about 3 MB."""
    doubled = np.concatenate([values, values[:, :8]], axis=1)
    cum = np.zeros((len(values), 25), dtype=np.int32)
    np.cumsum(doubled, axis=1, dtype=np.int32, out=cum[:, 1:])
    return cum[:, 9:25] - cum[:, :16]


def _one_per_plateau(ys: np.ndarray, xs: np.ndarray, width: int) -> np.ndarray:
    """Indices, ascending, of one pixel per 8-connected group of the pixels
    (ys, xs), given in row-major order in a raster `width` wide: the member
    nearest the group's centroid, ties to the first in row-major order."""
    flat = ys * width + xs
    # each neighbour pair once: right, down-left, down and down-right
    a_parts, b_parts = [], []
    for off, dx in ((1, 1), (width - 1, -1), (width, 0), (width + 1, 1)):
        j = np.minimum(np.searchsorted(flat, flat + off), len(flat) - 1)
        hit = (flat[j] == flat + off) & (0 <= xs + dx) & (xs + dx < width)
        a_parts.append(np.nonzero(hit)[0])
        b_parts.append(j[hit])
    a, b = np.concatenate(a_parts), np.concatenate(b_parts)
    # min-label propagation: each pixel takes the smallest label among its
    # neighbours, then its label's label, until no label changes; every label
    # is a member of its group and no larger than the pixel's own index, so
    # each group ends labelled by its first member
    labels = np.arange(len(flat))
    while True:
        low = np.minimum(labels[a], labels[b])
        new = labels.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    # n * |p - centroid|**2 minus a per-group constant: with n members
    # summing to (sx, sy), n * (x*x + y*y) - 2 * (x*sx + y*sy), exact in
    # int64 while 6 * side**4 does (rasters under 35,000 px a side)
    n = np.bincount(labels)[labels]
    sx = np.bincount(labels, weights=xs).astype(np.int64)[labels]
    sy = np.bincount(labels, weights=ys).astype(np.int64)[labels]
    key = n * (xs * xs + ys * ys) - 2 * (xs * sx + ys * sy)
    order = np.lexsort((key, labels))  # stable: ties keep row-major order
    _, first = np.unique(labels[order], return_index=True)
    return np.sort(order[first])


def detect_fast9(image: np.ndarray, threshold: float = 20.0) -> List[PixelPoint]:
    """Corners where at least 9 contiguous circle pixels are all brighter than
    I_p + t or all darker than I_p - t, after 3x3 non-maximal suppression on
    the contiguous-arc SAD score, in row-major order. Two adjacent survivors
    of the suppression have equal scores, so each 8-connected group of them
    is one plateau, and only its pixel nearest the group's centroid is kept
    (ties to the first in row-major order)."""
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

    # segment test and arc score on the candidates' (N, 16) rings: window
    # sums over the cumulative sum of the doubled ring give, for each of the
    # 16 starts, how many of the 9 arc pixels are bright or dark and their
    # summed |ring - center|
    ring = np.stack([img[ys + 3 + dy, xs + 3 + dx] for dx, dy in CIRCLE16],
                    axis=1)
    c = center[ys, xs][:, None]
    bright_win = _arc_sums(ring > c + threshold)
    dark_win = _arc_sums(ring < c - threshold)
    diff_win = _arc_sums(np.abs(ring - c))
    ok = (bright_win == 9) | (dark_win == 9)
    cand_corner = ok.any(axis=1)
    cand_score = np.where(ok, diff_win, 0).max(axis=1)
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
    kept = _one_per_plateau(ys, xs, core_w)
    ys, xs = ys[kept], xs[kept]
    return [PixelPoint(float(x + 3), float(y + 3))
            for y, x in zip(ys.tolist(), xs.tolist())]
