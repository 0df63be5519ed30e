"""Minimal FAST-9 corner detector: full segment test on the 16-pixel
Bresenham circle with non-maximal suppression by arc score.

Pixels are integers, so a ring pixel p is brighter than the centre c when
p - c > t, which is p - c > floor(t), and darker when c - p > floor(t). Every
comparison is made in integers: a uint8 frame is screened in uint8 and its
differences taken in int16; any other integer image is handled in int64.
An image of another dtype (float or bool among them), or with values
outside the int32 range, raises ValueError rather than being rounded or
wrapped. Every 9-pixel arc holds two neighbouring compass pixels (ring
positions 0 and 4, 4 and 8, 8 and 12, or 12 and 0), so one pass over those
four shifted planes finds the candidates. Only these get their 16 ring
differences gathered, by one flat `take`, and sums over 2, 4, 8 and then 9
neighbours of the doubled ring give every arc's test and score at once.

A pixel that is not a corner scores 0, so the 3x3 suppression compares each
corner with its 8 neighbours only, read by index from a zeroed flat frame
that holds the corners' scores. It keeps every pixel of an equal-score
plateau; each 8-connected plateau then yields one detection.
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


def _arc_sums(values: np.ndarray, dtype) -> np.ndarray:
    """(16, N) sums over the 9-pixel arcs of (16, N) ring values, one row per
    start, in `dtype`, which must hold 9 summands: sums of 2, then 4, then 8
    neighbouring rows of the doubled ring, then the ninth row."""
    ring = np.concatenate([values, values[:8]]).astype(dtype, copy=False)
    two = ring[:-1] + ring[1:]
    four = two[:-2] + two[2:]
    eight = four[:-4] + four[4:]
    return eight[:16] + ring[8:]


def _one_per_plateau(at: np.ndarray, shape: tuple) -> np.ndarray:
    """Indices, ascending, of one pixel per 8-connected group of the pixels
    at the ascending flat indices `at` of a raster of `shape`, none of them
    on its outermost rows or columns: the member nearest the group's
    centroid, ties to the first in row-major order."""
    m, w = len(at), shape[1]
    # each neighbour pair (i, j), i < j, once: right, down-left, down and
    # down-right, found through a flat map from pixel to index
    index = np.full(shape[0] * w, -1, dtype=np.int32)
    index[at] = np.arange(m)
    a_parts, b_parts = [], []
    for off in (1, w - 1, w, w + 1):
        j = index.take(at + off)
        a_parts.append(np.flatnonzero(j >= 0))
        b_parts.append(j[j >= 0])
    a, b = np.concatenate(a_parts), np.concatenate(b_parts)
    # labels point to a smaller or equal index in the same group; each round
    # hooks the root of every pair's larger label onto the smaller label and
    # then jumps every label to its root, until all pairs agree, so that
    # each group ends labelled by its first member
    labels = np.arange(m)
    while True:
        la, lb = labels[a], labels[b]
        split = la != lb
        if not split.any():
            break
        np.minimum.at(labels, np.maximum(la, lb)[split],
                      np.minimum(la, lb)[split])
        while True:
            root = labels[labels]
            if np.array_equal(root, labels):
                break
            labels = root
    # n * |p - centroid|**2 minus a per-group constant: with n members
    # summing to (sx, sy), n * (x*x + y*y) - 2 * (x*sx + y*sy), exact in
    # int64 while 6 * side**4 does (rasters under 35,000 px a side)
    ys, xs = np.divmod(at, w)
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
    image = np.asarray(image)
    if image.ndim != 2 or image.shape[0] < 7 or image.shape[1] < 7:
        raise ValueError("image must be a 2D raster of at least 7x7")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and non-negative, "
                         f"got {threshold!r}")
    narrow = image.dtype == np.uint8
    if not narrow:
        if not np.issubdtype(image.dtype, np.integer):
            raise ValueError(f"image must hold integers, got {image.dtype}")
        if image.min() < -2 ** 31 or image.max() >= 2 ** 31:
            raise ValueError("image values must lie in the int32 range")
    # uint8 frames are screened as they are, and their differences (and
    # sums of 9) fit int16; any other image is handled in int64
    img = image if narrow else image.astype(np.int64)
    work = np.int16 if narrow else np.int64
    # no difference exceeds the value range, so a larger t passes nothing
    t = min(math.floor(threshold), 255 if narrow else 2 ** 32)
    h, w = img.shape

    # candidates; a bound beyond the pixel type's range is clamped to its
    # end, which no pixel passes either
    info = np.iinfo(img.dtype)
    center = img[3:-3, 3:-3]
    hi = np.minimum(center, info.max - t) + img.dtype.type(t)
    lo = np.maximum(center, info.min + t) - img.dtype.type(t)
    compass = [img[3 + dy:h - 3 + dy, 3 + dx:w - 3 + dx]
               for dx, dy in CIRCLE16[::4]]

    def neighbouring_compass_pair(passes, bound):
        either = passes(compass[0], bound)
        either |= passes(compass[2], bound)
        other = passes(compass[1], bound)
        other |= passes(compass[3], bound)
        either &= other
        return either

    cand = np.zeros((h, w), dtype=bool)
    cand[3:-3, 3:-3] = (neighbouring_compass_pair(np.greater, hi)
                        | neighbouring_compass_pair(np.less, lo))
    at = np.flatnonzero(cand)  # row-major flat indices of the candidates

    # segment test and arc score on the candidates' (16, N) ring differences:
    # a 9-arc is all brighter (all darker) where its signs sum to 9 (-9)
    flat = img.ravel()
    ring = np.array([dy * w + dx for dx, dy in CIRCLE16])[:, None]
    diff = (flat.take(ring + at).astype(work, copy=False)
            - flat.take(at).astype(work, copy=False))
    sign = (diff > t).view(np.int8) - (diff < -t).view(np.int8)
    ok = np.abs(_arc_sums(sign, np.int8)) == 9
    score = (_arc_sums(np.abs(diff), work) * ok).max(axis=0)

    # non-maximal suppression over the 3x3 neighborhood: a passing arc's
    # pixels each differ by at least 1, so corners are where score > 0
    corner = score > 0
    at, score = at[corner], score[corner]
    scores = np.zeros(h * w, dtype=score.dtype)
    scores[at] = score
    keep = np.ones(len(at), dtype=bool)
    for off in (-w - 1, -w, 1 - w, -1, 1, w - 1, w, w + 1):
        keep &= score >= scores.take(at + off)
    at = at[keep]
    ys, xs = np.divmod(at[_one_per_plateau(at, (h, w))], w)
    return list(map(PixelPoint, xs.astype(float).tolist(),
                    ys.astype(float).tolist()))
