"""The float FAST-9 kernel that `detect.detect_fast9` replaced, kept
verbatim as an exact oracle. It compares every ring pixel in float64 against
`center + threshold`, scores and suppresses over whole-frame arrays, and
finds plateaus by `searchsorted` and min-label propagation. The integer
kernel must return the same detections on rendered mark frames, random 8-bit
images and full-range 16-bit images, at whole and fractional thresholds. The
one input where they differ, a threshold just below a whole number, is
pinned at the end: there `center + threshold` rounds up in float64, and the
integer comparison keeps the exact rule.
"""

import math
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geofilter.core import CameraModel, PixelPoint
from geofilter.detect import CIRCLE16, detect_fast9
from geofilter.scene_synth import SceneSpec, generate

THRESHOLDS = [0.0, 15.5, 20.25, 254.0, 255.0, 1e6]


# -- the float kernel, verbatim ---------------------------------------------

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


def _float_kernel(image: np.ndarray, threshold: float = 20.0) -> List[PixelPoint]:
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


# -- equality ---------------------------------------------------------------

SCENE = SceneSpec(
    n_points=450, frames=4,
    camera=CameraModel(f=250.0, principal=PixelPoint(160.0, 120.0),
                       width=320.0, height=240.0),
    depth_range=(150.0, 2000.0), lateral_range=(-400.0, 400.0))


def _mark_frames():
    """Every frame of a rendered scene, each landmark a 3x3 mark of 200 on
    a background of 40, as the camera path renders them."""
    cam = SCENE.camera
    truth = generate(2, SCENE)
    for k in range(SCENE.frames):
        img = np.full((int(cam.height), int(cam.width)), 40, dtype=np.uint8)
        for p in truth.edges(k):
            x, y = int(round(p.x)), int(round(p.y))
            img[max(0, y - 1):y + 2, max(0, x - 1):x + 2] = 200
        yield img


@pytest.mark.parametrize("t", THRESHOLDS + [20.0])
def test_equals_float_kernel_on_rendered_marks(t):
    for img in _mark_frames():
        assert detect_fast9(img, t) == _float_kernel(img, t)


@given(arrays(np.uint8, (20, 24)), st.sampled_from(THRESHOLDS))
@settings(max_examples=150, deadline=None)
def test_equals_float_kernel_on_random_8_bit_images(img, t):
    assert detect_fast9(img, t) == _float_kernel(img, t)


@given(arrays(np.uint16, (20, 24), elements=st.one_of(
           st.sampled_from([0, 1, 254, 255, 256, 30000, 65534, 65535]),
           st.integers(0, 65535))),
       st.sampled_from(THRESHOLDS + [30000.0, 65534.0, 65535.0]))
@settings(max_examples=150, deadline=None)
def test_equals_float_kernel_on_full_range_16_bit_images(img, t):
    assert detect_fast9(img, t) == _float_kernel(img, t)


def test_threshold_just_below_a_whole_number_is_exact():
    # a dark dot of 100 ringed by 121: every ring pixel exceeds the centre
    # by exactly 21, which is more than the threshold t = 21 - 2**-48, so
    # the dot is a corner; in float64, 100 + t rounds to 121, and the float
    # kernel found no ring pixel brighter
    t = math.nextafter(21.0, 0.0)
    img = np.full((17, 17), 121, dtype=np.uint8)
    img[8, 8] = 100
    assert detect_fast9(img, t) == [PixelPoint(8.0, 8.0)]
    assert detect_fast9(img.astype(np.uint16), t) == [PixelPoint(8.0, 8.0)]
    assert _float_kernel(img, t) == []
    # at t = 21 itself, 21 is not more than t
    assert detect_fast9(img, 21.0) == []
