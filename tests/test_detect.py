import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geofilter.core import CameraModel, PixelPoint
from geofilter.detect import CIRCLE16, detect_fast9
from geofilter.scene_synth import SceneSpec, generate

THRESHOLDS = st.sampled_from([0.0, 15.0, 15.5, 20.0, 20.25, 60.0])


def _arc_score(img, x, y, t):
    """Independent oracle: the largest sum of |ring - center| over a
    contiguous 9-arc whose pixels all exceed center by more than t or all
    fall short of it by more than t, or None when no arc passes. Python
    compares the integer difference with the float t exactly."""
    c = int(img[y, x])
    ring = [int(img[y + dy, x + dx]) for dx, dy in CIRCLE16]
    best = None
    for start in range(16):
        arc = [ring[(start + k) % 16] for k in range(9)]
        if all(v - c > t for v in arc) or all(c - v > t for v in arc):
            score = sum(abs(v - c) for v in arc)
            best = score if best is None else max(best, score)
    return best


def _segment_test(img, x, y, t):
    return _arc_score(img, x, y, t) is not None


def _fast9_oracle(img, t):
    """Pure-Python FAST-9: segment test, arc score, then 3x3 non-maximal
    suppression that keeps a corner whose score is at least every
    neighbouring corner's (ties all survive). Each 8-connected group of
    survivors, found by flood fill, yields its member nearest the group's
    exact centroid, ties to the first in row-major order; the kept pixels
    come in row-major order."""
    img = np.asarray(img).astype(int)
    h, w = img.shape
    score = {(x, y): s for y in range(3, h - 3) for x in range(3, w - 3)
             if (s := _arc_score(img, x, y, t)) is not None}
    survivors = {(x, y) for (x, y), s in score.items()
                 if all(s >= score.get((x + dx, y + dy), 0)
                        for dx in (-1, 0, 1) for dy in (-1, 0, 1))}
    kept, seen = [], set()
    for start in sorted(survivors, key=lambda p: (p[1], p[0])):
        if start in seen:
            continue
        group, todo = [], [start]
        seen.add(start)
        while todo:
            x, y = todo.pop()
            group.append((x, y))
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    q = (x + dx, y + dy)
                    if q in survivors and q not in seen:
                        seen.add(q)
                        todo.append(q)
        cx = Fraction(sum(x for x, _ in group), len(group))
        cy = Fraction(sum(y for _, y in group), len(group))
        kept.append(min(group, key=lambda p: ((p[0] - cx) ** 2
                                              + (p[1] - cy) ** 2, p[1], p[0])))
    return [PixelPoint(float(x), float(y))
            for x, y in sorted(kept, key=lambda p: (p[1], p[0]))]


def _marks(shape, centers):
    """3x3 marks of intensity 200 on a flat background of 40."""
    img = np.full(shape, 40, dtype=np.uint8)
    for x, y in centers:
        img[max(0, y - 1):y + 2, max(0, x - 1):x + 2] = 200
    return img


def _lines(shape, background, lines):
    """Straight lines (x0, y0, x1, y1, width, intensity) on a flat
    background, each a run of width x width squares from end to end."""
    img = np.full(shape, background, dtype=np.uint8)
    for x0, y0, x1, y1, width, value in lines:
        n = max(abs(x1 - x0), abs(y1 - y0))
        for i in range(n + 1):
            x = x0 + round((x1 - x0) * i / max(n, 1))
            y = y0 + round((y1 - y0) * i / max(n, 1))
            img[y:y + width, x:x + width] = value
    return img


# a static 450-point scene seen by a 320x240 camera, every landmark rendered
# as a 3x3 mark; sha256 over "x,y" lines of every frame's detections at t = 20
GOLDEN_SCENE = SceneSpec(
    n_points=450, frames=3,
    camera=CameraModel(f=250.0, principal=PixelPoint(160.0, 120.0),
                       width=320.0, height=240.0),
    depth_range=(150.0, 2000.0), lateral_range=(-400.0, 400.0))
GOLDEN_DETECTIONS = (
    "2ef90ac724f7811c8623480ee99558e87243e60ed39978c6f23c56c0a6f6021f")


class TestDetectFast9:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            detect_fast9(np.zeros((5, 5)))
        with pytest.raises(ValueError):
            detect_fast9(np.zeros(10))

    @pytest.mark.parametrize("t", [-1.0, -0.5, float("nan"), float("inf"),
                                   float("-inf")])
    def test_rejects_bad_threshold(self, t):
        with pytest.raises(ValueError, match="threshold"):
            detect_fast9(np.zeros((16, 16)), t)

    @pytest.mark.parametrize("img,message", [
        # one dark pixel on a bright field, whose values int32 would wrap
        # (to 5 and to -1) or truncate (to 100 and 0): each hides or moves
        # the corner without a word
        (np.full((16, 16), 2 ** 33 + 5, dtype=np.int64), "int32 range"),
        (np.full((16, 16), 2 ** 32 - 1, dtype=np.uint32), "int32 range"),
        (np.full((16, 16), 100.7), "must hold integers"),
    ])
    def test_rejects_values_it_cannot_compare_exactly(self, img, message):
        img[8, 8] = 0.2 if img.dtype.kind == "f" else 0
        with pytest.raises(ValueError, match=message):
            detect_fast9(img, 20.0)

    def test_flat_image_has_no_corners(self):
        assert detect_fast9(np.full((32, 32), 128), 20.0) == []

    def test_bright_dot_detected(self):
        img = np.zeros((16, 16), dtype=np.uint8)
        img[8, 8] = 255
        # the center of a dot is darker than nothing; its neighbors see a dark
        # segment — the dot pixel itself sees all 16 ring pixels darker
        pts = detect_fast9(img, 20.0)
        assert PixelPoint(8.0, 8.0) in pts

    def test_corner_of_bright_square(self):
        img = np.zeros((24, 24), dtype=np.uint8)
        img[10:, 10:] = 200
        pts = detect_fast9(img, 20.0)
        assert any(p.dist(PixelPoint(10.0, 10.0)) <= 2.0 for p in pts)
        # no detections deep inside the flat regions
        assert all(not (14 <= p.x <= 20 and 14 <= p.y <= 20) for p in pts)

    def test_border_excluded(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
        for p in detect_fast9(img, 10.0):
            assert 3 <= p.x <= 16 and 3 <= p.y <= 16

    def test_sorted_deterministic_output(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
        a = detect_fast9(img, 10.0)
        b = detect_fast9(img, 10.0)
        assert a == b
        assert a == sorted(a, key=lambda p: (p.y, p.x))

    @given(arrays(np.uint8, (18, 18),
                  elements=st.integers(min_value=0, max_value=255)))
    @settings(max_examples=40, deadline=None)
    def test_every_detection_passes_the_segment_oracle(self, img):
        t = 15.0
        for p in detect_fast9(img, t):
            assert _segment_test(img.astype(int), int(p.x), int(p.y), t)

    @given(arrays(np.uint8, (18, 18),
                  elements=st.integers(min_value=0, max_value=255)))
    @settings(max_examples=40, deadline=None)
    def test_suppression_never_empties_a_cornered_image(self, img):
        # non-maximal suppression drops weaker neighbors, but the strongest
        # corner always survives: if the oracle finds any corner, so do we
        t = 15.0
        arr = img.astype(int)
        oracle_any = any(_segment_test(arr, x, y, t)
                         for y in range(3, 15) for x in range(3, 15))
        assert bool(detect_fast9(img, t)) == oracle_any

    @given(arrays(np.uint8, (18, 18),
                  elements=st.integers(min_value=0, max_value=255)),
           THRESHOLDS)
    @settings(max_examples=60, deadline=None)
    def test_equals_oracle_on_random_images(self, img, t):
        assert detect_fast9(img, t) == _fast9_oracle(img, t)

    @given(arrays(np.uint8, (18, 18),
                  elements=st.integers(min_value=60, max_value=140)),
           st.sampled_from([math.nextafter(t, 0.0) for t in (1.0, 21.0, 40.0)]))
    @settings(max_examples=60, deadline=None)
    def test_equals_oracle_just_below_whole_thresholds(self, img, t):
        # c + t rounds up to a whole number in float64 for these t; ring
        # pixels exactly floor(t) + 1 above or below still count
        assert detect_fast9(img, t) == _fast9_oracle(img, t)

    @given(arrays(np.uint16, (18, 18), elements=st.sampled_from(
               [0, 1, 30000, 65534, 65535])),
           st.sampled_from([0.0, 20.0, 30000.0]))
    @settings(max_examples=60, deadline=None)
    def test_equals_oracle_on_full_range_16_bit_images(self, img, t):
        # the arc sums are accumulated in int32; 24 differences of up to
        # 65535 still fit
        assert detect_fast9(img, t) == _fast9_oracle(img, t)

    @given(arrays(np.int32, (18, 18), elements=st.sampled_from(
               [-2 ** 31, -2 ** 30, 0, 1, 2 ** 30, 2 ** 31 - 1])),
           st.sampled_from([0.0, 20.0, 2.0 ** 31]))
    @settings(max_examples=60, deadline=None)
    def test_equals_oracle_on_full_range_32_bit_images(self, img, t):
        # differences of int32 pixels and their arc sums are taken in int64
        assert detect_fast9(img, t) == _fast9_oracle(img, t)

    @given(arrays(np.uint8, (18, 18),
                  elements=st.integers(min_value=90, max_value=150)),
           THRESHOLDS)
    @settings(max_examples=40, deadline=None)
    def test_equals_oracle_on_low_contrast_images(self, img, t):
        assert detect_fast9(img, t) == _fast9_oracle(img, t)

    @given(st.lists(st.tuples(st.integers(0, 23), st.integers(0, 19)),
                    max_size=8), THRESHOLDS)
    @settings(max_examples=60, deadline=None)
    def test_equals_oracle_on_sparse_marks(self, centers, t):
        # equal-score plateaus: every pixel of an isolated mark ties
        img = _marks((20, 24), centers)
        assert detect_fast9(img, t) == _fast9_oracle(img, t)

    @pytest.mark.parametrize("center", [(4, 4), (11, 9), (19, 15), (12, 4)])
    @pytest.mark.parametrize("t", [0.0, 20.0, 60.0])
    def test_isolated_mark_gives_its_centre(self, center, t):
        # the nine pixels of a 3x3 mark tie; only the centre is kept
        assert detect_fast9(_marks((20, 24), [center]), t) == [
            PixelPoint(float(center[0]), float(center[1]))]

    @pytest.mark.parametrize("centers,expected", [
        # cut by the 3-pixel border: one column, or a 2x2 corner, is left
        ([(2, 9)], [(3, 9)]),
        ([(3, 3)], [(3, 3)]),
        ([(20, 16)], [(19, 15)]),
        ([(1, 1)], []),
        # touching marks make one plateau, so one detection
        ([(8, 9), (11, 9)], [(9, 9)]),
        ([(8, 8), (10, 10)], [(9, 8)]),
        ([(8, 8), (11, 8), (8, 11), (11, 11)], [(8, 8)]),
        # one background pixel apart: two plateaus
        ([(8, 9), (12, 9)], [(8, 9), (12, 9)]),
    ])
    def test_marks_at_the_border_or_touching(self, centers, expected):
        img = _marks((20, 24), centers)
        got = detect_fast9(img, 20.0)
        assert got == [PixelPoint(float(x), float(y)) for x, y in expected]
        assert got == _fast9_oracle(img, 20.0)

    def test_long_plateau_gives_one_detection(self):
        # 16 equal-score survivors strung along a one-pixel line of slope
        # 12/23, 15 px end to end
        img = _lines((24, 24), 40, [(0, 0, 23, 12, 1, 200)])
        assert detect_fast9(img, 15.0) == [PixelPoint(12.0, 6.0)]
        assert detect_fast9(img, 15.0) == _fast9_oracle(img, 15.0)

    @given(st.integers(0, 255),
           st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23),
                              st.integers(0, 23), st.integers(0, 23),
                              st.integers(1, 3), st.integers(0, 255)),
                    min_size=1, max_size=3),
           st.sampled_from([0.0, 15.0]))
    @settings(max_examples=60, deadline=None)
    @example(40, [(0, 0, 23, 12, 1, 200)], 15.0)
    @example(200, [(0, 0, 12, 23, 1, 40)], 0.0)
    def test_equals_oracle_on_lines(self, background, lines, t):
        # thin lines at shallow slopes string equal-score survivors into
        # plateaus far longer than a mark
        img = _lines((24, 24), background, lines)
        assert detect_fast9(img, t) == _fast9_oracle(img, t)

    def test_golden_detections_on_rendered_scene(self):
        cam = GOLDEN_SCENE.camera
        truth = generate(1, GOLDEN_SCENE)
        digest = hashlib.sha256()
        for k in range(GOLDEN_SCENE.frames):
            img = _marks((int(cam.height), int(cam.width)),
                         [(int(round(p.x)), int(round(p.y)))
                          for p in truth.edges(k)])
            for p in detect_fast9(img, 20.0):
                digest.update(f"{p.x!r},{p.y!r}\n".encode())
        assert digest.hexdigest() == GOLDEN_DETECTIONS
