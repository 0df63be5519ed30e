import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geofilter.core import IgnoranceRegion, PixelPoint
from geofilter.line_expert import apply_ignorance, group_edges
from oracles import region_contains

points = st.lists(
    st.tuples(st.floats(min_value=0, max_value=640),
              st.floats(min_value=0, max_value=480)).map(
                  lambda t: PixelPoint(*t)),
    max_size=60)


def _group_edges_reference(kept, mu_0):
    """Independent replay of the greedy clustering contract."""
    centers, counts = [], []
    for p in kept:
        for i, c in enumerate(centers):
            if math.hypot(c[0] - p.x, c[1] - p.y) <= mu_0:
                n = counts[i] + 1
                centers[i] = (c[0] + (p.x - c[0]) / n, c[1] + (p.y - c[1]) / n)
                counts[i] = n
                break
        else:
            centers.append((p.x, p.y))
            counts.append(1)
    return centers, counts


def _group_edges_numpy_scan(kept, mu_0):
    """The vectorised linear scan that `group_edges` replaced, kept verbatim
    as an exact oracle: centers and counts in collector creation order."""
    cap = max(16, len(kept))
    centers = np.empty((cap, 2))
    counts = []
    n_col = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for p in kept:
            if n_col:
                dx = centers[:n_col, 0] - p.x
                dy = centers[:n_col, 1] - p.y
                hit = np.nonzero(dx * dx + dy * dy <= mu_0 * mu_0)[0]
            else:
                hit = ()
            if len(hit):
                i = int(hit[0])
                n = counts[i] + 1
                centers[i, 0] += (p.x - centers[i, 0]) / n
                centers[i, 1] += (p.y - centers[i, 1]) / n
                counts[i] = n
            else:
                if n_col == cap:
                    cap *= 2
                    grown = np.empty((cap, 2))
                    grown[:n_col] = centers[:n_col]
                    centers = grown
                centers[n_col] = (p.x, p.y)
                counts.append(1)
                n_col += 1
    return [(repr(float(centers[i, 0])), repr(float(centers[i, 1])), counts[i])
            for i in range(n_col)]


def _grouped(kept, mu_0):
    """`group_edges` output in the oracle's form; repr tells -0.0 from 0.0
    and lets NaN equal NaN."""
    centers, counts = group_edges(kept, mu_0)
    assert len(centers) == len(counts)
    return [(repr(c.x), repr(c.y), n) for c, n in zip(centers, counts)]


MU_0 = st.sampled_from([0.0, 0.5, 25.0])


@st.composite
def edge_cloud(draw, mu_0):
    """Points that stress a grid of cell size mu_0: negative coordinates,
    exact multiples of mu_0, tight clusters straddling a cell edge (whose
    centroid drifts across it), duplicates, NaN and infinities."""
    step = mu_0 if mu_0 > 0 else 1.0
    multiple = st.integers(-8, 8).map(lambda k: k * step)
    near_edge = st.tuples(multiple, st.floats(-0.3, 0.3)).map(
        lambda t: t[0] + t[1] * step)
    coord = st.one_of(st.floats(-200, 200), multiple, near_edge,
                      st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
    pts = draw(st.lists(st.tuples(coord, coord), max_size=60))
    if pts and draw(st.booleans()):
        # a tight cluster around one drawn point
        x0, y0 = pts[0]
        jitter = st.floats(-0.45, 0.45)
        pts += [(x0 + draw(jitter) * step, y0 + draw(jitter) * step)
                for _ in range(draw(st.integers(1, 12)))]
    order = draw(st.permutations(range(len(pts))))
    return [PixelPoint(*pts[i]) for i in order]


class TestApplyIgnorance:
    def test_empty_inputs(self):
        kept, dropped = apply_ignorance([], [])
        assert kept == [] and dropped == 0
        p = [PixelPoint(1.0, 1.0)]
        assert apply_ignorance(p, []) == (p, 0)

    def test_drops_inside_circle(self):
        psi = [IgnoranceRegion(loc=PixelPoint(100.0, 100.0), extent=(10.0,),
                               ty=1, remaining_frames=1)]
        pts = [PixelPoint(100.0, 105.0), PixelPoint(100.0, 110.0),
               PixelPoint(100.0, 110.5)]
        kept, dropped = apply_ignorance(pts, psi)
        assert kept == [PixelPoint(100.0, 110.5)]  # boundary inclusive
        assert dropped == 2

    def test_drops_inside_rectangle(self):
        psi = [IgnoranceRegion(loc=PixelPoint(50.0, 50.0), extent=(5.0, 2.0),
                               ty=2, remaining_frames=1)]
        pts = [PixelPoint(55.0, 52.0), PixelPoint(55.0, 52.1)]
        kept, dropped = apply_ignorance(pts, psi)
        assert kept == [PixelPoint(55.0, 52.1)] and dropped == 1

    @given(points, st.lists(st.tuples(
        st.floats(min_value=0, max_value=640),
        st.floats(min_value=0, max_value=480),
        st.floats(min_value=1, max_value=60),
        st.floats(min_value=1, max_value=60),
        st.sampled_from([1, 2])), max_size=5))
    @settings(max_examples=50)
    # outside the circle by the squared test, on it by hypot
    @example([PixelPoint(0.6, 0.8000000000000002)], [(0.0, 0.0, 1.0, 1.0, 1)])
    def test_matches_contains_oracle(self, pts, regions):
        psi = [IgnoranceRegion(loc=PixelPoint(x, y),
                               extent=(rx,) if ty == 1 else (rx, ry), ty=ty,
                               remaining_frames=1)
               for x, y, rx, ry, ty in regions]
        kept, dropped = apply_ignorance(pts, psi)
        expect = [p for p in pts
                  if not any(region_contains(r, p) for r in psi)]
        assert kept == expect
        assert dropped == len(pts) - len(expect)


class TestGroupEdges:
    def test_empty(self):
        assert group_edges([], 25.0) == ([], [])

    def test_single_cluster(self):
        pts = [PixelPoint(10.0, 10.0), PixelPoint(12.0, 10.0),
               PixelPoint(11.0, 13.0)]
        centers, counts = group_edges(pts, 25.0)
        assert counts == [3]
        assert centers[0].x == (10.0 + 12.0 + 11.0) / 3.0

    def test_separate_clusters(self):
        pts = [PixelPoint(0.0, 0.0), PixelPoint(100.0, 0.0),
               PixelPoint(1.0, 0.0)]
        centers, counts = group_edges(pts, 25.0)
        assert counts == [2, 1] and len(centers) == 2

    def test_first_match_wins(self):
        # equidistant to two collectors: joins the earlier one
        pts = [PixelPoint(0.0, 0.0), PixelPoint(40.0, 0.0),
               PixelPoint(20.0, 0.0)]
        _, counts = group_edges(pts, 25.0)
        assert counts == [2, 1]

    @given(points, st.floats(min_value=5.0, max_value=60.0))
    @settings(max_examples=80)
    def test_matches_reference_replay(self, pts, mu_0):
        centers, counts = group_edges(pts, mu_0)
        ref_centers, ref_counts = _group_edges_reference(pts, mu_0)
        assert counts == ref_counts
        for c, (rx, ry) in zip(centers, ref_centers):
            assert math.isclose(c.x, rx, abs_tol=1e-9)
            assert math.isclose(c.y, ry, abs_tol=1e-9)

    @given(st.data(), MU_0)
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_scan_exactly(self, data, mu_0):
        pts = data.draw(edge_cloud(mu_0))
        assert _grouped(pts, mu_0) == _group_edges_numpy_scan(pts, mu_0)

    @given(points, st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=150, deadline=None)
    def test_equals_numpy_scan_on_any_radius(self, pts, mu_0):
        assert _grouped(pts, mu_0) == _group_edges_numpy_scan(pts, mu_0)

    def test_centroid_drifting_across_cell_edges(self):
        # the collector's running centroid crosses the cell edge at x = 25
        # while it keeps absorbing points; the last point is only in reach
        # of the moved centroid
        pts = [PixelPoint(24.0, 0.0), PixelPoint(30.0, 0.0),
               PixelPoint(40.0, 0.0), PixelPoint(48.0, 0.0),
               PixelPoint(55.0, 0.0), PixelPoint(60.0, 0.0)]
        assert _grouped(pts, 25.0) == _group_edges_numpy_scan(pts, 25.0)
        assert [c[2] for c in _grouped(pts, 25.0)] == [6]

    def test_non_finite_points_seed_their_own_collectors(self):
        pts = [PixelPoint(1.0, 1.0), PixelPoint(math.nan, 1.0),
               PixelPoint(1.0, math.inf), PixelPoint(math.nan, 1.0),
               PixelPoint(2.0, 1.0)]
        assert _grouped(pts, 25.0) == _group_edges_numpy_scan(pts, 25.0)
        assert [c[2] for c in _grouped(pts, 25.0)] == [2, 1, 1, 1]

    def test_zero_radius_merges_only_coincident_points(self):
        pts = [PixelPoint(-3.0, 4.0), PixelPoint(-3.0, 4.0),
               PixelPoint(-3.0, 4.000001), PixelPoint(0.0, 0.0),
               PixelPoint(-0.0, 0.0)]
        assert _grouped(pts, 0.0) == _group_edges_numpy_scan(pts, 0.0)
        assert [c[2] for c in _grouped(pts, 0.0)] == [2, 1, 2]

    def test_huge_coordinates_with_tiny_radius(self):
        # v / cell must stay finite: cells scale with the largest coordinate
        pts = [PixelPoint(1e300, -1e300), PixelPoint(1e300, -1e300),
               PixelPoint(0.0, 5e-324), PixelPoint(0.0, 0.0)]
        for mu_0 in (0.0, 1e-300):
            assert _grouped(pts, mu_0) == _group_edges_numpy_scan(pts, mu_0)
        assert [c[2] for c in _grouped(pts, 0.0)] == [2, 2]

    def test_rejects_radius_without_finite_square(self):
        for mu_0 in (math.nan, math.inf, 1e200):
            with pytest.raises(ValueError, match="mu_0"):
                group_edges([PixelPoint(1.0, 1.0)], mu_0)

    @given(points)
    @settings(max_examples=50)
    def test_counts_conserved(self, pts):
        centers, counts = group_edges(pts, 25.0)
        assert sum(counts) == len(pts)
        assert len(centers) == len(counts) <= max(1, len(pts))
