"""First-stage reduction: suppress edges in ignorance regions, then cluster
the survivors into collectors."""

from __future__ import annotations

import math
from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import IgnoranceRegion, PixelPoint


def apply_ignorance(raw_edges: Sequence[PixelPoint],
                    psi: Sequence[IgnoranceRegion]) -> Tuple[List[PixelPoint], int]:
    """Drop every edge lying inside any ignorance region (boundary inclusive).
    Returns the kept edges in input order and the dropped count."""
    if not psi or not raw_edges:
        return list(raw_edges), 0
    pts = np.array(raw_edges, dtype=float)
    drop = np.zeros(len(raw_edges), dtype=bool)
    for r in psi:
        dx = pts[:, 0] - r.loc.x
        dy = pts[:, 1] - r.loc.y
        if r.ty == 1:
            drop |= dx * dx + dy * dy <= r.extent[0] ** 2
        else:
            drop |= (np.abs(dx) <= r.extent[0]) & (np.abs(dy) <= r.extent[1])
    kept = [p for p, d in zip(raw_edges, drop) if not d]
    return kept, int(drop.sum())


def group_edges(kept: Sequence[PixelPoint],
                mu_0: float) -> Tuple[List[PixelPoint], List[int]]:
    """Greedy single-pass clustering in input order.

    Each edge joins the first collector, in creation order, whose center
    passes dx*dx + dy*dy <= mu_0*mu_0; the center is updated to the running
    centroid.  Unmatched edges seed new collectors.  Returns the collector
    centers and member counts, in creation order.

    Collectors are bucketed on a uniform grid of cells a hair wider than mu_0
    (`_cell_size`), so an edge tests only the collectors in its own and the 8
    neighbouring cells, lowest index first; a collector moves to another cell
    when its centroid crosses a cell edge.  An edge with a NaN or infinite
    coordinate never passes the test: it seeds its own collector and stays
    off the grid.
    """
    r2 = mu_0 * mu_0
    if not math.isfinite(r2):
        raise ValueError(f"mu_0 must be finite with a finite square, got {mu_0!r}")
    cell = _cell_size(kept, r2)
    grid: Dict[Tuple[int, int], List[int]] = {}  # cell -> collector indices
    cx: List[float] = []
    cy: List[float] = []
    counts: List[int] = []
    keys: List[Optional[Tuple[int, int]]] = []
    cells = grid.get
    for p in kept:
        x, y = float(p.x), float(p.y)
        hit = key = None
        if math.isfinite(x) and math.isfinite(y):
            kx, ky = math.floor(x / cell), math.floor(y / cell)
            key = (kx, ky)
            for gx in (kx - 1, kx, kx + 1):
                for gy in (ky - 1, ky, ky + 1):
                    for i in cells((gx, gy), ()):
                        if hit is not None and i >= hit:
                            break
                        dx = cx[i] - x
                        dy = cy[i] - y
                        if dx * dx + dy * dy <= r2:
                            hit = i
                            break
        if hit is None:
            if key is not None:
                grid.setdefault(key, []).append(len(cx))
            cx.append(x)
            cy.append(y)
            counts.append(1)
            keys.append(key)
            continue
        n = counts[hit] + 1
        cx[hit] += (x - cx[hit]) / n
        cy[hit] += (y - cy[hit]) / n
        counts[hit] = n
        moved = (math.floor(cx[hit] / cell), math.floor(cy[hit] / cell))
        if moved != keys[hit]:
            grid[keys[hit]].remove(hit)
            insort(grid.setdefault(moved, []), hit)
            keys[hit] = moved
    return [PixelPoint(x, y) for x, y in zip(cx, cy)], counts


def _cell_size(kept: Sequence[PixelPoint], r2: float) -> float:
    """Grid cell width for `group_edges`.

    A center that passes the test lies within sqrt(r2) of the edge on each
    axis, up to a few ulps, and within 2**-500 when r2 is below 2**-1000 (zero
    included).  The cell is wider than that reach by a factor 1 + 2**-19, and
    at least 2**-29 of the largest finite coordinate, so that v / cell stays
    finite and exact to 2**-24 of a cell: a center in reach is never more than
    one cell away from the edge.
    """
    scale = max((abs(v) for p in kept for v in (p.x, p.y) if math.isfinite(v)),
                default=0.0)
    return max(math.sqrt(r2), 2.0 ** -500, scale * 2.0 ** -29) * (1 + 2.0 ** -19)
