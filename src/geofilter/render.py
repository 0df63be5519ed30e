"""Static SVG overlays: a four-panel layout per frame showing the raw/ignored
edges, the estimated edges, the circles and the squares."""

from __future__ import annotations

from typing import List

from .core import FilterState

# panel color map: normal circles green, rebel circles red, ignored yellow,
# squares magenta
COLOR_NORMAL_CIRCLE = "green"
COLOR_REBEL_CIRCLE = "red"
COLOR_IGNORED = "yellow"
COLOR_SQUARE = "magenta"
COLOR_NORMAL_EDGE = "blue"
COLOR_REBEL_EDGE = "red"
COLOR_CHI = "orange"


def _dot(x: float, y: float, color: str, r: float = 2.0) -> str:
    return f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{color}"/>'


def _ring(x: float, y: float, r: float, color: str) -> str:
    return (f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>')


def _rect(x: float, y: float, rx: float, ry: float, color: str) -> str:
    return (f'<rect x="{x - rx:.2f}" y="{y - ry:.2f}" width="{2 * rx:.2f}" '
            f'height="{2 * ry:.2f}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>')


def render_frame_svg(state: FilterState, width: float, height: float) -> str:
    """Four panels: line expert (top left), edge estimates (top right),
    circles (bottom left), squares (bottom right)."""
    w, h = width, height
    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{2 * w}" '
        f'height="{2 * h}" viewBox="0 0 {2 * w} {2 * h}">',
        f'<rect width="{2 * w}" height="{2 * h}" fill="white"/>',
        f'<line x1="{w}" y1="0" x2="{w}" y2="{2 * h}" stroke="black"/>',
        f'<line x1="0" y1="{h}" x2="{2 * w}" y2="{h}" stroke="black"/>',
    ]

    def panel(ox: float, oy: float, items: List[str]) -> None:
        parts.append(f'<g transform="translate({ox},{oy})">')
        parts.extend(items)
        parts.append("</g>")

    line_items = [_dot(p.x, p.y, COLOR_CHI) for p, _n in state.chi]
    line_items += [_ring(r.loc.x, r.loc.y, r.extent[0], COLOR_IGNORED)
                   if r.ty == 1 else
                   _rect(r.loc.x, r.loc.y, r.extent[0], r.extent[1],
                         COLOR_IGNORED)
                   for r in state.psi]
    panel(0, 0, line_items)

    edge_items = [_dot(e.loc.x, e.loc.y, COLOR_NORMAL_EDGE)
                  for e in state.normal_edges]
    edge_items += [_dot(e.loc.x, e.loc.y, COLOR_REBEL_EDGE, r=3.0)
                   for e in state.rebel_edges]
    panel(w, 0, edge_items)

    circle_items = [_ring(c.loc.x, c.loc.y, c.radius, COLOR_NORMAL_CIRCLE)
                    for c in state.normal_circles]
    circle_items += [_ring(c.loc.x, c.loc.y, c.radius, COLOR_REBEL_CIRCLE)
                     for c in state.rebel_circles]
    circle_items += [_ring(r.loc.x, r.loc.y, r.extent[0], COLOR_IGNORED)
                     for r in state.psi if r.ty == 1]
    panel(0, h, circle_items)

    square_items = [_rect(s.loc.x, s.loc.y, s.radii[0], s.radii[1],
                          COLOR_SQUARE) for s in state.squares]
    square_items += [_rect(r.loc.x, r.loc.y, r.extent[0], r.extent[1],
                           COLOR_IGNORED) for r in state.psi if r.ty == 2]
    panel(w, h, square_items)

    parts.append("</svg>")
    return "\n".join(parts)
