"""Plain-Python forms of two geometric tests that `src/` computes inline,
kept as oracles for the stages that compute them."""

from geofilter.core import IgnoranceRegion, PixelPoint, wrap_deg
from geofilter.kinematics import angle_of


def region_contains(region: IgnoranceRegion, p: PixelPoint) -> bool:
    """True iff p lies in the ignorance region, boundary inclusive."""
    dx, dy = p.x - region.loc.x, p.y - region.loc.y
    if region.ty == 1:
        return dx * dx + dy * dy <= region.extent[0] ** 2
    return abs(dx) <= region.extent[0] and abs(dy) <= region.extent[1]


def within_error_span(candidate: PixelPoint, entity_origin: PixelPoint,
                      entity_beta: float, delta_v: float) -> bool:
    """True iff the candidate lies within the angular error cone of half-width
    delta_v about the entity's motion direction (boundary inclusive)."""
    if candidate.x == entity_origin.x and candidate.y == entity_origin.y:
        return True
    ang = angle_of(candidate, entity_origin)
    return abs(wrap_deg(ang - entity_beta)) <= delta_v
