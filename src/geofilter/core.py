"""Domain types, configuration and the trust-factor lifecycle shared by all experts.

All angles are stored in degrees and wrapped to (-180, 180].  Velocities are in
cm/s; pixel locations are frame-local with y growing downward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

PRUNED = None  # sentinel returned by trust_commit when an entity falls below Tr_c


def wrap_deg(angle: float) -> float:
    """Wrap an angle in degrees to the interval (-180, 180]."""
    return 180.0 - (180.0 - angle) % 360.0


class ConfigValueError(ValueError):
    """A value that a config type rejects; `fields` names the fields at
    fault, so that `config_from_text` can name the lines that set them."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


@dataclass(frozen=True)
class PixelPoint:
    x: float
    y: float

    def __add__(self, other: "PixelPoint") -> "PixelPoint":
        return PixelPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "PixelPoint") -> "PixelPoint":
        return PixelPoint(self.x - other.x, self.y - other.y)

    def scaled(self, s: float) -> "PixelPoint":
        return PixelPoint(self.x * s, self.y * s)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "PixelPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class CameraModel:
    f: float  # focal length, pixels
    principal: PixelPoint  # frame origin
    width: float = 640.0
    height: float = 480.0

    def __post_init__(self):
        for name in ("f", "width", "height"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigValueError(f"{name} must be finite", name)
        if self.f <= 0:
            raise ConfigValueError("focal length must be positive", "f")
        if not (0 <= self.principal.x <= self.width and 0 <= self.principal.y <= self.height):
            raise ConfigValueError("principal point outside the frame",
                                   "principal", "width", "height")


@dataclass(frozen=True)
class ImuSample:
    v_v: float  # vehicle speed, cm/s
    a_v: float  # acceleration, cm/s^2
    omega: Tuple[float, float, float]  # (wx, wy, wz), radians per frame interval
    t_f: float = 1.0  # frame interval, s

    def __post_init__(self):
        if not all(map(math.isfinite, (self.v_v, self.a_v, *self.omega, self.t_f))):
            raise ValueError("IMU values must be finite")
        if self.t_f <= 0:
            raise ValueError("frame interval must be positive")


@dataclass(frozen=True)
class TrustLadder:
    tr_c: int  # critical: prune below this
    tr_s: int  # standard: reliable
    tr_m: int  # maximum: cap, triggers ignorance regions

    def __post_init__(self):
        if not (0 <= self.tr_c < self.tr_s < self.tr_m):
            raise ConfigValueError(
                "trust ladder must satisfy 0 <= tr_c < tr_s < tr_m",
                "tr_c", "tr_s", "tr_m")


@dataclass(frozen=True)
class FilterConfig:
    camera: CameraModel
    circle_trust: TrustLadder = TrustLadder(2, 3, 5)
    square_trust: TrustLadder = TrustLadder(3, 5, 7)
    delta_v: float = 9.0  # angular error span, degrees
    delta_beta_1: float = 90.0  # case-1 couple angle offset, degrees
    delta_beta_2: float = 35.0  # case-2 alignment span, degrees
    mu_0: float = 25.0  # initial detection radius, pixels
    rho_c: float = 40.0  # minimum overlap percentage
    eps_beta_n: float = 20.0
    eps_beta_r: float = 50.0
    eps_beta_s: float = 20.0
    eps_beta: float = 20.0
    eps_v_n: float = 40.0
    eps_v_r: float = 100.0
    eps_v: float = 0.7
    eps_v_s: float = 0.7
    psi_lifetime: int = 1  # frames an ignorance region stays active
    px_per_cm: float = 5.0  # projection scale for velocity -> pixel displacement
    use_verbatim_eq1: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigValueError(f"{f.name} must be finite", f.name)
        if not (0 < self.rho_c <= 100):
            raise ConfigValueError("rho_c must be in (0, 100]", "rho_c")
        if not math.isfinite(self.mu_0 * self.mu_0):
            raise ConfigValueError("mu_0 must have a finite square", "mu_0")
        if self.psi_lifetime < 1:
            raise ConfigValueError("psi_lifetime must be >= 1", "psi_lifetime")
        for name in ("delta_v", "mu_0", "eps_beta_n", "eps_beta_r", "eps_beta_s",
                     "eps_beta", "eps_v_n", "eps_v_r", "eps_v", "eps_v_s"):
            if getattr(self, name) < 0:
                raise ConfigValueError(f"{name} must be non-negative", name)


@dataclass
class NormalEdge:
    loc: PixelPoint
    vel: float  # cm/s
    beta: float  # degrees, direction from the frame origin
    mu: float  # detection radius, pixels
    trust: int


@dataclass
class RebelEdge:
    loc: PixelPoint
    vel: float  # cm/s
    beta: float  # degrees, direction from own origin
    mu: float  # deviation angle, degrees
    origin: PixelPoint
    trust: int


@dataclass
class Circle:
    kind: str  # "normal" | "rebel"
    loc: PixelPoint
    radius: float
    vel: float
    beta: float
    trust: int
    members: List[int]
    origin: PixelPoint  # O_I for normal circles, mean member origin for rebels

    def __post_init__(self):
        if self.kind not in ("normal", "rebel"):
            raise ValueError("circle kind must be 'normal' or 'rebel'")


@dataclass
class Square:
    loc: PixelPoint  # center
    radii: Tuple[float, float]  # half-extents (x, y), pixels
    vel: float
    beta: float
    origin: PixelPoint
    trust: int


@dataclass
class IgnoranceRegion:
    loc: PixelPoint
    extent: Tuple[float, ...]  # (r,) for ty=1, (rx, ry) for ty=2
    ty: int  # 1 circular, 2 rectangular
    remaining_frames: int

    def __post_init__(self):
        if self.ty not in (1, 2):
            raise ValueError("ignorance region type must be 1 or 2")

    def contains(self, p: PixelPoint) -> bool:
        if self.ty == 1:
            return p.dist(self.loc) <= self.extent[0]
        return (abs(p.x - self.loc.x) <= self.extent[0]
                and abs(p.y - self.loc.y) <= self.extent[1])


@dataclass
class RebelAlignmentRow:
    """Rolling chain of rebel-candidate positions over at most 3 consecutive frames."""
    chain: List[Tuple[int, PixelPoint]]

    def last_frame(self) -> int:
        return self.chain[-1][0]


@dataclass
class FilterState:
    frame_index: int = -1
    chi: List[Tuple[PixelPoint, int]] = field(default_factory=list)
    psi: List[IgnoranceRegion] = field(default_factory=list)
    alpha: List[RebelAlignmentRow] = field(default_factory=list)
    normal_edges: List[NormalEdge] = field(default_factory=list)
    rebel_edges: List[RebelEdge] = field(default_factory=list)
    normal_circles: List[Circle] = field(default_factory=list)
    rebel_circles: List[Circle] = field(default_factory=list)
    squares: List[Square] = field(default_factory=list)


def trust_init(entity_class: str, ladder: TrustLadder) -> int:
    """Initial trust for a newly created entity.

    Normal edges and circles start at round(0.5 * (tr_c + tr_s)), half-up.
    Squares start at tr_s; rebels one above tr_s.
    """
    if entity_class in ("normal_edge", "normal_circle"):
        return (ladder.tr_c + ladder.tr_s + 1) // 2
    if entity_class == "square":
        return ladder.tr_s
    if entity_class == "rebel":
        return min(ladder.tr_s + 1, ladder.tr_m)
    raise ValueError(f"unknown entity class: {entity_class}")


def trust_commit(trust: int, delta: int, ladder: TrustLadder) -> Optional[int]:
    """Apply a +-1 trust update.  Returns PRUNED (None) when the result drops
    below tr_c, otherwise the new value clamped at tr_m."""
    new = trust + delta
    if new < ladder.tr_c:
        return PRUNED
    return min(new, ladder.tr_m)


# -- flat key=value config serialization ------------------------------------

# FilterConfig fields written as several flat keys; every other field is
# written under its own name
_NESTED = ("camera", "circle_trust", "square_trust")


def _flat(config: FilterConfig) -> Dict[str, object]:
    """The config as flat key=value pairs, in file order."""
    cam = config.camera
    flat = {"f": cam.f, "o_i_x": cam.principal.x, "o_i_y": cam.principal.y,
            "width": cam.width, "height": cam.height}
    for prefix, ladder in (("tr_c", config.circle_trust),
                           ("tr_s", config.square_trust)):
        flat[f"{prefix}_c"] = ladder.tr_c
        flat[f"{prefix}_s"] = ladder.tr_s
        flat[f"{prefix}_m"] = ladder.tr_m
    for f in fields(FilterConfig):
        if f.name not in _NESTED:
            flat[f.name] = getattr(config, f.name)
    return flat


def config_to_text(config: FilterConfig) -> str:
    return "".join(f"{k}={int(v) if isinstance(v, bool) else repr(v)}\n"
                   for k, v in _flat(config).items())


def config_from_text(text: str) -> FilterConfig:
    """Parse flat key=value text; keys left out keep their default_config()
    value. Malformed lines, unknown keys, bad numbers and values that the
    config types reject raise ValueError naming the line (or lines)."""
    flat = _flat(default_config())
    given: Dict[str, int] = {}  # flat key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in flat:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        kind = type(flat[key])
        try:
            num = float(val)
            if not math.isfinite(num):
                raise ValueError
            flat[key] = bool(int(num)) if kind is bool else kind(num)
        except (ValueError, OverflowError):
            raise ValueError(
                f"line {lineno}: bad value for {key}: {val!r}") from None
        given[key] = lineno

    def checked(make, keys=lambda name: (name,)):
        """make(); a value it rejects is reported at the lines that set the
        fields at fault (`keys` maps a field to its flat keys)."""
        try:
            return make()
        except ConfigValueError as exc:
            at = sorted({given[k] for name in exc.fields for k in keys(name)
                         if k in given})
            raise ValueError(f"line{'s' if len(at) > 1 else ''} "
                             f"{', '.join(map(str, at))}: {exc}") from None

    camera = checked(
        lambda: CameraModel(f=flat["f"],
                            principal=PixelPoint(flat["o_i_x"], flat["o_i_y"]),
                            width=flat["width"], height=flat["height"]),
        lambda name: ("o_i_x", "o_i_y") if name == "principal" else (name,))

    def ladder(prefix):
        return checked(lambda: TrustLadder(flat[f"{prefix}_c"],
                                           flat[f"{prefix}_s"],
                                           flat[f"{prefix}_m"]),
                       lambda name: (f"{prefix}_{name[-1]}",))

    circle_trust, square_trust = ladder("tr_c"), ladder("tr_s")
    return checked(lambda: FilterConfig(
        camera=camera, circle_trust=circle_trust, square_trust=square_trust,
        **{f.name: flat[f.name] for f in fields(FilterConfig)
           if f.name not in _NESTED}))


def default_config() -> FilterConfig:
    """The 640x480 camera with f = 500 px and the FilterConfig defaults."""
    return FilterConfig(camera=CameraModel(f=500.0,
                                           principal=PixelPoint(320.0, 240.0)))
