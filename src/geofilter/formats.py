"""File formats: JSONL frame records, IMU logs, state snapshots and the
metrics CSV."""

from __future__ import annotations

import json
import logging
import math
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from .core import (Circle, FilterState, IgnoranceRegion, ImuSample, NormalEdge,
                   PixelPoint, RebelAlignmentRow, RebelEdge, Square)
from .pipeline import DimensionalityReport
from .scene_synth import SceneTruth

log = logging.getLogger(__name__)

# the count columns from chi to alpha sum to total; edges, the raw detections
# of the frame, is kept apart for the accumulative and last-K baselines
METRICS_COLUMNS = ("frame", "chi", "e_n", "e_r", "c_n", "c_r", "s", "psi",
                   "alpha", "total", "edges")


class FrameFormatError(ValueError):
    pass


def _frame_index(value) -> int:
    """A record's frame index: an integer, or a float without a fraction.
    A boolean or a fractional index raises ValueError instead of being
    truncated."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"frame index must be an integer, got {value!r}")
    return int(value)


def parse_frames(path: Union[str, Path]) -> Iterator[Tuple[int, List[PixelPoint]]]:
    """Stream (frame_index, edges) records from a JSONL file.  Frame indices
    must be non-negative and strictly increasing, and coordinates finite."""
    last = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                frame = _frame_index(rec["frame"])
                edges = [PixelPoint(float(x), float(y)) for x, y in rec["edges"]]
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise FrameFormatError(f"{path}:{lineno}: malformed frame record: {exc}")
            if frame < 0:
                raise FrameFormatError(
                    f"{path}:{lineno}: negative frame index {frame}")
            if not all(math.isfinite(p.x) and math.isfinite(p.y) for p in edges):
                raise FrameFormatError(
                    f"{path}:{lineno}: non-finite edge coordinate in frame {frame}")
            if last is not None and frame <= last:
                raise FrameFormatError(
                    f"{path}:{lineno}: non-monotonic frame index {frame} after {last}")
            last = frame
            yield frame, edges


def write_frames(path: Union[str, Path],
                 frames: Sequence[Tuple[int, Sequence[PixelPoint]]]) -> None:
    with open(path, "w") as fh:
        for frame, edges in frames:
            rec = {"frame": frame, "edges": [[p.x, p.y] for p in edges]}
            fh.write(json.dumps(rec) + "\n")


def parse_imu(path: Union[str, Path], n_frames: Optional[int] = None
              ) -> List[ImuSample]:
    """Read one IMU record per frame; missing frames hold the last value.
    Malformed records and non-finite values raise naming file and line."""
    records = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                records[_frame_index(rec["frame"])] = ImuSample(
                    v_v=float(rec["v_v"]), a_v=float(rec["a_v"]),
                    omega=(float(rec["wx"]), float(rec["wy"]), float(rec["wz"])),
                    t_f=float(rec["t_f"]))
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise FrameFormatError(f"{path}:{lineno}: malformed IMU record: {exc}")
    if not records:
        raise FrameFormatError(f"{path}: no IMU records")
    hi = max(records) + 1 if n_frames is None else n_frames
    out: List[ImuSample] = []
    last = records[min(records)]
    for frame in range(hi):
        if frame in records:
            last = records[frame]
        else:
            log.warning("IMU record missing for frame %d; holding last value", frame)
        out.append(last)
    return out


def write_imu(path: Union[str, Path], samples: Sequence[ImuSample]) -> None:
    with open(path, "w") as fh:
        for frame, s in enumerate(samples):
            rec = {"frame": frame, "v_v": s.v_v, "a_v": s.a_v,
                   "wx": s.omega[0], "wy": s.omega[1], "wz": s.omega[2],
                   "t_f": s.t_f}
            fh.write(json.dumps(rec) + "\n")


def write_scene(truth: SceneTruth, frames_path: Union[str, Path],
                imu_path: Union[str, Path]) -> None:
    write_frames(frames_path,
                 [(k, truth.edges(k)) for k in range(len(truth.frames))])
    write_imu(imu_path, truth.imu)


# -- state snapshots ---------------------------------------------------------

def _point(p: PixelPoint) -> List[float]:
    return [p.x, p.y]


def state_to_dict(state: FilterState) -> dict:
    return {
        "frame": state.frame_index,
        "chi": [[_point(p), n] for p, n in state.chi],
        "psi": [{"loc": _point(r.loc), "extent": list(r.extent), "ty": r.ty,
                 "remaining": r.remaining_frames} for r in state.psi],
        "alpha": [[[f, _point(p)] for f, p in row.chain] for row in state.alpha],
        "normal_edges": [{"loc": _point(e.loc), "vel": e.vel, "beta": e.beta,
                          "mu": e.mu, "trust": e.trust}
                         for e in state.normal_edges],
        "rebel_edges": [{"loc": _point(e.loc), "vel": e.vel, "beta": e.beta,
                         "mu": e.mu, "origin": _point(e.origin),
                         "trust": e.trust} for e in state.rebel_edges],
        "normal_circles": [_circle_dict(c) for c in state.normal_circles],
        "rebel_circles": [_circle_dict(c) for c in state.rebel_circles],
        "squares": [{"loc": _point(s.loc), "radii": list(s.radii), "vel": s.vel,
                     "beta": s.beta, "origin": _point(s.origin),
                     "trust": s.trust} for s in state.squares],
    }


def _circle_dict(c: Circle) -> dict:
    return {"kind": c.kind, "loc": _point(c.loc), "radius": c.radius,
            "vel": c.vel, "beta": c.beta, "trust": c.trust,
            "members": list(c.members), "origin": _point(c.origin)}


def _pp(v: Sequence[float]) -> PixelPoint:
    return PixelPoint(v[0], v[1])


def state_from_dict(rec: dict) -> FilterState:
    """Inverse of `state_to_dict`.  Keys it does not read, such as the
    `collectors` of older logs, are ignored."""
    return FilterState(
        frame_index=rec["frame"],
        chi=[(_pp(p), n) for p, n in rec["chi"]],
        psi=[IgnoranceRegion(loc=_pp(r["loc"]), extent=tuple(r["extent"]),
                             ty=r["ty"], remaining_frames=r["remaining"])
             for r in rec["psi"]],
        alpha=[RebelAlignmentRow([(f, _pp(p)) for f, p in row])
               for row in rec["alpha"]],
        normal_edges=[NormalEdge(loc=_pp(e["loc"]), vel=e["vel"],
                                 beta=e["beta"], mu=e["mu"], trust=e["trust"])
                      for e in rec["normal_edges"]],
        rebel_edges=[RebelEdge(loc=_pp(e["loc"]), vel=e["vel"], beta=e["beta"],
                               mu=e["mu"], origin=_pp(e["origin"]),
                               trust=e["trust"]) for e in rec["rebel_edges"]],
        normal_circles=[_circle_from(c) for c in rec["normal_circles"]],
        rebel_circles=[_circle_from(c) for c in rec["rebel_circles"]],
        squares=[Square(loc=_pp(s["loc"]), radii=tuple(s["radii"]),
                        vel=s["vel"], beta=s["beta"], origin=_pp(s["origin"]),
                        trust=s["trust"]) for s in rec["squares"]],
    )


def _circle_from(c: dict) -> Circle:
    return Circle(kind=c["kind"], loc=_pp(c["loc"]), radius=c["radius"],
                  vel=c["vel"], beta=c["beta"], trust=c["trust"],
                  members=list(c["members"]), origin=_pp(c["origin"]))


def write_state_jsonl(path: Union[str, Path],
                      states: Sequence[FilterState]) -> None:
    with open(path, "w") as fh:
        for st in states:
            fh.write(json.dumps(state_to_dict(st), sort_keys=True) + "\n")


def metrics_row(report: DimensionalityReport, frame: int) -> str:
    return ",".join(str(frame) if c == "frame" else str(getattr(report, c))
                    for c in METRICS_COLUMNS)


def write_metrics_csv(path: Union[str, Path],
                      rows: Sequence[Tuple[int, DimensionalityReport]]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        for frame, report in rows:
            fh.write(metrics_row(report, frame) + "\n")
