"""File formats: JSONL frame records, IMU logs, state snapshots and the
metrics CSV."""

from __future__ import annotations

import json
import logging
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .core import (Circle, FilterState, IgnoranceRegion, ImuSample, NormalEdge,
                   PixelPoint, RebelEdge, Square)
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


def _records(path: Union[str, Path], what: str,
             decode: Callable[[dict], object]) -> Iterator[tuple]:
    """(line number, decode(record)) for each non-blank line of a JSONL
    file.  A line that is not JSON, or whose record `decode` rejects with
    KeyError, TypeError or ValueError, raises FrameFormatError naming file
    and line."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                value = decode(json.loads(line))
            except (KeyError, TypeError, ValueError) as exc:
                raise FrameFormatError(
                    f"{path}:{lineno}: malformed {what} record: {exc}")
            yield lineno, value


def _indexed(path: Union[str, Path], what: str,
             decode: Callable[[dict], tuple]) -> Iterator[tuple]:
    """(line number, frame, value) for each record `decode` turns into a
    (frame, value) pair, as `_records` reads them.  Frame indices must be
    non-negative and strictly increasing."""
    last = None
    for lineno, (frame, value) in _records(path, what, decode):
        if frame < 0:
            raise FrameFormatError(
                f"{path}:{lineno}: negative frame index {frame}")
        if last is not None and frame <= last:
            raise FrameFormatError(f"{path}:{lineno}: non-monotonic frame "
                                   f"index {frame} after {last}")
        last = frame
        yield lineno, frame, value


def _frame_record(rec: dict) -> Tuple[int, List[PixelPoint]]:
    return (_frame_index(rec["frame"]),
            [PixelPoint(float(x), float(y)) for x, y in rec["edges"]])


def parse_frames(path: Union[str, Path]) -> Iterator[Tuple[int, List[PixelPoint]]]:
    """Stream (frame_index, edges) records from a JSONL file.  Frame indices
    must be non-negative and strictly increasing, and coordinates finite."""
    for lineno, frame, edges in _indexed(path, "frame", _frame_record):
        if not all(math.isfinite(p.x) and math.isfinite(p.y) for p in edges):
            raise FrameFormatError(
                f"{path}:{lineno}: non-finite edge coordinate in frame {frame}")
        yield frame, edges


def write_frames(path: Union[str, Path],
                 frames: Sequence[Tuple[int, Sequence[PixelPoint]]]) -> None:
    with open(path, "w") as fh:
        for frame, edges in frames:
            rec = {"frame": frame, "edges": edges}
            fh.write(json.dumps(rec) + "\n")


def _imu_record(rec: dict) -> Tuple[int, ImuSample]:
    return _frame_index(rec["frame"]), ImuSample(
        v_v=float(rec["v_v"]), a_v=float(rec["a_v"]),
        omega=(float(rec["wx"]), float(rec["wy"]), float(rec["wz"])),
        t_f=float(rec["t_f"]))


def parse_imu(path: Union[str, Path], n_frames: Optional[int] = None
              ) -> List[ImuSample]:
    """Read one IMU record per frame; missing frames hold the last value.
    Frame indices must be non-negative and strictly increasing; malformed
    records and non-finite values raise naming file and line."""
    records = {frame: sample for _lineno, frame, sample
               in _indexed(path, "IMU", _imu_record)}
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

# FilterState fields written as lists of records of their entities' own
# fields, and read back as these entities
_ENTITIES = {"normal_edges": NormalEdge, "rebel_edges": RebelEdge,
             "normal_circles": Circle, "rebel_circles": Circle,
             "squares": Square}


def state_to_dict(state: FilterState) -> dict:
    """One JSON-ready record of the state: each entity is a dict of its own
    fields, points are (x, y) pairs and an ignorance region's
    `remaining_frames` is written as `remaining`. Normal edges are written
    straight from their columns."""
    rec = {"frame": state.frame_index, "chi": state.chi, "alpha": state.alpha,
           "psi": [{"loc": r.loc, "extent": r.extent, "ty": r.ty,
                    "remaining": r.remaining_frames} for r in state.psi],
           "normal_edges": [
               {"loc": (x, y), "vel": vel, "beta": beta, "mu": mu,
                "trust": trust}
               for x, y, vel, beta, mu, trust in state.normal_edges.rows()]}
    for name in _ENTITIES:
        if name not in rec:
            rec[name] = [dict(vars(e)) for e in getattr(state, name)]
    return rec


def _real(value):
    """`value` when it is a finite real number: a JSON integer or float
    within float range, not a boolean.  Anything else raises ValueError."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _point(pair) -> PixelPoint:
    x, y = pair
    return PixelPoint(_real(x), _real(y))


def _reals(values) -> tuple:
    return tuple(map(_real, values))


# geometry fields, read back as the finite points, numbers and tuples they were
_DECODE = {"loc": _point, "origin": _point, "radius": _real, "radii": _reals,
           "extent": _reals}


def _entity(kind, rec: dict):
    """`kind` built from the values of its fields in `rec`; other keys are
    ignored."""
    values = {f.name: rec[f.name] for f in fields(kind)}
    for name in _DECODE.keys() & values.keys():
        values[name] = _DECODE[name](values[name])
    return kind(**values)


def state_from_dict(rec: dict) -> FilterState:
    """Inverse of `state_to_dict`.  A point, `radius`, `radii` or `extent`
    that is not finite numbers raises ValueError.  Keys it does not read,
    such as the `collectors` of older logs, are ignored."""
    return FilterState(
        frame_index=_frame_index(rec["frame"]),
        chi=[(_point(p), n) for p, n in rec["chi"]],
        psi=[_entity(IgnoranceRegion,
                     {**r, "remaining_frames": r["remaining"]})
             for r in rec["psi"]],
        alpha=[[(f, _point(p), born) for f, p, born in row]
               for row in rec["alpha"]],
        **{name: [_entity(kind, e) for e in rec[name]]
           for name, kind in _ENTITIES.items()})


def parse_states(path: Union[str, Path]) -> Iterator[FilterState]:
    """Stream the states of a `state.jsonl` file, skipping blank lines.  A
    line that is not a state record raises FrameFormatError naming file and
    line."""
    for _lineno, state in _records(path, "state", state_from_dict):
        yield state


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
