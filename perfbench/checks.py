"""Output checks, computed apart from the program from the scene's ground
truth, the rendered frames and the files the replay wrote.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
from typing import List, Tuple

from geofilter import pipeline
from geofilter.core import PixelPoint

from workloads import CAMERA, FAST_THRESHOLD, Clip, ClipRun, render

# bounding radius of a 3x3 mark plus the FAST ring: a mark with no other mark
# centre this close (Chebyshev) sees only background on its ring
CLEAR_PX = 8
RING = ((0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
        (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2),
        (-1, -3))


def state_file(clip: Clip, run: ClipRun) -> List[str]:
    """`state.jsonl` has one line per input frame, in order, and each line's
    list lengths equal the report `step` returned for that frame."""
    problems = []
    lines = (clip.directory / "state.jsonl").read_text().splitlines()
    if len(lines) != len(run.frames):
        return [f"{clip.directory.name}: {len(lines)} state lines for "
                f"{len(run.frames)} frames"]
    for line, frame, rep in zip(lines, run.frames, run.reports):
        rec = json.loads(line)
        got = (rec["frame"], len(rec["chi"]), len(rec["normal_edges"]),
               len(rec["rebel_edges"]), len(rec["normal_circles"]),
               len(rec["rebel_circles"]), len(rec["squares"]),
               len(rec["psi"]), len(rec["alpha"]))
        want = (frame, rep.chi, rep.e_n, rep.e_r, rep.c_n, rep.c_r, rep.s,
                rep.psi, rep.alpha)
        if got != want:
            problems.append(f"{clip.directory.name} frame {frame}: state "
                            f"line {got} != report {want}")
    return problems


def baselines(run: ClipRun):
    """The paper's comparison: raw-edge memory of the accumulative store at
    the clip's end, and of a last-8-frames store on average."""
    counts = [len(e) for e in run.edges]
    last8 = pipeline.baseline_store("last_k", counts, k=8)
    return (pipeline.baseline_store("accumulative", counts)[-1],
            sum(last8) / len(last8))


def below_last8(clip: Clip, run: ClipRun, warm_up: int = 8) -> List[str]:
    """After warm-up the state stays below the last-8 raw-edge baseline."""
    counts = [len(e) for e in run.edges]
    last8 = pipeline.baseline_store("last_k", counts, k=8)
    return [f"{clip.directory.name} frame {f}: total {rep.total} >= "
            f"last-8 {base}"
            for f, rep, base in zip(run.frames, run.reports, last8)
            if f >= warm_up and rep.total >= base]


def _inside(p: PixelPoint, region) -> bool:
    dx, dy = p.x - region.loc.x, p.y - region.loc.y
    if region.ty == 1:
        return dx * dx + dy * dy <= region.extent[0] ** 2
    return abs(dx) <= region.extent[0] and abs(dy) <= region.extent[1]


def grouping(clip: Clip, run: ClipRun, every: int, mu_0: float) -> List[str]:
    """On every `every`-th frame, `chi` equals a greedy first-collector
    clustering of the detections outside the ignorance regions still alive
    from the previous frame, and the suppressed count matches."""
    problems = []
    for i in range(1, len(run.frames), every):
        active = [r for r in run.states[i - 1].psi if r.remaining_frames >= 1]
        kept = [p for p in run.edges[i]
                if not any(_inside(p, r) for r in active)]
        centres: List[List[float]] = []  # [x, y, count]
        for p in kept:
            for c in centres:
                if (c[0] - p.x) ** 2 + (c[1] - p.y) ** 2 <= mu_0 * mu_0:
                    c[2] += 1
                    c[0] += (p.x - c[0]) / c[2]
                    c[1] += (p.y - c[1]) / c[2]
                    break
            else:
                centres.append([p.x, p.y, 1])
        chi = run.states[i].chi
        name = f"{clip.directory.name} frame {run.frames[i]}"
        if len(chi) != len(centres):
            problems.append(f"{name}: {len(chi)} collectors, brute force "
                            f"gives {len(centres)}")
            continue
        for (centre, n), (x, y, m) in zip(chi, centres):
            if n != m or abs(centre.x - x) > 1e-6 or abs(centre.y - y) > 1e-6:
                problems.append(f"{name}: collector ({centre.x:.3f}, "
                                f"{centre.y:.3f}) x{n} != ({x:.3f}, {y:.3f}) "
                                f"x{m}")
                break
        suppressed = len(run.edges[i]) - sum(n for _c, n in chi)
        if suppressed != len(run.edges[i]) - len(kept):
            problems.append(f"{name}: {suppressed} suppressed, "
                            f"{len(run.edges[i]) - len(kept)} lie in regions")
    return problems


def _segment_test(img, x: int, y: int, t: float) -> bool:
    centre = int(img[y, x])
    ring = [int(img[y + dy, x + dx]) for dx, dy in RING]
    for sign in (1, -1):
        hits = [sign * (v - centre) > t for v in ring]
        run = 0
        for h in hits + hits[:8]:
            run = run + 1 if h else 0
            if run >= 9:
                return True
    return False


def camera(clip: Clip, truth, run: ClipRun, every: int) -> List[str]:
    """On every `every`-th frame, each detection passes a FAST-9 segment test
    on the rendered frame, and each mark clear of the others has a detection
    within 1.5 px."""
    problems = []
    w, h = int(CAMERA.width), int(CAMERA.height)
    for i in range(0, len(run.frames), every):
        marks = truth.edges(run.frames[i])
        img, dets = render(marks, CAMERA), run.edges[i]
        name = f"{clip.directory.name} frame {run.frames[i]}"
        bad = [p for p in dets
               if not _segment_test(img, int(p.x), int(p.y), FAST_THRESHOLD)]
        if bad:
            problems.append(f"{name}: {len(bad)} of {len(dets)} detections "
                            f"fail the segment test, first {bad[0]}")
        rounded = [(round(p.x), round(p.y)) for p in marks]
        for p, (x, y) in zip(marks, rounded):
            if not (4 <= x < w - 4 and 4 <= y < h - 4):
                continue
            if sum(1 for u, v in rounded
                   if abs(u - x) <= CLEAR_PX and abs(v - y) <= CLEAR_PX) > 1:
                continue
            if not any(p.dist(d) <= 1.5 for d in dets):
                problems.append(f"{name}: no detection within 1.5 px of the "
                                f"mark at ({p.x:.1f}, {p.y:.1f})")
    return problems


def mover_confirmations(truth, run: ClipRun) -> List[bool]:
    """For each mover seen on at least three frames: is there a rebel edge
    within 1 px of its true position on its third visible frame?"""
    seen = {}
    out = []
    for i, frame in enumerate(run.frames):
        for p, label, oid in truth.frames[frame]:
            if label != "rebel":
                continue
            seen[oid] = seen.get(oid, 0) + 1
            if seen[oid] == 3:
                out.append(any(r.loc.dist(p) < 1.0
                               for r in run.states[i].rebel_edges))
    return out


def fault_operations(clip: Clip, truth, run: ClipRun) -> Tuple[int, int]:
    """Operations beyond the replayed frames, and failed operations, of a
    clip on fixed inputs. With movers, each mover confirmation is an
    operation, and it fails as `mover_confirmations` says. Without movers, a
    frame fails when it ends with a confirmed rebel edge, because nothing in
    the scene moves."""
    if clip.spec.movers:
        confirmed = mover_confirmations(truth, run)
        return len(confirmed), confirmed.count(False)
    return 0, sum(1 for rep in run.reports if rep.e_r > 0)
