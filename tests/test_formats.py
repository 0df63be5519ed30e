import json
import logging
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from geofilter import formats
from geofilter.core import (Circle, FilterState, IgnoranceRegion, ImuSample,
                            NormalEdge, PixelPoint, RebelEdge, Square)
from geofilter.pipeline import DimensionalityReport


class TestFrames:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        frames = [(0, [PixelPoint(1.5, 2.0)]),
                  (2, [PixelPoint(3.0, 4.0), PixelPoint(5.0, 6.0)])]
        formats.write_frames(path, frames)
        assert list(formats.parse_frames(path)) == frames

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text('{"frame": 0, "edges": [[1, 2]]}\n\n')
        assert list(formats.parse_frames(path)) == [(0, [PixelPoint(1.0, 2.0)])]

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text('{"frame": 0, "edges": []}\n{"frame": 1}\n')
        with pytest.raises(formats.FrameFormatError, match=":2:"):
            list(formats.parse_frames(path))

    @pytest.mark.parametrize("coord", ["NaN", "Infinity", "-Infinity", "1e999",
                                       '"nan"'])
    def test_non_finite_coordinate_reports_line(self, tmp_path, coord):
        path = tmp_path / "frames.jsonl"
        path.write_text('{"frame": 0, "edges": [[1, 2]]}\n'
                        f'{{"frame": 1, "edges": [[3, 4], [{coord}, 5]]}}\n')
        with pytest.raises(formats.FrameFormatError,
                           match=r"frames\.jsonl:2: non-finite"):
            list(formats.parse_frames(path))

    @pytest.mark.parametrize("index", ["0.9", "1.5", "true", "false"])
    def test_non_integer_frame_index_reports_line(self, tmp_path, index):
        path = tmp_path / "frames.jsonl"
        path.write_text('{"frame": 0, "edges": [[1, 2]]}\n'
                        f'{{"frame": {index}, "edges": [[3, 4]]}}\n')
        with pytest.raises(formats.FrameFormatError,
                           match=r"frames\.jsonl:2: .*must be an integer"):
            list(formats.parse_frames(path))

    def test_whole_float_frame_index_accepted(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text('{"frame": 2.0, "edges": [[1, 2]]}\n')
        assert list(formats.parse_frames(path)) == [(2, [PixelPoint(1.0, 2.0)])]

    def test_non_monotonic_rejected(self, tmp_path):
        path = tmp_path / "frames.jsonl"
        path.write_text('{"frame": 1, "edges": []}\n'
                        '{"frame": 1, "edges": []}\n')
        with pytest.raises(formats.FrameFormatError, match="non-monotonic"):
            list(formats.parse_frames(path))


class TestImu:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "imu.jsonl"
        samples = [ImuSample(v_v=2.0, a_v=0.1, omega=(0.01, 0.0, -0.02),
                             t_f=0.5),
                   ImuSample(v_v=2.5, a_v=0.1, omega=(0.0, 0.0, 0.0), t_f=0.5)]
        formats.write_imu(path, samples)
        assert formats.parse_imu(path) == samples

    def test_missing_frame_holds_last(self, tmp_path, caplog):
        path = tmp_path / "imu.jsonl"
        path.write_text(
            '{"frame": 0, "v_v": 1.0, "a_v": 0, "wx": 0, "wy": 0, "wz": 0, '
            '"t_f": 1.0}\n'
            '{"frame": 2, "v_v": 3.0, "a_v": 0, "wx": 0, "wy": 0, "wz": 0, '
            '"t_f": 1.0}\n')
        with caplog.at_level(logging.WARNING):
            out = formats.parse_imu(path, n_frames=4)
        assert [s.v_v for s in out] == [1.0, 1.0, 3.0, 3.0]
        assert any("holding last value" in r.message for r in caplog.records)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "imu.jsonl"
        path.write_text("")
        with pytest.raises(formats.FrameFormatError, match="no IMU records"):
            formats.parse_imu(path)

    @pytest.mark.parametrize("field", ["v_v", "a_v", "wx", "wy", "wz", "t_f"])
    def test_non_finite_value_reports_line(self, tmp_path, field):
        rec = {"frame": 0, "v_v": 1.0, "a_v": 0, "wx": 0, "wy": 0, "wz": 0,
               "t_f": 1.0}
        bad = dict(rec, frame=1, **{field: float("nan")})
        path = tmp_path / "imu.jsonl"
        path.write_text(json.dumps(rec) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(formats.FrameFormatError,
                           match=r"imu\.jsonl:2: .*finite"):
            formats.parse_imu(path)

    @pytest.mark.parametrize("index", [1.7, 0.5, True, False])
    def test_non_integer_frame_index_reports_line(self, tmp_path, index):
        rec = {"frame": 0, "v_v": 1.0, "a_v": 0, "wx": 0, "wy": 0, "wz": 0,
               "t_f": 1.0}
        path = tmp_path / "imu.jsonl"
        path.write_text(json.dumps(rec) + "\n"
                        + json.dumps(dict(rec, frame=index)) + "\n")
        with pytest.raises(formats.FrameFormatError,
                           match=r"imu\.jsonl:2: .*must be an integer"):
            formats.parse_imu(path)

    @pytest.mark.parametrize("frames,message", [
        ((0, 1, 1), r"imu\.jsonl:3: non-monotonic frame index 1 after 1"),
        ((-1, 0), r"imu\.jsonl:1: negative frame index -1"),
        ((0, 2, 1), r"imu\.jsonl:3: non-monotonic frame index 1 after 2"),
    ], ids=["duplicate", "negative", "out-of-order"])
    def test_frame_indices_checked_like_frames(self, tmp_path, frames,
                                               message):
        path = tmp_path / "imu.jsonl"
        path.write_text("".join(
            json.dumps({"frame": k, "v_v": 2.0 + i, "a_v": 0, "wx": 0,
                        "wy": 0, "wz": 0, "t_f": 1.0}) + "\n"
            for i, k in enumerate(frames)))
        with pytest.raises(formats.FrameFormatError, match=message):
            formats.parse_imu(path)

    def test_malformed_reports_line(self, tmp_path):
        path = tmp_path / "imu.jsonl"
        path.write_text('{"frame": 0, "v_v": 1.0}\n')
        with pytest.raises(formats.FrameFormatError, match=":1:"):
            formats.parse_imu(path)


def _full_state():
    return FilterState(
        frame_index=7,
        chi=[(PixelPoint(1.0, 2.0), 3)],
        psi=[IgnoranceRegion(loc=PixelPoint(9.0, 9.0), extent=(4.0,), ty=1,
                             remaining_frames=1),
             IgnoranceRegion(loc=PixelPoint(8.0, 8.0), extent=(4.0, 2.0),
                             ty=2, remaining_frames=0)],
        alpha=[[(6, PixelPoint(3.0, 4.0), False),
                (7, PixelPoint(5.0, 6.0), True)]],
        normal_edges=[NormalEdge(loc=PixelPoint(10.0, 20.0), vel=2.0,
                                 beta=30.0, mu=25.0, trust=3)],
        rebel_edges=[RebelEdge(loc=PixelPoint(11.0, 21.0), vel=1.5, beta=-40.0,
                               mu=3.0, origin=PixelPoint(5.0, 5.0), trust=4)],
        normal_circles=[Circle(kind="normal", loc=PixelPoint(12.0, 22.0),
                               radius=30.0, vel=2.0, beta=15.0, trust=3,
                               members=[0], origin=PixelPoint(320.0, 240.0))],
        rebel_circles=[Circle(kind="rebel", loc=PixelPoint(13.0, 23.0),
                              radius=26.0, vel=1.0, beta=-10.0, trust=4,
                              members=[0], origin=PixelPoint(5.0, 5.0))],
        squares=[Square(loc=PixelPoint(14.0, 24.0), radii=(40.0, 30.0),
                        vel=2.0, beta=55.0, origin=PixelPoint(320.0, 240.0),
                        trust=5)],
    )


_num = st.floats(allow_nan=False, allow_infinity=False)
_pts = st.builds(PixelPoint, _num, _num)
_trust = st.integers(0, 9)
_circles = st.builds(Circle, kind=st.sampled_from(("normal", "rebel")),
                     loc=_pts, radius=_num, vel=_num, beta=_num, trust=_trust,
                     members=st.lists(st.integers(0, 99), max_size=3),
                     origin=_pts)
_states = st.builds(
    FilterState,
    frame_index=st.integers(-1, 10 ** 6),
    chi=st.lists(st.tuples(_pts, st.integers(1, 9)), max_size=3),
    psi=st.lists(st.one_of(
        st.builds(IgnoranceRegion, loc=_pts, extent=st.tuples(_num),
                  ty=st.just(1), remaining_frames=st.integers(0, 5)),
        st.builds(IgnoranceRegion, loc=_pts, extent=st.tuples(_num, _num),
                  ty=st.just(2), remaining_frames=st.integers(0, 5))),
        max_size=3),
    alpha=st.lists(st.lists(st.tuples(st.integers(0, 99), _pts,
                                      st.booleans()),
                            min_size=1, max_size=3), max_size=2),
    normal_edges=st.lists(st.builds(NormalEdge, loc=_pts, vel=_num, beta=_num,
                                    mu=_num, trust=_trust), max_size=3),
    rebel_edges=st.lists(st.builds(RebelEdge, loc=_pts, vel=_num, beta=_num,
                                   mu=_num, origin=_pts, trust=_trust),
                         max_size=3),
    normal_circles=st.lists(_circles, max_size=2),
    rebel_circles=st.lists(_circles, max_size=2),
    squares=st.lists(st.builds(Square, loc=_pts, radii=st.tuples(_num, _num),
                               vel=_num, beta=_num, origin=_pts,
                               trust=_trust), max_size=2))


class TestStateSnapshots:
    def test_round_trip_through_json(self):
        state = _full_state()
        rec = json.loads(json.dumps(formats.state_to_dict(state)))
        assert formats.state_from_dict(rec) == state

    @given(_states)
    def test_round_trip_generated(self, state):
        line = json.dumps(formats.state_to_dict(state), sort_keys=True)
        assert formats.state_from_dict(json.loads(line)) == state

    def test_entity_records_hold_exactly_their_fields(self):
        # psi is written apart: its remaining_frames goes under `remaining`
        rec = formats.state_to_dict(_full_state())
        kinds = {"normal_edges": NormalEdge, "rebel_edges": RebelEdge,
                 "normal_circles": Circle, "rebel_circles": Circle,
                 "squares": Square}
        for name, kind in kinds.items():
            assert rec[name]
            for entity in rec[name]:
                assert set(entity) == {f.name for f in fields(kind)}
        names = {f.name for f in fields(IgnoranceRegion)}
        for region in rec["psi"]:
            assert set(region) == names - {"remaining_frames"} | {"remaining"}

    def test_reads_lines_that_carry_collectors(self):
        # logs written before `collectors` was dropped repeat chi there
        state = _full_state()
        rec = formats.state_to_dict(state)
        assert "collectors" not in rec
        rec["collectors"] = [{"center": p, "radius": 25.0, "count": n}
                             for p, n in rec["chi"]]
        assert formats.state_from_dict(json.loads(json.dumps(rec))) == state

    @pytest.mark.parametrize("bad", ["a", float("nan"), True, None, 10 ** 400],
                             ids=["str", "nan", "bool", "null", "huge-int"])
    @pytest.mark.parametrize("path", [
        ("chi", 0, 0, 1), ("alpha", 0, 1, 1, 1),
        ("normal_edges", 0, "loc", 1), ("rebel_edges", 0, "origin", 1),
        ("normal_circles", 0, "radius"), ("squares", 0, "radii", 1),
        ("psi", 1, "extent", 1),
    ], ids=["chi", "alpha", "loc", "origin", "radius", "radii", "extent"])
    def test_geometry_must_be_finite_numbers(self, path, bad):
        rec = json.loads(json.dumps(formats.state_to_dict(_full_state())))
        node = rec
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        with pytest.raises(ValueError, match="expected a finite number"):
            formats.state_from_dict(rec)

    def test_parse_states_skips_blank_lines(self, tmp_path):
        path = tmp_path / "state.jsonl"
        formats.write_state_jsonl(path, [_full_state()])
        path.write_text("\n" + path.read_text() + "\n  \n")
        assert list(formats.parse_states(path)) == [_full_state()]

    def test_jsonl_is_one_sorted_record_per_state(self, tmp_path):
        path = tmp_path / "state.jsonl"
        formats.write_state_jsonl(path, [_full_state(), _full_state()])
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert list(rec) == sorted(rec)
        assert rec["frame"] == 7


class TestMetrics:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "metrics.csv"
        rep = DimensionalityReport(chi=5, e_n=4, e_r=1, c_n=2, c_r=1, s=1,
                                   psi=2, alpha=3, edges=40)
        formats.write_metrics_csv(path, [(0, rep)])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(formats.METRICS_COLUMNS)
        assert lines[0].endswith(",total,edges")
        assert lines[1] == f"0,5,4,1,2,1,1,2,3,{rep.total},40"
