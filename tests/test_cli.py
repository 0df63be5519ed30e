import json

import numpy as np
import pytest

from geofilter import cli
from geofilter.core import config_to_text, default_config
from geofilter.detect import detect_fast9
from geofilter.pipeline import baseline_store


def _edges_column(out):
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].split(",")[-1] == "edges"
    return [int(line.split(",")[-1]) for line in lines[1:]]


def _write_pgm(path, img):
    h, w = img.shape
    path.write_bytes(b"P5\n# comment\n%d %d\n255\n" % (w, h)
                     + img.astype(np.uint8).tobytes())


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    assert cli.main(["synth", "--out", str(out), "--seed", "3", "--points",
                     "80", "--n-frames", "8",
                     "--movers", "[[100, 100, 9, 3, 2]]"]) == 0
    return out


class TestReadPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(12, 17), dtype=np.uint8)
        path = tmp_path / "img.pgm"
        _write_pgm(path, img)
        assert np.array_equal(cli.read_pgm(path), img)

    def test_rejects_ascii_pgm(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError, match="not a binary PGM"):
            cli.read_pgm(path)


class TestSynth:
    def test_writes_dataset(self, dataset):
        assert (dataset / "frames.jsonl").exists()
        assert (dataset / "imu.jsonl").exists()
        assert (dataset / "config.txt").read_text() == \
            config_to_text(default_config())
        first = json.loads((dataset / "frames.jsonl").read_text()
                           .splitlines()[0])
        assert first["frame"] == 0 and len(first["edges"]) > 0


class TestRun:
    def test_metrics_columns_sum_to_total(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "run"
        assert cli.main(["synth", "--out", str(data), "--seed", "2",
                         "--points", "150", "--n-frames", "30",
                         "--noise", "1"]) == 0
        assert cli.main(["run", "--frames", str(data / "frames.jsonl"),
                         "--imu", str(data / "imu.jsonl"),
                         "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].endswith(",total,edges")
        for line in lines[1:]:
            _frame, *counts, total, _edges = (int(v) for v in line.split(","))
            assert sum(counts) == total, line

    def test_produces_state_and_metrics(self, dataset, tmp_path):
        out = tmp_path / "run"
        rc = cli.main(["run", "--frames", str(dataset / "frames.jsonl"),
                       "--imu", str(dataset / "imu.jsonl"),
                       "--config", str(dataset / "config.txt"),
                       "--out", str(out)])
        assert rc == 0
        states = (out / "state.jsonl").read_text().strip().split("\n")
        assert len(states) == 8
        metrics = (out / "metrics.csv").read_text().strip().split("\n")
        assert metrics[0].startswith("frame,chi,")
        assert len(metrics) == 9

    def test_edges_column_counts_raw_detections(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["run", "--frames", str(dataset / "frames.jsonl"),
                         "--imu", str(dataset / "imu.jsonl"),
                         "--out", str(out)]) == 0
        detections = [len(json.loads(line)["edges"]) for line in
                      (dataset / "frames.jsonl").read_text().splitlines()]
        edges = _edges_column(out)
        assert edges == detections
        # the accumulative baseline of the edges column never decreases
        acc = baseline_store("accumulative", edges)
        assert acc == sorted(acc) and acc[-1] == sum(edges)

    def test_edges_column_counts_fast9_detections(self, dataset, tmp_path):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        img = np.zeros((480, 640), dtype=np.uint8)
        img[100:103, 200:203] = 220
        img[300:, 400:] = 180
        _write_pgm(imgdir / "000001.pgm", img)
        out = tmp_path / "run"
        assert cli.main(["run", "--frames", str(dataset / "frames.jsonl"),
                         "--imu", str(dataset / "imu.jsonl"),
                         "--images", str(imgdir), "--out", str(out)]) == 0
        detections = [len(json.loads(line)["edges"]) for line in
                      (dataset / "frames.jsonl").read_text().splitlines()]
        detections[1] = len(detect_fast9(cli.read_pgm(imgdir / "000001.pgm"),
                                         20.0))
        assert detections[1] > 0
        assert _edges_column(out) == detections

    def test_config_mu_0_overflow_exits_2_before_frame_0(self, dataset,
                                                         tmp_path, capsys):
        config = dataset / "config.txt"
        config.write_text(config.read_text().replace("mu_0=25.0",
                                                     "mu_0=1e200"))
        out = tmp_path / "run"
        rc = cli.main(["run", "--frames", str(dataset / "frames.jsonl"),
                       "--imu", str(dataset / "imu.jsonl"),
                       "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "mu_0" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("rho_c", "0.0", "rho_c must be in (0, 100]"),
        ("mu_0", "1e200", "mu_0 must have a finite square"),
    ])
    def test_config_value_rejected_names_its_line(self, dataset, tmp_path,
                                                  capsys, key, value, message):
        config = dataset / "config.txt"
        lines = config.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if line.startswith(f"{key}="))
        lines[lineno - 1] = f"{key}={value}"
        config.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        rc = cli.main(["run", "--frames", str(dataset / "frames.jsonl"),
                       "--imu", str(dataset / "imu.jsonl"),
                       "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: line {lineno}: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc = cli.main(["run", "--frames", str(tmp_path / "nope.jsonl"),
                       "--imu", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("target,line", [("frames.jsonl", 3),
                                             ("imu.jsonl", 2)])
    def test_non_finite_input_exits_2_naming_the_line(
            self, dataset, tmp_path, capsys, target, line):
        path = dataset / target
        lines = path.read_text().splitlines()
        rec = json.loads(lines[line - 1])
        if target == "frames.jsonl":
            rec["edges"][0][0] = float("nan")
        else:
            rec["v_v"] = float("nan")
        lines[line - 1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        rc = cli.main(["run", "--frames", str(dataset / "frames.jsonl"),
                       "--imu", str(dataset / "imu.jsonl"),
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{target}:{line}:" in err and "finite" in err
        assert "Traceback" not in err
        assert not (out / "state.jsonl").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_bad_threshold_exits_2(self, dataset, tmp_path, capsys,
                                   threshold):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        _write_pgm(imgdir / "000000.pgm", np.zeros((16, 16), dtype=np.uint8))
        rc = cli.main(["run", "--frames", str(dataset / "frames.jsonl"),
                       "--imu", str(dataset / "imu.jsonl"),
                       "--images", str(imgdir), "--threshold", threshold,
                       "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "threshold must be finite and non-negative" in err

    def test_bad_usage_exits_2(self, capsys):
        assert cli.main(["run"]) == 2
        assert cli.main(["frobnicate"]) == 2

    def test_images_override_detections(self, dataset, tmp_path):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        img = np.zeros((480, 640), dtype=np.uint8)
        img[100:, 100:] = 220
        _write_pgm(imgdir / "000000.pgm", img)
        out = tmp_path / "run"
        rc = cli.main(["run", "--frames", str(dataset / "frames.jsonl"),
                       "--imu", str(dataset / "imu.jsonl"),
                       "--images", str(imgdir), "--out", str(out)])
        assert rc == 0
        first = json.loads((out / "state.jsonl").read_text().splitlines()[0])
        # frame 0 now reflects the single synthetic corner, not the point cloud
        assert first["frame"] == 0
        assert 1 <= len(first["chi"]) <= 4


class TestRender:
    def test_writes_svg_with_expected_colors(self, dataset, tmp_path):
        run_out = tmp_path / "run"
        cli.main(["run", "--frames", str(dataset / "frames.jsonl"),
                  "--imu", str(dataset / "imu.jsonl"),
                  "--out", str(run_out)])
        svg_out = tmp_path / "svg"
        rc = cli.main(["render", "--state", str(run_out / "state.jsonl"),
                       "--out", str(svg_out)])
        assert rc == 0
        files = sorted(svg_out.iterdir())
        assert len(files) == 8
        body = files[-1].read_text()
        assert body.startswith("<svg")
        assert "green" in body  # normal circles present late in the run
        assert "orange" in body  # collector dots

    def test_reads_state_lines_that_carry_collectors(self, dataset, tmp_path):
        run_out = tmp_path / "run"
        assert cli.main(["run", "--frames", str(dataset / "frames.jsonl"),
                         "--imu", str(dataset / "imu.jsonl"),
                         "--out", str(run_out)]) == 0
        # older logs repeat chi as `collectors`, each of radius mu_0
        old = tmp_path / "old.jsonl"
        recs = [json.loads(line) for line in
                (run_out / "state.jsonl").read_text().splitlines()]
        for rec in recs:
            rec["collectors"] = [{"center": p, "radius": 25.0, "count": n}
                                 for p, n in rec["chi"]]
        old.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                               for r in recs))
        svgs = {}
        for name, path in (("new", run_out / "state.jsonl"), ("old", old)):
            assert cli.main(["render", "--state", str(path), "--out",
                             str(tmp_path / name)]) == 0
            svgs[name] = [f.read_text()
                          for f in sorted((tmp_path / name).iterdir())]
        assert len(svgs["old"]) == 8 and svgs["old"] == svgs["new"]
