import json
import math

import numpy as np
import pytest

from hilbertgeom.cli import main
from hilbertgeom.svgout import fmt6, render_ball, render_body, render_cover


@pytest.fixture
def disk_json(tmp_path):
    p = tmp_path / "disk.json"
    p.write_text('{"type": "disk", "center": [0, 0], "radius": 1.0}\n')
    return str(p)


@pytest.fixture
def square_json(tmp_path):
    p = tmp_path / "square.json"
    p.write_text('{"type": "polygon", "vertices": [[-1,-1],[1,-1],[1,1],[-1,1]]}\n')
    return str(p)


@pytest.fixture
def square_halfspaces_json(tmp_path):
    p = tmp_path / "square_halfspaces.json"
    halves = [{"normal": n, "offset": 1.0} for n in ([1, 0], [-1, 0], [0, 1], [0, -1])]
    p.write_text(json.dumps({"type": "polytope", "halfspaces": halves}) + "\n")
    return str(p)


def test_dist_prints_twelve_decimals(disk_json, capsys):
    code = main(["dist", "--body", disk_json, "--x", "0,0", "--y", "0.5,0"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == "1.098612288668"
    assert out == "%.12f" % math.log(3.0)


def test_dist_is_printed_symmetric(disk_json, capsys):
    main(["dist", "--body", disk_json, "--x", "0.1,0.2", "--y", "-0.3,0.4"])
    a = capsys.readouterr().out
    main(["dist", "--body", disk_json, "--x", "-0.3,0.4", "--y", "0.1,0.2"])
    b = capsys.readouterr().out
    assert a == b


def test_usage_errors_exit_1(disk_json, capsys):
    assert main(["dist", "--body", disk_json, "--x", "0,0"]) == 1
    assert main(["dist", "--body", disk_json, "--x", "0,0", "--y", "zebra"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["ball", "--body", disk_json, "--center", "0,0", "--t", "-1"]) == 1
    capsys.readouterr()


def test_missing_or_broken_body_exits_1(tmp_path, capsys):
    assert main(["dist", "--body", str(tmp_path / "nope.json"),
                 "--x", "0,0", "--y", "0.5,0"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["dist", "--body", str(bad), "--x", "0,0", "--y", "0.5,0"]) == 1
    unk = tmp_path / "unk.json"
    unk.write_text('{"type": "torus"}')
    assert main(["dist", "--body", str(unk), "--x", "0,0", "--y", "0.5,0"]) == 1
    capsys.readouterr()


def test_precondition_violations_exit_2(disk_json, capsys):
    assert main(["dist", "--body", disk_json, "--x", "3,0", "--y", "0,0"]) == 2
    assert "precondition violated" in capsys.readouterr().err
    assert main(["cover", "--body", disk_json, "--R", "1", "--r", "0.3",
                 "--levels", "2"]) == 2
    capsys.readouterr()


def test_ball_svg_has_coordinate_header(disk_json, tmp_path, capsys):
    out = tmp_path / "render"
    code = main(["ball", "--body", disk_json, "--center", "0,0",
                 "--t", str(math.log(3.0)), "--n", "4", "--out", str(out)])
    assert code == 0
    svg = (out / "ball.svg").read_text()
    capsys.readouterr()
    # radius log 3 from the disk center has Klein radius 1/2
    assert "<!-- ball-samples: 0.500000,0.000000 0.000000,0.500000 "
    assert "-0.500000,0.000000 0.000000,-0.500000 -->" in svg
    assert svg.startswith("<svg ")


def test_ball_rejects_tiny_sample_count(disk_json, capsys):
    assert main(["ball", "--body", disk_json, "--center", "0,0",
                 "--t", "1.0", "--n", "2"]) == 1
    capsys.readouterr()


def test_cover_writes_audit_and_svg(square_json, tmp_path, capsys):
    out = tmp_path / "cov"
    code = main(["cover", "--body", square_json, "--R", "1", "--levels", "3",
                 "--r", "0.2", "--trials", "800", "--seed", "5", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    audit = json.loads((out / "cover_audit.json").read_text())
    assert audit["schema"] == 1
    assert audit["pass"] is True
    assert audit["odd_counts_ok"] and audit["admissible_ok"]
    assert audit["max_diameter"] <= audit["diameter_bound"]
    assert audit["multiplicity"]["max_count"] <= 3
    assert audit["config"]["seed"] == 5
    assert audit["config"]["tool"].startswith("hilbertgeom ")
    assert len(audit["levels"]) == 3
    assert (out / "cover.svg").exists()


def test_cover_rejects_bad_level_count(disk_json, capsys):
    assert main(["cover", "--body", disk_json, "--levels", "0"]) == 1
    capsys.readouterr()


def test_cover_output_is_byte_deterministic(square_json, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["cover", "--body", square_json, "--R", "1", "--levels", "2",
              "--r", "0.2", "--trials", "500", "--seed", "9", "--out", str(out)])
        outs.append(out)
    capsys.readouterr()
    assert (outs[0] / "cover_audit.json").read_bytes() == (outs[1] / "cover_audit.json").read_bytes()
    assert (outs[0] / "cover.svg").read_bytes() == (outs[1] / "cover.svg").read_bytes()


def test_verify_output_is_byte_deterministic(disk_json, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["verify", "--body", disk_json, "--suite", "metric",
                     "--seed", "3", "--samples", "60", "--out", str(out)]) == 0
        outs.append(out)
    capsys.readouterr()
    assert (outs[0] / "verify_metric.json").read_bytes() == (outs[1] / "verify_metric.json").read_bytes()
    assert (outs[0] / "verify_metric.csv").read_bytes() == (outs[1] / "verify_metric.csv").read_bytes()


def test_verify_prints_one_line_per_row(disk_json, tmp_path, capsys):
    out = tmp_path / "v"
    code = main(["verify", "--body", disk_json, "--suite", "metric",
                 "--samples", "60", "--out", str(out)])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    rows = json.loads((out / "verify_metric.json").read_text())["rows"]
    assert len(lines) == len(rows)
    assert all(l.startswith(("PASS", "FAIL")) for l in lines)


def test_verify_csv_header(disk_json, tmp_path, capsys):
    out = tmp_path / "v"
    main(["verify", "--body", disk_json, "--suite", "metric",
          "--samples", "60", "--out", str(out)])
    capsys.readouterr()
    head = (out / "verify_metric.csv").read_text().splitlines()[0]
    assert head == "suite,invariant,passed,defect,tolerance,samples,note"


def test_verify_unattainable_tolerance_exits_3(disk_json, tmp_path, capsys):
    out = tmp_path / "v3"
    code = main(["verify", "--body", disk_json, "--suite", "metric",
                 "--samples", "60", "--tol", "1e-30", "--out", str(out)])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_verify_all_square_passes(square_json, tmp_path, capsys):
    out = tmp_path / "va"
    code = main(["verify", "--body", square_json, "--suite", "all",
                 "--samples", "60", "--out", str(out)])
    capsys.readouterr()
    assert code == 0


def test_verify_asdim_halfspace_square_passes(square_halfspaces_json, tmp_path, capsys):
    # equal-distance checks hold at 1e-9 only with exact polytope ray exits
    out = tmp_path / "vh"
    code = main(["verify", "--body", square_halfspaces_json, "--suite", "asdim",
                 "--samples", "20", "--seed", "0", "--out", str(out)])
    capsys.readouterr()
    assert code == 0


def test_probe_corona_reports(disk_json, tmp_path, capsys):
    out = tmp_path / "pc"
    code = main(["probe-corona", "--body", disk_json, "--samples", "300",
                 "--radii", "2,8", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    rep = json.loads((out / "corona_probe.json").read_text())
    assert rep["schema"] == 1
    assert rep["probe"]["probe_radii"] == [2.0, 8.0]
    gaps = rep["probe"]["sup_euclidean_gap"]
    assert gaps[1] < gaps[0]
    csv_head = (out / "corona_probe.csv").read_text().splitlines()[0]
    assert csv_head == "radius,sup_euclidean_gap,samples,C,seed"


def test_packing_report_and_svg(disk_json, tmp_path, capsys):
    out = tmp_path / "pk"
    code = main(["packing", "--body", disk_json, "--R", "2", "--eps", "0.25",
                 "--trials", "1500", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    rep = json.loads((out / "packing.json").read_text())
    assert rep["packing"]["count"] <= rep["packing"]["bound"]
    assert len(rep["packing"]["points"]) == rep["packing"]["count"]
    assert (out / "packing.svg").exists()


def test_log_env_var_enables_info_lines(square_json, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HILBERT_LOG", "INFO")
    out = tmp_path / "lg"
    main(["cover", "--body", square_json, "--R", "1", "--levels", "2",
          "--r", "0.2", "--trials", "200", "--out", str(out)])
    err = capsys.readouterr().err
    assert "INFO" in err


# -- svg helpers --------------------------------------------------------------


def test_fmt6_never_prints_negative_zero():
    assert fmt6(-1e-12) == "0.000000"
    assert fmt6(0.0) == "0.000000"
    assert fmt6(-1.25) == "-1.250000"


def test_render_ball_is_valid_xml(unit_disk):
    import xml.etree.ElementTree as ET

    pts = np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]])
    svg = render_ball(unit_disk, pts, np.zeros(2))
    ET.fromstring(svg)
    assert 'width="1000"' in svg and 'height="1000"' in svg


def test_render_cover_colors_by_level_parity(unit_disk):
    from hilbertgeom import build_cover
    from hilbertgeom.svgout import PALETTE

    pieces = build_cover(unit_disk, np.zeros(2), 1.0, 2)
    svg = render_cover(unit_disk, pieces)
    even, odd = PALETTE[0], PALETTE[1]
    assert even in svg and odd in svg
    import xml.etree.ElementTree as ET

    ET.fromstring(svg)


def test_render_body_outline_closed(unit_disk):
    svg = render_body(unit_disk)
    assert "<polygon" in svg or "<polyline" in svg
