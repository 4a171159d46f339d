import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

from hilbertgeom import cli, metric
from hilbertgeom.bodies import load_body
from hilbertgeom.cli import _build_parser, main
from hilbertgeom.svgout import fmt6, render_ball, render_cover


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


@pytest.fixture
def cube_halfspaces_json(tmp_path):
    p = tmp_path / "cube_halfspaces.json"
    normals = np.vstack([np.eye(3), -np.eye(3)]).tolist()
    halves = [{"normal": n, "offset": 1.0} for n in normals]
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


@pytest.mark.parametrize("argv", [
    ["cover", "--R", "inf"],
    ["probe-corona", "--radii", "inf"],
    ["probe-corona", "--C", "inf"],
    ["ball", "--center", "0,0", "--t", "inf"],
])
def test_non_finite_flags_exit_1(disk_json, tmp_path, capsys, argv):
    assert main([argv[0], "--body", disk_json, "--out", str(tmp_path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "coarse", "--samples", "0"],
    ["probe-corona", "--samples", "0"],
    ["packing", "--trials", "-3"],
    ["cover", "--trials", "0"],
])
def test_count_flags_below_one_exit_1(disk_json, tmp_path, capsys, argv):
    assert main([argv[0], "--body", disk_json, "--out", str(tmp_path), *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "must be an integer >= 1" in err
    assert not (tmp_path / "cover_audit.json").exists()


# Each subcommand takes only the flags it reads: 36 settable values in all.
FLAGS = {
    "dist": {"--body", "--x", "--y"},
    "ball": {"--body", "--out", "--center", "--t", "--n"},
    "cover": {"--body", "--seed", "--out", "--R", "--levels", "--r", "--trials", "--center"},
    "verify": {"--body", "--seed", "--out", "--samples", "--tol", "--suite"},
    "probe-corona": {"--body", "--seed", "--out", "--samples", "--delta", "--C", "--radii"},
    "packing": {"--body", "--seed", "--out", "--R", "--eps", "--trials", "--center"},
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    taken = {
        name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sp in sub.choices.items()
    }
    assert taken == FLAGS


@pytest.mark.parametrize("argv", [
    ["dist", "--x", "0,0", "--y", "0.5,0", "--seed", "3"],
    ["dist", "--x", "0,0", "--y", "0.5,0", "--out", "o"],
    ["ball", "--center", "0,0", "--t", "1", "--samples", "5"],
    ["cover", "--samples", "5"],
    ["cover", "--tol", "0.5"],
    ["probe-corona", "--tol", "0.5"],
    ["packing", "--samples", "5"],
])
def test_a_flag_the_subcommand_does_not_take_exits_1(disk_json, tmp_path, capsys,
                                                     monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # a parser that accepted the flag would write to --out .
    assert main([argv[0], "--body", disk_json, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "coarse"],
    ["cover", "--levels", "1"],
    ["probe-corona"],
    ["packing"],
])
def test_negative_seed_exits_1_with_usage(disk_json, tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([argv[0], "--body", disk_json, "--out", str(out), "--seed", "-1",
                 *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "must be an integer >= 0" in err
    assert not out.exists()


def test_config_records_only_the_flags_taken(disk_json, tmp_path, capsys):
    runs = {
        "verify_metric.json": ["verify", "--suite", "metric", "--samples", "20"],
        "corona_probe.json": ["probe-corona", "--samples", "30", "--radii", "2"],
        "cover_audit.json": ["cover", "--levels", "1", "--trials", "10"],
        "packing.json": ["packing", "--trials", "50"],
    }
    cfg = {}
    for name, argv in runs.items():
        assert main([argv[0], "--body", disk_json, "--out", str(tmp_path), *argv[1:]]) == 0
        cfg[name] = json.loads((tmp_path / name).read_text())["config"]
    capsys.readouterr()
    assert cfg["verify_metric.json"]["samples"] == 20
    assert cfg["verify_metric.json"]["tolerances"]["base"] == 1e-9
    assert cfg["corona_probe.json"]["samples"] == 30
    for name in ("corona_probe.json", "cover_audit.json", "packing.json"):
        assert "base" not in cfg[name]["tolerances"]
    for name in ("cover_audit.json", "packing.json"):
        assert "samples" not in cfg[name]
    for c in cfg.values():
        assert c["seed"] == 0
        assert set(c["tolerances"]) >= {"point_coincidence", "parallelism", "boundary_rel"}


@pytest.mark.parametrize("R", ["200", "354", "355", "400"])
def test_packing_radius_past_float64_exits_2(disk_json, tmp_path, capsys, R):
    assert main(["packing", "--body", disk_json, "--R", R, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "precondition violated: BadRadii" in err and "float64" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("center", ["2,0", "1,0"])
def test_packing_center_off_the_open_body_exits_2(disk_json, tmp_path, capsys, center):
    assert main(["packing", "--body", disk_json, "--center", center, "--trials", "50",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "precondition violated: ExteriorPoint" in err and "Traceback" not in err


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
    # a missing or ill-typed field is named in one error line, not a traceback
    for text, field in [
        ('{"type": "disk", "center": [0, 0]}', "radius"),
        ('{"type": "disk", "center": [0, 0], "radius": null}', "radius"),
        ('{"type": "polytope", "halfspaces": [{"normal": [1, 0]}]}', "offset"),
        ('{"type": "polytope", "halfspaces": 5}', "halfspaces"),
    ]:
        broken = tmp_path / "broken.json"
        broken.write_text(text)
        assert main(["dist", "--body", str(broken), "--x", "0,0", "--y", "0.5,0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(field) in err, err
        assert "Traceback" not in err


def test_precondition_violations_exit_2(disk_json, capsys):
    assert main(["dist", "--body", disk_json, "--x", "3,0", "--y", "0,0"]) == 2
    assert "precondition violated" in capsys.readouterr().err
    assert main(["cover", "--body", disk_json, "--R", "1", "--r", "0.3",
                 "--levels", "2"]) == 2
    capsys.readouterr()


def test_sampler_exhaustion_exits_2(tmp_path, capsys):
    # a 2 x 0.01 rectangle tilted by 45 degrees fills 1% of its box, and the
    # asdim footprint row's small metric balls accept too few of their box draws
    thin = tmp_path / "thin.json"
    thin.write_text('{"type": "polygon", "vertices": [[-0.703571,-0.710642],[0.710642,0.703571],'
                    '[0.703571,0.710642],[-0.710642,-0.703571]]}\n')
    assert main(["verify", "--body", str(thin), "--suite", "asdim",
                 "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "precondition violated: SamplingExhausted" in err
    assert "Traceback" not in err


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


def test_ball_rejects_tiny_sample_count(disk_json, tmp_path, capsys):
    for n in ("2", "-5"):
        assert main(["ball", "--body", disk_json, "--center", "0,0", "--out", str(tmp_path),
                     "--t", "1.0", "--n", n]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "argument --n: must be an integer >= 3" in err
    assert not (tmp_path / "ball.svg").exists()


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


@pytest.mark.parametrize("seed", [0, 295])
def test_verify_metric_projective_row_is_one_call(seed, disk_json, square_halfspaces_json,
                                                  tmp_path, capsys):
    for body_json in (disk_json, square_halfspaces_json):
        out = tmp_path / "v"
        assert main(["verify", "--body", body_json, "--suite", "metric",
                     "--seed", str(seed), "--out", str(out)]) == 0
        capsys.readouterr()
        rows = json.loads((out / "verify_metric.json").read_text())["rows"]
        row = next(r for r in rows if r["name"] == "projective_invariance")
        rng = np.random.default_rng([seed, 6])
        want = metric.projective_transfer_defect(load_body(body_json), rng, 200).max()
        assert row["defect"] == want and row["passed"]
        assert (row["tolerance"], row["samples"], row["note"]) == (1e-9, 200, "")


@pytest.mark.parametrize("suite", ["coarse", "all"])
def test_verify_one_sample_gives_a_one_point_clearance_set(suite, disk_json, tmp_path, capsys):
    # one sampled point has no pairs: its diameter is 0, not an empty max
    out = tmp_path / "v1"
    assert main(["verify", "--body", disk_json, "--suite", suite, "--samples", "1",
                 "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = json.loads((out / f"verify_{suite}.json").read_text())["rows"]
    row = next(r for r in rows if r["name"] == "clearance_sets_bounded")
    assert row["passed"] and row["samples"] == 1
    assert row["note"].startswith("sampled diameter 0.0000 ")


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


def test_packing_runs_in_3d_without_a_figure(cube_halfspaces_json, tmp_path, capsys):
    p = tmp_path / "ellipsoid3.json"
    p.write_text('{"type": "ellipse", "center": [0, 0, 0], "semi_axes": [2.0, 1.0, 0.5]}')
    for k, body_json in enumerate((str(p), cube_halfspaces_json)):
        out = tmp_path / f"pk{k}"
        assert main(["packing", "--body", body_json, "--trials", "500", "--out", str(out)]) == 0
        capsys.readouterr()
        rep = json.loads((out / "packing.json").read_text())["packing"]
        assert 2 <= rep["count"] <= rep["bound"]
        assert all(len(q) == 3 for q in rep["points"])
        assert not (out / "packing.svg").exists()


def test_packing_prints_a_short_bound(disk_json, tmp_path, capsys):
    # the counting bound at R=175 is about 3.4e305; the JSON keeps the float
    out = tmp_path / "pk"
    assert main(["packing", "--body", disk_json, "--R", "175", "--trials", "50",
                 "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("count=") and len(line) < 40
    bound = json.loads((out / "packing.json").read_text())["packing"]["bound"]
    assert line.endswith(f"bound={bound:.6g}") and bound > 1e305


def test_packing_violation_exits_3(disk_json, tmp_path, capsys, monkeypatch):
    real = cli.greedy_packing

    def overfull(*a):
        rep = real(*a)
        return dataclasses.replace(rep, bound=rep.count - 1.0)

    monkeypatch.setattr(cli, "greedy_packing", overfull)
    assert main(["packing", "--body", disk_json, "--trials", "200",
                 "--out", str(tmp_path)]) == 3
    assert "packing bound VIOLATED" in capsys.readouterr().err
    assert (tmp_path / "packing.json").exists()


def test_cover_audit_failure_exits_3(disk_json, tmp_path, capsys, monkeypatch):
    real = cli.multiplicity_probe

    def crowded(*a):
        return dataclasses.replace(real(*a), max_count=4)

    monkeypatch.setattr(cli, "multiplicity_probe", crowded)
    assert main(["cover", "--body", disk_json, "--levels", "2", "--trials", "100",
                 "--out", str(tmp_path)]) == 3
    assert "cover audit FAILED" in capsys.readouterr().err
    audit = json.loads((tmp_path / "cover_audit.json").read_text())
    assert audit["pass"] is False and audit["multiplicity"]["max_count"] == 4


def test_verify_corona_on_a_strictly_convex_body(disk_json, tmp_path, capsys):
    assert main(["verify", "--body", disk_json, "--suite", "corona", "--samples", "20",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rows = json.loads((tmp_path / "verify_corona.json").read_text())["rows"]
    assert [(r["name"], r["note"]) for r in rows[:1]] == [("strictly_convex", "true")]
    gap = rows[1]
    assert gap["name"] == "corona_gap_vanishes" and gap["passed"]
    assert gap["samples"] == 1000 and gap["tolerance"] == 0.1
    assert gap["note"].startswith("gaps [") and gap["note"].count(",") == 3


def _corona_rows(body_json, out, capsys):
    assert main(["verify", "--body", body_json, "--suite", "corona", "--samples", "20",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return json.loads((out / "verify_corona.json").read_text())["rows"]


def test_verify_corona_writes_both_flat_rows_on_halfspace_bodies(
        square_halfspaces_json, cube_halfspaces_json, tmp_path, capsys):
    for body_json in (square_halfspaces_json, cube_halfspaces_json):
        rows = _corona_rows(body_json, tmp_path / "out", capsys)
        assert [(r["name"], r["passed"]) for r in rows] == [
            ("strictly_convex", True), ("flat_edge_ray_bound", True),
            ("corona_gap_persists", True)]
        assert rows[0]["note"] == "false"
        # the face nearest the seed is 2 wide and xi, eta are its quarter points
        assert rows[1]["note"] == f"bound={math.log(9.0):.9f}"
        assert rows[2]["note"].startswith("euclidean gap 0.5000 <= 1.0000 at radius 16")


def test_verify_corona_flat_rows_stop_short_of_the_band_on_a_thin_body(tmp_path, capsys):
    # on a 4 x 0.1 rectangle the ray points reach the boundary band before
    # t = 20; the rows stop a factor e of face slack short of it
    p = tmp_path / "strip.json"
    p.write_text('{"type": "polygon", "vertices": [[-2,-0.05],[2,-0.05],[2,0.05],[-2,0.05]]}')
    rows = _corona_rows(str(p), tmp_path / "out", capsys)
    assert [(r["name"], r["passed"]) for r in rows] == [
        ("strictly_convex", True), ("flat_edge_ray_bound", True), ("corona_gap_persists", True)]
    top = float(rows[1]["note"].rsplit(" ", 1)[1])
    assert 17.0 < top < 20.0
    assert rows[1]["note"] == f"bound={math.log(9.0):.9f} up to radius {top:g}"
    assert " at radius 16 " in rows[2]["note"]


def test_verify_corona_gap_floor_scales_with_the_edge(tmp_path, capsys):
    # a regular 64-gon's edge is 0.098 long: its quarter points are 0.049
    # apart, under an absolute floor of 0.05 however long the rays run
    a = 2.0 * np.pi * np.arange(64) / 64
    p = tmp_path / "gon64.json"
    p.write_text(json.dumps({"type": "polygon", "vertices": np.c_[np.cos(a), np.sin(a)].tolist()}))
    gap = _corona_rows(str(p), tmp_path / "out", capsys)[2]
    assert gap["name"] == "corona_gap_persists" and gap["passed"]
    floor, got = (float(w) for w in gap["note"].split()[2:5:2])
    edge = 2.0 * math.sin(math.pi / 64)
    assert floor == pytest.approx(0.5 * (0.5 * edge), abs=1e-4)
    assert gap["defect"] == pytest.approx(floor - got, abs=1e-4) and got > floor


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
    root = ET.fromstring(svg)
    assert 'width="1000"' in svg and 'height="1000"' in svg
    # the body outline is drawn in black as a closed polygon
    outline = [el for el in root if el.get("stroke") == "#000000"]
    assert len(outline) == 1 and outline[0].tag.endswith("polygon")


def test_render_cover_colors_by_level_parity(unit_disk):
    from hilbertgeom import build_cover
    from hilbertgeom.svgout import PALETTE

    pieces = build_cover(unit_disk, np.zeros(2), 1.0, 2)
    svg = render_cover(unit_disk, pieces)
    even, odd = PALETTE[0], PALETTE[1]
    assert even in svg and odd in svg
    import xml.etree.ElementTree as ET

    ET.fromstring(svg)


def _render_cover_per_polyline(body, pieces, arc_samples=256):
    """The per-piece renderer: one sphere-point call and one formatting
    loop per polyline.  Reference for the batched ``render_cover``."""
    from hilbertgeom.cover import TWO_PI
    from hilbertgeom.svgout import PALETTE, VIEW, _document, _dot, _frame_for

    frame, outline = _frame_for(body)

    def polyline(P, color, width, closed):
        pts = " ".join("%.6f,%.6f" % (VIEW / 2.0 + (p[0] - frame.cx) * frame.scale,
                                      VIEW / 2.0 - (p[1] - frame.cy) * frame.scale) for p in P)
        tag = "polygon" if closed else "polyline"
        return f'<{tag} points="{pts}" fill="none" stroke="{color}" stroke-width="{width:.6f}"/>'

    lines = [polyline(outline, "#000000", 2.0, True)]
    field = pieces[0].field
    lines.append(_dot(frame, field.o, "#000000", 3.0))
    for p in pieces:
        color = PALETTE[p.level % 2]
        if p.level == 0:
            thetas = p.width * np.arange(arc_samples + 1) / arc_samples
            lines.append(polyline(field.points(thetas, p.r_outer), color, 1.5, False))
            continue
        thetas = p.theta_start + p.width * np.arange(arc_samples + 1) / arc_samples
        lines.append(polyline(field.points(thetas, p.r_outer), color, 1.5, False))
        ts = np.linspace(p.r_inner, p.r_outer, 16)
        for th in (p.theta_start, p.theta_end):
            side = field.points(np.full(ts.shape, th % TWO_PI if th >= TWO_PI else th), ts)
            lines.append(polyline(side, color, 1.0, False))
    return _document(lines)


def test_render_cover_matches_per_polyline_reference(any_body):
    from hilbertgeom import build_cover

    pieces = build_cover(any_body, any_body.interior_seed(), 1.0, 4)
    assert render_cover(any_body, pieces) == _render_cover_per_polyline(any_body, pieces)


@pytest.mark.parametrize("name, levels", [("square_halfspaces", 4), ("gon64", 4),
                                          ("disk", 8), ("square", 8)])
def test_render_cover_matches_per_polyline_reference_on_bench_bodies(name, levels):
    """The halfspace square, the 64-gon, and the benchmark's 8 levels."""
    from pathlib import Path

    from hilbertgeom import build_cover

    body = load_body(str(Path(__file__).resolve().parent.parent / "perfbench" / "bodies"
                         / f"{name}.json"))
    pieces = build_cover(body, body.interior_seed(), 1.0, levels)
    assert render_cover(body, pieces) == _render_cover_per_polyline(body, pieces)
