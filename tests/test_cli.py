import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from carrollgeo import cli
from carrollgeo.cli import main
from carrollgeo.errors import CarrollError

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"

DEFECT_FILE = """
[meta]
name = broken
dim = 2

[charts]
main = box(-1, 1; -1, 1)

[metric]
main = matrix(1, x1; 0, 1)
"""


def test_scenarios_list(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("flat", "moebius", "schwarzschild", "thakurta"):
        assert name in out


def test_check_schwarzschild_passes(capsys):
    assert main(["check", "schwarzschild", "--param", "GM=0.5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "OK: schwarzschild" in out
    assert "FAIL" not in out


def test_check_thakurta_flags_conformal(capsys):
    assert main(["check", "thakurta", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "conformal_not_killing" in out


def test_check_defect_file_fails(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text(DEFECT_FILE)
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "symmetry" in out


def test_check_json_report(tmp_path):
    out_path = tmp_path / "report.json"
    assert main(["check", "flat", "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} >= {"base_block_symmetry", "kk_determinant_identity"}


def test_check_json_report_validates_against_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from pathlib import Path

    schema = json.loads((Path(__file__).resolve().parents[1] / "docs" / "report_schema.json").read_text())
    out_path = tmp_path / "report.json"
    main(["check", "moebius", "--out", str(out_path)])
    jsonschema.validate(json.loads(out_path.read_text()), schema)


def test_unknown_scenario_is_usage_error(capsys):
    assert main(["check", "not-a-scenario"]) == 2


def test_geodesic_csv_and_determinism(tmp_path, capsys):
    args = [
        "geodesic", "schwarzschild", "--param", "GM=0.5",
        "--state", "pi/2, 0, 1, 0, 1, -1",
        "--lambda-max", "2.0", "--christoffel", "closed",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "lambda, x1, x2, t, vx1, vx2, vt, Q, null_residual, base_speed2"
    # the angle column is affine in lambda
    rows = np.loadtxt(str(a), skiprows=1, delimiter=",")
    assert np.max(np.abs(rows[:, 2] - rows[:, 0])) < 1e-6


def test_null_shoot_frozen_single_row(tmp_path, capsys):
    out = tmp_path / "frozen.csv"
    code = main([
        "null-shoot", "schwarzschild", "--point", "pi/2, 0", "--dir", "0, 1",
        "--q", "0", "--t0", "1", "--out", str(out),
    ])
    assert code == 0
    assert "frozen" in capsys.readouterr().out
    assert len(out.read_text().splitlines()) == 2  # header + single sample


def test_null_shoot_json(tmp_path):
    out = tmp_path / "orbit.json"
    code = main([
        "null-shoot", "schwarzschild", "--point", "pi/2, 0", "--dir", "0, 1",
        "--q", "1", "--t0", "1", "--lambda-max", "1.0", "--christoffel", "closed",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["columns"][0] == "lambda"
    assert payload["meta"]["scenario"].startswith("schwarzschild")


@pytest.mark.parametrize("gauge, flag, route", [
    ("0, 0", [], "closed"),
    ("0, 0", ["--christoffel", "numeric"], "numeric"),
    ("0.2 * x2, 0", [], "numeric"),
    ("0.2 * x2, 0", ["--christoffel", "closed"], "numeric"),
])
def test_null_shoot_json_names_the_symbol_route_that_ran(tmp_path, gauge, flag, route):
    """Without the flag the default of ``IntegratorConfig`` applies: the closed
    form where the gauge field vanishes, the oracle where it does not."""
    path = tmp_path / "plane.ini"
    path.write_text(SCENARIO_FILE.replace("[expects]", f"[gauge]\nmain = vector({gauge})\n[expects]"))
    out = tmp_path / "orbit.json"
    argv = ["null-shoot", str(path), "--point", "0.1, 0", "--dir", "0, 1", "--q", "1", "--lambda-max", "0.5",
            *flag, "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["meta"]["christoffel"] == route


def test_geodesic_svg(tmp_path):
    out = tmp_path / "orbit.svg"
    code = main([
        "geodesic", "flat", "--state", "0, 0, 1, 0.3, 0.1, -1",
        "--lambda-max", "2.0", "--format", "svg", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg") and "<polyline" in text


def test_small_gauge_circle_svg(tmp_path, capsys):
    out = tmp_path / "circle.svg"
    code = main([
        "geodesic", "flat", "--small-gauge", "--field", "1.0",
        "--state", "0, 0, 1, 0", "--lambda-max", "6.283185307179586",
        "--out", str(out),
    ])
    assert code == 0
    assert "<polyline" in out.read_text()


def test_christoffel_at_point(capsys):
    code = main(["christoffel", "schwarzschild", "--param", "GM=0.5", "--at", "pi/2, 0, 1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max closed-vs-numeric deviation" in out
    fiber_rows = [line for line in out.splitlines() if ", t, t, t," in line]
    assert fiber_rows
    numeric = float(fiber_rows[0].split(",")[-2])
    assert numeric == pytest.approx(-1.0, abs=1e-8)


def test_christoffel_flat_only_fiber_symbol(capsys):
    assert main(["christoffel", "flat", "--at", "0.3, 0.4, 2.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines:
        if line.startswith("0.3") and ", t, t, t," not in line:
            _, _, _, a, b, c, closed, numeric, dev = [s.strip() for s in line.split(",")]
            if (a, b, c) != ("t", "t", "t"):
                assert abs(float(numeric)) < 1e-7


def test_christoffel_golden_dump(tmp_path):
    out = tmp_path / "golden.csv"
    code = main([
        "christoffel", "schwarzschild", "--param", "GM=0.5",
        "--at", "pi/2, 0, 1", "--golden", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta, phi, t, A, B, C, value"
    table = {}
    for line in lines[1:]:
        cells = [s.strip() for s in line.split(",")]
        table[tuple(cells[3:6])] = float(cells[6])
    assert table[("t", "t", "t")] == pytest.approx(-1.0, abs=1e-8)
    assert table[("theta", "phi", "phi")] == pytest.approx(0.0, abs=1e-8)


def test_christoffel_random_points_deterministic(tmp_path):
    args = ["christoffel", "flat", "--count", "3", "--seed", "11"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_linearize_moebius(capsys):
    assert main(["linearize", "moebius"]) == 0
    out = capsys.readouterr().out
    assert "pair residual" in out and "OK" in out


def test_linearize_synthetic_with_table(tmp_path, capsys):
    out = tmp_path / "cocycle.csv"
    assert main(["linearize", "synthetic", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "to, src, m, c"
    assert len(lines) > 10


def test_linearize_atlas_file(tmp_path):
    atlas = tmp_path / "atlas.ini"
    atlas.write_text(
        "[charts]\na = interval(-2, 2)\nb = interval(0.5, 3)\n\n"
        "[overlap mid]\ncharts = a, b\ninterval = 0.6, 1.9\n"
        "to_a = exp(sin(m)) * r\nto_b = exp(-sin(m)) * r\n\n"
        "[sections]\na = 0\nb = 0\n"
    )
    assert main(["linearize", str(atlas)]) == 0


def test_usage_error_exit_code():
    assert main(["geodesic", "flat", "--state", "1, 2"]) == 2


@pytest.mark.parametrize("coord", ["1/0", "sqrt(-1)", "exp(1000)"])
def test_expression_arithmetic_error_is_usage_error(coord, capsys):
    assert main(["christoffel", "flat", "--param", "n=2", "--at", f"{coord}, 0, 1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and coord in err
    assert len(err.strip().splitlines()) == 1


def test_small_gauge_prints_stop_events(capsys):
    # a tilted start on the angle chart runs into the pole guard band
    code = main([
        "geodesic", "schwarzschild", "--param", "GM=0.5", "--small-gauge",
        "--state", "pi/2, 0, 1, 0", "--lambda-max", "3",
    ])
    assert code == 0
    assert "event: {'kind': 'left_chart'" in capsys.readouterr().out


SHOOT_FLAT = ["null-shoot", "flat", "--point", "0,0", "--dir", "1,0", "--q", "1"]
SMALL_GAUGE_FLAT = ["geodesic", "flat", "--small-gauge", "--field", "1", "--state", "0, 0, 1, 0"]


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["check", "schwarzschild", "--param", "GM=1/0"], "1/0"),
        (["check", "schwarzschild", "--param", "GM=-1"], "GM"),
        (["check", "thakurta", "--param", "GM=0"], "GM"),
        (["check", "schwarzschild", "--param", "GM=1e160"], "(2 GM)^2 a finite, normal float, got 1e+160"),
        (["check", "thakurta", "--param", "GM=1e-200"], "(2 GM)^2 a finite, normal float, got 1e-200"),
        (["check", "flat", "--param", "n=abc"], "abc"),
        (["check", "flat", "--param", "n=2.5"], "integer"),
        (["check", "flat", "--param", "n=200"], "1 <= n <= 32, got 200"),
        (["check", "flat", "--param", "n=1e9"], "1 <= n <= 32, got 1e+09"),
        (["geodesic", "schwarzschild", "--state", "0, 0, 1, 0, 1, -1", "--chart", "angular"], "angular"),
        (["christoffel", "flat", "--at", "0, 0, 1e-12"], "fiber coordinate"),
        (["null-shoot", "schwarzschild", "--point", "1,0", "--dir", "0,1", "--q", "1", "--chart", "nope"], "nope"),
        (["geodesic", "flat", "--small-gauge", "--state", "0,0,1,0", "--chart", "nope"], "nope"),
        (["geodesic", "flat", "--state", "0,0,1,1,0,-1", "--chart", "nope"], "nope"),
        (["geodesic", "flat", "--param", "n=3", "--small-gauge", "--field", "1", "--state", "0,0,0,1,0,0"], "--field"),
        (["geodesic", "flat", "--param", "n=1", "--small-gauge", "--field", "1", "--state", "0,1"], "--field"),
        (SHOOT_FLAT + ["--lambda-max", "nan"], "span"),
        (SHOOT_FLAT + ["--lambda-max", "-1"], "span"),
        (SHOOT_FLAT + ["--method", "rk4", "--rk4-step", "-0.1"], "rk4_step"),
        (SHOOT_FLAT + ["--method", "rk4", "--rk4-step", "0"], "rk4_step"),
        (SHOOT_FLAT + ["--tol", "0"], "tol"),
        (["christoffel", "flat", "--count", "-1"], "count"),
        (["check", "flat", "--param", "GM=3"], "GM"),
        (["check", str(EXAMPLES / "scenario_demo.ini"), "--param", "n=2"], "none"),
        (["geodesic", "flat", "--field", "1", "--state", "0, 0, 1, 0.3, 0.1, -1"], "--small-gauge"),
        (["geodesic", "flat", "--sign-q", "-1", "--state", "0, 0, 1, 0.3, 0.1, -1"], "--small-gauge"),
        (SMALL_GAUGE_FLAT + ["--format", "json", "--out", "sg.json"], "--format"),
        (SMALL_GAUGE_FLAT + ["--svg-mode", "ulog"], "--svg-mode"),
        (SMALL_GAUGE_FLAT + ["--christoffel", "numeric"], "--christoffel"),
        (["null-shoot", "schwarzschild", "--point", "pi/2, 0", "--dir", "0, 1, 3", "--q", "1"], "direction"),
        (["null-shoot", "schwarzschild", "--point", "pi/2, 0", "--dir", "0, 1", "--q", "nan"], "q = nan"),
        (["null-shoot", "schwarzschild", "--point", "pi/2, 0", "--dir", "0, 1", "--q", "1", "--t0", "nan"], "t0 = nan"),
        (["null-shoot", "sphere_pullback", "--point", "pi/2", "--dir", "1", "--q", "1"], "2-dimensional"),
        (["geodesic", "flat", "--state", "1e308*10, 0, 1, 0.3, 0.1, -1"], "non-finite state"),
        (["geodesic", "flat", "--method", "rk4", "--rk4-step", "5e-324", "--state", "0, 0, 1, 0.3, 0.1, -1"], "rk4_step"),
        (["geodesic", "flat", "--state", "0, 0, 1, 0.3, 0.1, -1", "--svg-mode", "ulog", "--out", "x.csv"], "--svg-mode"),
        (["geodesic", "flat", "--state", "0, 0, 1, 0.3, 0.1, -1", "--format", "svg"], "--format"),
        (["null-shoot", "flat", "--point", "0,0", "--dir", "1,0", "--q", "1", "--format", "json"], "--format"),
        (["null-shoot", "flat", "--point", "0,0", "--dir", "1,0", "--q", "1", "--format", "json", "--svg-mode", "xy",
          "--out", "o.json"], "--svg-mode"),
        (["linearize", "moebius", "--format", "json"], "--format"),
        (["linearize", "moebius", "--tol", "nan"], "--tol"),
        (["linearize", "moebius", "--tol", "-1"], "--tol"),
        (["check", "flat", "--out", "missing/r.json"], "cannot write missing/r.json"),
        (["geodesic", "flat", "--state", "0, 0, 1, 0.3, 0.1, -1", "--out", "missing/o.csv"], "cannot write missing/o.csv"),
        (SMALL_GAUGE_FLAT + ["--out", "missing/c.svg"], "cannot write missing/c.svg"),
        (["christoffel", "flat", "--count", "2", "--out", "missing/c.csv"], "cannot write missing/c.csv"),
        (["linearize", "moebius", "--out", "missing/l.csv"], "cannot write missing/l.csv"),
        (["check", "flat", "--seed", "-1"], "--seed must be >= 0"),
        (["christoffel", "flat", "--count", "3", "--seed", "-5"], "--seed must be >= 0"),
        (["geodesic", "flat", "--small-gauge", "--state", "0,0,1,0", "--field", "nan"], "--field"),
        (["geodesic", "flat", "--small-gauge", "--state", "0,0,1,0", "--field", "inf"], "--field"),
        (["geodesic", "flat", "--state", "0,0,1e-320,0.1,0,-1"], "too close to zero: t = 1.000e-320"),
        (["geodesic", "flat", "--state", "0,0,-1e-320,0.1,0,-1"], "too close to zero: t = -1.000e-320"),
        (["geodesic", "flat", "--christoffel", "numeric", "--state", "0,0,1e-320,0.1,0,-1"], "too close to zero"),
        (["geodesic", "flat", "--christoffel", "numeric", "--state", "0,0,-1e-320,0.1,0,-1"], "too close to zero"),
        (["geodesic", "flat", "--state", "0,0,1e-8,0.1,0,1e305"], "vt / t = 1.000e+305 / 1.000e-08 overflows"),
        (["christoffel", "schwarzschild", "--at", "0, 0, 1"], "[0.0, 0.0] is outside chart 'angular'"),
        (["christoffel", "schwarzschild", "--at", "5, 0, 1"], "[5.0, 0.0] is outside chart 'angular'"),
        (["christoffel", "lightcone", "--chart", "angular", "--at", "pi, 0.3, -1"], "outside chart 'angular'"),
        (["geodesic", "flat", "--state", "0,0,1,0.1,0,-1", "--tol", "1e-300"], "tol must be at least the float"),
        (["geodesic", "flat", "--state", "0,0,1,0.1,0,-1", "--tol", "1e-16"], "got 1e-16"),
        (SMALL_GAUGE_FLAT + ["--tol", "1e-300"], "tol must be at least the float"),
        (SHOOT_FLAT + ["--method", "rk4", "--tol", "5e-324"], "tol must be at least the float"),
    ],
    ids=["GM_div0", "GM_negative", "GM_zero", "GM_square_overflows", "GM_square_underflows",
         "n_name", "n_fraction", "n_too_large", "n_huge", "off_chart",
         "zero_section", "shoot_chart", "small_gauge_chart",
         "geodesic_chart", "field_3d", "field_1d", "lambda_nan", "lambda_negative", "rk4_step_negative", "rk4_step_zero",
         "tol_zero", "count_negative", "param_unknown", "param_file", "field_full_flow", "sign_q_full_flow",
         "small_gauge_format", "small_gauge_svg_mode", "small_gauge_christoffel", "direction_size", "q_nan", "t0_nan",
         "point_size", "state_nan", "rk4_step_too_small", "svg_mode_csv", "geodesic_format_no_out",
         "shoot_format_no_out", "svg_mode_json", "linearize_format_no_out", "linearize_tol_nan",
         "linearize_tol_negative", "check_out_unwritable", "geodesic_out_unwritable", "small_gauge_out_unwritable",
         "christoffel_out_unwritable", "linearize_out_unwritable", "check_seed_negative", "christoffel_seed_negative",
         "field_nan", "field_inf", "fiber_subnormal", "fiber_subnormal_negative", "fiber_subnormal_oracle",
         "fiber_subnormal_negative_oracle", "fiber_rate_overflow", "christoffel_at_pole", "christoffel_at_off_domain",
         "christoffel_at_pole_fiber_dependent", "tol_below_resolution", "tol_just_below_resolution",
         "small_gauge_tol_below_resolution", "rk4_tol_below_resolution"],
)
def test_bad_input_is_one_line_usage_error(argv, needle, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err and "unexpected" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("u", ["t^0.5", "1e308*t"])
def test_a_thakurta_profile_that_fails_on_the_samples_fails_its_checks(u, capsys):
    """exp(-U(t)) that cannot be evaluated at some sampled t (t^0.5 for t < 0,
    exp past the float range for U = 1e308 t) or that vanishes there is a
    field that fails its checks: FAIL rows and exit 1, never a backstop."""
    assert main(["check", "thakurta", "--param", f"U={u}"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL  christoffel_suite" in out and "unexpected" not in out + err


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["christoffel", "flat", "--at", "0,0,1e200"], "fiber coordinate t = 1.000e+200"),
        (["geodesic", "flat", "--state", "0,0,1,0,0,1e200"], "vt / t + vx . A = 1.000e+200"),
        (["null-shoot", "schwarzschild", "--point", "pi/2,0", "--dir", "0,1", "--q", "1e200"], "overflows"),
    ],
    ids=["christoffel_fiber", "geodesic_fiber_velocity", "shoot_charge"],
)
def test_finite_input_whose_square_overflows_is_one_line_numeric_failure(argv, needle, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and needle in err and "unexpected" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_a_fiber_coordinate_growing_past_the_float_range_ends_as_non_finite(method, capsys):
    """t = 1e308 e^l passes the float range at l = 0.59 while u = log|t| stays
    finite: the stage or step there is non-finite, and the run stops with that
    event and exit 3, not with an error."""
    assert main(["geodesic", "flat", "--method", method, "--state", "0,0,1e308,0,0,1e308"]) == 3
    out, err = capsys.readouterr()
    assert "event: {'kind': 'non_finite'" in out and err == ""


SCENARIO_FILE = """[meta]
dim = 2
[charts]
main = box(-1, 1; -1, 1)
[metric]
time_dependent = false
main = matrix(1, 0; 0, 1)
[expects]
weight = 0
"""
ATLAS_FILE = """[charts]
a = interval(-2, 2)
b = interval(0.5, 3)
[overlap mid]
charts = a, b
interval = 0.6, 1.9
to_a = exp(sin(m)) * r
to_b = exp(-sin(m)) * r
"""


@pytest.mark.parametrize(
    "command, text, old, new, needle",
    [
        ("check", SCENARIO_FILE, "dim = 2", "dim = abc", "dim"),
        ("check", SCENARIO_FILE, "box(-1, 1; -1, 1)", "box(-1,1; -1)", "main"),
        ("check", SCENARIO_FILE, "weight = 0", "weight = abc", "weight"),
        ("check", SCENARIO_FILE, "time_dependent = false", "time_dependent = maybe", "time_dependent"),
        ("check", SCENARIO_FILE, "weight = 0", "euler_killing = maybe", "euler_killing"),
        ("check", SCENARIO_FILE, "weight = 0", "conformal = maybe", "conformal"),
        ("linearize", ATLAS_FILE, "charts = a, b\n", "", "charts"),
        ("linearize", ATLAS_FILE, "interval = 0.6, 1.9", "interval = 0.2", "interval"),
        ("check", SCENARIO_FILE, "box(-1, 1; -1, 1)", "box(1.5, -1.5; -1.5, 1.5)", "main"),
        ("check", SCENARIO_FILE, "main = box(-1, 1; -1, 1)\n", "", "[charts]"),
        ("linearize", ATLAS_FILE, "charts = a, b\n", "charts = a, zz\n", "[overlap mid]"),
        (
            "linearize",
            ATLAS_FILE,
            "b = interval(0.5, 3)\n",
            "b = interval(0.5, 3)\nc = interval(1, 4)\n[triple abc]\ncharts = a, b, c\ninterval = 1, 1.5\n",
            "[triple abc]",
        ),
        (
            "linearize",
            ATLAS_FILE,
            "b = interval(0.5, 3)\n[overlap mid]\ncharts = a, b\n",
            "[overlap mid]\ncharts = a, a\n",
            "[overlap mid]",
        ),
        ("check", SCENARIO_FILE, "weight = 0", "euler_killing = true\nweight = 2", "[expects]"),
        ("check", SCENARIO_FILE, "[meta]\n", "", "no section headers"),
        ("check", SCENARIO_FILE, "[expects]", "[charts]", "already exists"),
        ("check", SCENARIO_FILE, "dim = 2", "dim = 2\ndim = 3", "already exists"),
        ("check", SCENARIO_FILE, "weight = 0", "weight = 0 ; caf\udce9", "not UTF-8"),
        ("check", SCENARIO_FILE, "[expects]", "[gague]\nmain = vector(1, 0)\n[expects]", "[gague]"),
        ("check", SCENARIO_FILE, "[expects]", "[DEFAULT]\nmain = matrix(2, 0; 0, 2)\n[expects]", "[DEFAULT]"),
        ("check", SCENARIO_FILE, "dim = 2", "dim = 2\nnmae = plane", "nmae"),
        ("check", SCENARIO_FILE, "time_dependent = false", "time_dependant = false", "time_dependant"),
        ("check", SCENARIO_FILE, "weight = 0", "weigth = 0", "weigth"),
        ("check", SCENARIO_FILE, "weight = 0", "euler_kiling = true", "euler_kiling"),
        ("check", SCENARIO_FILE, "[expects]", "[gauge]\nmain = vector(0, 0)\nmian = vector(0, 0)\n[expects]", "mian"),
        ("check", SCENARIO_FILE, "dim = 2", "dim = 2\ndefault_chart = nope", "nope"),
        ("linearize", ATLAS_FILE, "[charts]\n", "", "no section headers"),
        ("linearize", ATLAS_FILE, "to_a = exp", "; caf\udce9\nto_a = exp", "not UTF-8"),
        ("linearize", ATLAS_FILE, "[overlap mid]", "[sectoins]\na = 0\n[overlap mid]", "[sectoins]"),
        ("linearize", ATLAS_FILE, "[overlap mid]", "[sections]\nzz = 0\n[overlap mid]", "zz"),
        ("linearize", ATLAS_FILE, "to_b = exp(-sin(m)) * r", "to_b = exp(-sin(m)) * r\nto_c = r", "to_c"),
        ("linearize", ATLAS_FILE, "a = interval(-2, 2)", "a = interval(garbage)", "garbage"),
        ("linearize", ATLAS_FILE, "a = interval(-2, 2)", "a = interval(3, 1)", "lo < hi"),
        ("linearize", ATLAS_FILE, "interval = 0.6, 1.9", "interval = 1.9, 0.6", "lo < hi"),
        (
            "linearize",
            ATLAS_FILE,
            "b = interval(0.5, 3)\n",
            "b = interval(0.5, 3)\nc = interval(1, 4)\n[triple abc]\ncharts = a, b, c\ninterval = 1.5, 1\n",
            "lo < hi",
        ),
        ("check", SCENARIO_FILE, "box(-1, 1; -1, 1)", "box(-1, 1; 0, 1e400)", "finite ends"),
        ("linearize", ATLAS_FILE, "interval = 0.6, 1.9", "interval = 1.0, 1e400", "finite ends"),
        ("linearize", ATLAS_FILE, "a = interval(-2, 2)", "a = interval(-1e400, 2)", "finite ends"),
        ("check", SCENARIO_FILE, "matrix(1, 0", f"matrix(1 + 0*({' + '.join(['x1'] * 3000)}), 0", "deeper than 200"),
        ("check", SCENARIO_FILE, "matrix(1, 0", f"matrix(1{'0' * 400}, 0", "too large for a float"),
        ("check", SCENARIO_FILE, "matrix(1, 0", "matrix(__import__('os'), 0", "whitelisted"),
        ("check", SCENARIO_FILE, "matrix(1, 0", "matrix((lambda: 1)(), 0", "whitelisted"),
        ("check", SCENARIO_FILE, "matrix(1, 0", "matrix(x1.real, 0", "unsupported syntax"),
        ("check", SCENARIO_FILE, "matrix(1, 0", "matrix(x1[0], 0", "unsupported syntax"),
        ("check", SCENARIO_FILE, "matrix(1, 0", "matrix([x1], 0", "unsupported syntax"),
        ("check", SCENARIO_FILE, "matrix(1, 0", "matrix(x1 if x1 else 1, 0", "unsupported syntax"),
        ("linearize", ATLAS_FILE, "to_a = exp(sin(m)) * r", "to_a = r.real", "unsupported syntax"),
        ("check", SCENARIO_FILE, "[expects]", "[gauge]\nmain = vector(1, 1/0)\n[expects]", "'1/0'"),
    ],
    ids=[
        "dim", "box", "weight", "time_dependent", "euler_killing", "conformal", "overlap_charts", "overlap_interval",
        "reversed_box", "empty_charts", "overlap_unknown_chart", "triple_without_transitions",
        "overlap_repeated_chart", "killing_with_nonzero_weight", "no_section_header", "repeated_section",
        "repeated_key", "not_utf8", "unknown_section", "default_section", "unknown_meta_key", "unknown_metric_key",
        "unknown_expects_key", "misspelled_euler_killing", "unknown_gauge_chart", "unknown_default_chart",
        "atlas_no_section_header", "atlas_not_utf8", "atlas_unknown_section", "atlas_unknown_sections_key",
        "overlap_unknown_key", "chart_interval_garbage", "chart_interval_reversed", "overlap_interval_reversed",
        "triple_interval_reversed", "box_infinite_end", "overlap_interval_infinite_end", "chart_interval_infinite_end",
        "expression_too_deep", "literal_too_large", "import_call", "lambda_call", "attribute", "subscript", "list",
        "conditional", "transition_attribute", "constant_gauge_fails",
    ],
)
def test_malformed_file_is_one_line_usage_error(command, text, old, new, needle, tmp_path, capsys):
    assert old in text
    good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
    good.write_text(text)
    bad.write_bytes(text.replace(old, new).encode("utf-8", "surrogateescape"))  # \udce9 writes the byte 0xe9
    assert main([command, str(good)]) == 0
    capsys.readouterr()
    assert main([command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err and "unexpected" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "flat"],
        ["geodesic", "flat", "--state", "0, 0, 1, 0.3, 0.1, -1"],
        ["null-shoot", "schwarzschild", "--point", "pi/2, 0", "--dir", "0, 1", "--q", "1"],
        ["christoffel", "flat", "--count", "2"],
        ["linearize", "moebius"],
    ],
    ids=["check", "geodesic", "null_shoot", "christoffel", "linearize"],
)
def test_an_unwritable_out_fails_before_any_work(argv, tmp_path, monkeypatch, capsys):
    """Each command with --out refuses a path it could not write before it
    loads or runs anything: exit 2, one line on stderr, nothing on stdout."""
    for name in ("_load_scenario", "moebius_transition_atlas"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("loaded before checking --out"))
    for out in (tmp_path / "missing" / "o.txt", tmp_path):
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot write {out}")
        assert len(captured.err.strip().splitlines()) == 1


def test_checking_out_neither_creates_nor_truncates_it(tmp_path, capsys):
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_text("old\n")
    for out in (kept, absent):
        assert main(["geodesic", "flat", "--state", "1, 2", "--out", str(out)]) == 2
        assert "--state needs 6 values" in capsys.readouterr().err
    assert kept.read_text() == "old\n" and not absent.exists()


def _grid_csv(axis1, axis2):
    rows = ["x1, x2, g11, g12, g21, g22"]
    rows += [f"{a!r}, {b!r}, {1.0 + 0.2 * a * a!r}, 0.0, 0.0, 1.0" for a in axis1 for b in axis2]
    return "\n".join(rows) + "\n"


GRID_NODES = [-1.5, -0.5, 0.5, 1.5]
GRID_CSV = _grid_csv(GRID_NODES, GRID_NODES)


@pytest.mark.parametrize(
    "csv_text, needle",
    [
        (GRID_CSV.replace("0.0, 1.0\n", "0.0, abc\n", 1), "line 2"),
        (GRID_CSV.replace(", 1.0\n", "\n", 1), "line 2"),
        (GRID_CSV.replace("0.0, 1.0\n", "0.0, nan\n", 1), "finite"),
        (_grid_csv(GRID_NODES, GRID_NODES[:3]), "axis x2"),
        (GRID_CSV.replace("-1.5, -1.5,", "-1.5, -0.5,", 1), "full tensor grid"),
        ("", "too few columns"),
        (None, "cannot read"),
        (GRID_CSV.replace("g11", "g\udce911"), "not UTF-8"),
    ],
    ids=["non_numeric_cell", "short_row", "non_finite_cell", "three_nodes", "repeated_point", "empty", "missing",
         "not_utf8"],
)
def test_malformed_grid_file_is_one_line_usage_error(csv_text, needle, tmp_path, capsys):
    grid_file = SCENARIO_FILE.replace("matrix(1, 0; 0, 1)", "grid(good.csv)")
    (tmp_path / "good.csv").write_text(GRID_CSV)
    (tmp_path / "good.ini").write_text(grid_file)
    (tmp_path / "bad.ini").write_text(grid_file.replace("good.csv", "bad.csv"))
    if csv_text is not None:
        (tmp_path / "bad.csv").write_bytes(csv_text.encode("utf-8", "surrogateescape"))
    assert main(["check", str(tmp_path / "good.ini")]) == 0
    capsys.readouterr()
    assert main(["check", str(tmp_path / "bad.ini")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.csv" in err and needle in err
    assert len(err.strip().splitlines()) == 1


def test_field_failing_inside_a_chart_box_fails_check_not_load(tmp_path, capsys):
    """sqrt(x1) cannot be evaluated on the half x1 < 0 of the chart box: the
    suites that sample there report the error and the run continues."""
    path = tmp_path / "sqrt.ini"
    path.write_text(SCENARIO_FILE.replace("matrix(1, 0; 0, 1)", "matrix(sqrt(x1), 0; 0, 1)"))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  kernel_suite" in out and "cannot evaluate expression" in out
    argv = ["null-shoot", str(path), "--point", "0.5, 0", "--dir", "0, 1", "--q", "1", "--lambda-max", "0.1"]
    assert main(argv) == 0


@pytest.mark.parametrize("route", ["closed", "numeric"])
def test_singular_base_block_is_numeric_failure_on_both_routes(route, tmp_path, capsys):
    """g_M = diag(x1^2, 1) is singular on x1 = 0: each Christoffel route exits 3."""
    path = tmp_path / "singular.ini"
    path.write_text(SCENARIO_FILE.replace("matrix(1, 0; 0, 1)", "matrix(x1^2, 0; 0, 1)"))
    argv = ["geodesic", str(path), "--christoffel", route, "--state", "0, 0, 1, 0.5, 0.5, -1", "--lambda-max", "0.1"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "numeric failure: metric is not invertible: Singular matrix\n"


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("route", ["closed", "numeric"])
def test_a_constant_singular_block_is_numeric_failure_on_both_routes(route, dim, tmp_path, capsys):
    """g_M = diag(0, 1, ...) everywhere: the closed form's symbols of a
    constant block read no inverse, but its determinant (up to n = 3) or
    LAPACK's inverse (above) is still taken, so each route exits 3 as on a
    block that is singular at one point."""
    path = tmp_path / "constant.ini"
    block = "; ".join(", ".join("1" if i == j > 0 else "0" for j in range(dim)) for i in range(dim))
    box = "; ".join(["-1, 1"] * dim)
    path.write_text(SCENARIO_FILE.replace("dim = 2", f"dim = {dim}").replace("box(-1, 1; -1, 1)", f"box({box})")
                    .replace("matrix(1, 0; 0, 1)", f"matrix({block})"))
    state = ", ".join(["0"] * dim + ["1"] + ["0.5"] * dim + ["-1"])
    argv = ["geodesic", str(path), "--christoffel", route, "--state", state, "--lambda-max", "0.1"]
    assert main(argv) == 3
    assert capsys.readouterr().err == "numeric failure: metric is not invertible: Singular matrix\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_field_evaluating_to_nan_fails_check_without_a_traceback(tmp_path, capsys):
    """inf - inf raises no Python error, so the metric block holds a NaN: the
    base-block rows fail on their NaN samples, and the suite whose linear
    algebra rejects it, the oracle's conditioning gate, is reported as a
    failed row."""
    path = tmp_path / "nan.ini"
    path.write_text(SCENARIO_FILE.replace("matrix(1, 0; 0, 1)", "matrix(1 + 0*(1e308*10 - 1e308*10), 0; 0, 1)"))
    assert main(["check", str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    rows = {row["name"]: row for row in report["checks"]}
    assert not report["passed"]
    for name in ("base_block_symmetry", "base_block_invertible"):
        assert not rows[name]["passed"] and rows[name]["detail"] == "non-finite sample", name
    assert not rows["christoffel_suite"]["passed"] and rows["christoffel_suite"]["detail"].startswith(
        "metric condition number (1-norm) nan")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_sample_fails_its_check(tmp_path, capsys):
    """g_M is NaN where |x1| > 0.18 and finite elsewhere. Every sample of the
    determinant identity, of the Euler proportionality and of the base-block
    rows at such a point is NaN, and a NaN sample fails its check with a
    detail that says so; the condition number in ``base_block_invertible``'s
    detail is taken over the finite blocks only."""
    path = tmp_path / "nan.ini"
    path.write_text(
        SCENARIO_FILE.replace("matrix(1, 0; 0, 1)", "matrix(1 + 0*(1e308*(10*x1) - 1e308*(10*x1)), 0; 0, 1)")
    )
    assert main(["check", str(path), "--format", "json"]) == 1
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)["checks"]}
    for name in ("kk_determinant_identity", "euler_proportionality", "base_block_symmetry", "base_block_invertible"):
        assert not rows[name]["passed"] and rows[name]["detail"] == "non-finite sample", name
    assert "kernel_suite" not in rows


def test_transition_evaluating_to_nan_is_numeric_failure(tmp_path, capsys):
    """to_b is NaN on the whole overlap (and is not the inverse of to_a): the
    run stops with exit 3 instead of printing a zero residual and OK."""
    example = (EXAMPLES / "atlas_twochart.ini").read_text()
    path = tmp_path / "nan_atlas.ini"
    nan_to_b = "to_b = r * exp(0.5 * m) + 0*(1e308*(10*m) - 1e308*(10*m))"
    path.write_text(example.replace("to_b = exp(-sin(m)) * r", nan_to_b))
    assert main(["linearize", str(path)]) == 3
    assert capsys.readouterr().err.startswith("numeric failure:")


@pytest.mark.parametrize("exc", [CarrollError("bare package error"), RuntimeError("a defect")])
def test_errors_outside_the_contract_are_one_line_exit_3(exc, monkeypatch, capsys):
    """Exit 1 means a failed check, so neither a bare CarrollError nor an
    unexpected exception may produce it, or a traceback."""

    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_scenarios", broken)
    assert main(["scenarios", "list"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(exc) in err and len(err.strip().splitlines()) == 1


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_scenarios", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["scenarios", "list"])


GEODESIC_FLAT = ["geodesic", "flat", "--state", "0, 0, 1, 0.3, 0.1, -1"]


@pytest.mark.parametrize("argv", [
    *[[command, "--scenario", "flat"] for command in ("check", "geodesic", "null-shoot", "christoffel", "linearize")],
    ["linearize", "--atlas", "moebius"],
    ["check", "flat", "--tol", "1e-300"],
    ["christoffel", "flat", "--tol", "1e-3"],
    ["christoffel", "flat", "--format", "json"],
    ["linearize", "moebius", "--param", "GM=3"],
    ["linearize", "moebius", "--seed", "9"],
    GEODESIC_FLAT + ["--seed", "7"],
    SHOOT_FLAT + ["--seed", "7"],
    ["check", "flat", "--format", "csv"],
    GEODESIC_FLAT + ["--format", "text"],
    ["linearize", "moebius", "--format", "svg"],
])
def test_removed_option_is_argparse_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the names of the attributes read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "__dict__").setdefault("_reads", set()).add(name)
        return object.__getattribute__(self, name)


# Between them, the argv lists of a command set every option it registers.
EVERY_OPTION = {
    "check": [["check", "schwarzschild", "--param", "GM=0.5", "--seed", "1", "--format", "json", "--out", "r.json"]],
    "geodesic": [
        GEODESIC_FLAT + ["--chart", "cartesian", "--lambda-max", "0.2", "--method", "rk4", "--rk4-step", "0.05",
                         "--tol", "1e-9", "--christoffel", "numeric", "--format", "svg", "--svg-mode", "ulog",
                         "--out", "g.svg"],
        ["geodesic", "flat", "--small-gauge", "--field", "1", "--sign-q", "-1", "--state", "0, 0, 1, 0",
         "--lambda-max", "0.5", "--out", "c.svg"],
    ],
    "null-shoot": [
        ["null-shoot", "schwarzschild", "--param", "GM=0.5", "--point", "pi/2, 0", "--dir", "0, 1", "--q", "1",
         "--t0", "1.5", "--eps", "-1", "--chart", "angular", "--lambda-max", "0.2", "--method", "rk4",
         "--rk4-step", "0.05", "--tol", "1e-9", "--christoffel", "numeric", "--format", "svg",
         "--svg-mode", "ulog", "--out", "o.svg"],
    ],
    "christoffel": [
        ["christoffel", "flat", "--param", "n=2", "--count", "2", "--seed", "3", "--chart", "cartesian",
         "--sign", "-1", "--golden", "--out", "s.csv"],
        ["christoffel", "flat", "--at", "0.1, 0.2, 1"],
    ],
    "linearize": [["linearize", "moebius", "--tol", "1e-6", "--format", "json", "--out", "c.json"]],
    "scenarios": [["scenarios", "list"]],
}


def test_every_registered_option_is_read_by_its_command(tmp_path, monkeypatch, capsys):
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(EVERY_OPTION)
    monkeypatch.chdir(tmp_path)
    for command, argvs in EVERY_OPTION.items():
        read = set()
        for argv in argvs:
            args = parser.parse_args(argv, namespace=_ReadRecorder())
            args._reads = set()  # parsing reads every dest; only the command's reads count
            assert args.fn(args) == 0, argv
            read |= args._reads
        # a positional with a single choice, the `list` of `scenarios list`, carries no value
        registered = {a.dest for a in commands[command]._actions
                      if not isinstance(a, argparse._HelpAction) and not (a.choices and len(a.choices) == 1)}
        assert registered <= read, (command, registered - read)
