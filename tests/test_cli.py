"""Command-line contract: outputs, exit codes, determinism, and the
modules each command loads."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rotwidth.cli import main

TRIANGLE = "-1 0\n2/3 5/3\n7/3 -5/3\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEw:
    def test_paper_triangle(self, tmp_path, capsys):
        poly = tmp_path / "tri.txt"
        poly.write_text(TRIANGLE)
        code, out, _ = run_cli(capsys, "ew", str(poly), "--oracle-radius", "5")
        assert code == 0
        assert "EW = 10/3" in out
        assert "oracle(radius=5) = 10/3 [agrees]" in out
        assert out.startswith("# rotwidth")

    def test_unit_square(self, tmp_path, capsys):
        poly = tmp_path / "sq.txt"
        poly.write_text("0 0\n1 0\n0 1\n1 1\n")
        code, out, _ = run_cli(capsys, "ew", str(poly))
        assert code == 0 and "EW = 1" in out

    def test_malformed_line_number(self, tmp_path, capsys):
        poly = tmp_path / "bad.txt"
        poly.write_text("0 0\n1 2 3\n")
        code, _, err = run_cli(capsys, "ew", str(poly))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "ew", str(tmp_path / "nope.txt"))
        assert code == 2


class TestRotset:
    def test_translation_point_estimate(self, tmp_path, capsys):
        prefix = str(tmp_path / "rs")
        code, out, _ = run_cli(capsys, "rotset", "T(1/3,1/4)", "--grid", "8",
                               "--iters", "40", "--out-prefix", prefix)
        assert code == 0
        inner = (tmp_path / "rs_inner.txt").read_text()
        assert inner  # canonical rational vertices written
        assert "converged fraction = 1.0000" in out
        # the box of a translation is its exact double: one point
        assert (tmp_path / "rs_outer.txt").read_text() == f"{Fraction(1 / 3)} 1/4\n"

    def test_rounding_outside_the_box_is_reported(self, capsys):
        code, out, _ = run_cli(capsys, "rotset", "T(1/3,1/4)", "--grid", "4",
                               "--iters", "5", "--no-meta")
        assert code == 0
        assert ("inner hull leaves the outer box by 5.55112e-17, within the float rounding"
                " tolerance 1.77636e-15 (8 ulps of the box scale)\n") in out

    def test_outer_box_is_certified(self, tmp_path, capsys):
        prefix = str(tmp_path / "box")
        code, out, _ = run_cli(capsys, "rotset", "T(1,-2) (V^2 H^2)^2", "--grid", "8",
                               "--iters", "20", "--no-meta", "--out-prefix", prefix)
        assert code == 0
        assert "certified outer box = [1, 5] x [-2, 2]\n" in out
        assert "EW of the outer box = 4 (certified upper bound)\n" in out
        assert "heuristic" not in out and "displacement bound" not in out
        assert "leaves the outer box" not in out
        assert (tmp_path / "box_outer.txt").read_text() == "1 -2\n5 -2\n5 2\n1 2\n"

    def test_expect_box(self, capsys):
        code, out, _ = run_cli(capsys, "rotset", "V^2 H^2", "--grid", "32",
                               "--iters", "120", "--expect-box", "2")
        assert code == 0
        dist = [line for line in out.splitlines() if "Hausdorff" in line][0]
        assert float(dist.split("=")[1]) < 0.05 * 2

    @pytest.mark.parametrize("bad,caret_pos", [
        ("V^^2", 2),
        ("T(1,", 4),
        ("V^", 2),
        ("T(1/0,1)", 2),
    ])
    def test_parse_error_caret(self, capsys, bad, caret_pos):
        code, _, err = run_cli(capsys, "rotset", bad)
        assert code == 2
        lines = err.splitlines()
        assert lines[1] == bad
        assert lines[2].index("^") == caret_pos

    def test_svg_written(self, tmp_path, capsys):
        svg = tmp_path / "rs.svg"
        code, _, _ = run_cli(capsys, "rotset", "T(0,0)", "--grid", "4",
                             "--iters", "5", "--svg", str(svg), "--no-meta")
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<?xml") and "<svg" in text
        assert "<!--" not in text  # --no-meta strips metadata comments


    def test_nan_profile_exits_before_the_header(self, tmp_path, capsys):
        prof = tmp_path / "nan.txt"
        prof.write_text("0 0\n1/4 nan\n1/2 1\n1 0\n")
        code, out, err = run_cli(capsys, "rotset", f"V H @pl:{prof}", "--grid", "4",
                                 "--iters", "5")
        assert code == 2
        assert out == ""
        assert f"{prof}: profile value nan at t = 1/4 must lie in [0, 1]" in err


class TestRoots:
    def test_conclusive(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--ew", "2221",
                               "--length-upper", "2")
        assert code == 0
        assert "VERDICT: no_roots_above_threshold THRESHOLD: 2221" in out

    def test_inconclusive(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--ew", "1", "--length-upper", "2")
        assert code == 0
        assert "VERDICT: inconclusive" in out

    def test_boundary_inconclusive(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--ew", "2220",
                               "--length-upper", "2")
        assert code == 0
        assert "VERDICT: inconclusive THRESHOLD: 2220" in out

    def test_bad_rational(self, capsys):
        code, _, err = run_cli(capsys, "roots", "--ew", "x", "--length-upper", "2")
        assert code == 2
        assert "not a rational" in err

    def test_zero_denominator(self, capsys):
        code, _, err = run_cli(capsys, "roots", "--ew", "3", "--length-upper", "1/0")
        assert code == 2
        assert "not a rational: '1/0'" in err

    def test_huge_exponent(self, capsys):
        # Fraction would expand 10**10000000 digit by digit
        code, out, err = run_cli(capsys, "roots", "--ew", "1e10000000", "--length-upper", "2")
        assert code == 2
        assert "not a rational: '1e10000000'" in err
        assert out == ""


class TestVerify:
    def test_compare_width_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "compare-width",
                               "--count", "60", "--seed", "7")
        assert code == 0
        assert "60/60" in out and "PASS" in out

    def test_vnhn_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "vnhn", "--n", "4")
        assert code == 0
        assert "4/4" in out

    def test_flow_failure_exit_code(self, capsys):
        # a single large floor leaves a visible gap: exit 1
        code, out, _ = run_cli(capsys, "verify", "--suite", "flow",
                               "--floors", "0.5")
        assert code == 1
        assert "FAIL" in out

    def test_flow_non_finite_field_value_names_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "flow",
                                 "--floors", "0.5,0.25", "--field-value", "inf")
        assert code == 2
        assert "--field-value: bad field 'const:inf'" in err
        assert out == ""

    def test_flow_field_that_moves_nothing_exits_2(self, capsys):
        # every map is the identity: the all-zero series passed vacuously
        code, out, err = run_cli(capsys, "verify", "--suite", "flow",
                                 "--floors", "0.5,0.25", "--field-value", "0")
        assert code == 2
        assert "field 'const:0' moves no grid point" in err
        assert out == ""

    def test_flow_increasing_floors_name_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "flow", "--floors", "0.5,0.9")
        assert code == 2
        assert "--floors: bad floors '0.5,0.9': floors must be non-increasing" in err
        assert out == ""


class TestFlowCommand:
    def test_csv_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "flow", "--floors", "0.5,0.25",
                               "--field", "const:0.1", "--no-meta")
        assert code == 0
        assert "floor,sup_distance,runtime_s" in out
        assert "weakly decreasing: yes" in out

    def test_header_reports_library_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "flow", "--floors", "0.5,0.25", "--no-meta")
        assert code == 0
        assert out.splitlines()[0].endswith(
            "field=const:0.1 floors=0.5,0.25 window=0.0,1.0 margin=0.5")

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("field = const:0.1\nfloors = 0.5,0.25\ngrid = -2:3:41\n")
        out_csv = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "flow", "--config", str(cfg),
                               "--out", str(out_csv), "--no-meta")
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("floors = 0.5\nwat = 1\n")
        code, _, err = run_cli(capsys, "flow", "--config", str(cfg))
        assert code == 2

    def test_bad_config_value_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("field = const:0.1\nfloors = 0.5,abc\n")
        code, _, err = run_cli(capsys, "flow", "--config", str(cfg))
        assert code == 2
        assert "line 2: bad floors '0.5,abc'" in err

    @pytest.mark.parametrize("flag, value", [("--margin", "inf"), ("--floors", "0.5,nan"),
                                             ("--window", "0,inf"), ("--step", "nan"),
                                             ("--step", "0"), ("--floors", "0.5,0.9"),
                                             ("--window", "1,0"), ("--margin", "-1"),
                                             ("--horizon", "0"), ("--horizon", "-1")])
    def test_non_finite_flag_names_the_flag(self, capsys, flag, value):
        args = ["flow", "--floors", "0.5", "--no-meta", flag, value]
        code, out, err = run_cli(capsys, *args)
        assert code == 2
        assert f"{flag}: bad {flag[2:]} {value!r}" in err
        assert "weakly decreasing" not in out

    @pytest.mark.parametrize("spec", ["const:0", "const:1e-300"])
    def test_field_that_moves_nothing_exits_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "flow", "--floors", "0.5,0.25", "--field", spec)
        assert code == 2
        assert f"field {spec!r} moves no grid point" in err
        assert out == ""

    def test_bad_field_spec(self, capsys):
        code, _, err = run_cli(capsys, "flow", "--floors", "0.5", "--field", "lin:1")
        assert code == 2
        assert "unknown field spec" in err


class TestDeterminism:
    def test_rotset_byte_identical(self, capsys):
        args = ("rotset", "V H", "--grid", "16", "--iters", "60",
                "--seed", "3", "--no-meta")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_flow_csv_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run_cli(capsys, "flow", "--floors", "0.5,0.25", "--field",
                    "const:0.1", "--out", str(path), "--no-meta")
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_search_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "search", "--count", "100", "--seed", "5")
        _, out2, _ = run_cli(capsys, "search", "--count", "100", "--seed", "5")
        assert out1 == out2
        assert "no maximality claim" in out1


@pytest.mark.parametrize("argv, message", [
    (["rotset", "V", "--grid", "1"], "grid must be >= 2"),
    (["rotset", "V", "--iters", "0"], "iterate count must be >= 1"),
    (["ew", "{triangle}", "--oracle-radius", "0"], "oracle radius must be >= 1"),
    (["verify", "--suite", "power-scaling", "--k", "0"], "power must be >= 1"),
    (["verify", "--suite", "vnhn", "--n", "0"], "max_n must be >= 1, got 0"),
    (["verify", "--suite", "compare-width", "--count", "0"],
     "polygon count must be >= 1, got 0"),
    (["search", "--count", "0"], "--count must be >= 1, got 0"),
    (["search", "--count", "-3"], "--count must be >= 1, got -3"),
    (["rotset", "V", "--grid", "4", "--iters", "5", "--expect-box", "0"],
     "--expect-box must be >= 1, got 0"),
    (["rotset", "V H", "--grid", "4", "--iters", "5", "--expect-box", "-1"],
     "--expect-box must be >= 1, got -1"),
    (["rotset", "V", "--grid", "4", "--iters", "5", "--sampler", "halton", "--seed", "-1"],
     "seed must be >= 0 for the Halton sampler, got -1"),
    (["verify", "--suite", "vnhn", "--n", "2", "--out", "{tmp}/x.csv"],
     "--out applies only to --suite flow, not vnhn"),
    (["verify", "--suite", "compare-width", "--count", "2", "--svg", "{tmp}/a.svg"],
     "--svg applies only to --suite vnhn, not compare-width"),
])
def test_range_error_prints_nothing_on_stdout(tmp_path, capsys, argv, message):
    poly = tmp_path / "tri.txt"
    poly.write_text(TRIANGLE)
    code, out, err = run_cli(capsys, *(a.format(triangle=poly, tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tri.txt"]


class TestFlagContract:
    def test_unknown_flag_rejected(self, capsys, tmp_path):
        poly = tmp_path / "sq.txt"
        poly.write_text("0 0\n1 0\n0 1\n1 1\n")
        with pytest.raises(SystemExit) as err:
            main(["ew", str(poly), "--bogus"])
        assert err.value.code == 2

    def test_vnhn_scatter_svg(self, tmp_path, capsys):
        svg = tmp_path / "pairs.svg"
        code, out, _ = run_cli(capsys, "verify", "--suite", "vnhn", "--n", "3",
                               "--svg", str(svg), "--no-meta")
        assert code == 0
        assert svg.read_text().count("<circle") == 3


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs one command in a fresh interpreter, then prints which of NumPy,
# SciPy and scipy.integrate the process has loaded.
FOOTPRINT = """
import json, sys
from rotwidth import cli
if sys.argv[1:]:
    cli.main(sys.argv[1:])
print(json.dumps(sorted({"numpy", "scipy", "scipy.integrate"} & set(sys.modules))))
"""
NO_ARRAYS, NUMPY, SCIPY = [], ["numpy"], ["numpy", "scipy", "scipy.integrate"]


@pytest.mark.parametrize("argv, loaded", [
    ([], NO_ARRAYS),
    (["ew", "{triangle}"], NO_ARRAYS),
    (["search", "--count", "20"], NO_ARRAYS),
    (["verify", "--suite", "compare-width", "--count", "2"], NO_ARRAYS),
    (["roots", "--ew", "2221", "--length-upper", "2"], NUMPY),
    (["rotset", "V H", "--grid", "4", "--iters", "5"], NUMPY),
    (["rotset", "V", "--grid", "4", "--iters", "5", "--sampler", "halton", "--seed", "-1"],
     NUMPY),
    (["verify", "--suite", "vnhn", "--n", "1"], NUMPY),
    (["verify", "--suite", "power-scaling", "--k", "1", "--grid", "4", "--iters", "5"], NUMPY),
    (["flow", "--floors", "0.5", "--no-meta"], SCIPY),
    (["verify", "--suite", "flow", "--floors", "0.5"], SCIPY),
])
def test_command_loads_only_the_layers_it_runs(tmp_path, argv, loaded):
    poly = tmp_path / "tri.txt"
    poly.write_text(TRIANGLE)
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT,
                           *(a.format(triangle=poly) for a in argv)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == loaded
